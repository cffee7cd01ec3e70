"""In-memory span tracer that wraps gencheb's public callables from outside.

`Tracer.install()` replaces every public function and every public method
(plain, class and static) defined in the traced gencheb modules by a
wrapper that records one span per call: name, start, end and the span that
was open when the call began.  References to the same functions held by
other gencheb modules (`from .linalg import ...`) and by module-level dicts
are swapped as well, so internal calls are seen too.  `uninstall()` puts
every original back.  Nothing under `src/` is modified.

Spans are appended to flat arrays in call order, so within one process a
span's index order is its start order and every parent precedes its
children.  They stay in memory until `dump()` writes them as one `.npz`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: Modules whose public callables are traced, by their short layer name.
LAYERS = ("cheb_kernel", "linalg", "solvers", "spectrum", "genmat", "cli")

MATVEC = "linalg.ComplexSparseMatrix.matvec"


def _matvec_bytes(args, kwargs):
    """Bytes one CSR product reads and writes, computed from array sizes:
    values, column indices, row offsets, the input and the output vector."""
    a = args[0]
    return (a.values.nbytes + a.col_indices.nbytes + a.row_offsets.nbytes
            + 16 * (a.n_rows + a.n_cols))


#: Per-call byte tallies, keyed by span name.
TALLIES = {MATVEC: _matvec_bytes}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tally: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (a call into some layer)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        measure = TALLIES.get(name)
        tally = self.tally

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if measure is not None:
                tally[name] += measure(args, kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        swapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"gencheb.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    swapped[id(obj)] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gencheb" or mod_name.startswith("gencheb.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in swapped:
                    self._set(mod, attr, swapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in swapped:
                            self._undo.append((obj, key, value))
                            obj[key] = swapped[id(value)]

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def spans(self) -> "Spans":
        if self._stack:
            raise RuntimeError("spans requested while a span is still open")
        return Spans(
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int64).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            dict(self.tally),
        )


class Spans:
    """Spans of one process, with the queries the layer metrics need."""

    def __init__(self, names, name_id, parent, start, end, tally):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.tally = tally

    def dump(self, path) -> None:
        extra = json.dumps({"names": self.names, "tally": self.tally})
        np.savez(path, name_id=self.name_id, parent=self.parent,
                 start=self.start, end=self.end, extra=np.array(extra))

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            extra = json.loads(str(data["extra"]))
            return cls(extra["names"], data["name_id"], data["parent"],
                       data["start"], data["end"], extra["tally"])

    def mask(self, select) -> np.ndarray:
        """Spans whose name is in `select` (a set) or satisfies it (a callable)."""
        test = select if callable(select) else select.__contains__
        ids = [i for i, n in enumerate(self.names) if test(n)]
        return np.isin(self.name_id, ids)

    def _inside(self, cand: np.ndarray, within) -> np.ndarray:
        """Restrict candidates to spans strictly inside a top-most `within` span."""
        roots = self.mask(within)
        cand = cand & ~roots
        r_start, r_end = self._topmost(roots)
        idx = np.flatnonzero(cand)
        j = np.searchsorted(r_start, self.start[idx], side="right") - 1
        ok = j >= 0
        ok[ok] = self.end[idx[ok]] <= r_end[j[ok]]
        out = np.zeros_like(cand)
        out[idx[ok]] = True
        return out

    def _topmost(self, sel: np.ndarray):
        """Start and end of selected spans not nested in another selected one."""
        idx = np.flatnonzero(sel)
        s, e = self.start[idx], self.end[idx]
        if not idx.size:
            return s, e
        prev_end = np.maximum.accumulate(np.concatenate(([-np.inf], e[:-1])))
        top = s >= prev_end
        return s[top], e[top]

    def count(self, select, within=None) -> int:
        sel = self.mask(select)
        if within is not None:
            sel = self._inside(sel, within)
        return int(sel.sum())

    def covered(self, select, within=None) -> float:
        """Wall time covered by the selected spans, nested repeats counted once."""
        sel = self.mask(select)
        if within is not None:
            sel = self._inside(sel, within)
        s, e = self._topmost(sel)
        return float(np.sum(e - s))

    def durations(self, select) -> np.ndarray:
        sel = self.mask(select)
        return self.end[sel] - self.start[sel]

    def first_start(self, select) -> float | None:
        idx = np.flatnonzero(self.mask(select))
        return float(self.start[idx[0]]) if idx.size else None

    def layer_self(self, layer: str, roots) -> float:
        """Time inside `roots` spent in `layer`'s own code: the roots' covered
        time minus the time covered by spans of other layers inside them."""
        prefix = layer + "."
        foreign = lambda n: not n.startswith(prefix)
        return self.covered(roots) - self.covered(foreign, within=roots)
