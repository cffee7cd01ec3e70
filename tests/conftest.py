"""Shared test configuration."""

import threading
from collections import Counter

import pytest
from hypothesis import settings

from gencheb.linalg import ComplexSparseMatrix

# No per-example deadline: wall time per example varies with host load (by
# up to 30% on shared machines), so a deadline fails examples at random.
settings.register_profile("gencheb", deadline=None)
settings.load_profile("gencheb")


@pytest.fixture
def product_counts(monkeypatch):
    """The sparse products each matrix (by id) makes while the test runs,
    each counted once, at the outermost entry that made it on its thread:
    `matvec`, `_into`, or a product that `_bind` returned."""
    counts, lock, local = Counter(), threading.Lock(), threading.local()

    def counted(matrix, product, *args):
        inside = local.__dict__.setdefault("inside", [])
        if not inside:
            with lock:
                counts[id(matrix)] += 1
        inside.append(matrix)
        try:
            return product(*args)
        finally:
            inside.pop()

    for name in ("matvec", "_into"):
        entry = getattr(ComplexSparseMatrix, name)
        monkeypatch.setattr(ComplexSparseMatrix, name, lambda self, *args, entry=entry:
                            counted(self, entry, self, *args))
    bind = ComplexSparseMatrix._bind

    def counting_bind(self, src, out):
        product = bind(self, src, out)
        return lambda: counted(self, product)

    monkeypatch.setattr(ComplexSparseMatrix, "_bind", counting_bind)
    return counts
