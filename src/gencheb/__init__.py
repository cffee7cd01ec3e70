"""Deltoid-based Chebyshev acceleration of stationary iterations.

A stationary iteration y -> M y + g with complex spectrum can be
accelerated by a three-term scheme built on two-variable Chebyshev-type
polynomials whose invariant region is a deltoid.  When eigenvalue
quotients fall outside that region, a k-power transform (M -> M^k with a
matching right-hand side) pulls them in.  This package provides the
polynomial kernels, sparse linear algebra, the iteration schemes,
spectrum classification with k selection and rate prediction, seeded
random test-system generators, and an experiment CLI.
"""

__version__ = "0.1.0"

from .cheb_kernel import (
    ChebCoefficientStream,
    deltoid_contains,
    eval_f,
    membership_defect,
    phi1,
    power_preimage_contains,
)
from .errors import (
    DimensionMismatch,
    Divergence,
    GenChebError,
    InapplicableSpectrum,
    MissingLambda1,
    MissingTildeData,
    NoConvergence,
    NotConverged,
    UnreadableMatrix,
)
from .genmat import (
    Example33Fixture,
    GeneratedSystem,
    NormalMatrixSpec,
    assemble_normal_system,
    example33_fixture,
    random_spectrum,
    write_generated_system,
)
from .linalg import (
    ComplexSparseMatrix,
    PoweredOperator,
    as_vector,
    geometric_sum_apply,
    read_matrix_market,
    read_vector_market,
    write_matrix_market,
    write_vector_market,
)
from .solvers import (
    ConvergenceTrace,
    IterationSystem,
    basic_iterate,
    generalized_chebyshev_iterate,
    run,
    solve,
    transform_system,
)
from .spectrum import (
    Classification,
    SpectrumInfo,
    SpectrumReport,
    alpha_from_lambda1,
    asymptotic_rate_g,
    build_report,
    classify_dominant,
    estimate_dominant_eigenvalue,
    feasibility_threshold,
    mu_max,
    select_k_bound,
    select_k_geometric,
)
