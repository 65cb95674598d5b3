"""Heavy-ball and aggregated heavy-ball optimization with verified guarantees."""

from .optim import (
    AggConfig,
    averaging_update,
    init,
    step,
    virtual_coefficients,
    virtual_iterate,
)
from .theory import (
    EffectiveBetas,
    TheoryConstants,
    bound_convex,
    bound_nonconvex,
    check_convex_conditions,
    check_nonconvex_condition,
    constants,
    effective_betas,
    stepsize_convex,
    stepsize_nonconvex,
)
from .problems import (
    Dataset,
    Problem,
    logreg_l2,
    logreg_nonconvex,
    quadratic,
    rosenbrock,
    spectral_norm,
)
from .libsvm import (
    LibsvmFormatError,
    LibsvmRecord,
    ParseResult,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
    to_dataset,
)
from .harness import (
    Reference,
    RunConfig,
    Trace,
    TuningError,
    VerificationReport,
    VerificationRefused,
    build_problem,
    export_trace,
    read_trace,
    reference_solution,
    run,
    tune,
    verify_bounds,
)

__version__ = "0.1.0"
