"""koopest: operator-based identification of stochastic dynamics.

Least-squares estimation of finite-dimensional Koopman matrices from
trajectory data, Gram-duality construction of the adjoint transfer
(Perron-Frobenius) matrix, sample-complexity error bounds with empirical
calibration, and a seeded, fully reproducible experiment harness.
"""

from .basis import (
    DEFAULT_QUADRATURE_ORDER,
    Dictionary,
    Domain,
    GramMatrix,
    evaluate,
    evaluate_many,
    gauss_legendre_nodes,
    gram,
    grlex_exponents,
    make_monomial_dictionary,
    monomial_name,
    unit_box,
)
from .bounds import (
    BoundReport,
    BoundTerms,
    bound_terms,
    koopman_error_bound,
)
from .dynamics import (
    ClosedQuadraticParams,
    DivergenceError,
    NoiseModel,
    SampleSet,
    StochasticSystem,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    koopman_apply_mc,
    make_closed_quadratic,
    make_vanderpol,
    simulate,
    step_pairs,
    trajectory_chunks,
)
from .estimator import (
    MomentPair,
    OperatorEstimate,
    ResidualStats,
    SampleFloorError,
    accumulate,
    closure_check,
    estimate_koopman,
    residuals,
    sample_floor,
)
from .experiments import (
    ErrorCurve,
    ExperimentConfig,
    config_from_dict,
    derive_seed,
    fit_loglog_slope,
    load_config,
    run_bound_calibration,
    run_closure,
    run_pf_pipeline,
    run_sweep,
)
from .pf import PFEstimate, conjugate_stack, duality_check, koopman_to_pf, pf_apply_integral_mc
from .seeding import make_rng, mix_seed

__version__ = "0.1.0"
