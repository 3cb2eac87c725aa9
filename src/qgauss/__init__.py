"""Deterministic-chaos generator for the q-Gaussian family, with a
transform-based reference sampler, closed-form distribution functions, and
a Monte Carlo goodness-of-fit harness.
"""

from .distribution import (
    QSpec,
    ccdf,
    cdf,
    cdf_array,
    cdf_array_direct,
    joint_pdf,
    make_spec,
    pdf,
    quantile,
    support,
    variance,
)
from .generator import (
    GeneratorState,
    SampleBatch,
    UniformStream,
    derive_seed,
    gbmm_generate,
    gbmm_sample,
    generate,
    init,
    step,
)
from .maps import (
    CirclePoint,
    MapConfig,
    chebyshev_pair,
    tri_map,
    z_map,
    z_map_derivative,
)
from .specfun import beta, log_gamma, q_exp, q_ln
from .stats import (
    GofResult,
    TrialRow,
    TrialTable,
    autocorrelation,
    gof_test,
    lyapunov,
    mc_p_value,
    run_trial_table,
    sup_weighted_statistic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # specfun
    "q_exp", "q_ln", "log_gamma", "beta",
    # maps
    "CirclePoint", "MapConfig", "chebyshev_pair", "tri_map",
    "z_map", "z_map_derivative",
    # distribution
    "QSpec", "make_spec", "support", "pdf", "cdf", "ccdf",
    "cdf_array", "cdf_array_direct", "variance", "quantile", "joint_pdf",
    # generator
    "GeneratorState", "init", "step", "generate",
    "SampleBatch", "gbmm_sample", "gbmm_generate", "UniformStream",
    "derive_seed",
    # stats
    "GofResult", "sup_weighted_statistic", "mc_p_value", "gof_test",
    "autocorrelation", "lyapunov", "TrialRow", "TrialTable",
    "run_trial_table",
]
