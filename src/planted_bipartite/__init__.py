"""Detection toolkit and simulation lab for planted bipartite communities.

Decide between a bipartite Erdos-Renyi graph with edge probability p0 and
the presence of an unknown k1 x k2 block with elevated probability p0 +
delta.  The package provides the exact binomial kernel machinery, the rate
functions governing the separation level, three test statistics with
analytic or calibrated thresholds, second-moment lower bounds, and a
deterministic Monte Carlo harness.
"""

from .binomial_kernel import BennettKernel, binomial_tail, gamma, nu, w_stat, z_threshold_to_count
from .detectors import (
    DetectorKind,
    DetectorTag,
    ThresholdMode,
    ThresholdSpec,
    calibrate_threshold,
    statistic,
)
from .errors import (
    BracketError,
    BudgetError,
    ConfigError,
    EmptyConditionError,
    FormatError,
    ParameterError,
    PlantedBipartiteError,
)
from .graph_model import (
    AdjacencyMatrix,
    PlantedSupport,
    ProblemShape,
    SignalConfig,
    read_matrix,
    sample_null,
    sample_planted,
    sample_planted_uniform_support,
    write_matrix,
)
from .harness import (
    ExperimentConfig,
    RiskEstimate,
    bisect_delta_star,
    emit_results,
    estimate_risk,
    phase_diagram,
    power_sweep,
)
from .lower_bound import (
    SecondMomentResult,
    risk_lower_bound,
    second_moment_exact,
    second_moment_exp_bounds,
    second_moment_summary,
    tv_exact,
)
from .rates import (
    Branch,
    RateBundle,
    RateConstants,
    beta,
    delta_star_bounds,
    density_assumption,
    log_binom,
    phi,
    psi,
    rate_bundle,
)

__version__ = "0.1.0"
