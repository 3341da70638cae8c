"""Online inverse reinforcement learning for linear agents.

Observes position/input trajectories of a linear-quadratic demonstrator,
simultaneously estimates its state and dynamics parameters from output
measurements, and recovers its cost function by inverse-Bellman-error
least squares with condition-number data selection and quality-driven
purging.
"""

from .errors import (
    ConfigError,
    IrlobsError,
    NumericOverflowError,
    RankDeficiencyError,
    SampleTimeError,
    SolverFailureError,
    WindowUnderflowError,
)
from .estimator import (
    AdaptiveObserver,
    EstimatorGains,
    ParamHistoryStack,
    ThetaVector,
    integral_regressor,
    integral_residual,
)
from .experiment import (
    ExperimentConfig,
    OnlineIrl,
    RunReport,
    default_config,
    load_config,
    run_experiment,
    write_report,
)
from .irl import (
    Entry,
    FeatureBasis,
    IrlHistoryStack,
    data_select,
    entry_rows,
    eval_features,
    ideal_weights,
    solve_weights,
)
from .numerics import (
    GramStack,
    SampledSignal,
    least_squares,
    rk4_step,
    solve_are,
)
from .plant import (
    CostFunction,
    Demonstrator,
    LinearPlant,
    make_demonstrator,
    optimal_action,
    query,
)
from .purge import (
    PurgeState,
    QualityConfig,
    purge_policy,
    quality_eta1,
    quality_eta2,
    smooth_velocity,
)

__version__ = "0.1.0"
