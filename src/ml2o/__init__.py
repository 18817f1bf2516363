"""Meta-adaptive training for coordinate-wise learned optimizers.

The package trains a small recurrent update rule on synthetic tasks, either
plainly or through a nested one-step-adaptation objective, adapts it for a
few steps at test time, and compares both against direct-transfer and
from-scratch baselines on out-of-distribution tasks.
"""

from .cell import (
    CheckpointError,
    OptimizerParams,
    UnrollState,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .harness import (
    ComparisonTable,
    RunRecord,
    TrainingCache,
    adapt_sweep,
    compare_methods,
    confidence_interval,
    evaluate,
    interpolate_eval,
    min_log_loss,
)
from .numeric import RngStream, gauss_sample, uniform_mixture_sample
from .tasks import (
    OptimizeeTask,
    TaskDistribution,
    sample_task,
    sample_theta0,
)
from .theory import (
    GapReport,
    GrowthReport,
    LipschitzProfile,
    gradient_gap_growth,
    measure_gaps,
    quadratic_lipschitz_profile,
)
from .train import (
    DivergenceError,
    MetaConfig,
    TrainLog,
    adapt,
    train_ml2o,
    train_plain_l2o,
)
from .unroll import (
    GRAD_MODES,
    UnrollDivergedError,
    UnrollResult,
    jacobian_recursive,
    maml_grad,
    maml_objective,
    meta_grad,
    unroll,
)

__version__ = "0.1.0"
