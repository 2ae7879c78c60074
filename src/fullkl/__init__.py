"""Hyperparameter-free full-KL losses for label distribution learning.

The package replaces the conventional weighted sum "distribution KL +
lambda * L1 expectation error" with a sum of three KL divergences on a
common scale — distribution KL, Gaussian-moment KL, and a shift-KL
smoothness term — so no balancing hyperparameter is needed.  It ships
analytic logit gradients, independent numeric oracles that verify them, a
minimal manually backpropagated MLP trainer, synthetic/CSV datasets, and a
seeded experiment CLI (``fullkl``).
"""

from .grid import (
    LabelGrid,
    Moments,
    Pmf,
    discretize_gaussian,
    moments,
    softmax,
)
from .losses import (
    FAMILY_FULL_KL,
    FAMILY_REFERENCE,
    LossBreakdown,
    LossSpec,
    full_kl_grad,
    full_kl_loss,
    gaussian_kl,
    kl_div,
    reference_grad,
    reference_loss,
    smoothness,
)
from .verify import (
    fd_grad,
    fd_grad_rows,
    gaussian_kl_sweep,
    gradient_fidelity,
    numeric_gaussian_kl,
    run_all_checks,
)
from .model import (
    Metrics,
    MlpParams,
    OptimizerState,
    TrainConfig,
    TrainingDivergedError,
    TrainResult,
    evaluate,
    forward,
    init_mlp,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_run,
    train_step,
)
from .data import Dataset, gen_synthetic, load_csv, save_csv, split
from .runner import (
    ComparisonResult,
    ConfigError,
    ExperimentResult,
    RunConfig,
    compare,
    load_config,
    main,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "LabelGrid", "Moments", "Pmf",
    "discretize_gaussian", "moments", "softmax",
    # losses
    "FAMILY_FULL_KL", "FAMILY_REFERENCE", "LossBreakdown", "LossSpec",
    "full_kl_grad", "full_kl_loss", "gaussian_kl", "kl_div",
    "reference_grad", "reference_loss", "smoothness",
    # verify
    "fd_grad", "fd_grad_rows", "gaussian_kl_sweep",
    "gradient_fidelity", "numeric_gaussian_kl", "run_all_checks",
    # model
    "Metrics", "MlpParams", "OptimizerState", "TrainConfig",
    "TrainingDivergedError", "TrainResult", "evaluate", "forward", "init_mlp",
    "load_checkpoint", "predict", "save_checkpoint", "train_run", "train_step",
    # data
    "Dataset", "gen_synthetic", "load_csv", "save_csv", "split",
    # runner
    "ComparisonResult", "ConfigError", "ExperimentResult", "RunConfig",
    "compare", "load_config", "main", "run_experiment",
]
