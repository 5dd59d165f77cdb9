"""Cost-sensitive training for sparse detection.

The core idea: when a model is evaluated with micro F-beta over sparse
positive classes, the value of one more correct negative prediction
relative to one more correct positive changes as training progresses.
Scaling every negative instance's loss by that ratio (estimated per batch
from expected confusion counts) keeps plain cross-entropy training aligned
with the F-beta objective, with no extra hyper-parameter.

Modules: ``metrics`` (confusion counts, F-beta, marginal utilities),
``scaling`` (exact and batch-estimated weights), ``model`` (softmax
classifiers with analytic gradients), ``losses`` (weighting strategies),
``data`` (synthetic generation, file IO, samplers), ``trainer`` (training
loop with dev selection), ``harness`` (multi-seed experiments) and ``cli``.
"""

from .data import (
    Dataset,
    GeneratorConfig,
    StratifiedSampler,
    UnderSampler,
    UniformSampler,
    batches,
    generate,
    load,
    save,
)
from .harness import (
    Arm,
    ExperimentConfig,
    FileSource,
    ModelConfig,
    SyntheticSource,
    best_k_test_score,
    beta_sweep,
    grid_search,
    reaggregate,
    run_experiment,
)
from .losses import Adaptive, Focal, LossOutput, Static, Vanilla, compute_loss
from .metrics import (
    ConfusionStats,
    accuracy,
    confusion_from_predictions,
    f_beta,
    marginal_utility_accuracy,
    marginal_utility_fbeta,
    precision,
    recall,
)
from .model import (
    ModelParams,
    ModelSpec,
    backward,
    forward,
    init_params,
    load_params,
    predict,
    save_params,
)
from .scaling import BatchPrediction, batch_expected_counts, w_batch, w_exact
from .trainer import SGD, Adam, RunReport, TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Adaptive",
    "Arm",
    "BatchPrediction",
    "ConfusionStats",
    "Dataset",
    "ExperimentConfig",
    "FileSource",
    "Focal",
    "GeneratorConfig",
    "LossOutput",
    "ModelConfig",
    "ModelParams",
    "ModelSpec",
    "RunReport",
    "SGD",
    "Static",
    "StratifiedSampler",
    "SyntheticSource",
    "TrainConfig",
    "UnderSampler",
    "UniformSampler",
    "Vanilla",
    "accuracy",
    "backward",
    "batch_expected_counts",
    "batches",
    "best_k_test_score",
    "beta_sweep",
    "compute_loss",
    "confusion_from_predictions",
    "evaluate",
    "f_beta",
    "forward",
    "generate",
    "grid_search",
    "init_params",
    "load",
    "load_params",
    "marginal_utility_accuracy",
    "marginal_utility_fbeta",
    "precision",
    "predict",
    "reaggregate",
    "recall",
    "run_experiment",
    "save",
    "save_params",
    "train",
    "w_batch",
    "w_exact",
]
