"""Dynamic class queue embedding learning, desk scale.

Classification-based representation learning where the negative class
weights live in a FIFO queue of feedforward-generated vectors from an
EMA-shadowed copy of the extractor, plus a full-FC CosFace baseline, a
deterministic synthetic long-tailed dataset, and an evaluation bench.
"""

__version__ = "0.1.0"

from .errors import (
    CheckpointError,
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    DcqError,
    NumericError,
    ShapeError,
    TrainingDiverged,
)
from .numerics import Tape, Tensor, finite_difference_check
from .model import MlpParams, extract_features, init_extractor
from .synthdata import (
    EvalProtocol,
    IdentityUniverse,
    LongTailSpec,
    PairBatch,
    PairPlan,
    assign_longtail_counts,
    build_eval_protocol,
    build_universe,
    draw_instance,
    make_pair_batch,
)
from .class_queue import ClassQueue, EmaGenerator, dcq_cosface_loss, dcq_logits_with_mask
from .baseline import FcHead, fc_cosface_loss, filter_head_classes
from .trainer import TrainConfig, TrainResult, lr_at_step, run_training, sgd_momentum_step
from .evalbench import (
    AlignmentReport,
    CostReport,
    evaluate_protocol,
    head_cost_report,
    run_experiment_grid,
    tail_alignment_diagnostic,
    verification_accuracy,
)

__all__ = [
    "__version__",
    "AlignmentReport", "CheckpointError", "CheckpointIntegrityError",
    "CheckpointVersionError", "ClassQueue", "ConfigError", "ContractError",
    "CostReport", "DcqError", "EmaGenerator", "EvalProtocol", "FcHead",
    "IdentityUniverse", "LongTailSpec", "MlpParams",
    "NumericError", "PairBatch", "PairPlan", "ShapeError", "Tape", "Tensor",
    "TrainConfig", "TrainResult", "TrainingDiverged",
    "assign_longtail_counts", "build_eval_protocol", "build_universe",
    "dcq_cosface_loss", "dcq_logits_with_mask", "draw_instance",
    "evaluate_protocol", "extract_features", "fc_cosface_loss",
    "filter_head_classes", "finite_difference_check", "head_cost_report",
    "init_extractor", "lr_at_step",
    "make_pair_batch", "run_experiment_grid", "run_training",
    "sgd_momentum_step", "tail_alignment_diagnostic", "verification_accuracy",
]
