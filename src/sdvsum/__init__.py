"""Script-driven video summarization: a cross-modal attention frame scorer
with its training, selection and evaluation protocols, on a small
reverse-mode autodiff core.
"""

from .autodiff import Node, ShapeError, Tape, matrix
from .config import RunConfig, parse_config
from .datasets import (
    DatasetManifest,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_split,
    write_manifest,
)
from .errors import (
    ConfigError,
    ConfigMismatchError,
    DataFormatError,
    LabelError,
    ManifestError,
    NumericError,
    UsageError,
)
from .metrics import (
    EvalResult,
    OverlapMatrix,
    average_ground_truth,
    evaluate_generic,
    evaluate_script_driven,
    fscore_binary,
    kendall_tau_b,
    overlap_matrix,
    spearman_rho,
)
from .model import (
    ModelConfig,
    attention_matrices,
    cross_modal_attention,
    init_weights,
    load_checkpoint,
    make_score_fn,
    model_forward,
    parameter_count,
    positional_encoding,
    save_checkpoint,
    score_frames,
)
from .rng import Rng
from .sdve import read_embeddings, write_embeddings
from .selection import fixed_fragmentation, fragment_knapsack, select_top_fraction
from .training import (
    OptimizerState,
    TrainConfig,
    TrainReport,
    adam_step,
    bce_loss,
    mse_loss,
    train_run,
)

__version__ = "0.1.0"
