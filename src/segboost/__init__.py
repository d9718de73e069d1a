"""Uncertainty boosting for segmentation pseudo labels.

The library turns a per-pixel class probability map into a softened
pseudo label: the argmax one-hot is blended with regional class-vote
frequencies, weighted per image by a confidence score derived from the
prediction entropy. A small cross-supervision simulator and PAC-Bayes
style bound calculators sit alongside for end-to-end experiments.

Typical use::

    import numpy as np
    from segboost import VicinitySpec, boost

    pred = np.load("probs.npy")          # (H, W, K) float32, rows sum to 1
    label = boost(pred, VicinitySpec(5, 5), policy="ruv")
    np.save("boosted.npy", label.data)
"""

from .booster import POLICIES, BoostedLabel, BoostReport, blend, boost, boost_report
from .bounds import (
    KL_MODES,
    LOSSES,
    GaussianPosterior,
    discrepancy_risk_bound,
    empirical_discrepancy,
    gap_bound,
    kl_gaussian_product,
    linear_rule,
    risk_upper_bound,
    threshold_rule,
)
from .confidence import adaptive_weights, confidence
from .metrics import ConfusionMatrix, miou
from .pgm import gray_to_labels, label_palette, labels_to_gray, read_pgm, write_pgm
from .simulate import (
    CSV_HEADER,
    LinearModel,
    SimConfig,
    SynthDataset,
    TrainingDiverged,
    TrainResult,
    ablate,
    cross_entropy_and_grad,
    evaluate_pair,
    forward,
    generate,
    generate_from_config,
    rows_to_csv,
    train_cps,
    train_supervised,
)
from .tensors import (
    IGNORE_LABEL,
    LabelRangeError,
    TensorFormatError,
    ValidationError,
    argmax_labels,
    one_hot,
    read_tensor,
    validate_probmap,
    write_tensor,
)
from .voting import (
    BORDER_MODES,
    OpCounter,
    VicinitySpec,
    vote_integral,
    vote_naive,
    vote_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "IGNORE_LABEL",
    "BORDER_MODES",
    "POLICIES",
    "KL_MODES",
    "LOSSES",
    "CSV_HEADER",
    "TensorFormatError",
    "ValidationError",
    "LabelRangeError",
    "TrainingDiverged",
    "VicinitySpec",
    "OpCounter",
    "BoostedLabel",
    "BoostReport",
    "GaussianPosterior",
    "ConfusionMatrix",
    "SynthDataset",
    "LinearModel",
    "SimConfig",
    "TrainResult",
    "one_hot",
    "argmax_labels",
    "validate_probmap",
    "read_tensor",
    "write_tensor",
    "vote_naive",
    "vote_integral",
    "vote_uniform",
    "confidence",
    "adaptive_weights",
    "blend",
    "boost",
    "boost_report",
    "miou",
    "kl_gaussian_product",
    "gap_bound",
    "risk_upper_bound",
    "empirical_discrepancy",
    "discrepancy_risk_bound",
    "threshold_rule",
    "linear_rule",
    "generate",
    "generate_from_config",
    "forward",
    "cross_entropy_and_grad",
    "evaluate_pair",
    "train_cps",
    "train_supervised",
    "ablate",
    "rows_to_csv",
    "label_palette",
    "labels_to_gray",
    "gray_to_labels",
    "write_pgm",
    "read_pgm",
]
