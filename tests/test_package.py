"""The public namespace of the package."""

import segboost

PUBLIC = {
    "IGNORE_LABEL", "BORDER_MODES", "POLICIES", "KL_MODES", "LOSSES", "CSV_HEADER",
    "TensorFormatError", "ValidationError", "LabelRangeError", "TrainingDiverged",
    "VicinitySpec", "OpCounter", "BoostedLabel", "BoostReport", "GaussianPosterior",
    "ConfusionMatrix", "SynthDataset", "LinearModel", "SimConfig", "TrainResult",
    "one_hot", "argmax_labels", "validate_probmap", "read_tensor", "write_tensor",
    "vote_naive", "vote_integral", "vote_uniform", "confidence", "adaptive_weights",
    "blend", "boost", "boost_report", "miou", "kl_gaussian_product", "gap_bound",
    "risk_upper_bound", "empirical_discrepancy", "discrepancy_risk_bound", "threshold_rule",
    "linear_rule", "generate", "generate_from_config", "forward", "cross_entropy_and_grad",
    "evaluate_pair", "train_cps", "train_supervised", "ablate", "rows_to_csv", "label_palette",
    "labels_to_gray", "gray_to_labels", "write_pgm", "read_pgm",
}


def test_all_is_pinned_and_resolves():
    assert len(segboost.__all__) == len(set(segboost.__all__))
    assert set(segboost.__all__) == PUBLIC
    for name in segboost.__all__:
        assert getattr(segboost, name) is not None
