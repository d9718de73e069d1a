"""The public namespace of the package, and what importing it costs."""

import os
import subprocess
import sys
from pathlib import Path

import segboost

SRC = str(Path(segboost.__file__).resolve().parents[1])

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


# The modules `import segboost` may load beyond those `import numpy` loads and the package's own.
IMPORT_ALLOWED = {"__future__", "copy", "dataclasses"}


def test_import_starts_no_thread_and_loads_no_executor():
    # boost starts its helper threads within each pass of more than one band and joins them before the
    # pass ends; importing starts no thread and loads no concurrent.futures (a few ms of import time).
    # Nor does it load a module outside the allowlist, so work added at import time fails here.
    probe = ("import sys, threading; import numpy; before = set(sys.modules); import segboost; "
             "print(threading.active_count(), 'concurrent.futures' in sys.modules, "
             "*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    threads, executor, *loaded = done.stdout.split()
    assert [threads, executor] == ["1", "False"]
    assert "segboost" in loaded
    assert {m for m in loaded if m.partition(".")[0] != "segboost"} <= IMPORT_ALLOWED
