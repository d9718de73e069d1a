"""Segmentation evaluation: confusion matrix accumulation and mean IoU."""

from __future__ import annotations

import numpy as np

from .tensors import IGNORE_LABEL, ValidationError, _check_classes


class ConfusionMatrix:
    """K x K unsigned-integer confusion counts, rows = truth, cols = prediction.

    Accumulation is plain integer addition, so the order of updates never
    matters and matrices built in parallel can be merged exactly.
    """

    def __init__(self, classes: int):
        _check_classes(classes)
        self.classes = classes
        self.counts = np.zeros((classes, classes), dtype=np.uint64)

    def update(self, truth: np.ndarray, pred: np.ndarray) -> "ConfusionMatrix":
        """Tally one truth/prediction pair; void truth pixels are skipped.

        Both label maps must be integer-typed with values in ``[0, classes)``
        (void truth pixels aside); anything else raises ``ValidationError``.
        """
        truth = np.asarray(truth)
        pred = np.asarray(pred)
        if truth.shape != pred.shape:
            raise ValidationError(f"shape mismatch: truth {truth.shape} vs pred {pred.shape}")
        for name, labels in (("truth", truth), ("pred", pred)):
            if not np.issubdtype(labels.dtype, np.integer):
                raise ValidationError(f"{name} labels must be integer-typed, got {labels.dtype}")
        keep = truth.reshape(-1) != IGNORE_LABEL
        t = truth.reshape(-1)[keep].astype(np.int64)
        p = pred.reshape(-1)[keep].astype(np.int64)
        k = self.classes
        if t.size and (min(t.min(), p.min()) < 0 or max(t.max(), p.max()) >= k):
            raise ValidationError(f"label outside [0, {k}) in evaluated pixels")
        self.counts += np.bincount(t * k + p, minlength=k * k).reshape(k, k).astype(np.uint64)
        return self

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Elementwise-add another matrix of the same class count."""
        if other.classes != self.classes:
            raise ValidationError("cannot merge confusion matrices of different class counts")
        self.counts += other.counts
        return self

    def total(self) -> int:
        return int(self.counts.sum())

    def per_class_iou(self) -> np.ndarray:
        """IoU per class, NaN for classes with an empty union."""
        counts = self.counts.astype(np.float64)
        tp = np.diag(counts)
        union = counts.sum(axis=0) + counts.sum(axis=1) - tp
        with np.errstate(invalid="ignore"):
            return np.where(union > 0, tp / np.where(union > 0, union, 1.0), np.nan)

    def miou(self) -> float:
        """Mean IoU over classes with a non-empty union; 0 if none have one."""
        ious = self.per_class_iou()
        present = ~np.isnan(ious)
        if not present.any():
            return 0.0
        return float(ious[present].mean())


def miou(truth: np.ndarray, pred: np.ndarray, classes: int) -> float:
    """One-shot mean IoU for a single truth/prediction pair."""
    return ConfusionMatrix(classes).update(truth, pred).miou()
