"""Confusion-matrix mIoU, including void handling and merging."""

import numpy as np
import pytest

from segboost import IGNORE_LABEL, ConfusionMatrix, ValidationError, miou


def _lab(rows):
    return np.asarray(rows, dtype=np.uint16)


class TestHandCountedCases:
    def test_two_class_example(self):
        # class 0: inter 1, union 2 -> 1/2; class 1: inter 2, union 3 -> 2/3
        truth = _lab([[0, 0, 1, 1]])
        pred = _lab([[0, 1, 1, 1]])
        assert miou(truth, pred, 2) == pytest.approx(7 / 12)

    def test_identical_maps(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 5, size=(9, 9)).astype(np.uint16)
        assert miou(truth, truth, 5) == 1.0

    def test_disjoint_binary_maps(self):
        truth = _lab([[0, 0], [1, 1]])
        pred = _lab([[1, 1], [0, 0]])
        assert miou(truth, pred, 2) == 0.0


class TestConfusionMatrix:
    def test_counts_layout(self):
        cm = ConfusionMatrix(3)
        cm.update(_lab([[0, 1]]), _lab([[2, 1]]))
        assert cm.counts.dtype == np.uint64
        assert cm.counts[0, 2] == 1  # truth 0 predicted as 2
        assert cm.counts[1, 1] == 1
        assert cm.total() == 2

    def test_void_pixels_skipped(self):
        truth = _lab([[0, IGNORE_LABEL], [IGNORE_LABEL, 1]])
        pred = _lab([[0, 1], [0, 1]])
        cm = ConfusionMatrix(2)
        cm.update(truth, pred)
        assert cm.total() == 2
        assert cm.miou() == 1.0

    def test_incremental_equals_one_shot(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 4, size=(12, 12)).astype(np.uint16)
        pred = rng.integers(0, 4, size=(12, 12)).astype(np.uint16)
        whole = ConfusionMatrix(4).update(truth, pred)
        parts = ConfusionMatrix(4)
        parts.update(truth[:5], pred[:5])
        parts.update(truth[5:], pred[5:])
        np.testing.assert_array_equal(whole.counts, parts.counts)

    def test_merge(self):
        rng = np.random.default_rng(5)
        t1, p1 = (rng.integers(0, 3, size=(6, 6)).astype(np.uint16) for _ in range(2))
        t2, p2 = (rng.integers(0, 3, size=(6, 6)).astype(np.uint16) for _ in range(2))
        a = ConfusionMatrix(3).update(t1, p1)
        b = ConfusionMatrix(3).update(t2, p2)
        merged = a.merge(b)
        both = ConfusionMatrix(3).update(t1, p1).update(t2, p2)
        np.testing.assert_array_equal(merged.counts, both.counts)

    def test_absent_class_excluded_from_mean(self):
        # class 2 never appears in truth or pred: zero union, not a zero IoU
        truth = _lab([[0, 1]])
        pred = _lab([[0, 1]])
        cm = ConfusionMatrix(3).update(truth, pred)
        ious = cm.per_class_iou()
        assert np.isnan(ious[2])
        assert cm.miou() == 1.0

    def test_empty_matrix_scores_zero(self):
        assert ConfusionMatrix(3).miou() == 0.0

    @pytest.mark.parametrize("classes", [0, -1, 2.5, True, IGNORE_LABEL])
    def test_rejects_bad_class_count(self, classes):
        # 2.5 used to raise a bare TypeError from numpy
        with pytest.raises(ValidationError, match="class count"):
            ConfusionMatrix(classes)

    def test_label_out_of_range_rejected(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(ValidationError):
            cm.update(_lab([[2]]), _lab([[0]]))
        with pytest.raises(ValidationError):
            cm.update(_lab([[0]]), _lab([[5]]))

    def test_negative_prediction_rejected(self):
        # -1 would otherwise land in the flat bincount one cell early
        cm = ConfusionMatrix(3)
        with pytest.raises(ValidationError):
            cm.update(np.array([[0, 1]]), np.array([[0, -1]]))
        assert cm.total() == 0

    def test_negative_truth_rejected(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(ValidationError):
            cm.update(np.array([[0, -1]]), np.array([[0, 1]]))
        assert cm.total() == 0

    @pytest.mark.parametrize("floats", ["truth", "pred"])
    def test_float_labels_rejected(self, floats):
        # astype(int64) would truncate 0.7 -> 0 and 1.2 -> 1 into a perfect match
        soft, hard = np.array([[0.7, 1.2]]), _lab([[0, 1]])
        args = (soft, hard) if floats == "truth" else (hard, soft)
        cm = ConfusionMatrix(2)
        with pytest.raises(ValidationError, match=floats):
            cm.update(*args)
        assert cm.total() == 0

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 4, size=(10, 10)).astype(np.uint16)
        pred = rng.integers(0, 4, size=(10, 10)).astype(np.uint16)
        perm = np.array([3, 0, 1, 2], dtype=np.uint16)
        assert miou(truth, pred, 4) == pytest.approx(miou(perm[truth], perm[pred], 4))

    def test_miou_between_zero_and_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            truth = rng.integers(0, k, size=(8, 8)).astype(np.uint16)
            pred = rng.integers(0, k, size=(8, 8)).astype(np.uint16)
            value = miou(truth, pred, k)
            assert 0.0 <= value <= 1.0
