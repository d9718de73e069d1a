"""Per-pixel confidence (negative entropy) and min-max-normalized blend weights.

Confidence is the signed negative entropy of a pixel's class distribution:
0 for a one-hot pixel, ``-ln K`` for a uniform one. The adaptive weight
rescales confidence affinely to [0, 1] per image, so the least confident
pixel gets weight 0 (strongest boost) and the most confident gets 1 (no
boost). Any choice of log base or positive affine rescaling of confidence
is erased by the normalization, which is why the natural log is used
without ceremony.
"""

from __future__ import annotations

import numpy as np

from .tensors import ValidationError, _check_values, _over_classes


def confidence(pred: np.ndarray) -> np.ndarray:
    """Negative entropy ``sum_k p * ln(p)`` per pixel, with ``0 * ln 0 = 0``.

    Parameters
    ----------
    pred : (H, W, K) array of values in [0, 1], rows normalized to 1; NaN
        or a value outside [0, 1] raises :class:`ValidationError` naming the
        pixel (row sums are not checked)

    Returns
    -------
    (H, W) float64 plane of values in [-ln K, 0]; closer to 0 means more
    confident.
    """
    return _neg_entropy(_check_values(pred))


def _neg_entropy(pred: np.ndarray, axis: int = -1) -> np.ndarray:
    """The confidence kernel over the class ``axis``, for a map already checked."""
    # No mask: the log floors each entry at the smallest positive float64, which no positive entry is
    # below (np.finfo().tiny is: a float64 subnormal's term would change). A zero then adds a signed zero,
    # and each class sum starts from +0.0, so the bits are those of skipping zeros.
    terms = pred.astype(np.float64)
    np.maximum(terms, np.finfo(np.float64).smallest_subnormal, out=terms)
    np.log(terms, out=terms)
    np.multiply(terms, pred, out=terms, dtype=np.float64)
    return _over_classes(np.add, terms, axis=axis)


def adaptive_weights(conf: np.ndarray) -> np.ndarray:
    """Min-max normalize a confidence plane into per-pixel blend weights.

    ``W = (conf - min conf) / (max conf - min conf)`` over the image; on a
    constant plane there is no information to rank pixels, so W is 1
    everywhere and the pseudo label passes through unperturbed.

    Parameters
    ----------
    conf : (H, W) float plane, finite, with at least one pixel

    Returns
    -------
    (H, W) float32 weights in [0, 1].
    """
    conf = np.asarray(conf, dtype=np.float64)
    if conf.ndim != 2:
        raise ValidationError(f"confidence plane must be 2-D, got shape {conf.shape}")
    if not np.isfinite(conf).all():
        r, c = np.argwhere(~np.isfinite(conf))[0]
        raise ValidationError(f"non-finite confidence {conf[r, c]!s} at pixel ({r}, {c})")
    return _image_weights(conf[None])[0]


def _image_weights(planes: np.ndarray) -> np.ndarray:
    """:func:`adaptive_weights` of each finite plane of an ``(..., H, W)`` stack, as float32.

    ``(conf - min) / (max - min)`` per plane in float64, and 1 on a plane
    whose extremes are equal.
    """
    if planes.size == 0:
        raise ValidationError(f"confidence plane of shape {planes.shape[-2:]} has no pixels")
    lo = planes.min(axis=(-2, -1), keepdims=True)
    span = planes.max(axis=(-2, -1), keepdims=True) - lo  # finite, so 0 exactly when max == min
    w = np.ones(planes.shape)
    np.divide(planes - lo, span, out=w, where=span != 0)
    return w.astype(np.float32)
