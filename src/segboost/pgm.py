"""8-bit binary PGM export of label maps for quick visual inspection.

Classes are spread over the gray range with ``gray = label * 254 // (K - 1)``,
which is injective for K <= 255 while keeping white (255) reserved for void
pixels. With all 256 classes the palette must use the full range, so void
pixels become unrepresentable and are rejected. Custom palettes may likewise
claim 255, with the same consequence.
"""

from __future__ import annotations

import numpy as np

from .tensors import IGNORE_LABEL, ValidationError, _check_classes, _check_labels


def label_palette(classes: int) -> np.ndarray:
    """Gray level per class, strictly increasing for classes <= 256."""
    _check_classes(classes, 256)
    if classes == 1:
        return np.zeros(1, dtype=np.uint8)
    span = 254 if classes <= 255 else 255  # keep 255 for void when possible
    levels = np.arange(classes, dtype=np.int64) * span // (classes - 1)
    return levels.astype(np.uint8)


def _palette(classes: int, palette) -> np.ndarray:
    """The uint8 gray level per class: the default, or ``palette`` once it has one distinct level each."""
    if palette is None:
        return label_palette(classes)
    _check_classes(classes, 256)
    palette = np.asarray(palette)
    if palette.shape != (classes,):
        raise ValidationError(f"palette must have one gray level per class, got shape {palette.shape}")
    if not np.isin(palette, np.arange(256)).all():
        raise ValidationError(f"palette gray levels must be integers in 0..255, got {palette.tolist()}")
    if len(np.unique(palette)) != classes:
        raise ValidationError("palette gray levels must be distinct")
    return palette.astype(np.uint8)


def labels_to_gray(labels: np.ndarray, classes: int, palette: np.ndarray | None = None) -> np.ndarray:
    """Map a label map to gray levels; void pixels become 255."""
    palette = _palette(classes, palette)
    labels = _check_labels(labels, classes)
    void = labels == IGNORE_LABEL
    if void.any() and (palette == 255).any():
        raise ValidationError("void pixels need gray 255, but the palette claims it for a class")
    gray = palette[np.where(void, 0, labels).astype(np.intp)]
    gray[void] = 255
    return gray


def gray_to_labels(gray: np.ndarray, classes: int, palette: np.ndarray | None = None) -> np.ndarray:
    """Invert :func:`labels_to_gray`; 255 reads as void unless it is a class level.

    ``gray`` is a 2-D integer plane (bool is not an integer here) of levels
    in 0..255; anything else raises :class:`ValidationError`.
    """
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise ValidationError(f"gray plane must be 2-D, got shape {gray.shape}")
    if gray.dtype.kind not in "iu":
        raise ValidationError(f"gray plane must be integer-typed, got {gray.dtype}")
    outside = (gray < 0) | (gray > 255)
    if outside.any():
        r, c = np.argwhere(outside)[0]
        raise ValidationError(f"gray level {int(gray[r, c])} at ({r}, {c}) is outside 0..255")
    inverse = np.full(256, -1, dtype=np.int64)
    inverse[_palette(classes, palette)] = np.arange(classes)
    if inverse[255] < 0:
        inverse[255] = IGNORE_LABEL
    out = inverse[gray.astype(np.intp)]
    if (out < 0).any():
        r, c = np.argwhere(out < 0)[0]
        raise ValidationError(f"gray level {int(gray[r, c])} at ({r}, {c}) is not in the palette")
    return out.astype(np.uint16)


def write_pgm(gray: np.ndarray) -> bytes:
    """Serialize a gray plane as binary PGM, header exactly ``P5\\n<w> <h>\\n255\\n``."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValidationError(f"PGM payload must be a 2-D uint8 plane, got {gray.dtype} {gray.shape}")
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(gray).tobytes()


def read_pgm(data: bytes) -> np.ndarray:
    """Parse binary PGM bytes written by :func:`write_pgm`."""
    if not data.startswith(b"P5"):
        raise ValidationError("not a binary PGM (missing P5 signature)")
    parts = data.split(b"\n", 3)
    if len(parts) != 4:
        raise ValidationError("malformed PGM header")
    dims = parts[1].split()
    if len(dims) != 2 or not all(d.isdigit() for d in dims) or parts[2] != b"255":  # ASCII digits only
        raise ValidationError("malformed PGM header (expected '<w> <h>' then '255')")
    w, h = int(dims[0]), int(dims[1])
    payload = parts[3]
    if len(payload) != w * h:
        raise ValidationError(f"PGM payload has {len(payload)} bytes, expected {w * h}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).copy()
