"""Weighted L1 training objective and the L1 / RMSE / PDAR evaluation metrics.

Images are float arrays in [0, 1] where 0 is ink and 1 is background. A pixel
counts as black when its value is strictly below 0.5.
"""

from __future__ import annotations

import warnings

import numpy as np

from stylemix.autodiff import ShapeError, Tensor, as_tensor

BLACK_THRESHOLD = 0.5


class DegenerateTargetWarning(UserWarning):
    """A target image contained no black pixels; a fallback weight was used."""


def binarize(image: np.ndarray) -> np.ndarray:
    """Boolean mask of black pixels (value < 0.5); inputs must lie in [0, 1]."""
    image = np.asarray(image, dtype=np.float64)
    if image.size and (image.min() < 0.0 or image.max() > 1.0):
        raise ValueError(
            f"binarize: values outside [0, 1] (min {image.min():.4g}, "
            f"max {image.max():.4g})"
        )
    return image < BLACK_THRESHOLD


def size_thickness_weight(target: np.ndarray) -> float:
    """Reciprocal of the black-pixel count of one target image.

    A blank target (no black pixels) falls back to 1/(number of pixels) and
    raises :class:`DegenerateTargetWarning`.
    """
    mask = binarize(target)
    n_black = int(mask.sum())
    if n_black == 0:
        warnings.warn(
            "target image has no black pixels; using 1/pixel-count weight",
            DegenerateTargetWarning,
            stacklevel=2,
        )
        return 1.0 / mask.size
    return 1.0 / n_black


def darkness_weight(targets) -> np.ndarray:
    """Softmax over the batch of per-image black-pixel mean intensities.

    The mean of an image without black pixels is taken as 0.
    """
    targets = [np.asarray(t, dtype=np.float64) for t in targets]
    if not targets:
        raise ValueError("darkness_weight: empty batch")
    means = np.empty(len(targets))
    for i, t in enumerate(targets):
        mask = binarize(t)
        means[i] = t[mask].mean() if mask.any() else 0.0
    e = np.exp(means - means.max())
    return e / e.sum()


def weighted_l1_loss(generated: Tensor, targets: np.ndarray) -> Tensor:
    """Sum over the batch of W_st * W_d * sum_pixels |generated - target|.

    Differentiable w.r.t. ``generated``; the weights depend only on the
    targets and are treated as constants. The weights are computed in float64
    and, with the targets, cast to ``generated``'s dtype, so the loss and its
    gradient stay in that dtype.
    """
    generated = as_tensor(generated)
    targets = np.asarray(targets, dtype=np.float64)
    if generated.ndim == 0 or generated.shape != targets.shape:
        raise ShapeError(
            f"weighted_l1_loss: needs equal [B, ...] batches, got generated {generated.shape} "
            f"and targets {targets.shape}")
    dtype = generated.data.dtype
    size_thickness = np.array([size_thickness_weight(t) for t in targets])
    weights = (size_thickness * darkness_weight(targets)).astype(dtype)
    per_image = (generated - targets.astype(dtype)).abs().sum(
        axis=tuple(range(1, generated.ndim)))
    return (per_image * weights).sum()


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"metric: image shapes differ, {a.shape} vs {b.shape}")
    return a, b


def l1_metric(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute per-pixel difference."""
    a, b = _check_pair(a, b)
    return float(np.abs(a - b).mean())


def rmse_metric(a: np.ndarray, b: np.ndarray) -> float:
    """Root of the mean squared per-pixel difference."""
    a, b = _check_pair(a, b)
    return float(np.sqrt(((a - b) ** 2).mean()))


def pdar_metric(a: np.ndarray, b: np.ndarray) -> float:
    """Pixel disagreement ratio: fraction of pixels whose binarized values differ."""
    a, b = _check_pair(a, b)
    return float((binarize(a) != binarize(b)).mean())
