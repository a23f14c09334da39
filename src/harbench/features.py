"""Time-domain feature extraction: 81 values per window.

For each of the 27 signal channels (3 devices x {accel, gyro, mag} x 3 axes):
mean and population standard deviation (54 values), then for each of the 9
tri-axial sensors the Pearson correlation of (x,y), (x,z) and (y,z)
(27 values). Order is fixed and documented by FEATURE_NAMES. One kernel
maps an (n, 27, W) block of windows to an (n, 81) matrix; extract_stream
feeds it blocks of windows, extract one window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FEATURE_CHANNELS

N_FEATURES = 81

_SENSORS = [FEATURE_CHANNELS[i][: -2] for i in range(0, 27, 3)]  # 9 tri-axial

FEATURE_NAMES = (
    [f"{ch}_mean" for ch in FEATURE_CHANNELS]
    + [f"{ch}_std" for ch in FEATURE_CHANNELS]
    + [f"{s}_corr_{a}{b}" for s in _SENSORS for a, b in (("x", "y"), ("x", "z"), ("y", "z"))]
)
assert len(FEATURE_NAMES) == N_FEATURES

# the (x, y), (x, z), (y, z) channel pairs of each sensor
_PAIR_A = np.array([3 * s + a for s in range(9) for a in (0, 0, 1)])
_PAIR_B = np.array([3 * s + b for s in range(9) for b in (1, 2, 2)])
_BLOCK_VALUES = 1 << 15  # values (windows x 27 x W) in one featurized block


class FeatureError(Exception):
    pass


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray  # shape (81,)
    label: int
    user_id: int
    window_index: int
    quality_ok: bool = True  # False when any channel was fully missing

    def __post_init__(self):
        if self.values.shape != (N_FEATURES,):
            raise FeatureError(f"expected {N_FEATURES} features, got {self.values.shape}")


def _fill_missing(channels):
    """A C-ordered copy of a (W, 27) window with NaN runs interpolated per
    channel (edge gaps extend the nearest value, a fully missing channel is
    zeroed), and whether no channel was fully missing."""
    filled = channels.copy()
    idx = np.arange(len(filled))
    for col in filled.T:
        missing = np.isnan(col)
        if missing.all():
            col[:] = 0.0
        elif missing.any():
            col[missing] = np.interp(idx[missing], idx[~missing], col[~missing])
    return filled, not np.isnan(channels).all(axis=0).any()


def _kernel(block):
    """(n, 27, W) windows -> (n, 81) features.

    A NaN-free block is C-ordered, so its sums run pairwise along W as a
    window's F-ordered channel slice summed them. A filled window comes as
    `filled.T[None]`: its means and stds sum row by row, as reductions of
    the C-ordered copy did, while each correlation centres a channel on its
    own pairwise mean, hence the means of `np.ascontiguousarray(block)`. A
    (1, W) @ (W, 1) matmul is the same dot product as a 1-D `a @ b`.
    """
    means = block.mean(axis=2)
    stds = np.sqrt(np.mean((block - means[..., None]) ** 2, axis=2))
    c = np.ascontiguousarray(block)
    d = c - c.mean(axis=2)[..., None]
    sq = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
    cov = (d[:, _PAIR_A, None, :] @ d[:, _PAIR_B, :, None])[..., 0, 0]
    va, vb = sq[:, _PAIR_A], sq[:, _PAIR_B]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cov / np.sqrt(va * vb)
    r = np.where(r > -1.0, np.minimum(r, 1.0), -1.0)  # min(1, max(-1, r))
    corrs = np.where((va == 0.0) | (vb == 0.0), 0.0, r)
    return np.concatenate([means, stds, corrs], axis=1)


def _extract(windows, first_index, size=None):
    """FeatureVectors of equal-size windows, numbered from first_index."""
    channels = [w.channels.T for w in windows]
    size = size or channels[0].shape[1]
    if any(c.shape[1] != size for c in channels):
        raise FeatureError(f"window sizes differ from {size}")
    block = np.stack(channels)
    values = _kernel(block)
    quality = [True] * len(windows)
    for k in np.flatnonzero(np.isnan(block).any(axis=(1, 2))):
        filled, quality[k] = _fill_missing(block[k].T)
        values[k] = _kernel(filled.T[None])[0]
    return [FeatureVector(values=v, label=w.label, user_id=w.user_id,
                          window_index=first_index + k, quality_ok=ok)
            for k, (w, v, ok) in enumerate(zip(windows, values, quality))]


def extract(window, window_index=0) -> FeatureVector:
    """Featurize one labeled window into the canonical 81-value vector."""
    return _extract([window], window_index)[0]


def extract_stream(windows):
    """Featurize equal-size windows in order, numbering them 0..n-1, one
    block of about _BLOCK_VALUES values at a time."""
    windows = list(windows)
    if not windows:
        return []
    size = len(windows[0].channels)
    step = max(1, _BLOCK_VALUES // (27 * size))
    return [fv for lo in range(0, len(windows), step)
            for fv in _extract(windows[lo:lo + step], lo, size)]
