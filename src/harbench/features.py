"""Time-domain feature extraction: 81 values per window.

For each of the 27 signal channels (3 devices x {accel, gyro, mag} x 3 axes):
mean and population standard deviation (54 values), then for each of the 9
tri-axial sensors the Pearson correlation of (x,y), (x,z) and (y,z)
(27 values). Order is fixed and documented by FEATURE_NAMES. One kernel
maps an (n, 27, W) block of windows to an (n, 81) matrix; featurize feeds
it (stream, start) spans, a block at a time, and extract and extract_stream
wrap the rows it returns in FeatureVectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FEATURE_CHANNEL_INDEX, FEATURE_CHANNELS

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


def _fill_gaps(filled):
    """Interpolate, in place, each NaN run of (n, W, 27) windows in its own
    column (edge gaps extend the nearest value, a fully missing channel is
    zeroed); returns whether no channel of each window was fully missing."""
    missing = np.isnan(filled)
    lost = missing.all(axis=1)
    filled[missing & lost[:, None]] = 0.0
    idx = np.arange(filled.shape[1])
    for k, c in zip(*np.nonzero(missing.any(axis=1) & ~lost)):
        col, gap = filled[k, :, c], missing[k, :, c]
        col[gap] = np.interp(idx[gap], idx[~gap], col[~gap])
    return ~lost.any(axis=1)


def _kernel(block):
    """(n, 27, W) windows -> (n, 81) features.

    A NaN-free block is C-ordered, so its sums run pairwise along W as a
    window's F-ordered channel slice summed them, and it is centred once,
    for the stds and the correlations. Filled windows come as
    `filled.transpose(0, 2, 1)` of their (n, W, 27) copy: their means and
    stds sum row by row, as reductions of a window's C-ordered copy did,
    while each correlation centres a channel on its own pairwise mean,
    hence the means of `np.ascontiguousarray(block)`. A (1, W) @ (W, 1)
    matmul is the same dot product as a 1-D `a @ b`, and add.reduce / W the
    mean np.mean takes, without its Python wrapper.
    """
    size = block.shape[2]
    means = np.add.reduce(block, axis=2) / size
    d = block - means[..., None]
    stds = np.sqrt(np.add.reduce(d ** 2, axis=2) / size)
    if not block.flags.c_contiguous:
        c = np.ascontiguousarray(block)
        d = c - (np.add.reduce(c, axis=2) / size)[..., None]
    sq = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
    cov = (d[:, _PAIR_A, None, :] @ d[:, _PAIR_B, :, None])[..., 0, 0]
    va, vb = sq[:, _PAIR_A], sq[:, _PAIR_B]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cov / np.sqrt(va * vb)
    r = np.where(r > -1.0, np.minimum(r, 1.0), -1.0)  # min(1, max(-1, r))
    corrs = np.where((va == 0.0) | (vb == 0.0), 0.0, r)
    return np.concatenate([means, stds, corrs], axis=1)


def featurize(spans, size):
    """(X, quality) of the windows of `size` rows at a list of (stream, start)
    spans: their (n, 81) features, each from its own rows, a block of about
    _BLOCK_VALUES values at a time, and whether no channel is all NaN. A
    size below 1 row, or a window outside its stream, raises FeatureError,
    also from a start below 0, which numpy would count from the end."""
    if size < 1:
        raise FeatureError(f"a window needs at least 1 row, got {size}")
    X = np.empty((len(spans), N_FEATURES))
    quality = np.ones(len(spans), dtype=bool)
    step = max(1, _BLOCK_VALUES // (27 * size))
    for lo in range(0, len(spans), step):
        # each a C-ordered (27, size) gather; one window needs no stack
        channels = [stream.values[start:start + size, :].T[
            FEATURE_CHANNEL_INDEX] for stream, start in spans[lo:lo + step]]
        if any(c.shape[1] != size for c in channels) or any(
                start < 0 for _, start in spans[lo:lo + step]):
            raise FeatureError(f"a window of {size} rows runs outside its "
                               "stream")
        block = np.stack(channels) if len(channels) > 1 else channels[0][None]
        X[lo:lo + step] = _kernel(block)
        gapped = np.flatnonzero(np.isnan(block).any(axis=(1, 2)))
        if len(gapped):  # one C-ordered (windows, W, 27) copy, filled
            filled = np.ascontiguousarray(block.transpose(0, 2, 1)[gapped])
            quality[lo + gapped] = _fill_gaps(filled)
            X[lo + gapped] = _kernel(filled.transpose(0, 2, 1))
    return X, quality


def extract(window, window_index=0) -> FeatureVector:
    """Featurize one labeled window into the canonical 81-value vector."""
    X, quality = featurize([(window.stream, window.start)], window.size)
    return FeatureVector(X[0], window.label, window.user_id, window_index,
                         bool(quality[0]))


def extract_stream(windows):
    """Featurize equal-size windows in order, numbering them 0..n-1."""
    windows = list(windows)
    if not windows:
        return []
    size = windows[0].size
    if any(w.size != size for w in windows):
        raise FeatureError(f"window sizes differ from {size}")
    X, quality = featurize([(w.stream, w.start) for w in windows], size)
    return [FeatureVector(v, w.label, w.user_id, i, bool(ok))
            for i, (w, v, ok) in enumerate(zip(windows, X, quality))]
