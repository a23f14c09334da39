"""Time-domain feature extraction: 81 values per window.

For each of the 27 signal channels (3 devices x {accel, gyro, mag} x 3 axes):
mean and population standard deviation (54 values), then for each of the 9
tri-axial sensors the Pearson correlation of (x,y), (x,z) and (y,z)
(27 values). Order is fixed and documented by FEATURE_NAMES.
"""

from __future__ import annotations

import csv
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


def signal_stats(signal):
    """Mean and population (divide-by-n) standard deviation."""
    x = np.asarray(signal, dtype=np.float64)
    if x.size < 2:
        raise FeatureError("signal_stats needs at least 2 values")
    mean = float(x.mean())
    return mean, float(np.sqrt(np.mean((x - mean) ** 2)))


def pearson(a, b):
    """Pearson correlation; 0 by definition when either signal is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise FeatureError(f"length mismatch: {a.shape} vs {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        return 0.0
    r = float(da @ db) / np.sqrt(va * vb)
    return float(min(1.0, max(-1.0, r)))


def _fill_missing(channels):
    """Linearly interpolate NaNs per channel inside the window.

    Edge gaps extend the nearest value. A fully-missing channel is zeroed
    and reported. Returns (filled array, quality_ok).
    """
    if not np.isnan(channels).any():
        return channels, True
    filled = channels.copy()
    quality_ok = True
    n = channels.shape[0]
    idx = np.arange(n)
    for j in range(channels.shape[1]):
        col = filled[:, j]
        missing = np.isnan(col)
        if not missing.any():
            continue
        if missing.all():
            filled[:, j] = 0.0
            quality_ok = False
            continue
        col[missing] = np.interp(idx[missing], idx[~missing], col[~missing])
    return filled, quality_ok


def extract(window, window_index=0) -> FeatureVector:
    """Featurize a labeled Window into the canonical 81-value vector."""
    data, quality_ok = _fill_missing(np.asarray(window.channels, dtype=np.float64))
    means = data.mean(axis=0)
    stds = np.sqrt(np.mean((data - means) ** 2, axis=0))
    corrs = np.empty(27)
    k = 0
    for s in range(9):
        x, y, z = data[:, 3 * s], data[:, 3 * s + 1], data[:, 3 * s + 2]
        corrs[k] = pearson(x, y)
        corrs[k + 1] = pearson(x, z)
        corrs[k + 2] = pearson(y, z)
        k += 3
    values = np.concatenate([means, stds, corrs])
    return FeatureVector(values=values, label=window.label,
                         user_id=window.user_id, window_index=window_index,
                         quality_ok=quality_ok)


def extract_stream(windows):
    """Featurize windows in order, numbering them 0..n-1."""
    return [extract(w, i) for i, w in enumerate(windows)]


def write_features_csv(features, path):
    """Dump feature vectors with the canonical header for offline inspection."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "window_index", "label", "quality_ok"]
                        + FEATURE_NAMES)
        for fv in features:
            writer.writerow([fv.user_id, fv.window_index, fv.label,
                             int(fv.quality_ok)] + [repr(v) for v in fv.values])
