"""Seeded generator of PAMAP2-shaped sensor streams for the benchmark.

The benchmark owns its inputs: nothing here calls the program's own synthetic
generator, so a change to that generator cannot change what is measured.
Streams carry every column of the 100 Hz PAMAP2 protocol recordings:

* 27 feature channels (three IMUs x {accel16, gyro, mag} x xyz), each the
  activity's sinusoid plus Gaussian noise, rounded to five decimals like the
  published files;
* heart rate at about 9 Hz (NaN in between), IMU temperatures and the
  +-6 g accelerometer;
* activities in recording order, with transient (id 0) gaps between them
  and a block of a non-protocol activity in the middle;
* device drop-outs: several short NaN runs and one run longer than any
  window the workloads use, so interpolation and the zero-and-flag path of a
  fully missing window channel both run;
* optionally one single-activity user, like PAMAP2's subject 9.

Only the noise, the per-user offsets and the drop-out positions depend on
the seed. Stream lengths, label layout and class patterns do not, so every
seed costs the program the same amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from harbench.dataset import COLUMNS, DEVICES, FEATURE_CHANNELS

SAMPLE_RATE = 100.0
# PAMAP2 protocol activities in the order the protocol records them.
PROTOCOL_ORDER = (1, 2, 3, 17, 16, 12, 13, 4, 7, 6, 5, 24)
NON_PROTOCOL_ID = 10  # "computer work", outside the 12 protocol activities
SINGLE_ACTIVITY_ID = 24  # subject 9 recorded rope jumping only

# Class patterns are fixed, not drawn from the workload seed.
_PATTERN_SEED = 20181024
_CLASS_SLOTS = PROTOCOL_ORDER + (NON_PROTOCOL_ID, 0)

_FEATURE_COLS = np.array([COLUMNS.index(c) for c in FEATURE_CHANNELS])
_DEVICE_COLS = {dev: np.array([i for i, c in enumerate(COLUMNS)
                               if c.startswith(dev + "_")])
                for dev in DEVICES}
_HR_COL = COLUMNS.index("heart_rate")
_HR_EVERY = 11  # the chest strap reports at ~9 Hz


@dataclass(frozen=True)
class UserShape:
    """Layout of one user's recording; nothing here depends on the seed."""
    user_id: int
    labels: tuple  # protocol activities in recording order
    samples_per_activity: int
    transient: int = 60  # id-0 samples between consecutive activities
    non_protocol: int = 80  # samples of NON_PROTOCOL_ID mid-stream; 0: none
    long_dropout: int = 0  # one device drop-out of this many samples
    short_dropouts: int = 4  # device drop-outs of 5..30 samples
    drift: float = 0.0  # offset ramped 0 -> drift within each activity


@dataclass(frozen=True)
class SignalParams:
    class_sep: float = 1.5  # scale of the per-class channel means
    noise_sigma: float = 0.6
    user_sep: float = 0.3  # scale of the per-user channel offsets


def _class_patterns():
    rng = np.random.default_rng(_PATTERN_SEED)
    n = len(_CLASS_SLOTS)
    means = rng.normal(0.0, 1.0, size=(n, len(FEATURE_CHANNELS)))
    freqs = 0.4 + 0.3 * np.arange(n)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n, len(FEATURE_CHANNELS)))
    return {label: (means[i], freqs[i], phases[i])
            for i, label in enumerate(_CLASS_SLOTS)}


_PATTERNS = _class_patterns()


def _layout(shape):
    """The (start, end, label) of each block, and the stream length."""
    blocks = []
    half = len(shape.labels) // 2
    for i, label in enumerate(shape.labels):
        if i:
            blocks.append((0, shape.transient))
        if i == half and shape.non_protocol:
            blocks.append((NON_PROTOCOL_ID, shape.non_protocol))
            blocks.append((0, shape.transient))
        blocks.append((label, shape.samples_per_activity))
    out, pos = [], 0
    for label, n in blocks:
        out.append((pos, pos + n, label))
        pos += n
    return out, pos


def make_values(shape, seed, signal=SignalParams()):
    """(n, 42) stream array in the column layout of harbench.dataset."""
    rng = np.random.default_rng((seed, shape.user_id))
    blocks, n = _layout(shape)
    values = np.empty((n, len(COLUMNS)))
    values[:, 0] = np.round(np.arange(n) / SAMPLE_RATE, 2)
    offset = rng.normal(0.0, signal.user_sep, size=len(FEATURE_CHANNELS))
    feats = np.empty((n, len(FEATURE_CHANNELS)))
    for start, end, label in blocks:
        values[start:end, 1] = label
        means, freq, phases = _PATTERNS[label]
        t = values[start:end, 0][:, None]
        ramp = np.linspace(0.0, shape.drift, end - start)[:, None]
        feats[start:end] = (signal.class_sep * means + offset + ramp
                            + np.sin(2 * math.pi * freq * t + phases)
                            + rng.normal(0.0, signal.noise_sigma,
                                         size=(end - start, feats.shape[1])))
    values[:, _FEATURE_COLS] = np.round(feats, 5)
    for d, dev in enumerate(DEVICES):
        cols = _DEVICE_COLS[dev]
        values[:, cols[0]] = np.round(32.0 + d + rng.normal(0, 0.05, n), 4)
        values[:, cols[4:7]] = values[:, cols[1:4]]  # +-6 g accel mirror
    hr = np.full(n, np.nan)
    hr[::_HR_EVERY] = np.round(90 + 10 * rng.standard_normal(
        len(hr[::_HR_EVERY])))
    values[:, _HR_COL] = hr
    _drop_out(values, rng, shape)
    return values


def _drop_out(values, rng, shape):
    """Blank whole devices for runs of samples, as wireless losses do."""
    n = len(values)
    runs = [int(rng.integers(5, 31)) for _ in range(shape.short_dropouts)]
    if shape.long_dropout:
        runs.append(shape.long_dropout)
    for length in runs:
        length = min(length, n - 1)  # only at the tests' tiny sizes
        start = int(rng.integers(0, n - length))
        dev = DEVICES[int(rng.integers(0, len(DEVICES)))]
        values[start:start + length, _DEVICE_COLS[dev]] = np.nan


def protocol_row_count(values):
    return int(np.isin(values[:, 1], PROTOCOL_ORDER).sum())


def users(ids, labels, samples_per_activity, single_activity_user=None,
          **kwargs):
    """Shapes for the given users; the single-activity one records only
    SINGLE_ACTIVITY_ID, for a quarter of a full user's protocol time."""
    out = []
    for uid in ids:
        if uid == single_activity_user:
            n = max(1, samples_per_activity * len(labels) // 4)
            out.append(UserShape(uid, (SINGLE_ACTIVITY_ID,), n,
                                 non_protocol=0, **kwargs))
        else:
            out.append(UserShape(uid, tuple(labels), samples_per_activity,
                                 **kwargs))
    return out
