"""Sliding-window segmentation and per-window labeling.

A configuration is (window size W, overlap factor o); consecutive windows
start step = max(1, round(W*(1-o))) samples apart, so W - step samples are
reused between neighbors. Windows mixing activities are labeled with the
modal activity and dropped when its share falls below the purity threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import PROTOCOL_ACTIVITIES, TRANSIENT_ACTIVITY

DEFAULT_PURITY = 0.8


class WindowingError(Exception):
    pass


@dataclass(frozen=True)
class WindowConfig:
    window_size: int
    overlap: float

    def __post_init__(self):
        if self.window_size < 2:
            raise WindowingError(f"window_size must be >= 2, got {self.window_size}")
        if not 0.0 <= self.overlap < 1.0:
            raise WindowingError(f"overlap must be in [0, 1), got {self.overlap}")

    @property
    def step(self) -> int:
        # round half up keeps W=100, o=0.1 at step 90 and never yields 0
        return max(1, int(math.floor(self.window_size * (1.0 - self.overlap) + 0.5)))


@dataclass(frozen=True)
class Window:
    """Where a window lies: `size` stream rows from `start`; labeled once
    kept. The device's form; the sweep carries label_starts' arrays."""
    stream: object
    start: int
    size: int
    label: int | None = None

    @property
    def user_id(self):
        return self.stream.user_id


def segment(stream, config):
    """All fully-contained, unlabeled windows at starts 0, step, 2*step, ...

    Returns [] when the stream is shorter than one window.
    """
    return [Window(stream, start, config.window_size)
            for start in window_starts(len(stream), config).tolist()]


def window_starts(length, config):
    """The starts of segment's windows over a stream of this length."""
    return np.arange(0, max(0, length - config.window_size + 1), config.step)


def label_window(candidate, purity_threshold=DEFAULT_PURITY,
                 valid_labels=PROTOCOL_ACTIVITIES):
    """A labeled copy of the window, or None when it is discarded.

    The label is the modal activity, ties broken toward the label occurring
    earlier in the window. Kept only when the modal share reaches the
    purity threshold and the label is a valid (non-transient) activity.
    A window of one activity is labeled by one comparison, at share 1.0.
    A purity outside [0, 1], or a window whose rows do not all lie in its
    stream, raises WindowingError.
    """
    check_purity(purity_threshold)
    start, size = candidate.start, candidate.size
    col = candidate.stream.values[start:start + size, 1]
    if not (start >= 0 and len(col) == size):
        raise WindowingError(f"a window of {size} rows at {start} runs "
                             "outside its stream")
    first = col[0]
    # one id inside int64's range (so no NaN or inf): int() is astype's
    if first == col[-1] and abs(first) < 2 ** 63 and (col == first).all():
        modal, share = int(first), 1.0
    else:
        ids = col.astype(np.int64)
        labels, first_pos, counts = np.unique(ids, return_index=True,
                                              return_counts=True)
        order = np.lexsort((first_pos, -counts))  # max count, then earliest
        modal, share = int(labels[order[0]]), counts[order[0]] / len(ids)
    if share < purity_threshold:
        return None
    if modal == TRANSIENT_ACTIVITY or modal not in valid_labels:
        return None
    return Window(candidate.stream, candidate.start, candidate.size, modal)


def check_purity(purity_threshold):
    if not 0.0 <= purity_threshold <= 1.0:
        raise WindowingError(
            f"purity must be in [0, 1], got {purity_threshold}")


def label_starts(stream, starts, size, purity_threshold=DEFAULT_PURITY,
                 valid_labels=PROTOCOL_ACTIVITIES):
    """(starts, labels), int64 arrays of the kept windows of `size` rows
    at ascending starts, as label_window keeps and labels each, from
    per-label prefix counts of the activity column: integer work, so
    exact. A window's modal label has the largest count, a tie going to
    the label whose first occurrence in the window is earliest (its
    (c + 1)-th occurrence, c being its count before the window). A purity
    outside [0, 1], or a start below 0 or past len(stream) - size, raises
    WindowingError."""
    check_purity(purity_threshold)
    ids = stream.values[:, 1].astype(np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    if len(starts) and not 0 <= starts.min() <= starts.max() <= len(ids) - size:
        raise WindowingError(f"a window of {size} rows runs outside its "
                             f"{len(ids)}-row stream")
    best = np.zeros(len(starts), dtype=np.int64)  # the modal count so far
    first = np.zeros(len(starts), dtype=np.int64)  # its first position
    modal = np.zeros(len(starts), dtype=np.int64)
    count = np.zeros(len(ids) + 1, dtype=np.int64)
    # with counts, np.unique sorts; without, numpy 2.4 hashes and imports
    # numpy.ma, a megabyte of resident memory
    for label in np.unique(ids, return_counts=True)[0]:
        at = ids == label
        np.cumsum(at, out=count[1:])  # count[i]: occurrences before row i
        before = count[starts]
        n = count[starts + size] - before
        occurs = np.flatnonzero(at)
        pos = occurs[np.minimum(before, len(occurs) - 1)]
        wins = (n > best) | ((n == best) & (n > 0) & (pos < first))
        best[wins], first[wins], modal[wins] = n[wins], pos[wins], label
    keep = ((best / size >= purity_threshold) & (modal != TRANSIENT_ACTIVITY)
            & np.isin(modal, list(valid_labels)))
    return starts[keep], modal[keep]


def labeled_windows(stream, config, purity_threshold=DEFAULT_PURITY,
                    valid_labels=PROTOCOL_ACTIVITIES):
    """label_starts' kept windows among segment's, as Windows."""
    size = config.window_size
    starts, labels = label_starts(stream, window_starts(len(stream), config),
                                  size, purity_threshold, valid_labels)
    return [Window(stream, start, size, label)
            for start, label in zip(starts.tolist(), labels.tolist())]


def classification_count(stream, config, purity_threshold=DEFAULT_PURITY,
                         valid_labels=PROTOCOL_ACTIVITIES) -> int:
    """Number of kept windows, i.e. one classification per window."""
    return len(label_starts(stream, window_starts(len(stream), config),
                            config.window_size, purity_threshold,
                            valid_labels)[0])
