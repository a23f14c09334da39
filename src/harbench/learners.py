"""Three from-scratch incremental classifiers over a fixed class set.

Each learner exposes train(x, label) for a single instance and
predict(x) -> probability vector aligned with learner.classes. All three are
single-writer: do not interleave predict with train on the same instance
from different threads.
"""

from __future__ import annotations

import math

import numpy as np


class LearnerError(Exception):
    pass


def _check_distribution(probs):
    probs = np.asarray(probs, dtype=np.float64)
    # written so that NaN and infinite entries fail the test too
    if not ((probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-9):
        raise LearnerError(f"invalid class distribution: {probs}")
    return probs


# ---------------------------------------------------------------------------
# kNN with bounded FIFO store and z-score normalization

# Below this many stored rows every row is ranked exactly: the filter's extra
# numpy calls cost more than the rows it would skip (measured crossover).
KNN_FILTER_MIN_ROWS = 256

_U = float(np.finfo(np.float64).eps) / 2  # unit roundoff
_NORMAL_MIN = float(np.finfo(np.float64).tiny)
_SUBNORMAL_MIN = float(np.finfo(np.float64).smallest_subnormal)


def _gamma(j):
    """Higham's gamma_j = j u / (1 - j u)."""
    return j * _U / (1 - j * _U)


def _sq_distances(rows, x, scale):
    """Squared z-scored distance from x to each row. A row's value has the
    same bits whatever other rows share the array, so a candidate subset
    ranks as the whole store would."""
    diff = rows - x
    diff /= scale
    return np.einsum("ij,ij->i", diff, diff)


class KnnClassifier:
    """Neighbor-vote classifier over a capacity-bounded FIFO instance store.

    Distances are Euclidean on z-scored features; the normalization statistics
    run over every instance ever trained, not just the current buffer.
    Distance ties prefer the instance inserted earlier.

    Prediction is filter-and-refine (Seidl & Kriegel, "Optimal multi-step
    k-nearest neighbor search", SIGMOD 1998): two BLAS products give every
    row an interval that holds its exact distance, and only the rows whose
    interval can reach the k-th smallest upper end are ranked exactly.
    """

    def __init__(self, classes, n_features, k=5, capacity=5000):
        if k < 1 or capacity < 1:
            raise LearnerError("k and capacity must be positive")
        self.classes = tuple(classes)
        self.n_features = n_features
        self.k = k
        self.capacity = capacity
        self._class_index = {c: i for i, c in enumerate(self.classes)}
        # zeroed, so the unfilled rows hash alike in Ensemble.state_hash
        self._X = np.zeros((capacity, n_features))
        self._X2 = np.zeros((capacity, n_features))  # _X squared, for the filter
        self._y = np.zeros(capacity, dtype=np.int64)
        self._seq = np.zeros(capacity, dtype=np.int64)  # insertion order
        self.n_trained = 0
        # running per-feature stats (Welford)
        self._mean = np.zeros(n_features)
        self._m2 = np.zeros(n_features)

    @property
    def size(self):
        return min(self.n_trained, self.capacity)

    def train(self, x, label):
        x = np.asarray(x, dtype=np.float64)
        if label not in self._class_index:
            raise LearnerError(f"unknown class {label}")
        slot = self.n_trained % self.capacity  # overwrites the oldest
        self._X[slot] = x
        self._X2[slot] = x * x
        self._y[slot] = self._class_index[label]
        self._seq[slot] = self.n_trained
        self.n_trained += 1
        delta = x - self._mean
        self._mean += delta / self.n_trained
        self._m2 += delta * (x - self._mean)

    def _scale(self):
        std = np.sqrt(self._m2 / max(1, self.n_trained))
        return np.where(std > 0, std, 1.0)

    def _candidates(self, x, scale, k):
        """Rows that may be among the k nearest, or a slice of every row.

        The margin is a rounding bound. For m features, u = 2^-53 and
        gamma_j = j u / (1 - j u), a dot product of j terms is within
        gamma_j of the sum of its absolute terms, in any order, with or
        without fused multiply-adds (Higham, Accuracy and Stability of
        Numerical Algorithms, 3.1). With w = 1/scale^2, a = sum(w x^2) and
        c = sum(w q^2), the filter takes the distance as a - 2 sum(w x q) + c.
        The absolute sums of its three parts are a, at most a + c (as
        |2 w x q| <= w x^2 + w q^2) and c; rounding w, x^2 and w q adds 3 to
        m and the two outer additions 2, so it is within 2 gamma_(m+5) (a + c)
        of the real distance D. The exact path rounds x - q, the division,
        the square and m - 1 additions of non-negative terms, so it is within
        gamma_(m+4) D <= 2 gamma_(m+4) (a + c) of D. So they differ by at
        most 4 gamma_(m+5) (a + c), and twice that also covers the rounding
        of a, c and the margin itself. A product that underflows loses at most 2^-1075:
        w_j 2^-1075 for a stored x^2, which w_j multiplies, and 2^-1075 for
        the others once u more of the relative bound is spent, which the
        doubling holds; 2^-1074 (sum(w) + 10 m) covers them all.

        The bound needs a normal w and no overflow, which a finite upper end
        rules out, as the exact sum cannot pass it. Otherwise, and below the
        crossover, every row is ranked.
        """
        n = self.size
        if n < KNN_FILTER_MIN_ROWS:
            return slice(n)
        w = 1.0 / (scale * scale)
        if not _NORMAL_MIN <= w.min() <= w.max() <= 1.0 / _NORMAL_MIN:
            return slice(n)
        wq = w * x
        c = wq @ x
        a = self._X2[:n] @ w
        approx = a - 2.0 * (self._X[:n] @ wq) + c
        m = self.n_features
        margin = (8.0 * _gamma(m + 5) * (a + c)
                  + _SUBNORMAL_MIN * (w.sum() + 10 * m))
        upper = approx + margin
        if not np.isfinite(upper).all():  # then so are q and every approx
            return slice(n)
        # A row whose lower end lies above the k-th smallest upper end has
        # k rows nearer than it, so it neither votes nor ties.
        kth_upper = np.partition(upper, k - 1)[k - 1]
        return np.flatnonzero(approx - margin <= kth_upper)

    def predict(self, x):
        n = self.size
        if n == 0:
            raise LearnerError("predict on empty kNN store")
        x = np.asarray(x, dtype=np.float64)
        scale = self._scale()
        k = min(self.k, n)
        rows = self._candidates(x, scale, k)
        dist = _sq_distances(self._X[rows], x, scale)
        seq, y = self._seq[rows], self._y[rows]
        # Rows beyond the k-th smallest distance cannot vote; the rest go in
        # (distance, insertion) order, NaN distances kept and ranked last.
        kth = np.partition(dist, k - 1)[k - 1]
        near = np.flatnonzero(~(dist > kth))
        order = near[np.lexsort((seq[near], dist[near]))]
        votes = np.bincount(y[order[:k]], minlength=len(self.classes))
        return votes / k


# ---------------------------------------------------------------------------
# Incremental Gaussian naive Bayes


class GaussianNbClassifier:
    """Per-class Gaussian model with numerically stable running moments."""

    VAR_FLOOR = 1e-9

    def __init__(self, classes, n_features):
        self.classes = tuple(classes)
        self.n_features = n_features
        self._class_index = {c: i for i, c in enumerate(self.classes)}
        c = len(self.classes)
        self._count = np.zeros(c)
        self._mean = np.zeros((c, n_features))
        self._m2 = np.zeros((c, n_features))

    @property
    def n_trained(self):
        return int(self._count.sum())

    def train(self, x, label):
        x = np.asarray(x, dtype=np.float64)
        ci = self._class_index[label]
        self._count[ci] += 1
        delta = x - self._mean[ci]
        self._mean[ci] += delta / self._count[ci]
        self._m2[ci] += delta * (x - self._mean[ci])

    def class_stats(self, label):
        """(count, mean, population variance) for one class."""
        ci = self._class_index[label]
        n = self._count[ci]
        var = self._m2[ci] / n if n > 0 else np.zeros(self.n_features)
        return n, self._mean[ci].copy(), var

    def log_posteriors(self, x):
        total = self._count.sum()
        if total == 0:
            raise LearnerError("predict before any NB update")
        x = np.asarray(x, dtype=np.float64)
        seen = np.flatnonzero(self._count)
        count = self._count[seen]
        var = np.maximum(self._m2[seen] / count[:, None], self.VAR_FLOOR)
        diff = x - self._mean[seen]
        ll = -0.5 * (np.log(2 * math.pi * var) + diff * diff / var).sum(axis=1)
        log_post = np.full(len(self.classes), -np.inf)
        log_post[seen] = list(map(math.log, (count / total).tolist())) + ll
        return log_post

    def predict(self, x):
        log_post = self.log_posteriors(x)
        log_post = log_post - log_post.max()
        probs = np.exp(log_post)
        return probs / probs.sum()


# ---------------------------------------------------------------------------
# Hoeffding tree (VFDT)

N_CANDIDATE_THRESHOLDS = 10  # evenly spaced inside a feature's range per leaf


def hoeffding_bound(value_range, delta, n):
    """Deviation bound sqrt(R^2 * ln(1/delta) / (2n))."""
    if n < 1:
        raise LearnerError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise LearnerError(f"delta must be in (0, 1), got {delta}")
    if value_range <= 0:
        raise LearnerError(f"range must be positive, got {value_range}")
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


def _entropy(counts):
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _row_entropies(counts):
    """_entropy of each row along the last axis, as masked row sums."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / counts.sum(axis=-1, keepdims=True)
        return -np.where(counts > 0, p * np.log2(p), 0.0).sum(axis=-1)


def _left_counts(leaf, features, present, thresholds):
    """Each present class's Gaussian count at or below each threshold."""
    n_c = leaf.counts[present]
    mu = leaf.mean[np.ix_(present, features)].T[:, None, :]
    m2 = leaf.m2[np.ix_(present, features)].T[:, None, :]
    z = (thresholds[:, :, None] - mu) / np.sqrt(np.maximum(m2 / n_c, 1e-18))
    z /= math.sqrt(2.0)
    erf = np.fromiter(map(math.erf, z.ravel().data), np.float64, z.size)
    return n_c * (0.5 * (1.0 + erf.reshape(z.shape)))


class _Node:
    __slots__ = ("counts", "mean", "m2", "fmin", "fmax", "n_since_eval",
                 "feature", "threshold", "left", "right")

    def __init__(self, n_classes, n_features):
        self.counts = np.zeros(n_classes)
        self.mean = np.zeros((n_classes, n_features))
        self.m2 = np.zeros((n_classes, n_features))
        self.fmin = np.full(n_features, np.inf)
        self.fmax = np.full(n_features, -np.inf)
        self.n_since_eval = 0
        self.feature = None  # None -> leaf
        self.threshold = None
        self.left = None
        self.right = None

    @property
    def is_leaf(self):
        return self.feature is None


class HoeffdingTreeClassifier:
    """Binary-split VFDT with per-class Gaussian numeric attribute models.

    Leaves accumulate per-(feature, class) Gaussian sufficient statistics;
    every grace_period instances the best and second-best information gains
    are compared against the Hoeffding bound (value range R = log2 of the
    class count), splitting on the winner or on a tie when the bound falls
    below tie_threshold.
    """

    def __init__(self, classes, n_features, delta=1e-7, tie_threshold=0.05,
                 grace_period=200):
        if not 0.0 < delta < 1.0:
            raise LearnerError(f"delta must be in (0, 1), got {delta}")
        if grace_period < 1:
            raise LearnerError(f"grace_period must be >= 1, got {grace_period}")
        if math.isnan(tie_threshold):
            raise LearnerError("tie_threshold must not be NaN")
        self.classes = tuple(classes)
        self.n_features = n_features
        self.delta = delta
        self.tie_threshold = tie_threshold
        self.grace_period = grace_period
        self.value_range = math.log2(max(2, len(self.classes)))
        self._class_index = {c: i for i, c in enumerate(self.classes)}
        self.root = _Node(len(self.classes), n_features)
        self.n_trained = 0
        self.n_splits = 0

    def _route(self, x):
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def train(self, x, label):
        x = np.asarray(x, dtype=np.float64)
        ci = self._class_index[label]
        leaf = self._route(x)
        leaf.counts[ci] += 1
        delta = x - leaf.mean[ci]
        leaf.mean[ci] += delta / leaf.counts[ci]
        leaf.m2[ci] += delta * (x - leaf.mean[ci])
        np.minimum(leaf.fmin, x, out=leaf.fmin)
        np.maximum(leaf.fmax, x, out=leaf.fmax)
        leaf.n_since_eval += 1
        self.n_trained += 1
        if leaf.n_since_eval >= self.grace_period:
            leaf.n_since_eval = 0
            self._attempt_split(leaf)

    def _split_candidates(self, leaf):
        """[features], [gains], [thresholds]: each ranged feature's best split."""
        features = np.flatnonzero(leaf.fmax > leaf.fmin)
        present = np.flatnonzero(leaf.counts > 0)
        thresholds = np.linspace(leaf.fmin[features], leaf.fmax[features],
                                 N_CANDIDATE_THRESHOLDS + 2, axis=1)[:, 1:-1]
        left = np.zeros(thresholds.shape + leaf.counts.shape)
        left[..., present] = _left_counts(leaf, features, present, thresholds)
        right = leaf.counts - left
        split = (left.sum(axis=2) * _row_entropies(left)
                 + right.sum(axis=2) * _row_entropies(right))
        gains = _entropy(leaf.counts) - split / leaf.counts.sum()
        rows, best = np.arange(len(features)), gains.argmax(axis=1)  # first max
        return (features.tolist(), gains[rows, best].tolist(),
                thresholds[rows, best].tolist())

    def _attempt_split(self, leaf):
        if np.count_nonzero(leaf.counts) < 2:
            return
        best = second = (0.0, None, None)  # (gain, feature, threshold)
        for f, gain, threshold in zip(*self._split_candidates(leaf)):
            if gain > best[0]:
                second = best
                best = (gain, f, threshold)
            elif gain > second[0]:
                second = (gain, f, None)
        if best[1] is None or best[0] <= 0.0:
            return
        eps = hoeffding_bound(self.value_range, self.delta, int(leaf.counts.sum()))
        if best[0] - second[0] > eps or eps < self.tie_threshold:
            self._split(leaf, best[1], best[2])

    def _split(self, leaf, feature, threshold):
        leaf.feature = feature
        leaf.threshold = threshold
        leaf.left = _Node(len(self.classes), self.n_features)
        leaf.right = _Node(len(self.classes), self.n_features)
        # drop sufficient statistics now owned by the children
        leaf.counts = np.zeros(len(self.classes))
        leaf.mean = leaf.mean[:0]
        leaf.m2 = leaf.m2[:0]
        self.n_splits += 1

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        leaf = self._route(x)
        smoothed = leaf.counts + 1.0
        return smoothed / smoothed.sum()

    def leaves(self):
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend([node.left, node.right])
        return out
