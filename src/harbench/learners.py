"""Three from-scratch incremental classifiers over a fixed class set.

Each learner exposes train(x, label) for a single instance,
predict(x) -> probability vector aligned with learner.classes, and
predict_rows(X) -> one such vector per row of X, with the same bits as
predict on each row. All three are single-writer: do not interleave predict
with train on the same instance from different threads.
"""

from __future__ import annotations

import math

import numpy as np


class LearnerError(Exception):
    pass


# float64 values in one temporary of a row-block prediction: 64 KiB, under
# glibc's 128 KiB mmap threshold, so a block's arrays come from the heap
_BLOCK_VALUES = 1 << 13


def _row_chunks(n_rows, row_values):
    """Slices of consecutive rows, each of about _BLOCK_VALUES values when
    a row takes row_values, and at least one row."""
    step = max(1, _BLOCK_VALUES // row_values)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _check_distribution(probs):
    probs = np.asarray(probs, dtype=np.float64)
    # written so that NaN and infinite entries fail the test too
    if not ((probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-9):
        raise LearnerError(f"invalid class distribution: {probs}")
    return probs


def _check_rows(rows):
    """rows, if each passes _check_distribution's test, taken here on every
    row at once; _check_distribution raises for the first row that fails.
    The one-vector form stays apart as the cheaper one per window."""
    ok = (rows >= 0).all(axis=-1) & (abs(rows.sum(axis=-1) - 1.0) <= 1e-9)
    for row in rows[~ok]:
        _check_distribution(row)
    return rows


# ---------------------------------------------------------------------------
# kNN with bounded FIFO store and z-score normalization

# Below this many stored rows every row is ranked exactly: the filter's extra
# numpy calls cost more than the rows it would skip (measured crossover).
KNN_FILTER_MIN_ROWS = 256
KNN_FIRST_BLOCK = 256  # rows a store starts with; it grows to capacity once

_U = float(np.finfo(np.float64).eps) / 2  # unit roundoff
_NORMAL_MIN = float(np.finfo(np.float64).tiny)
_SUBNORMAL_MIN = float(np.finfo(np.float64).smallest_subnormal)


def _gamma(j):
    """Higham's gamma_j = j u / (1 - j u)."""
    return j * _U / (1 - j * _U)


def _sq_distances(rows, x, scale):
    """Squared z-scored distances between rows and x, which broadcast
    against each other, as a flat array: from one x to each row, from each
    row of x to the same row of rows, or, with x of shape (q, 1, m), from
    each of q queries to every row in turn. A row's value has the same bits
    whatever other rows share the array, so a candidate subset ranks as the
    whole store would."""
    diff = rows - x
    diff /= scale
    diff = diff.reshape(-1, diff.shape[-1])
    return np.einsum("ij,ij->i", diff, diff)


def _margin(a, c, w):
    """The filter's rounding margin for rows of weighted squared norm a and
    queries of c, with weights w; KnnClassifier._candidates derives it."""
    m = len(w)
    g = 8.0 * _gamma(m + 5)
    # g a and g c apart, so a block's one (queries, rows) operation is the sum
    return g * a + (g * c + _SUBNORMAL_MIN * (w.sum() + 10 * m))


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
        rows = min(capacity, KNN_FIRST_BLOCK)
        self._X = np.zeros((rows, n_features))
        self._X2 = np.zeros((rows, n_features))  # _X squared, for the filter
        self._y = np.zeros(rows, dtype=np.int64)
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
        if slot == len(self._y):  # the first block is full: grow, zeroed
            self._X, self._X2, self._y = (
                np.concatenate([a, np.zeros((self.capacity - slot,)
                                            + a.shape[1:], a.dtype)])
                for a in (self._X, self._X2, self._y))
        self._X[slot] = x
        self._X2[slot] = x * x
        self._y[slot] = self._class_index[label]
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
        w = self._filter_weights(scale)
        if w is None:
            return slice(n)
        wq = w * x
        c = wq @ x
        a = self._X2[:n] @ w
        approx = a - 2.0 * (self._X[:n] @ wq) + c
        margin = _margin(a, c, w)
        upper = approx + margin
        if not np.isfinite(upper).all():  # then so are q and every approx
            return slice(n)
        # A row whose lower end lies above the k-th smallest upper end has
        # k rows nearer than it, so it neither votes nor ties.
        kth_upper = np.partition(upper, k - 1)[k - 1]
        return np.flatnonzero(approx - margin <= kth_upper)

    def _filter_weights(self, scale):
        """w = 1 / scale^2, or None when every row is to be ranked: below
        the crossover, or when w is not normal."""
        if self.size < KNN_FILTER_MIN_ROWS:
            return None
        w = 1.0 / (scale * scale)
        if not _NORMAL_MIN <= w.min() <= w.max() <= 1.0 / _NORMAL_MIN:
            return None
        return w

    def _nearest_first(self, slots, dist, *groups):
        """The order of candidate slots by groups (the last first), then
        distance, NaN last, then insertion rank, which is
        (slot - n_trained) mod capacity."""
        rank = (slots - self.n_trained) % self.capacity
        return np.lexsort((rank, dist, *groups))

    def predict(self, x):
        n = self.size
        if n == 0:
            raise LearnerError("predict on empty kNN store")
        x = np.asarray(x, dtype=np.float64)
        scale = self._scale()
        k = min(self.k, n)
        rows = self._candidates(x, scale, k)
        dist = _sq_distances(self._X[rows], x, scale)
        # Rows beyond the k-th smallest distance cannot vote; the rest go in
        # _nearest_first order. A slice of candidates starts at slot 0.
        kth = np.partition(dist, k - 1)[k - 1]
        near = np.flatnonzero(~(dist > kth))
        slots = near if isinstance(rows, slice) else rows[near]
        order = slots[self._nearest_first(slots, dist[near])]
        votes = np.bincount(self._y[order[:k]], minlength=len(self.classes))
        return votes / k

    def predict_rows(self, X):
        """predict of each row of X, a chunk of queries at a time.

        A chunk's filter is one matrix product under _candidates' margin,
        and the flat indices of its keep mask give the (query, row) pairs
        to refine. One _sq_distances call gives their distances, one
        _nearest_first sort ranks them query by query, and each query takes
        its first k. A query whose upper ends are not all finite keeps every
        row, and so does every query when the filter cannot run. A chunk
        holds about _BLOCK_VALUES values in a (queries, rows) temporary, or
        in a (queries, rows, features) one when every row is a candidate.
        """
        n = self.size
        if n == 0:
            raise LearnerError("predict on empty kNN store")
        X = np.asarray(X, dtype=np.float64)
        scale = self._scale()
        k = min(self.k, n)
        n_classes = len(self.classes)
        w = self._filter_weights(scale)
        if w is not None:
            a = self._X2[:n] @ w
        out = np.empty((len(X), n_classes))
        for chunk in _row_chunks(len(X), n * (self.n_features if w is None
                                              else 1)):
            Q = X[chunk]
            # each (query, row) pair, by query, then slot
            if w is None:  # every row, with no copy of the store
                qi, rows = np.divmod(np.arange(len(Q) * n), n)
                dist = _sq_distances(self._X[:n], Q[:, None], scale)
            else:
                wq = w * Q
                c = np.einsum("ij,ij->i", wq, Q)[:, None]
                approx = a - 2.0 * (wq @ self._X[:n].T) + c
                margin = _margin(a, c, w)
                upper = approx + margin
                kth_upper = np.partition(upper, k - 1, axis=1)[:, k - 1:k]
                keep = ((approx - margin <= kth_upper)
                        | ~np.isfinite(upper).all(axis=1, keepdims=True))
                qi, rows = np.divmod(np.flatnonzero(keep), n)
                dist = _sq_distances(self._X[rows], Q[qi], scale)
            order = self._nearest_first(rows, dist, qi)
            # every query has at least k pairs, from its first one on
            first = np.searchsorted(qi, np.arange(len(Q)))
            labels = self._y[rows[order[first[:, None] + np.arange(k)]]]
            labels += n_classes * np.arange(len(Q))[:, None]
            votes = np.bincount(labels.ravel(), minlength=len(Q) * n_classes)
            out[chunk] = votes.reshape(len(Q), n_classes) / k
        return out


# ---------------------------------------------------------------------------
# Incremental Gaussian naive Bayes


class GaussianNbClassifier:
    """Per-class Gaussian model: running counts, mean and m2 (Welford)."""

    VAR_FLOOR = 1e-9

    def __init__(self, classes, n_features):
        self.classes = tuple(classes)
        self.n_features = n_features
        self._class_index = {c: i for i, c in enumerate(self.classes)}
        c = len(self.classes)
        self.counts = np.zeros(c)
        self.mean = np.zeros((c, n_features))
        self.m2 = np.zeros((c, n_features))

    def _index(self, label):
        ci = self._class_index.get(label)
        if ci is None:
            raise LearnerError(f"unknown class {label}")
        return ci

    def train(self, x, label):
        x = np.asarray(x, dtype=np.float64)
        ci = self._index(label)
        self.counts[ci] += 1
        delta = x - self.mean[ci]
        self.mean[ci] += delta / self.counts[ci]
        self.m2[ci] += delta * (x - self.mean[ci])

    def class_stats(self, label):
        """(count, mean, population variance) for one class."""
        ci = self._index(label)
        n = self.counts[ci]
        var = self.m2[ci] / n if n > 0 else np.zeros(self.n_features)
        return n, self.mean[ci].copy(), var

    def _seen(self):
        """The trained classes, their log priors and floored variances."""
        total = self.counts.sum()
        if total == 0:
            raise LearnerError("predict before any NB update")
        seen = np.flatnonzero(self.counts)
        count = self.counts[seen]
        var = np.maximum(self.m2[seen] / count[:, None], self.VAR_FLOOR)
        return seen, list(map(math.log, (count / total).tolist())), var

    def log_posteriors(self, x):
        seen, prior, var = self._seen()
        diff = np.asarray(x, dtype=np.float64) - self.mean[seen]
        ll = -0.5 * (np.log(2 * math.pi * var) + diff * diff / var).sum(axis=1)
        log_post = np.full(len(self.classes), -np.inf)
        log_post[seen] = prior + ll
        return log_post

    def predict(self, x):
        log_post = self.log_posteriors(x)
        log_post = log_post - log_post.max()
        probs = np.exp(log_post)
        return probs / probs.sum()

    def predict_rows(self, X):
        """predict of each row of X: log_posteriors and predict over a
        chunk of rows at a time, whose (rows, classes, features) temporary
        holds about _BLOCK_VALUES values. The one-row form stays apart, as
        its leading-axis form cost each window a few microseconds."""
        seen, prior, var = self._seen()
        log_var = np.log(2 * math.pi * var)
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), len(self.classes)))
        for chunk in _row_chunks(len(X), var.size):
            diff = X[chunk, None] - self.mean[seen]
            ll = -0.5 * (log_var + diff * diff / var).sum(axis=2)
            log_post = np.full((len(diff), out.shape[1]), -np.inf)
            log_post[:, seen] = prior + ll
            log_post -= log_post.max(axis=1, keepdims=True)
            probs = np.exp(log_post)
            out[chunk] = probs / probs.sum(axis=1, keepdims=True)
        return out


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


class _Node(GaussianNbClassifier):
    """A tree node; a leaf's split search reads its naive Bayes statistics."""

    def __init__(self, classes, n_features):
        super().__init__(classes, n_features)
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

    Each leaf is a naive Bayes learner whose per-(feature, class) Gaussian
    statistics are the split search's sufficient statistics (Gama, Rocha &
    Medas, VFDTc, KDD 2003). Every grace_period instances the best and
    second-best information gains are compared against the Hoeffding bound
    (value range R = log2 of the class count), splitting on the winner or on
    a tie when the bound falls below tie_threshold.
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
        self.root = _Node(self.classes, n_features)
        self.n_splits = 0

    def _route(self, x):
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def train(self, x, label):
        x = np.asarray(x, dtype=np.float64)
        leaf = self._route(x)
        leaf.train(x, label)
        np.minimum(leaf.fmin, x, out=leaf.fmin)
        np.maximum(leaf.fmax, x, out=leaf.fmax)
        leaf.n_since_eval += 1
        if leaf.n_since_eval >= self.grace_period:
            leaf.n_since_eval = 0
            self._attempt_split(leaf)

    def _split_candidates(self, leaf):
        """features, gains, thresholds: each ranged feature's best split."""
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
        return features, gains[rows, best], thresholds[rows, best]

    def _attempt_split(self, leaf):
        if np.count_nonzero(leaf.counts) < 2:
            return
        features, gains, thresholds = self._split_candidates(leaf)
        gains = np.where(gains > 0.0, gains, 0.0)  # NaN and losses never count
        if not gains.any():
            return
        best = gains.argmax()  # the first maximal gain
        second = np.delete(gains, best).max(initial=0.0)
        eps = hoeffding_bound(self.value_range, self.delta, int(leaf.counts.sum()))
        if gains[best] - second > eps or eps < self.tie_threshold:
            self._split(leaf, int(features[best]), float(thresholds[best]))

    def _split(self, leaf, feature, threshold):
        leaf.feature = feature
        leaf.threshold = threshold
        leaf.left = _Node(self.classes, self.n_features)
        leaf.right = _Node(self.classes, self.n_features)
        # drop sufficient statistics now owned by the children
        leaf.counts = np.zeros(len(self.classes))
        leaf.mean = leaf.mean[:0]
        leaf.m2 = leaf.m2[:0]
        self.n_splits += 1

    @staticmethod
    def _leaf_distribution(leaf):
        smoothed = leaf.counts + 1.0
        return smoothed / smoothed.sum()

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self._leaf_distribution(self._route(x))

    def predict_rows(self, X):
        """predict of each row of X: the rows are routed a node at a time,
        by _route's rule, so a NaN feature goes right."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), len(self.classes)))
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = self._leaf_distribution(node)
            else:
                left = X[rows, node.feature] <= node.threshold
                stack += [(node.left, rows[left]), (node.right, rows[~left])]
        return out

    def leaves(self):
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend([node.left, node.right])
        return out
