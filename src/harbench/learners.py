"""Three from-scratch incremental classifiers over a fixed class set.

Each learner exposes train(x, label) for a single instance,
train_rows(X, class_indices) for a batch of rows, each with the index of
its class in learner.classes, which leaves the learner with the bits of
train on each row in turn, predict(x) -> probability vector aligned with
learner.classes, and predict_rows(X) -> one such vector per row of X, with
the same bits as predict on each row. All three are single-writer: do not
interleave predict with train on the same instance from different threads.
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


def _check_rows(rows):
    """rows, if each is a class distribution: no entry below 0, and a sum
    within 1e-9 of 1, written so that NaN and infinite entries fail too.
    Raises for the first row that is not."""
    ok = (rows >= 0).all(axis=-1) & (abs(rows.sum(axis=-1) - 1.0) <= 1e-9)
    if not ok.all():
        raise LearnerError(f"invalid class distribution: {rows[~ok][0]}")
    return rows


def _welford(mean, m2, x, n):
    """Welford's in-place update of mean and m2 by x, the n-th value."""
    delta = x - mean
    mean += delta / n
    m2 += delta * (x - mean)


# ---------------------------------------------------------------------------
# kNN with bounded FIFO store and z-score normalization

# Below this many stored rows predict ranks every row exactly: for one query
# the filter's extra numpy calls cost more than the rows it would skip
# (measured crossover). predict_rows filters at any size.
KNN_FILTER_MIN_ROWS = 160
KNN_FIRST_BLOCK = 256  # rows a store starts with; it grows to capacity once
# stored rows predict_rows' filter reads at a time from a full chunk, which
# holds _BLOCK_VALUES / _KNN_STORE_ROWS queries; a smaller chunk reads more
_KNN_STORE_ROWS = 128

# The filter runs in float32; u bounds its roundings and, being larger than
# float64's, every float64 rounding too
_U = 2.0 ** -24  # float32's unit roundoff
_F32 = np.finfo(np.float32)
_F32_TINY, _F32_MAX = float(_F32.tiny), float(_F32.max)
_F32_SUBNORMAL_MIN = float(_F32.smallest_subnormal)  # 2^-149


def _gamma(j):
    """Higham's gamma_j = j u / (1 - j u)."""
    return j * _U / (1 - j * _U)


def _sq_distances(rows, x, scale):
    """Squared z-scored distances between rows and x, which broadcast
    against each other: from one x to each row, or from each row of x to
    the same row of rows. A row's value has the same bits whatever other
    rows share the array, so a candidate subset ranks as the whole store
    would."""
    diff = rows - x
    diff /= scale
    return np.einsum("ij,ij->i", diff, diff)


def _margin(a, c, w):
    """The filter's rounding margin for rows of weighted squared norm a and
    queries of c, with weights w; KnnClassifier._candidates derives it."""
    m = len(w)
    g = 8.0 * _gamma(m + 11)
    # 2^-149 (sum(w) + sum(|2 w q|) + 20 m), as sum(|2 w q|) <= sum(w) + c
    tiny = _F32_SUBNORMAL_MIN * (2.0 * w.sum() + c + 20 * m)
    # rounded g a plus a term without a: it grows with a, so the filters
    # bound every row's margin by the largest a's
    return g * a + (g * c + tiny)


def _bounded(top, c):
    """Whether no filter value overflows or is NaN for rows of weighted
    squared norm at most top and queries of c, w being normal in float32:
    8 (top + c) is at most float32's largest. Then |2 w q| stays below it
    (were it above, |q - center| would pass 1/2 and c a quarter of it),
    each term of the float32 products stays below top + c, and |approx|
    and each end below 3 (top + c). A NaN or infinite top or c is not."""
    return 8.0 * (top + c) <= _F32_MAX


class KnnClassifier:
    """Neighbor-vote classifier over a capacity-bounded FIFO instance store.

    Distances are Euclidean on z-scored features; the normalization statistics
    run over every instance ever trained, not just the current buffer.
    Distance ties prefer the instance inserted earlier.

    Prediction is filter-and-refine (Seidl & Kriegel, "Optimal multi-step
    k-nearest neighbor search", SIGMOD 1998): two float32 BLAS products
    over a centered copy of the store give every row an interval that holds
    its exact distance, and only the rows whose interval can reach the k-th
    smallest upper end are ranked exactly, in float64; exactly k such rows
    are the k nearest, and predict votes them unranked.
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
        # the filter's store: float32(_X - _center), and that squared in
        # float32; the center is the first row ever trained
        self._Xc = np.zeros((rows, n_features), np.float32)
        self._Xc2 = np.zeros((rows, n_features), np.float32)
        self._center = np.zeros(n_features)
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
        if not np.isfinite(x).all():  # it would spoil the running scale
            raise LearnerError("kNN row with a NaN or infinite value")
        self._reserve(1)
        slot = self.n_trained % self.capacity  # overwrites the oldest
        if not self.n_trained:
            self._center[:] = x
        self._X[slot] = x
        # the float64 difference rounded once to float32, squared in float32
        # (np.subtract straight into the float32 row was slower, and raised
        # the peak RSS of repeated set-ups)
        xc = self._Xc[slot]
        xc[:] = x - self._center
        np.square(xc, out=self._Xc2[slot])
        self._y[slot] = self._class_index[label]
        self.n_trained += 1
        _welford(self._mean, self._m2, x, self.n_trained)

    def _reserve(self, n):
        """Grow the store to capacity, zeroed, if the next n rows pass its
        first block; a capacity that cannot be allocated leaves the store
        as it was and raises LearnerError."""
        rows = len(self._y)
        if rows < min(self.n_trained + n, self.capacity):
            try:  # every array is grown before the tuple is assigned
                self._X, self._Xc, self._Xc2, self._y = (
                    np.concatenate([a, np.zeros((self.capacity - rows,)
                                                + a.shape[1:], a.dtype)])
                    for a in (self._X, self._Xc, self._Xc2, self._y))
            except MemoryError:
                raise LearnerError(f"kNN capacity {self.capacity} rows "
                                   "cannot be allocated") from None

    def train_rows(self, X, class_indices):
        """train of each row of X, with the class at its index in classes,
        with the same bits, a chunk of rows at a time: a chunk's last
        capacity rows, the ones that stay, are written into the store at
        once, and the running statistics take every row in turn, as one
        recurrence. A NaN or infinite row is refused after the rows before
        it."""
        X = np.asarray(X, dtype=np.float64)
        class_indices = np.asarray(class_indices)
        for chunk in _row_chunks(len(X), self.n_features):
            rows, y = X[chunk], class_indices[chunk]
            finite = np.isfinite(rows).all(axis=1)
            n = len(rows) if finite.all() else int(finite.argmin())
            self._store(rows[:n], y[:n])
            if n < len(rows):
                raise LearnerError("kNN row with a NaN or infinite value")
        return self

    def _store(self, rows, y):
        """train_rows of finite rows that fit one chunk."""
        if not len(rows):
            return
        self._reserve(len(rows))
        if not self.n_trained:
            self._center[:] = rows[0]
        first = max(0, len(rows) - self.capacity)  # the rows that stay
        slots = (self.n_trained + np.arange(first, len(rows))) % self.capacity
        self._X[slots] = rows[first:]
        self._Xc[slots] = rows[first:] - self._center
        self._Xc2[slots] = np.square(self._Xc[slots])
        self._y[slots] = y[first:]
        for n, x in enumerate(rows, self.n_trained + 1):
            _welford(self._mean, self._m2, x, n)
        self.n_trained += len(rows)

    def _scale(self):
        std = np.sqrt(self._m2 / max(1, self.n_trained))
        return np.where(std > 0, std, 1.0)

    def _query_terms(self):
        """(scale, k) of a prediction from the store, which must not be
        empty; k is at most the number of stored rows."""
        n = self.size
        if n == 0:
            raise LearnerError("predict on empty kNN store")
        return self._scale(), min(self.k, n)

    def _candidates(self, x, scale, k):
        """Rows that may be among the k nearest, or a slice of every row.

        The margin is a rounding bound after Higham (Accuracy and Stability
        of Numerical Algorithms, 3.1), with u = 2^-24: each rounding, to
        float32 or float64, is within a relative u, and a dot product of j
        terms is within gamma_j = j u / (1 - j u) of the sum of its
        absolute terms, in any order, with or without fused multiply-adds.
        Take w = 1/scale^2, p = x - center and r = q - center, so that the
        real distance is D = A - 2 B + C with A = sum(w p^2), B = sum(w p r)
        and C = sum(w r^2), where |2 w p r| <= w p^2 + w r^2.

        The filter takes it as a + b + c. a = _Xc2 @ w is a float32 dot
        product whose terms carry 8 roundings (w: the square, the division
        and float32; the stored p: float64 and float32, doubled by the
        square, which float32 rounds once more). b = _Xc @ (-2 w q) is one
        whose terms carry 7 (-2 w q: w's two, q - center, the product and
        float32; the stored p: two). c is a float64 dot product whose terms
        carry 5, and the two float64 additions add 2. So a + b + c is
        within gamma_(m+10) (A + 2 sum|w p r| + C) <= 2 gamma_(m+10) (A + C)
        of D. The exact path rounds x - q, the division, the square and
        m - 1 additions of non-negative terms, in float64, so it is within
        gamma_(m+4) D <= 2 gamma_(m+4) (A + C) of D. They differ by at most
        4 gamma_(m+10) (A + C); with one u more for an underflow below, the
        margin is twice 4 gamma_(m+11) (a + c), which also covers the
        rounding of a, c and the margin itself. It grows with a, so one
        margin per query, _margin of the largest a, covers every row.

        An operation whose float32 result underflows loses up to 2^-150
        more: w_j 2^-150 for a stored square, which w_j multiplies,
        |2 w_j q_j| 2^-150 for a stored p, 2^-150 for each product, and
        2^-150 |p_j| for -2 w q, which is below 2^-150 when |p_j| <= 1 and
        otherwise below u w_j p_j^2, as w_j >= 2^-126, the u spent above.
        float64's underflows are smaller still. 2^-149 (sum(w) +
        sum(|2 w q|) + 20 m) holds them all, twice over, and
        2^-149 (2 sum(w) + c + 20 m) is at least that, as 2 |q| <= 1 + q^2.

        The bound needs w normal in float32 and no overflow, which
        _bounded(max a, c) checks before the float32 products; a NaN c
        fails it too. Otherwise, and below the crossover, every row is
        ranked.
        """
        n = self.size
        w = None if n < KNN_FILTER_MIN_ROWS else self._filter_weights(scale)
        if w is None:
            return slice(n)
        q = x - self._center
        wq = w * q
        c = wq @ q
        a = (self._Xc2[:n] @ w.astype(np.float32)).astype(np.float64)
        top = a.max()
        if not _bounded(top, c):
            return slice(n)
        approx = self._Xc[:n] @ (-2.0 * wq).astype(np.float32) + a
        approx += c
        margin = _margin(top, c, w)
        # A row whose lower end lies above the k-th smallest upper end has
        # k rows nearer than it, so it neither votes nor ties.
        kth_upper = np.partition(approx, k - 1)[k - 1] + margin
        return np.flatnonzero(approx - margin <= kth_upper)

    def _filter_weights(self, scale):
        """w = 1 / scale^2, or None when w is not normal in float32 and
        every row is to be ranked."""
        w = 1.0 / (scale * scale)
        if not _F32_TINY <= w.min() <= w.max() <= _F32_MAX:
            return None
        return w

    def _nearest_first(self, slots, dist, *groups):
        """The order of candidate slots by groups (the last first), then
        distance, NaN last, then insertion rank, which is
        (slot - n_trained) mod capacity."""
        rank = (slots - self.n_trained) % self.capacity
        return np.lexsort((rank, dist, *groups))

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        scale, k = self._query_terms()
        rows = self._candidates(x, scale, k)
        if not isinstance(rows, slice) and len(rows) == k:
            # a row left out has a lower end above each kept row's upper end:
            # the k kept are the k nearest, untied, with no NaN distance
            return np.bincount(self._y[rows], minlength=len(self.classes)) / k
        dist = _sq_distances(self._X[rows], x, scale)
        # Rows beyond the k-th smallest distance cannot vote; the rest go in
        # _nearest_first order. A slice of candidates starts at slot 0.
        kth = np.partition(dist, k - 1)[k - 1]
        near = np.flatnonzero(~(dist > kth))
        slots = near if isinstance(rows, slice) else rows[near]
        order = slots[self._nearest_first(slots, dist[near])]
        return np.bincount(self._y[order[:k]], minlength=len(self.classes)) / k

    def _approx(self, wq2, c, a, rows):
        """The filter's approximate distance of each (query, row) pair over
        a slice of stored rows, a - 2 sum(w p q) + c as _candidates takes
        it, from the float32 wq2 = -2 w q, the float64 a = _Xc2 @ w and
        c."""
        approx = wq2 @ self._Xc[rows].T + a[rows]
        approx += c
        return approx

    def predict_rows(self, X):
        """predict of each row of X, a chunk of queries at a time.

        A chunk's filter is _candidates' at any store size, with its one
        margin per query and its guard: a query that _bounded refuses keeps
        every row. When w is not normal in float32, zero weights give every
        pair the same ends, so every row is kept.

        The store is read in blocks of _BLOCK_VALUES / queries rows,
        _KNN_STORE_ROWS for a full chunk, so that each (queries, rows)
        temporary holds about _BLOCK_VALUES values. Pass one merges each
        query's k smallest approximate distances block by block, and keeps
        each block's least; the k-th plus the margin is an upper end that
        k rows reach. Pass two reads again the blocks whose least, less the
        margin, can reach it, for the queries that can, and keeps the
        (query, row) pairs that do. _sq_distances gives their distances a
        block of pairs at a time, one _nearest_first sort ranks them query
        by query, and each query takes its first k.
        """
        scale, k = self._query_terms()
        n, n_classes = self.size, len(self.classes)
        X = np.asarray(X, dtype=np.float64)
        w = self._filter_weights(scale)
        w = np.zeros(self.n_features) if w is None else w
        a = (self._Xc2[:n] @ w.astype(np.float32)).astype(np.float64)
        top = a.max()
        out = np.empty((len(X), n_classes))
        for chunk in _row_chunks(len(X), min(n, _KNN_STORE_ROWS)):
            Q = X[chunk]
            step = _BLOCK_VALUES // len(Q)  # longer for fewer queries
            blocks = [slice(i, min(i + step, n)) for i in range(0, n, step)]
            Qc = Q - self._center
            wq = w * Qc
            c = np.einsum("ij,ij->i", wq, Qc)[:, None]
            wq2 = (-2.0 * wq).astype(np.float32)
            margin = _margin(top, c, w)
            best = np.full((len(Q), k), np.inf)
            least = np.empty((len(Q), len(blocks)))
            for b, rows in enumerate(blocks):
                approx = self._approx(wq2, c, a, rows)
                least[:, b] = approx.min(axis=1)
                # only a query with a distance below its k-th merges
                sel = np.flatnonzero(least[:, b] < best[:, k - 1])
                best[sel] = np.partition(np.hstack([best[sel], approx[sel]]),
                                         k - 1, axis=1)[:, :k]
            # A pair whose lower end lies above the k-th upper end has k
            # rows nearer than it, so it neither votes nor ties.
            kth = np.where(_bounded(top, c), best[:, k - 1:] + margin, np.inf)
            hit = ~(least - margin > kth)
            qi, slots = [], []
            for b in np.flatnonzero(hit.any(axis=0)):
                sel = np.flatnonzero(hit[:, b])
                approx = self._approx(wq2[sel], c[sel], a, blocks[b])
                i, j = np.nonzero(~(approx - margin[sel] > kth[sel]))
                qi.append(sel[i])
                slots.append(blocks[b].start + j)
            qi, slots = np.concatenate(qi), np.concatenate(slots)
            dist = np.concatenate([
                _sq_distances(self._X[slots[p]], Q[qi[p]], scale)
                for p in _row_chunks(len(qi), self.n_features)])
            order = self._nearest_first(slots, dist, qi)
            # every query has at least k pairs, from its first one on
            first = np.searchsorted(qi[order], np.arange(len(Q)))
            labels = self._y[slots[order[first[:, None] + np.arange(k)]]]
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
        _welford(self.mean[ci], self.m2[ci], x, self.counts[ci])

    def train_rows(self, X, class_indices):
        """train of each row of X, with the class at its index in classes,
        with the same bits. Each class's rows are one Welford sequence
        (Welford, Technometrics 1962), and step j updates the j-th row of
        every class that has one as one (classes, features) operation: the
        classes go in order of their row counts, most first, so that these
        are a prefix of each statistic's rows. Once one class is left, its
        rows go one at a time, as train takes them."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(class_indices)
        count = np.bincount(y, minlength=len(self.classes))
        order = np.argsort(y, kind="stable")  # each class's rows in turn
        first = np.cumsum(count) - count
        present = np.argsort(-count, kind="stable")[:np.count_nonzero(count)]
        if not len(present):
            return self
        first, count = first[present], count[present]
        n, mean, m2 = (a[present] for a in (self.counts, self.mean, self.m2))
        # the steps with two classes or more, and how many each one has
        steps = count[1] if len(count) > 1 else 0
        live = np.searchsorted(-count, -np.arange(steps)).tolist()
        for j, k in enumerate(live):
            n[:k] += 1
            _welford(mean[:k], m2[:k], X[order[first[:k] + j]], n[:k, None])
        # the rest of the first class's rows; a float64 count divides alike
        n0, mean0, m20 = float(n[0]), mean[0], m2[0]
        for i in order[first[0] + steps:first[0] + count[0]].tolist():
            n0 += 1
            _welford(mean0, m20, X[i], n0)
        n[0] = n0
        for a, b in ((self.counts, n), (self.mean, mean), (self.m2, m2)):
            a[present] = b
        return self

    def class_stats(self, label):
        """(count, mean, population variance) for one class."""
        ci = self._index(label)
        n = self.counts[ci]
        var = self.m2[ci] / n if n > 0 else np.zeros(self.n_features)
        return n, self.mean[ci].copy(), var

    def _seen(self):
        """The trained classes (a slice of all when every class is),
        their log priors and floored variances."""
        total = self.counts.sum()
        if total == 0:
            raise LearnerError("predict before any NB update")
        # every class seen: the statistics themselves, not gathered copies
        seen = slice(None) if self.counts.all() else np.flatnonzero(self.counts)
        count = self.counts[seen]
        var = np.maximum(self.m2[seen] / count[:, None], self.VAR_FLOOR)
        return seen, list(map(math.log, (count / total).tolist())), var

    def log_posteriors(self, x):
        seen, prior, var = self._seen()
        diff = np.asarray(x, dtype=np.float64) - self.mean[seen]
        diff *= diff
        diff /= var
        ll = -0.5 * (np.log(2 * math.pi * var) + diff).sum(axis=1)
        log_post = np.full(len(self.classes), -np.inf)
        log_post[seen] = prior + ll
        return log_post

    def predict(self, x):
        log_post = self.log_posteriors(x)
        log_post -= log_post.max()
        probs = np.exp(log_post, out=log_post)
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


def _fold(ufunc, out, X):
    """Fold the rows of X into out, in order, by np.minimum or np.maximum,
    with the bits of one call per row. A reduction may take the rows in
    another order, which changes only which of equal zeros or NaNs it
    returns; when it returns a zero or a NaN, the rows are accumulated in
    order."""
    folded = ufunc.reduce(X)
    if not folded.all() or np.isnan(folded).any():
        folded = ufunc.accumulate(X)[-1]
    ufunc(out, folded, out=out)


def _entropy(counts):
    p = counts[counts > 0] / counts.sum()
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

    def train_rows(self, X, class_indices):
        """train of each row of X, with the class at its index in classes,
        with the same bits. The batch is routed once, and each leaf trains
        on its own rows, as a row changes only the leaf it reaches and a
        split only where that leaf's later rows go (VFDT, VFDTc). A leaf
        takes its rows up to its grace-period boundary, at most one
        _row_chunks step at a time, each in one naive Bayes train_rows
        call; at the boundary it attempts its split, and its later rows
        are routed on from it."""
        X, y = np.asarray(X, dtype=np.float64), np.asarray(class_indices)
        if not len(y):
            return self
        step = max(1, _BLOCK_VALUES // self.n_features)  # as _row_chunks'
        stack = self._leaf_rows(self.root, np.arange(len(y)), X)
        while stack:
            leaf, rows = stack.pop()
            take = rows[:min(self.grace_period - leaf.n_since_eval, step)]
            x = X[take]
            leaf.train_rows(x, y[take])
            _fold(np.minimum, leaf.fmin, x)
            _fold(np.maximum, leaf.fmax, x)
            leaf.n_since_eval += len(take)
            if leaf.n_since_eval == self.grace_period:
                leaf.n_since_eval = 0
                self._attempt_split(leaf)
            if len(rows) > len(take):
                stack += self._leaf_rows(leaf, rows[len(take):], X)
        return self

    @staticmethod
    def _leaf_rows(node, rows, X):
        """(leaf, its rows, in order) for each leaf below node that some of
        the rows of X at rows reach, by _route's rule: NaN goes right."""
        out, stack = [], [(node, rows)]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out.append((node, rows))
            else:
                left = X[rows, node.feature] <= node.threshold
                stack += [(child, part) for child, part in
                          ((node.left, rows[left]), (node.right, rows[~left]))
                          if len(part)]
        return out

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
        for leaf, rows in self._leaf_rows(self.root, np.arange(len(X)), X):
            out[rows] = self._leaf_distribution(leaf)
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
