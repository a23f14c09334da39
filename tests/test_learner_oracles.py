"""Differential tests: each learner hot path against a scalar oracle.

The oracles are the straightforward versions of the same arithmetic: kNN
lexsorts the whole store, naive Bayes scores one class at a time, and the
Hoeffding tree scores one feature, class and threshold at a time.
"""

import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harbench import evaluation, learners
from harbench.dataset import SyntheticSpec, generate_synthetic
from harbench.ensemble import Ensemble, LearnerParams
from harbench.features import N_FEATURES
from harbench.learners import (KNN_FILTER_MIN_ROWS, KNN_FIRST_BLOCK,
                               N_CANDIDATE_THRESHOLDS, GaussianNbClassifier,
                               HoeffdingTreeClassifier, KnnClassifier,
                               LearnerError, _entropy, _margin,
                               _sq_distances, hoeffding_bound)
from harbench.windowing import WindowConfig


def insertion_index(knn):
    """Each slot's insertion index: the latest t < n_trained with
    t = slot (mod capacity)."""
    slots = np.arange(knn.size)
    return slots + knn.capacity * ((knn.n_trained - 1 - slots) // knn.capacity)


def knn_oracle(knn, x):
    """Vote of the k first rows of the whole store by (distance, insertion)."""
    n = knn.size
    diff = (knn._X[:n] - np.asarray(x, dtype=np.float64)) / knn._scale()
    dist = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((insertion_index(knn), dist))
    k = min(knn.k, n)
    return np.bincount(knn._y[order[:k]], minlength=len(knn.classes)) / k


def trained_knn(X, capacity=None):
    """A k = 5 store trained on the rows of X, labeled 0, 1, 2 in turn."""
    knn = KnnClassifier(classes=(0, 1, 2), n_features=X.shape[1], k=5,
                        capacity=capacity or len(X))
    for i, x in enumerate(X):
        knn.train(x, i % 3)
    return knn


def assert_every_slot(slots, n):
    """slots is the integer array of every slot, 0 ... n - 1."""
    assert slots.dtype.kind == "i"
    np.testing.assert_array_equal(slots, np.arange(n))


def assert_votes_equal_the_full_sort(knn, queries):
    """predict of each query, and predict_rows of them all, equal the
    oracle's votes."""
    expected = [knn_oracle(knn, q) for q in queries]
    for q, want in zip(queries, expected):
        np.testing.assert_array_equal(knn.predict(q), want)
    np.testing.assert_array_equal(knn.predict_rows(queries), expected)


def nb_oracle(nb, x):
    """Log posteriors, one seen class at a time; -inf for unseen classes."""
    x = np.asarray(x, dtype=np.float64)
    log_post = np.full(len(nb.classes), -np.inf)
    total = nb.counts.sum()
    for ci in np.nonzero(nb.counts > 0)[0]:
        var = np.maximum(nb.m2[ci] / nb.counts[ci], nb.VAR_FLOOR)
        diff = x - nb.mean[ci]
        ll = -0.5 * np.sum(np.log(2 * math.pi * var) + diff * diff / var)
        log_post[ci] = math.log(nb.counts[ci] / total) + ll
    return log_post


def scalar_split_gains(tree, leaf, feature):
    """One feature's first best (gain, threshold), or None without a range."""
    lo, hi = leaf.fmin[feature], leaf.fmax[feature]
    if not (hi > lo):
        return None
    thresholds = np.linspace(lo, hi, N_CANDIDATE_THRESHOLDS + 2)[1:-1]
    h_parent = _entropy(leaf.counts)
    left = np.zeros((len(thresholds), len(leaf.counts)))
    for ci in np.nonzero(leaf.counts > 0)[0]:
        n_c = leaf.counts[ci]
        mu = leaf.mean[ci, feature]
        sigma = math.sqrt(max(leaf.m2[ci, feature] / n_c, 1e-18))
        for ti, t in enumerate(thresholds):
            frac = 0.5 * (1.0 + math.erf((t - mu) / sigma / math.sqrt(2.0)))
            left[ti, ci] = n_c * frac
    best = None
    for ti, t in enumerate(thresholds):
        lc = left[ti]
        rc = leaf.counts - lc
        gain = h_parent - (lc.sum() * _entropy(lc)
                           + rc.sum() * _entropy(rc)) / leaf.counts.sum()
        if best is None or gain > best[0]:
            best = (gain, float(t))
    return best


def scalar_split_decision(tree, leaf):
    """(feature, threshold) the feature-by-feature search splits on, or None."""
    best = second = (0.0, None, None)
    for f in range(tree.n_features):
        result = scalar_split_gains(tree, leaf, f)
        if result is None:
            continue
        gain, threshold = result
        if gain > best[0]:
            second = best
            best = (gain, f, threshold)
        elif gain > second[0]:
            second = (gain, f, None)
    if best[1] is None or best[0] <= 0.0:
        return None
    eps = hoeffding_bound(tree.value_range, tree.delta, int(leaf.counts.sum()))
    if best[0] - second[0] > eps or eps < tree.tie_threshold:
        return best[1], best[2]
    return None


def member_hash(member):
    """A member's state as Ensemble.state_hash reads it: its __dict__."""
    return hashlib.sha256(pickle.dumps(member.__dict__)).hexdigest()


def refusal(train):
    """The LearnerError message train() raises, or None."""
    try:
        train()
    except LearnerError as exc:
        return str(exc)
    return None


def assert_batches_train_as_the_row_loop(member, X, y, cuts):
    """train_rows over X and class indices y, in one call per part between
    cuts, leaves a copy of member with the bits, and raises the error, of
    train on each row in turn."""
    loop, batch = (pickle.loads(pickle.dumps(member)) for _ in range(2))
    classes = member.classes

    def rows():
        for x, ci in zip(X, y):
            loop.train(x, classes[ci])

    def parts():
        for lo, hi in zip((0,) + cuts, cuts + (len(X),)):
            batch.train_rows(X[lo:hi], y[lo:hi])

    assert refusal(parts) == refusal(rows)
    assert member_hash(batch) == member_hash(loop)
    return batch


def labeled_rows(rng, n, n_features, n_classes, pattern, decimals):
    """n rows and class indices: one class, runs of one class (as a stream
    holds them), or drawn row by row; rounded values repeat, and round
    small negatives to -0.0."""
    if pattern == "single":
        y = np.full(n, n_classes - 1)
    elif pattern == "runs":
        y = np.repeat(rng.integers(0, n_classes, size=n),
                      rng.integers(1, 40, size=n))[:n]
    else:
        y = rng.integers(0, n_classes, size=n)
    X = (rng.normal(size=(n, n_features))
         + y[:, None] * rng.uniform(0.0, 2.0, size=n_features))
    if decimals is not None:
        X = np.round(X, decimals)
    return X, y


BAD_VALUE = st.one_of(st.none(), st.sampled_from([np.nan, np.inf, -np.inf]))


class TestKnnAgainstFullSort:
    # inf queries make inf - inf, which numpy warns about
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           capacity=st.one_of(st.integers(1, 25),
                              st.integers(KNN_FILTER_MIN_ROWS - 10, 600)),
           k=st.integers(1, 8),
           n_train=st.one_of(st.integers(1, 60),
                             st.integers(KNN_FILTER_MIN_ROWS, 700)),
           n_features=st.one_of(st.integers(1, 4), st.integers(5, 81)),
           decimals=st.sampled_from([None, 0, 1]),
           log_scale=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
           offset=st.sampled_from([0.0, 1e3, -1e6]),
           n_duplicates=st.integers(0, 30),
           bad_query=BAD_VALUE, n_chunks=st.integers(1, 4))
    def test_votes_equal_the_full_sort(self, seed, capacity, k, n_train,
                                       n_features, decimals, log_scale,
                                       offset, n_duplicates, bad_query,
                                       n_chunks):
        # Stores on both sides of the filter's crossover. Feature scales
        # from 1e-3 to 1e3 and a large common offset make the filter's
        # expansion cancel; coarse rounding and copied rows give duplicate
        # rows and ties or near-ties across the k boundary; more rows than
        # capacity wrap the FIFO store round; predictions run between
        # chunks of training, so the store and its scale change in between.
        rng = np.random.default_rng(seed)
        knn = KnnClassifier(classes=(0, 1, 2), n_features=n_features, k=k,
                            capacity=capacity)
        scales = 10.0 ** rng.uniform(min(log_scale), max(log_scale),
                                     size=n_features)

        def draw(n):
            values = rng.normal(scale=2.0, size=(n, n_features)) * scales
            values += offset
            return values if decimals is None else np.round(values, decimals)

        X = draw(n_train)
        # copies of a few rows, half of them one ulp off in one feature,
        # so distances tie or differ by less than the filter's rounding
        sources = rng.integers(0, n_train, size=3)
        copies = rng.integers(0, n_train, size=n_duplicates)
        X[copies] = X[rng.choice(sources, size=n_duplicates)]
        X[copies, rng.integers(n_features, size=n_duplicates)] *= np.where(
            rng.random(n_duplicates) < 0.5, 1.0, 1.0 + 2.0 ** -52)
        queries = np.vstack([draw(3), X[sources]])
        if bad_query is not None:  # the store refuses such rows
            queries[rng.integers(len(queries)),
                    rng.integers(n_features)] = bad_query
        labels = rng.integers(0, 3, size=n_train)
        cuts = np.sort(rng.integers(0, n_train + 1, size=n_chunks - 1))
        for chunk in np.split(np.arange(n_train), cuts):
            for i in chunk:
                knn.train(X[i], int(labels[i]))
            for q in [*queries, *X[chunk[-3:]]] if knn.size else []:
                np.testing.assert_array_equal(knn.predict(q),
                                              knn_oracle(knn, q))

    def test_filter_ranks_only_the_nearest_rows(self):
        # well-separated rows above the crossover: the filter's intervals
        # leave just the k nearest, and the vote still equals the full sort
        rng = np.random.default_rng(3)
        knn = KnnClassifier(classes=(0, 1), n_features=81, k=5,
                            capacity=KNN_FILTER_MIN_ROWS)
        X = rng.normal(size=(KNN_FILTER_MIN_ROWS, 81)) + 50.0
        for i, x in enumerate(X):
            knn.train(x, i % 2)
        q = X[7] + 0.01
        rows = knn._candidates(q, knn._scale(), knn.k)
        assert len(rows) == knn.k and 7 in rows
        np.testing.assert_array_equal(knn.predict(q), knn_oracle(knn, q))
        # one row fewer, and every row is ranked
        small = KnnClassifier(classes=(0, 1), n_features=81, k=5,
                              capacity=KNN_FILTER_MIN_ROWS - 1)
        for i, x in enumerate(X[1:]):
            small.train(x, i % 2)
        assert_every_slot(small._candidates(q, small._scale(), 5), small.size)

    def test_exactly_k_kept_rows_vote_unranked(self, monkeypatch):
        # the store above keeps exactly k rows for this query: they are the
        # k nearest, so predict votes them without computing a distance
        rng = np.random.default_rng(3)
        X = rng.normal(size=(KNN_FILTER_MIN_ROWS, 81)) + 50.0
        knn = KnnClassifier(classes=(0, 1), n_features=81, k=5,
                            capacity=KNN_FILTER_MIN_ROWS)
        for i, x in enumerate(X):
            knn.train(x, i % 2)
        q = X[7] + 0.01
        assert len(knn._candidates(q, knn._scale(), knn.k)) == knn.k
        want = knn_oracle(knn, q)

        def refuse(*args):
            raise AssertionError("exactly k kept rows were ranked")

        monkeypatch.setattr(learners, "_sq_distances", refuse)
        np.testing.assert_array_equal(knn.predict(q), want)

    @pytest.mark.parametrize("n_train, capacity", [(1, 5), (5, 5), (7, 3)])
    def test_a_store_of_at_most_k_rows_votes_unranked(self, n_train, capacity,
                                                      monkeypatch):
        # k is min(k, stored rows): every stored row votes, in any order,
        # so predict votes them without computing a distance, a NaN
        # query's too
        rng = np.random.default_rng(n_train)
        X = rng.normal(size=(n_train, 4))
        knn = trained_knn(X, capacity)
        assert knn.size <= knn.k
        queries = np.vstack([rng.normal(size=(3, 4)), [np.nan, 0, 0, 0]])
        expected = [knn_oracle(knn, q) for q in queries]

        def refuse(*args):
            raise AssertionError("a store of at most k rows was ranked")

        monkeypatch.setattr(learners, "_sq_distances", refuse)
        for q, want in zip(queries, expected):
            np.testing.assert_array_equal(knn.predict(q), want)

    def test_candidates_are_an_integer_array_of_slots(self):
        # below the crossover, with weights that are not normal, for a
        # query _bounded refuses, and for a filtered query
        rng = np.random.default_rng(3)
        n = KNN_FILTER_MIN_ROWS + 36
        X = rng.normal(size=(n, 4)) + 50.0
        tiny = X.copy()
        tiny[:, 0] = np.where(np.arange(n) % 2, 1e-20, -1e-20)
        q = X[7] + 0.01
        for knn, query, size in [
                (trained_knn(X[:KNN_FILTER_MIN_ROWS - 1]), q,
                 KNN_FILTER_MIN_ROWS - 1),
                (trained_knn(tiny), tiny[7] + 0.01, n),
                (trained_knn(X), q + [np.nan, 0, 0, 0], n)]:
            assert_every_slot(knn._candidates(query, knn._scale(), 5), size)
        knn = trained_knn(X)
        slots = knn._candidates(q, knn._scale(), 5)
        assert slots.dtype.kind == "i" and 5 <= len(slots) < n and 7 in slots

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_weights_over_an_infinite_square_stay_quiet(self):
        # Feature 0 spreads 1e-20 about 0, so w is not normal in float32
        # and _filter_terms gives zeros. Row 60 lies 1e20 from the center
        # in feature 1, so its float32 square is infinite and its a is
        # 0 * inf, NaN, which _bounded refuses. Both paths rank every row,
        # and neither warns.
        rng = np.random.default_rng(19)
        n = KNN_FILTER_MIN_ROWS + 40
        X = rng.normal(size=(n, 4))
        X[:, 0] = np.where(np.arange(n) % 2, 1e-20, -1e-20)
        X[60, 1] = 1e20
        with np.errstate(over="ignore"):  # train's float32 square
            knn = trained_knn(X)
        w, a, top = knn._filter_terms(knn._scale())
        assert not w.any() and np.isnan(a[60]) and np.isnan(top)
        queries = np.vstack([X[:6] + [0.0, 0.5, -0.5, 0.25], X[60]])
        assert_votes_equal_the_full_sort(knn, queries)

    def test_copies_tied_at_the_kth_distance_are_ranked(self, monkeypatch):
        # row 7 and k copies of it tie at the k-th distance: the filter
        # keeps all k + 1, they are ranked, and the k inserted first vote
        rng = np.random.default_rng(3)
        n, k = KNN_FILTER_MIN_ROWS + 20, 5
        X = rng.normal(size=(n, 81)) + 50.0
        copies = np.arange(40, 40 + 7 * k, 7)
        X[copies] = X[7]
        labels = np.ones(n, dtype=np.int64)
        labels[7] = 0
        labels[copies[:k - 1]] = 0  # the last copy, inserted last, is 1
        knn = KnnClassifier(classes=(0, 1), n_features=81, k=k, capacity=n)
        for x, label in zip(X, labels):
            knn.train(x, int(label))
        q = X[7] + 0.01
        assert len(knn._candidates(q, knn._scale(), k)) == k + 1
        ranked = []

        def sq_distances(*args):
            ranked.append(len(args[0]))
            return _sq_distances(*args)

        monkeypatch.setattr(learners, "_sq_distances", sq_distances)
        np.testing.assert_array_equal(knn.predict(q), [1.0, 0.0])
        np.testing.assert_array_equal(knn.predict(q), knn_oracle(knn, q))
        assert ranked and min(ranked) >= k + 1

    def test_a_weight_that_is_not_normal_ranks_every_row(self):
        # Above the crossover, a feature spread 1.2e-154 about 0 has weight
        # 1 / scale^2 ~ 7e307, past 1 / tiny: the margin's bound does not
        # hold, so predict and predict_rows rank every row.
        rng = np.random.default_rng(5)
        n = KNN_FILTER_MIN_ROWS + 44
        X = rng.normal(size=(n, 4))
        X[:, 0] = np.where(np.arange(n) % 2, 1.2e-154, -1.2e-154)
        knn = KnnClassifier(classes=(0, 1, 2), n_features=4, k=5, capacity=n)
        for i, x in enumerate(X):
            knn.train(x, i % 3)
        assert not knn._filter_terms(knn._scale())[0].any()
        queries = X[:6] + [0.0, 0.5, -0.5, 0.25]
        assert_every_slot(knn._candidates(queries[0], knn._scale(), 5), n)
        expected = [knn_oracle(knn, q) for q in queries]
        for q, want in zip(queries, expected):
            np.testing.assert_array_equal(knn.predict(q), want)
        np.testing.assert_array_equal(knn.predict_rows(queries), expected)

    def test_a_weight_outside_float32_ranks_every_row(self):
        # A feature spread 1e-20 about 0 has weight ~1e40: normal in
        # float64, past float32's largest value, so the float32 filter's
        # bound does not hold and every row is ranked.
        rng = np.random.default_rng(13)
        n = KNN_FILTER_MIN_ROWS + 40
        X = rng.normal(size=(n, 4))
        X[:, 0] = np.where(np.arange(n) % 2, 1e-20, -1e-20)
        knn = trained_knn(X)
        assert not knn._filter_terms(knn._scale())[0].any()
        queries = X[:6] + [0.0, 0.5, -0.5, 0.25]
        assert_every_slot(knn._candidates(queries[0], knn._scale(), 5), n)
        assert_votes_equal_the_full_sort(knn, queries)

    # the square overflows, and inf - inf is NaN in predict_rows' ends
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_centered_square_past_float32_ranks_every_row(self):
        # One row 1e20 from the center in a feature whose weight is still
        # normal in float32 (~3e-38): its float32 square overflows, so the
        # upper ends are not all finite and every row is ranked.
        rng = np.random.default_rng(14)
        n = KNN_FILTER_MIN_ROWS + 140
        X = rng.normal(size=(n, 4))
        X[100, 0] = 1e20
        knn = trained_knn(X)
        assert knn._filter_terms(knn._scale())[0].all()
        assert np.isinf(knn._Xc2[100, 0])
        queries = np.vstack([X[:6] + [0.0, 0.5, -0.5, 0.25], X[100]])
        for q in queries:
            assert_every_slot(knn._candidates(q, knn._scale(), 5), n)
        assert_votes_equal_the_full_sort(knn, queries)

    # -2 w q overflows float32, and inf - inf is NaN
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_query_past_float32_ranks_every_row(self):
        # A query 1e39 from the center where w ~ 1: -2 w q is infinite in
        # float32 while c stays finite in float64. Every exact distance
        # rounds to the same 1e78, so the five earliest rows left after the
        # wrap, the only ones of class 0, win the tie; a filter that
        # trusted its infinite ends would drop those below the center.
        rng = np.random.default_rng(17)
        n = KNN_FILTER_MIN_ROWS + 40
        X = rng.normal(size=(n + 20, 4))
        knn = KnnClassifier(classes=(0, 1, 2), n_features=4, k=5, capacity=n)
        for i, x in enumerate(X):
            knn.train(x, 0 if 20 <= i < 25 else 1 + i % 2)
        assert (X[20:25, 0] < X[0, 0]).any() and (X[20:25, 0] > X[0, 0]).any()
        queries = X[:4] + [[1e39, 0, 0, 0], [-1e39, 0, 0, 0],
                           [0, 0, 3e38, 0], [0, 1e30, 0, 0]]
        for q in queries[:3]:
            assert_every_slot(knn._candidates(q, knn._scale(), 5), n)
        assert_votes_equal_the_full_sort(knn, queries)
        np.testing.assert_array_equal(knn.predict(queries[0]), [1, 0, 0])

    def test_a_query_past_the_guard_with_finite_ends_ranks_every_row(self):
        # One feature of the query 6.6e18 scales from the center: c ~ 4.4e37,
        # so 8 (max a + c) passes float32's largest, while -2 w q (~1.3e19
        # in that feature) and each row's upper end stay finite. The
        # one-query filter takes predict_rows' guard and ranks every row.
        rng = np.random.default_rng(18)
        n = 300
        X = rng.normal(size=(n, N_FEATURES))
        knn = trained_knn(X)
        scale = knn._scale()
        q = X[0] + np.eye(N_FEATURES)[3] * 6.6e18 * scale[3]
        w, p = 1.0 / (scale * scale), q - knn._center
        c = (w * p) @ p
        a = (knn._Xc2[:n] @ w.astype(np.float32)).astype(np.float64)
        assert 8.0 * (a.max() + c) > np.finfo(np.float32).max
        wq2 = (-2.0 * w * p).astype(np.float32)
        assert np.isfinite(wq2).all()
        upper = knn._Xc[:n] @ wq2 + a + c + _margin(a, c, w)
        assert np.isfinite(upper).all()
        assert_every_slot(knn._candidates(q, scale, 5), n)
        assert_votes_equal_the_full_sort(knn, np.vstack([q, X[:3] + 0.01]))

    def test_centered_values_that_underflow_float32(self):
        # Feature 0 spreads ~1e-19 (weight ~1e38, normal in float32), but
        # twenty copies of the center differ from it (0 there) only by
        # multiples of 1e-39 or 1e-46, which float32 holds as subnormals or
        # zero and whose squares it flushes to 0. For a query there the
        # filter's a and c are ~0 and its error is all underflow, which
        # only the margin's absolute term covers.
        rng = np.random.default_rng(15)
        n = KNN_FILTER_MIN_ROWS + 40
        X = rng.normal(size=(n, 4))
        X[:, 0] = rng.normal(scale=1e-19, size=n)
        X[0, 0] = 0.0
        copies = np.arange(50, 70)
        X[copies, 1:] = X[0, 1:]
        X[copies, 0] = np.where(copies % 2, 1e-39, 1e-46) * (copies % 7)
        knn = trained_knn(X)
        assert knn._filter_terms(knn._scale())[0].all()
        queries = np.array([[2e-39, *X[0, 1:]], [3e-46, *X[0, 1:]],
                            [0.0, *X[0, 1:]],
                            X[3] + [0.0, 0.01, -0.01, 0.01]])
        for q in queries:
            rows = knn._candidates(q, knn._scale(), 5)
            assert len(rows) < n
        assert_votes_equal_the_full_sort(knn, queries)

    def test_a_center_far_from_every_later_row(self, monkeypatch):
        # The first row, which the store keeps as its center, lies 1e6 from
        # every later row and is overwritten when the store wraps: the
        # centered values are large and their margins wide, but the filter
        # still runs and keeps every row that can vote.
        rng = np.random.default_rng(16)
        capacity = KNN_FILTER_MIN_ROWS + 40
        X = rng.normal(size=(capacity + 60, 6))
        X[0] = 1e6
        knn = trained_knn(X, capacity)
        assert knn.n_trained > knn.capacity
        np.testing.assert_array_equal(knn._center, X[0])
        queries = np.vstack([X[-8:] + 0.01, rng.normal(size=(4, 6))])
        filtered, approx = [], KnnClassifier._approx

        def counted(*args):
            filtered.append(True)
            return approx(*args)

        with monkeypatch.context() as patch:
            patch.setattr(KnnClassifier, "_approx", counted)
            for q in queries:
                knn._candidates(q, knn._scale(), 5)
        # the filter computed its values for every query
        assert len(filtered) == len(queries)
        assert_votes_equal_the_full_sort(knn, queries)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600),
           n_features=st.integers(1, 81), n_rows=st.integers(1, 12))
    def test_a_rows_distance_is_the_same_in_any_subset(self, seed, n,
                                                       n_features, n_rows):
        # the refine ranks the filter's candidates as the whole store would
        # only if each row's distance has the same bits in either array
        rng = np.random.default_rng(seed)
        X = (rng.normal(size=(n, n_features))
             * 10.0 ** rng.uniform(-3, 3, size=n_features) + 1e3)
        q = rng.normal(size=n_features) + 1e3
        scale = 10.0 ** rng.uniform(-3, 3, size=n_features)
        rows = np.sort(rng.choice(n, size=min(n_rows, n), replace=False))
        assert (_sq_distances(X[rows], q, scale).tobytes()
                == _sq_distances(X, q, scale)[rows].tobytes())

    def test_tie_group_across_the_wrap_prefers_older(self):
        knn = KnnClassifier(classes=(0, 1, 2), n_features=1, k=2, capacity=3)
        for x, label in [(5.0, 0), (1.0, 1), (-1.0, 0), (1.0, 2)]:
            knn.train([x], label)  # the last row overwrites slot 0
        # three rows tie at distance 1 and k=2 cuts the group: the rows
        # inserted second and third vote, not the one in the lowest slot
        np.testing.assert_array_equal(knn.predict([0.0]), [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(knn.predict([0.0]),
                                      knn_oracle(knn, [0.0]))

    @pytest.mark.parametrize("k", [2, 3])
    def test_nan_distance_ranks_last(self, k):
        # a row with a NaN would have a NaN distance; the store refuses it,
        # so the other three rows fill it and none is overwritten
        knn = KnnClassifier(classes=(0, 1), n_features=2, k=k, capacity=3)
        for x, label in [([0.0, 0.0], 0), ([1.0, np.nan], 0), ([2.0, 1.0], 1),
                         ([0.5, 0.5], 1)]:
            if np.isnan(x).any():
                with pytest.raises(LearnerError):
                    knn.train(x, label)
            else:
                knn.train(x, label)
        assert knn.n_trained == 3
        probs = knn.predict([0.0, 0.0])
        np.testing.assert_array_equal(probs, knn_oracle(knn, [0.0, 0.0]))
        np.testing.assert_array_equal(probs, [0.5, 0.5] if k == 2 else [1 / 3, 2 / 3])


class TestNbAgainstClassLoop:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 12),
           n_seen=st.integers(1, 12), n_features=st.integers(1, 90),
           n_train=st.integers(1, 80))
    def test_log_posteriors_bit_equal(self, seed, n_classes, n_seen,
                                      n_features, n_train):
        rng = np.random.default_rng(seed)
        nb = GaussianNbClassifier(classes=range(n_classes), n_features=n_features)
        seen = rng.permutation(n_classes)[:n_seen]  # the rest stay unseen
        for label in rng.choice(seen, size=n_train):
            x = rng.normal(loc=label, scale=rng.uniform(0.01, 5.0),
                           size=n_features)
            nb.train(x, int(label))
        for _ in range(3):
            x = rng.normal(scale=4.0, size=n_features)
            assert nb.log_posteriors(x).tobytes() == nb_oracle(nb, x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 12),
           all_seen=st.booleans(), n_features=st.integers(1, 90),
           n_train=st.integers(0, 80))
    def test_predict_bit_equal(self, seed, n_classes, all_seen, n_features,
                               n_train):
        # predict is the oracle's log posteriors exp-normalized, whether
        # every class is trained (no gathered copies) or only some are
        rng = np.random.default_rng(seed)
        nb = GaussianNbClassifier(classes=range(n_classes),
                                  n_features=n_features)
        n_seen = n_classes if all_seen else rng.integers(1, n_classes + 1)
        seen = rng.permutation(n_classes)[:n_seen]
        for label in [*seen, *rng.choice(seen, size=n_train)]:
            x = rng.normal(loc=label, scale=rng.uniform(0.01, 5.0),
                           size=n_features)
            nb.train(x, int(label))
        assert (nb.counts > 0).sum() == n_seen
        for _ in range(3):
            x = rng.normal(scale=4.0, size=n_features)
            log_post = nb_oracle(nb, x)
            log_post = log_post - log_post.max()
            probs = np.exp(log_post)
            assert nb.predict(x).tobytes() == (probs / probs.sum()).tobytes()


class TestVfdtAgainstScalarSearch:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 12),
           decimals=st.sampled_from([None, 0, 1]), n_constant=st.integers(0, 4),
           n=st.integers(20, 300), delta=st.sampled_from([1e-7, 0.05, 0.5]),
           tie_threshold=st.sampled_from([0.0, 0.05, 0.5]))
    def test_same_candidates_and_decision(self, seed, n_classes, decimals,
                                          n_constant, n, delta, tie_threshold):
        rng = np.random.default_rng(seed)
        n_features = 24
        tree = HoeffdingTreeClassifier(classes=range(n_classes),
                                       n_features=n_features, delta=delta,
                                       tie_threshold=tie_threshold,
                                       grace_period=10**9)
        y = rng.integers(0, n_classes, size=n)
        y[:2] = [0, 1]  # at least two classes reach the leaf
        X = (rng.normal(size=(n, n_features))
             + y[:, None] * rng.uniform(0.0, 2.0, size=n_features))
        if decimals is not None:  # coarse values: equal gains and thresholds
            X = np.round(X, decimals)
        X[:, 1] = X[:, 0]  # an exact duplicate: the earlier feature must win
        X[:, n_features - n_constant:] = 1.5
        for x, label in zip(X, y):
            tree.train(x, int(label))
        leaf = tree.root

        features, gains, thresholds = tree._split_candidates(leaf)
        oracle = {f: scalar_split_gains(tree, leaf, f)
                  for f in range(n_features)}
        oracle = {f: r for f, r in oracle.items() if r is not None}
        assert list(features) == list(oracle)
        for f, gain, threshold in zip(features, gains, thresholds):
            assert threshold == oracle[f][1]
            assert abs(gain - oracle[f][0]) <= 1e-12

        expected = scalar_split_decision(tree, leaf)
        tree._attempt_split(leaf)
        if expected is None:
            assert leaf.is_leaf and tree.n_splits == 0
        else:
            assert (leaf.feature, leaf.threshold) == expected

    def test_no_ranged_feature_never_splits(self):
        tree = HoeffdingTreeClassifier(classes=(0, 1), n_features=3,
                                       grace_period=10)
        for i in range(40):
            tree.train([1.0, 2.0, 3.0], i % 2)
        assert tree.n_splits == 0


class TestTrainRowsAgainstRowLoop:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_before=st.sampled_from([0, 0, 1, 7, 40]),
           n=st.one_of(st.integers(0, 12),
                       st.integers(KNN_FIRST_BLOCK - 20, 700)),
           n_features=st.sampled_from([1, 3, 81]),
           n_classes=st.integers(1, 5),
           pattern=st.sampled_from(["single", "runs", "drawn"]),
           decimals=st.sampled_from([None, 0]),
           capacity=st.one_of(st.integers(1, 30),
                              st.integers(KNN_FIRST_BLOCK - 5, 900)),
           grace=st.one_of(st.integers(1, 5), st.just(200)),
           tie=st.sampled_from([0.05, 1.0, 2.0]),
           cut=st.floats(0.0, 1.0), bad=BAD_VALUE)
    def test_each_member_as_its_row_loop(self, seed, n_before, n, n_features,
                                         n_classes, pattern, decimals,
                                         capacity, grace, tie, cut, bad):
        # From a member that trained n_before rows by train (none: the
        # batch trains the first row ever, the kNN's center), through a
        # first store block that fills and grows, a capacity that wraps
        # several times in one chunk, and trees that split inside a batch,
        # in two train_rows calls that meet at any row. A NaN or infinite
        # value: the kNN refuses its row after the rows before it, and the
        # other members train it as train does.
        rng = np.random.default_rng(seed)
        X, y = labeled_rows(rng, n_before + n, n_features, n_classes,
                            pattern, decimals)
        if bad is not None and n:
            X[n_before + rng.integers(n), rng.integers(n_features)] = bad
        classes = tuple(range(10, 10 + n_classes))
        for member in (KnnClassifier(classes, n_features, k=3,
                                     capacity=capacity),
                       GaussianNbClassifier(classes, n_features),
                       HoeffdingTreeClassifier(classes, n_features,
                                               delta=0.05, tie_threshold=tie,
                                               grace_period=grace)):
            for x, ci in zip(X[:n_before], y[:n_before]):
                member.train(x, classes[ci])
            assert_batches_train_as_the_row_loop(
                member, X[n_before:], y[n_before:], (int(cut * n),))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 400),
           n_classes=st.integers(2, 4),
           pattern=st.sampled_from(["runs", "drawn"]),
           decimals=st.sampled_from([None, 0, 1]),
           grace=st.integers(1, 5), tie=st.sampled_from([1.0, 1.5, 3.0]))
    def test_tree_splits_inside_a_batch(self, seed, n, n_classes, pattern,
                                        decimals, grace, tie):
        # a bound below the tie threshold splits on the first positive gain
        rng = np.random.default_rng(seed)
        X, y = labeled_rows(rng, n, 6, n_classes, pattern, decimals)
        y[:2] = [0, 1]  # two classes before the first attempt
        X[:2] = [np.zeros(6), np.ones(6)]
        tree = HoeffdingTreeClassifier(range(n_classes), 6, delta=0.05,
                                       tie_threshold=tie, grace_period=grace)
        batch = assert_batches_train_as_the_row_loop(tree, X, y, ())
        assert batch.n_splits > 0

    @pytest.mark.parametrize("n_features", [1, 3])
    @pytest.mark.parametrize("other", [1.0, -1.0])
    @pytest.mark.parametrize("grace", [3, 200])
    def test_a_leafs_range_keeps_trains_zero(self, n_features, other, grace):
        # zeros of both signs are equal, so the one fmin or fmax keeps
        # depends on the order the rows fold in: the batch keeps train's.
        # A one-feature numpy reduction pairs the rows otherwise.
        rng = np.random.default_rng(2)
        for n in rng.integers(9, 300, size=30):
            X = rng.choice([0.0, -0.0, other], size=(n, n_features))
            y = rng.integers(0, 2, size=n)
            tree = HoeffdingTreeClassifier((0, 1), n_features, delta=0.05,
                                           tie_threshold=1.0,
                                           grace_period=grace)
            assert_batches_train_as_the_row_loop(tree, X, y, (n // 2,))

    def test_an_empty_batch_changes_nothing(self):
        for member in (KnnClassifier((1, 2), 4),
                       GaussianNbClassifier((1, 2), 4),
                       HoeffdingTreeClassifier((1, 2), 4)):
            before = member_hash(member)
            member.train_rows(np.zeros((0, 4)), np.zeros(0, dtype=int))
            assert member_hash(member) == before

    def test_counters_stay_python_ints(self):
        # state_hash pickles them: a numpy int of the same value differs
        rng = np.random.default_rng(5)
        X, y = labeled_rows(rng, 300, 4, 3, "drawn", None)
        tree = HoeffdingTreeClassifier(range(3), 4, tie_threshold=1.0,
                                       grace_period=7)
        knn = KnnClassifier(range(3), 4, capacity=50)
        tree.train_rows(X, y)
        knn.train_rows(X, y)
        assert tree.n_splits > 0
        assert type(knn.n_trained) is int
        assert all(type(leaf.n_since_eval) is int for leaf in tree.leaves())


    def test_each_leaf_trains_its_own_grace_segments(self, monkeypatch):
        # a leaf's naive Bayes calls end at its own grace-period boundaries,
        # never at another leaf's, and take at most one 101-row chunk of
        # 81-feature rows
        sizes = []
        train_rows = GaussianNbClassifier.train_rows

        def spy(nb, X, class_indices):
            sizes.append(len(X))
            return train_rows(nb, X, class_indices)

        monkeypatch.setattr(GaussianNbClassifier, "train_rows", spy)
        rng = np.random.default_rng(3)
        # two leaves of one class each, whose attempts never split
        tree = HoeffdingTreeClassifier((0, 1), 3, tie_threshold=-1.0,
                                       grace_period=10)
        tree._split(tree.root, 0, 0.0)
        y = np.arange(300) % 2
        X = rng.normal(size=(300, 3))
        X[:, 0] = np.where(y, 1.0, -1.0) * rng.uniform(0.5, 2.0, size=300)
        batch = assert_batches_train_as_the_row_loop(tree, X, y, ())
        assert sizes == [10] * 30
        assert batch.n_splits == 1
        sizes.clear()
        X, y = labeled_rows(rng, 1000, N_FEATURES, 2, "drawn", None)
        tree = HoeffdingTreeClassifier((0, 1), N_FEATURES, grace_period=200)
        assert_batches_train_as_the_row_loop(tree, X, y, ())
        assert max(sizes) <= 101 and sum(sizes) == 1000


FOLD_PARAMS = LearnerParams(knn_capacity=30, vfdt_grace_period=10,
                            vfdt_tie_threshold=1.0)


def row_loop_fold(tables, config, test_user, classes):
    """The fold's model trained by train on each row, user by user in
    sorted order, every member in turn."""
    model = Ensemble(classes, params=FOLD_PARAMS)
    for user in sorted(tables):
        starts, X, labels = tables[user]
        if user == test_user:
            continue
        for x, label in zip(X[starts % config.step == 0],
                            labels[starts % config.step == 0].tolist()):
            for member in model.members:
                member.train(x, label)
    return model


@pytest.mark.parametrize("overlap", [0.0, 0.5])
def test_every_fold_is_the_row_loops(overlap):
    # a store that wraps and a tree that splits inside one user's batch
    spec = SyntheticSpec.default(class_count=3, samples_per_class=400,
                                 users=(1, 2, 3, 4), noise_sigma=1.0, seed=3)
    config = WindowConfig(40, overlap)
    classes = spec.class_labels
    tables = evaluation.row_tables(generate_synthetic(spec), [config],
                                   valid_labels=classes)
    folds = evaluation.fold_models(tables, config, sorted(tables),
                                   FOLD_PARAMS, classes)
    for user, model in folds:
        assert model.members[2].n_splits > 0
        assert model.members[0].n_trained > 30
        want = row_loop_fold(tables, config, user, classes)
        assert model.state_hash() == want.state_hash()
