"""Differential tests: each learner hot path against a scalar oracle.

The oracles are the straightforward versions of the same arithmetic: kNN
lexsorts the whole store, naive Bayes scores one class at a time, and the
Hoeffding tree scores one feature, class and threshold at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harbench.learners import (KNN_FILTER_MIN_ROWS, N_CANDIDATE_THRESHOLDS,
                               GaussianNbClassifier, HoeffdingTreeClassifier,
                               KnnClassifier, LearnerError, _entropy,
                               _sq_distances, hoeffding_bound)


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
        assert small._candidates(q, small._scale(), 5) == slice(small.size)

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
        assert knn._filter_weights(knn._scale()) is None
        queries = X[:6] + [0.0, 0.5, -0.5, 0.25]
        assert knn._candidates(queries[0], knn._scale(), 5) == slice(n)
        expected = [knn_oracle(knn, q) for q in queries]
        for q, want in zip(queries, expected):
            np.testing.assert_array_equal(knn.predict(q), want)
        np.testing.assert_array_equal(knn.predict_rows(queries), expected)

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
