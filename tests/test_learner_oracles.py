"""Differential tests: each learner hot path against a scalar oracle.

The oracles are the straightforward versions of the same arithmetic: kNN
lexsorts the whole store, naive Bayes scores one class at a time, and the
Hoeffding tree scores one feature, class and threshold at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harbench.learners import (N_CANDIDATE_THRESHOLDS, GaussianNbClassifier,
                               HoeffdingTreeClassifier, KnnClassifier,
                               _entropy, hoeffding_bound)


def knn_oracle(knn, x):
    """Vote of the k first rows of the whole store by (distance, insertion)."""
    n = knn.size
    diff = (knn._X[:n] - np.asarray(x, dtype=np.float64)) / knn._scale()
    dist = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((knn._seq[:n], dist))
    k = min(knn.k, n)
    return np.bincount(knn._y[order[:k]], minlength=len(knn.classes)) / k


def nb_oracle(nb, x):
    """Log posteriors, one seen class at a time; -inf for unseen classes."""
    x = np.asarray(x, dtype=np.float64)
    log_post = np.full(len(nb.classes), -np.inf)
    total = nb._count.sum()
    for ci in np.nonzero(nb._count > 0)[0]:
        var = np.maximum(nb._m2[ci] / nb._count[ci], nb.VAR_FLOOR)
        diff = x - nb._mean[ci]
        ll = -0.5 * np.sum(np.log(2 * math.pi * var) + diff * diff / var)
        log_post[ci] = math.log(nb._count[ci] / total) + ll
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


class TestKnnAgainstFullSort:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(1, 25),
           k=st.integers(1, 8), n_train=st.integers(1, 60),
           n_features=st.integers(1, 4), decimals=st.sampled_from([0, 1]))
    def test_votes_equal_the_full_sort(self, seed, capacity, k, n_train,
                                       n_features, decimals):
        # coarse rounding gives duplicate rows and distance ties; more rows
        # than capacity wrap the FIFO store round
        rng = np.random.default_rng(seed)
        knn = KnnClassifier(classes=(0, 1, 2), n_features=n_features, k=k,
                            capacity=capacity)
        X = np.round(rng.normal(scale=2.0, size=(n_train, n_features)), decimals)
        for x, label in zip(X, rng.integers(0, 3, size=n_train)):
            knn.train(x, int(label))
        queries = np.round(rng.normal(scale=2.0, size=(5, n_features)), decimals)
        for q in [*queries, *X[-3:]]:
            np.testing.assert_array_equal(knn.predict(q), knn_oracle(knn, q))

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
        # the row with a NaN has a NaN distance; at k=3 it is the k-th one
        knn = KnnClassifier(classes=(0, 1), n_features=2, k=k, capacity=3)
        for x, label in [([0.0, 0.0], 0), ([1.0, np.nan], 0), ([2.0, 1.0], 1),
                         ([0.5, 0.5], 1)]:
            knn.train(x, label)  # the last row overwrites slot 0
        probs = knn.predict([0.0, 0.0])
        np.testing.assert_array_equal(probs, knn_oracle(knn, [0.0, 0.0]))
        np.testing.assert_array_equal(probs, [0.0, 1.0] if k == 2 else [1 / 3, 2 / 3])


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
        assert features == list(oracle)
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
