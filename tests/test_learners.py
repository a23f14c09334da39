import math

import numpy as np
import pytest

from harbench.learners import (GaussianNbClassifier, HoeffdingTreeClassifier,
                               KnnClassifier, LearnerError, _check_rows,
                               _entropy, hoeffding_bound)


def assert_valid_distribution(probs):
    assert (probs >= 0).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0],
                                   [np.inf, 0.0], [1.5, -0.5]])
def test_check_distribution_rejects(probs):
    rows = np.array([[0.25, 0.75], probs, [np.nan, 0.0]])
    with pytest.raises(LearnerError) as err:
        _check_rows(rows)
    # the first row that fails is named
    assert str(err.value) == f"invalid class distribution: {rows[1]}"


@pytest.mark.parametrize("make", [KnnClassifier, GaussianNbClassifier,
                                  HoeffdingTreeClassifier])
def test_unknown_class_raises_learner_error(make):
    learner = make(classes=(1, 2), n_features=2)
    with pytest.raises(LearnerError):
        learner.train([0.0, 1.0], 3)
    if isinstance(learner, GaussianNbClassifier):
        with pytest.raises(LearnerError):
            learner.class_stats(3)


class TestKnn:
    def test_exact_match_single_instance(self):
        knn = KnnClassifier(classes=(1, 2), n_features=3, k=5)
        x = np.array([1.0, 2.0, 3.0])
        knn.train(x, 1)
        probs = knn.predict(x)
        assert probs[0] == 1.0
        assert_valid_distribution(probs)

    def test_vote_fractions(self):
        knn = KnnClassifier(classes=(1, 2), n_features=1, k=3)
        knn.train([0.0], 1)
        knn.train([0.1], 1)
        knn.train([0.2], 2)
        knn.train([100.0], 2)  # outside the neighborhood
        probs = knn.predict([0.05])
        assert probs[0] == pytest.approx(2 / 3)
        assert probs[1] == pytest.approx(1 / 3)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        knn = KnnClassifier(classes=tuple(range(4)), n_features=8, k=5,
                            capacity=1000)
        X = rng.normal(size=(200, 8))
        y = rng.integers(0, 4, size=200)
        for x, label in zip(X, y):
            knn.train(x, int(label))
        # oracle: all-pairs distances on the same z-scored space
        mean = X.mean(axis=0)
        std = np.sqrt(((X - mean) ** 2).mean(axis=0))
        std = np.where(std > 0, std, 1.0)
        for _ in range(50):
            q = rng.normal(size=8)
            d = (((X - q) / std) ** 2).sum(axis=1)
            nearest = np.argsort(d, kind="stable")[:5]
            votes = np.bincount(y[nearest], minlength=4)
            assert int(np.argmax(knn.predict(q))) == int(np.argmax(votes))

    def test_fifo_eviction(self):
        knn = KnnClassifier(classes=(1, 2), n_features=1, k=1, capacity=2)
        knn.train([0.0], 1)
        knn.train([10.0], 2)
        knn.train([20.0], 2)  # evicts the point at 0.0
        assert knn.size == 2
        probs = knn.predict([0.0])
        assert probs[1] == 1.0  # nearest survivor is class 2

    def test_distance_tie_prefers_older(self):
        knn = KnnClassifier(classes=(1, 2), n_features=1, k=1)
        knn.train([1.0], 1)
        knn.train([-1.0], 2)  # same distance from 0
        assert np.argmax(knn.predict([0.0])) == 0

    def test_predict_empty_store(self):
        knn = KnnClassifier(classes=(1, 2), n_features=1)
        with pytest.raises(LearnerError):
            knn.predict([0.0])

    def test_small_store_is_not_allocated_to_capacity(self):
        knn = KnnClassifier(classes=(1, 2), n_features=3, capacity=5000)
        for i in range(10):
            knn.train([i, 0.0, 1.0], 1 + i % 2)
        assert max(len(knn._X), len(knn._Xc), len(knn._Xc2),
                   len(knn._y)) <= 256

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_refused(self, bad):
        # a stored NaN or inf would make the running mean and m2 NaN for good
        rng = np.random.default_rng(4)
        knn = KnnClassifier(classes=(1, 2), n_features=3, k=3)
        twin = KnnClassifier(classes=(1, 2), n_features=3, k=3)
        for i, x in enumerate(rng.normal(size=(20, 3))):
            knn.train(x, 1 + i % 2)
            twin.train(x, 1 + i % 2)
        with pytest.raises(LearnerError):
            knn.train([0.0, bad, 1.0], 1)
        assert knn.n_trained == twin.n_trained
        for q in rng.normal(size=(5, 3)):
            np.testing.assert_array_equal(knn.predict(q), twin.predict(q))
        np.testing.assert_array_equal(knn._scale(), twin._scale())

    def test_k_falls_back_to_store_size(self):
        knn = KnnClassifier(classes=(1, 2), n_features=1, k=10)
        knn.train([0.0], 1)
        knn.train([1.0], 2)
        assert_valid_distribution(knn.predict([0.5]))


class TestGaussianNb:
    def test_single_class_certainty(self):
        nb = GaussianNbClassifier(classes=(3, 7), n_features=2)
        nb.train([0.0, 1.0], 7)
        probs = nb.predict([50.0, -3.0])
        assert probs[1] == 1.0

    def test_incremental_matches_batch_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(loc=3.0, scale=2.0, size=(500, 6))
        y = rng.integers(0, 3, size=500)
        nb = GaussianNbClassifier(classes=(0, 1, 2), n_features=6)
        for x, label in zip(X, y):
            nb.train(x, int(label))
        for c in (0, 1, 2):
            sel = X[y == c]
            n, mean, var = nb.class_stats(c)
            assert n == len(sel)
            np.testing.assert_allclose(mean, sel.mean(axis=0), rtol=1e-9)
            np.testing.assert_allclose(var, ((sel - sel.mean(axis=0)) ** 2).mean(axis=0),
                                       rtol=1e-9, atol=1e-12)

    def test_well_separated_classes(self):
        rng = np.random.default_rng(2)
        nb = GaussianNbClassifier(classes=(0, 1), n_features=1)
        for _ in range(200):
            nb.train([rng.normal(0.0, 1.0)], 0)
            nb.train([rng.normal(10.0, 1.0)], 1)
        probs = nb.predict([0.0])
        assert probs[0] > 0.999

    def test_log_space_matches_direct_space(self):
        rng = np.random.default_rng(3)
        nb = GaussianNbClassifier(classes=(0, 1), n_features=2)
        for _ in range(50):
            nb.train(rng.normal(0, 1, 2), 0)
            nb.train(rng.normal(2, 1, 2), 1)
        x = rng.normal(1, 1, 2)
        # direct-space posterior on a low-dimension case
        direct = []
        for c in (0, 1):
            n, mean, var = nb.class_stats(c)
            var = np.maximum(var, nb.VAR_FLOOR)
            density = np.prod(np.exp(-0.5 * (x - mean) ** 2 / var)
                              / np.sqrt(2 * math.pi * var))
            direct.append(n / nb.counts.sum() * density)
        direct = np.array(direct) / sum(direct)
        np.testing.assert_allclose(nb.predict(x), direct, atol=1e-6)

    def test_predict_before_update(self):
        nb = GaussianNbClassifier(classes=(0, 1), n_features=1)
        with pytest.raises(LearnerError):
            nb.predict([0.0])

    def test_zero_variance_feature_does_not_blow_up(self):
        nb = GaussianNbClassifier(classes=(0, 1), n_features=1)
        for _ in range(5):
            nb.train([1.0], 0)
            nb.train([2.0], 1)
        assert_valid_distribution(nb.predict([1.0]))


class TestHoeffdingBound:
    def test_reference_value(self):
        assert hoeffding_bound(1.0, 0.05, 1000) == pytest.approx(0.0387030,
                                                                 abs=1e-6)

    def test_monotone_in_n_and_delta(self):
        eps = [hoeffding_bound(1.0, 0.05, n) for n in (10, 100, 1000, 10000)]
        assert eps == sorted(eps, reverse=True)
        eps_d = [hoeffding_bound(1.0, d, 100) for d in (0.01, 0.05, 0.2, 0.5)]
        assert eps_d == sorted(eps_d, reverse=True)

    def test_quadrupling_n_halves_exactly(self):
        for n in (1, 7, 250):
            assert hoeffding_bound(2.0, 1e-7, 4 * n) == \
                hoeffding_bound(2.0, 1e-7, n) / 2

    def test_domain_errors(self):
        with pytest.raises(LearnerError):
            hoeffding_bound(1.0, 0.05, 0)
        with pytest.raises(LearnerError):
            hoeffding_bound(1.0, 1.5, 10)
        with pytest.raises(LearnerError):
            hoeffding_bound(0.0, 0.05, 10)


def separable_stream(rng, n, n_features=5):
    """Two classes split perfectly by feature 0 (disjoint bands with a
    margin); other features are noise."""
    X = rng.normal(size=(n, n_features))
    y = rng.integers(0, 2, size=n)
    X[:, 0] = rng.uniform(1.0, 2.0, size=n) * np.where(y == 0, -1.0, 1.0)
    return X, y


class TestHoeffdingTree:
    def test_single_class_never_splits(self):
        rng = np.random.default_rng(4)
        tree = HoeffdingTreeClassifier(classes=(1, 2), n_features=3,
                                       grace_period=50)
        for _ in range(2000):
            tree.train(rng.normal(size=3), 1)
        assert tree.n_splits == 0
        assert np.argmax(tree.predict(rng.normal(size=3))) == 0

    def test_separable_stream_single_split_high_accuracy(self):
        rng = np.random.default_rng(5)
        X, y = separable_stream(rng, 10_000)
        tree = HoeffdingTreeClassifier(classes=(0, 1), n_features=5)
        for x, label in zip(X, y):
            tree.train(x, int(label))
        assert tree.n_splits == 1
        assert tree.root.feature == 0
        Xh, yh = separable_stream(rng, 2000)
        correct = sum(int(np.argmax(tree.predict(x))) == label
                      for x, label in zip(Xh, yh))
        assert correct / len(yh) >= 0.99

    def test_equal_gains_split_on_the_earlier_feature(self):
        rng = np.random.default_rng(6)
        X, y = separable_stream(rng, 400)
        X[:, 3] = X[:, 0]  # equal statistics, so equal best gains
        tree = HoeffdingTreeClassifier(classes=(0, 1), n_features=5,
                                       tie_threshold=1.0, grace_period=400)
        for x, label in zip(X, y):
            tree.train(x, int(label))
        assert tree.n_splits == 1
        assert tree.root.feature == 0

    def test_pure_split_gain_equals_parent_entropy(self):
        parent = np.array([40.0, 60.0])
        left = np.array([40.0, 0.0])
        right = parent - left
        h_parent = _entropy(parent)
        gain = h_parent - (left.sum() * _entropy(left)
                           + right.sum() * _entropy(right)) / parent.sum()
        assert gain == pytest.approx(h_parent)

    def test_unsplit_leaf_holds_the_naive_bayes_statistics(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 4)) * [1.0, 1e3, 1e-3, 0.0]
        y = rng.integers(0, 3, size=300)
        tree = HoeffdingTreeClassifier(classes=(0, 1, 2), n_features=4,
                                       grace_period=301)
        nb = GaussianNbClassifier(classes=(0, 1, 2), n_features=4)
        for x, label in zip(X, y):
            tree.train(x, int(label))
            nb.train(x, int(label))
        assert tree.n_splits == 0
        for name in ("counts", "mean", "m2"):
            assert (getattr(tree.root, name).tobytes()
                    == getattr(nb, name).tobytes())

    def test_leaves_count_one_more_than_the_splits(self):
        # every split turns one leaf into two
        rng = np.random.default_rng(9)
        X = rng.normal(size=(1500, 4))
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
        tree = HoeffdingTreeClassifier(classes=(0, 1, 2), n_features=4,
                                       tie_threshold=0.5, grace_period=50)
        for x, label in zip(X, y):
            tree.train(x, int(label))
        leaves = tree.leaves()
        assert tree.n_splits >= 2
        assert len(leaves) == tree.n_splits + 1
        assert len({id(leaf) for leaf in leaves}) == len(leaves)
        assert all(leaf.is_leaf for leaf in leaves)

    def test_predictions_are_distributions(self):
        rng = np.random.default_rng(7)
        tree = HoeffdingTreeClassifier(classes=(0, 1, 2), n_features=4,
                                       grace_period=50)
        for _ in range(500):
            x = rng.normal(size=4)
            tree.train(x, int(rng.integers(0, 3)))
            assert_valid_distribution(tree.predict(x))

    @pytest.mark.parametrize("kw", [{"delta": 0.0}, {"delta": 1.0},
                                    {"delta": float("nan")},
                                    {"grace_period": 0},
                                    {"tie_threshold": float("nan")}])
    def test_bad_parameters_rejected_at_construction(self, kw):
        with pytest.raises(LearnerError):
            HoeffdingTreeClassifier(classes=(0, 1), n_features=2, **kw)
