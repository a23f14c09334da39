"""Row-block prediction against the per-row methods, bit for bit.

Each learner's predict_rows scores a matrix of queries a chunk at a time;
every row must get the bits predict gives it alone. A small block size in
some examples makes many chunks and a ragged last one.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harbench import learners
from harbench.learners import (KNN_FILTER_MIN_ROWS, GaussianNbClassifier,
                               HoeffdingTreeClassifier, KnnClassifier,
                               LearnerError)

BAD_VALUE = st.one_of(st.none(), st.sampled_from([np.nan, np.inf, -np.inf]))
BLOCK = st.sampled_from([learners._BLOCK_VALUES, 7, 300])


def assert_rows_equal(learner, queries, block):
    with mock.patch.object(learners, "_BLOCK_VALUES", block):
        rows = learner.predict_rows(queries)
    single = np.array([learner.predict(q) for q in queries])
    assert rows.shape == (len(queries), len(learner.classes))
    assert rows.tobytes() == single.tobytes()


def spoil(rng, values, bad):
    """values with one entry set to bad, if bad is not None."""
    if bad is not None:
        values[rng.integers(len(values)), rng.integers(values.shape[1])] = bad
    return values


# inf rows and queries make inf - inf, and extreme scales overflow
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       capacity=st.one_of(st.integers(1, 25),
                          st.integers(KNN_FILTER_MIN_ROWS - 10, 600)),
       k=st.integers(1, 8),
       n_train=st.one_of(st.integers(1, 60),
                         st.integers(KNN_FILTER_MIN_ROWS, 800)),
       n_features=st.one_of(st.integers(1, 4), st.integers(5, 81)),
       decimals=st.sampled_from([None, 0, 1]),
       log_scale=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
       extreme=st.sampled_from([None, -200.0, 170.0]),
       offset=st.sampled_from([0.0, 1e3, -1e6]),
       n_duplicates=st.integers(0, 30),
       bad_row=BAD_VALUE, bad_query=BAD_VALUE,
       n_queries=st.integers(1, 40), block=BLOCK)
def test_knn_rows_equal_predict(seed, capacity, k, n_train, n_features,
                                decimals, log_scale, extreme, offset,
                                n_duplicates, bad_row, bad_query, n_queries,
                                block):
    # Stores on both sides of the filter's crossover, wrapped when n_train
    # passes capacity. Feature scales from 1e-3 to 1e3 and a large common
    # offset make the filter's expansion cancel; one feature at 1e-200 or
    # 1e170 makes w = 1/scale^2 not normal (and its squares underflow or
    # overflow). Rounding and copied rows give duplicate rows
    # and ties or near-ties across the k boundary, also at distance 0.
    rng = np.random.default_rng(seed)
    knn = KnnClassifier(classes=(0, 1, 2), n_features=n_features, k=k,
                        capacity=capacity)
    scales = 10.0 ** rng.uniform(min(log_scale), max(log_scale),
                                 size=n_features)
    if extreme is not None:
        scales[rng.integers(n_features)] = 10.0 ** extreme

    def draw(n):
        values = rng.normal(scale=2.0, size=(n, n_features)) * scales
        values += offset
        return values if decimals is None else np.round(values, decimals)

    X = draw(n_train)
    # copies of a few rows, half of them one ulp off in one feature, so
    # distances tie or differ by less than the filter's rounding
    sources = rng.integers(0, n_train, size=3)
    copies = rng.integers(0, n_train, size=n_duplicates)
    X[copies] = X[rng.choice(sources, size=n_duplicates)]
    X[copies, rng.integers(n_features, size=n_duplicates)] *= np.where(
        rng.random(n_duplicates) < 0.5, 1.0, 1.0 + 2.0 ** -52)
    spoil(rng, X, bad_row)
    for x, label in zip(X, rng.integers(0, 3, size=n_train)):
        knn.train(x, int(label))
    queries = np.vstack([draw(n_queries), X[sources],
                         X[rng.integers(0, n_train, size=2)]])
    assert_rows_equal(knn, spoil(rng, queries, bad_query), block)


def test_knn_rows_of_an_empty_store_raise():
    knn = KnnClassifier(classes=(0, 1), n_features=2)
    with pytest.raises(LearnerError):
        knn.predict_rows(np.zeros((3, 2)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 12),
       n_seen=st.integers(1, 12), n_features=st.integers(1, 90),
       n_train=st.integers(1, 80), n_queries=st.integers(1, 40),
       bad_query=BAD_VALUE, block=BLOCK)
def test_nb_rows_equal_predict(seed, n_classes, n_seen, n_features, n_train,
                               n_queries, bad_query, block):
    rng = np.random.default_rng(seed)
    nb = GaussianNbClassifier(classes=range(n_classes), n_features=n_features)
    seen = rng.permutation(n_classes)[:n_seen]  # the rest stay unseen
    for label in rng.choice(seen, size=n_train):
        nb.train(rng.normal(loc=label, scale=rng.uniform(0.01, 5.0),
                            size=n_features), int(label))
    queries = spoil(rng, rng.normal(scale=4.0, size=(n_queries, n_features)),
                    bad_query)
    assert_rows_equal(nb, queries, block)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 5),
       n=st.integers(50, 400), nan_share=st.sampled_from([0.0, 0.1, 0.5]),
       n_queries=st.integers(1, 60), block=BLOCK)
def test_tree_rows_equal_predict(seed, n_classes, n, nan_share, n_queries,
                                 block):
    # a low bound and tie threshold make the tree split within a few
    # grace periods; NaN features go right at every split, in both paths
    rng = np.random.default_rng(seed)
    tree = HoeffdingTreeClassifier(classes=range(n_classes), n_features=4,
                                   delta=0.5, tie_threshold=0.5,
                                   grace_period=20)
    y = rng.integers(0, n_classes, size=n)
    X = rng.normal(size=(n, 4)) + y[:, None] * rng.uniform(0.5, 2.0, size=4)
    for x, label in zip(X, y):
        tree.train(x, int(label))
    queries = rng.normal(scale=3.0, size=(n_queries, 4)) + n_classes / 2
    queries[rng.random(queries.shape) < nan_share] = np.nan
    assert_rows_equal(tree, queries, block)


def test_tree_rows_route_nan_right():
    tree = HoeffdingTreeClassifier(classes=(0, 1), n_features=2,
                                   grace_period=10, tie_threshold=1.0)
    for i in range(40):
        tree.train([float(i % 2), 0.0], i % 2)
    assert tree.n_splits == 1
    queries = np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, np.nan]])
    rows = tree.predict_rows(queries)
    assert rows.tobytes() == np.array(
        [tree.predict(q) for q in queries]).tobytes()
    assert rows[1].tobytes() == rows[2].tobytes() != rows[0].tobytes()
