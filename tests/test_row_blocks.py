"""Row-block prediction against the per-row methods, bit for bit.

Each learner's predict_rows scores a matrix of queries a chunk at a time;
every row must get the bits predict gives it alone. A small block size in
some examples makes many chunks and a ragged last one, and makes the kNN
filter read the store in many blocks.
"""

import tracemalloc
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
STORE_ROWS = st.sampled_from([learners._KNN_STORE_ROWS, 1, 3, 7, 40])


def assert_rows_equal(learner, queries, block,
                      store_rows=learners._KNN_STORE_ROWS):
    with mock.patch.object(learners, "_BLOCK_VALUES", block), \
            mock.patch.object(learners, "_KNN_STORE_ROWS", store_rows):
        rows = learner.predict_rows(queries)
    single = np.array([learner.predict(q) for q in queries])
    assert rows.shape == (len(queries), len(learner.classes))
    assert rows.tobytes() == single.tobytes()
    return rows


def spoil(rng, values, bad):
    """values with one entry set to bad, if bad is not None."""
    if bad is not None:
        values[rng.integers(len(values)), rng.integers(values.shape[1])] = bad
    return values


# inf queries make inf - inf, and extreme scales overflow
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
       bad_query=BAD_VALUE, n_queries=st.integers(1, 40), block=BLOCK,
       store_rows=STORE_ROWS)
def test_knn_rows_equal_predict(seed, capacity, k, n_train, n_features,
                                decimals, log_scale, extreme, offset,
                                n_duplicates, bad_query, n_queries, block,
                                store_rows):
    # Stores on both sides of predict's filter crossover, wrapped when
    # n_train passes capacity. store_rows sets the queries in a chunk, and
    # a small block makes predict_rows read the store in several blocks,
    # with a ragged last one and with fewer rows than k. Feature scales
    # from 1e-3 to 1e3 and a large common offset make the filter's
    # expansion cancel; one feature at 1e-200 or 1e170 makes
    # w = 1/scale^2 not normal (and its squares underflow or overflow);
    # the store refuses NaN and infinite rows, so only queries carry them.
    # Rounding and copied rows give duplicate rows and ties or near-ties
    # across the k boundary, also at distance 0.
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
    for x, label in zip(X, rng.integers(0, 3, size=n_train)):
        knn.train(x, int(label))
    queries = np.vstack([draw(n_queries), X[sources],
                         X[rng.integers(0, n_train, size=2)]])
    assert_rows_equal(knn, spoil(rng, queries, bad_query), block,
                      store_rows)


# A block value of 2b and a store block of b rows make two-query chunks
# that read the store b rows at a time.
@pytest.mark.parametrize("block_rows", [1, 3, 4, 128])
def test_knn_rows_break_ties_by_insertion_across_blocks(block_rows):
    # One row trained three times, each time with another label, in a
    # store that wraps: the first copy is overwritten by the third, which
    # takes slot 0, so the earliest surviving copy (label 1) sits in a
    # later block than the newest one (label 2) and still wins the tie.
    knn = KnnClassifier(classes=(0, 1, 2), n_features=2, k=1, capacity=10)
    far = np.arange(8.0)[:, None] * [10.0, -7.0] + 100.0
    for label, fillers in [(0, far[:4]), (1, far[4:]), (2, [])]:
        knn.train([0.5, 0.5], label)
        for x in fillers:
            knn.train(x, 0)
    assert knn.n_trained == 11
    queries = np.array([[0.5, 0.5], [0.5, 0.25], far[5]])
    rows = assert_rows_equal(knn, queries, 2 * block_rows, block_rows)
    assert rows[:2].tolist() == [[0, 1, 0]] * 2


@pytest.mark.parametrize("block_rows", [2, 3, 128])
def test_knn_rows_with_k_above_a_blocks_rows(block_rows):
    rng = np.random.default_rng(11)
    knn = KnnClassifier(classes=(0, 1, 2), n_features=5, k=7, capacity=30)
    for i, x in enumerate(rng.normal(size=(41, 5))):
        knn.train(x, i % 3)
    assert_rows_equal(knn, rng.normal(size=(25, 5)), 2 * block_rows,
                      block_rows)


@pytest.mark.parametrize("n", [128, 2000])
def test_knn_one_query_chunk_takes_the_block_filter(n):
    # A one-row chunk, alone or the tail of a longer block, is scored by
    # the two blocked passes like any other chunk, with predict's bits;
    # stores on both sides of predict's crossover.
    rng = np.random.default_rng(n)
    knn = KnnClassifier(classes=(0, 1, 2), n_features=81, k=5, capacity=n)
    for i, x in enumerate(rng.normal(size=(n, 81))):
        knn.train(x, i % 3)
    per_chunk = learners._BLOCK_VALUES // min(n, learners._KNN_STORE_ROWS)
    queries = rng.normal(size=(per_chunk + 1, 81))
    calls, approx = [], KnnClassifier._approx

    def counted(self, wq2, *args):
        calls.append(len(wq2))  # the queries of one blocked pass's call
        return approx(self, wq2, *args)

    def approx_calls(X):
        # predict_rows' calls alone: predict filters these stores too
        calls.clear()
        with mock.patch.object(KnnClassifier, "_approx", counted):
            rows = knn.predict_rows(X)
        single = np.array([knn.predict(q) for q in X])
        assert rows.tobytes() == single.tobytes()
        return list(calls)

    one = approx_calls(queries[-1:])
    head = approx_calls(queries[:-1])  # one full chunk
    assert approx_calls(queries) == head + one
    # both passes, each over the one query
    assert len(one) >= 2 and set(one) == {1}


def test_knn_rows_of_a_store_whose_filter_could_overflow():
    # The first row trained is the filter's center, and every later row
    # lies 1e20 from it in feature 0, whose weight 1/scale^2 (~3e-38) is
    # still normal in float32: each later row's centered square overflows
    # float32, so a is infinite. predict's upper ends are then not finite,
    # and predict_rows' k-th upper end is infinite, so both rank every row
    # of the store for every query.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(300, 3))
    X[1:, 0] += 1e20
    knn = KnnClassifier(classes=(0, 1), n_features=3, k=3, capacity=300)
    with np.errstate(over="ignore"):
        for i, x in enumerate(X):
            knn.train(x, i % 2)
    assert knn._filter_terms(knn._scale())[0].all()
    assert np.isinf(knn._Xc2[1:, 0]).all()
    queries = X[:5] + [0.0, 0.1, -0.1]
    ranked, exact = [], learners._sq_distances

    def counted(rows, x, scale):
        ranked.append(len(rows))
        return exact(rows, x, scale)

    with mock.patch.object(learners, "_sq_distances", counted), \
            np.errstate(over="ignore", invalid="ignore"):
        assert_rows_equal(knn, queries, 300, 7)
    # predict_rows' pairs, then predict's rows: every row, for each query
    assert sum(ranked) == 2 * len(queries) * len(X)


def test_knn_rows_filter_a_store_below_the_crossover():
    # predict ranks every row of a store this small; predict_rows filters
    # it, and refines only the pairs near each query's k nearest
    rng = np.random.default_rng(4)
    n = KNN_FILTER_MIN_ROWS // 2
    knn = KnnClassifier(classes=(0, 1), n_features=81, k=5, capacity=n)
    X = rng.normal(size=(n, 81))
    for i, x in enumerate(X):
        knn.train(x, i % 2)
    queries = X[:40] + 0.01
    refined, exact = [], learners._sq_distances

    def counted(rows, x, scale):
        refined.append(len(rows))
        return exact(rows, x, scale)

    with mock.patch.object(learners, "_sq_distances", counted):
        knn.predict_rows(queries)
    assert sum(refined) < 2 * knn.k * len(queries)
    assert_rows_equal(knn, queries, learners._BLOCK_VALUES)


def test_knn_rows_of_a_full_store_stay_in_small_temporaries():
    # 500 queries against 5,000 rows of 81 features: the store is read in
    # blocks, so no temporary scales with it, and each stays under glibc's
    # mmap threshold (peak_rss_mb)
    rng = np.random.default_rng(8)
    knn = KnnClassifier(classes=tuple(range(12)), n_features=81)
    for i, x in enumerate(rng.normal(size=(knn.capacity, 81))):
        knn.train(x, i % 12)
    queries = rng.normal(size=(500, 81))
    tracemalloc.start()
    try:
        knn.predict_rows(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
