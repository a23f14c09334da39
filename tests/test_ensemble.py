from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harbench import learners
from harbench.ensemble import (MODES, Ensemble, EnsembleError,
                               LearnerParams, Prediction)
from harbench.evaluation import write_audit_csv
from harbench.features import FeatureVector, N_FEATURES
from harbench.learners import LearnerError


def fv(values, label=1, user=1, index=0):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (N_FEATURES,):
        padded = np.zeros(N_FEATURES)
        padded[:len(values)] = values
        values = padded
    return FeatureVector(values=values, label=label, user_id=user,
                         window_index=index)


class StubMember:
    """Fixed-output member for exercising the vote/confidence arithmetic."""
    size = 1

    def __init__(self, dist):
        self.dist = np.asarray(dist, dtype=np.float64)
        self.trained = []

    def predict(self, x):
        return self.dist

    def train(self, x, label):
        self.trained.append(label)


def stub_ensemble(dists, classes=(1, 2)):
    model = Ensemble(classes)
    model.members = [StubMember(d) for d in dists]
    return model


def make_instances(rng, n, classes=(1, 2, 3), sep=6.0, noise=0.5, shift=0.0):
    out = []
    for i in range(n):
        label = classes[i % len(classes)]
        center = sep * classes.index(label)
        out.append(fv(rng.normal(center + shift, noise, size=N_FEATURES),
                      label=label, index=i))
    return out


def list_vote(dists):
    """The vote as a loop over members: (winner index, confidence)."""
    votes = [int(np.argmax(d)) for d in dists]
    counts = np.bincount(votes, minlength=len(dists[0]))
    tied = np.nonzero(counts == counts.max())[0]
    if len(tied) > 1:
        summed = sum(dists)
        winner = int(tied[np.argmax(summed[tied])])
    else:
        winner = int(tied[0])
    voting = [d[winner] for d, v in zip(dists, votes) if v == winner]
    return winner, float(np.mean(voting) * len(voting) / len(dists))


@st.composite
def member_posteriors(draw, n_classes=None):
    """Three posteriors over 2-12 classes; repeated rows, one-hot rows and
    coarse weights make vote ties and summed-posterior ties common."""
    n_classes = n_classes or draw(st.integers(2, 12))
    rows = []
    for _ in range(3):
        kind = draw(st.sampled_from(["weights", "floats", "one-hot", "copy"]))
        if kind == "copy" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
            continue
        w = np.zeros(n_classes)
        if kind == "weights":
            w += draw(st.lists(st.integers(0, 3), min_size=n_classes,
                               max_size=n_classes))
        elif kind == "floats":
            w += draw(st.lists(st.floats(0.0, 1.0), min_size=n_classes,
                               max_size=n_classes))
            decimals = draw(st.sampled_from([None, 0, 1, 2]))
            if decimals is not None:
                w = np.round(w, decimals)
        w[draw(st.integers(0, n_classes - 1))] += 1.0  # a positive total
        rows.append(w / w.sum())
    return rows


class TestClassify:
    @settings(max_examples=400, deadline=None)
    @given(dists=member_posteriors())
    def test_matrix_vote_equals_the_list_vote(self, dists):
        classes = tuple(range(10, 10 + len(dists[0])))
        pred = stub_ensemble(dists, classes=classes).classify(fv([0.0]))
        winner, confidence = list_vote(dists)
        assert pred.label == classes[winner]
        assert pred.confidence.hex() == confidence.hex()

    def test_unanimous_certainty(self):
        model = stub_ensemble([[1.0, 0.0]] * 3)
        pred = model.classify(fv([0.0]))
        assert pred.label == 1
        assert pred.confidence == 1.0

    def test_documented_confidence_arithmetic(self):
        model = stub_ensemble([[0.9, 0.1], [0.8, 0.2], [0.4, 0.6]])
        pred = model.classify(fv([0.0]))
        assert pred.label == 1
        assert pred.confidence == pytest.approx(((0.9 + 0.8) / 2) * (2 / 3))

    def test_three_way_tie_broken_by_summed_posterior(self):
        model = stub_ensemble([[0.9, 0.1, 0.0], [0.1, 0.6, 0.3],
                               [0.2, 0.2, 0.6]], classes=(1, 2, 3))
        pred = model.classify(fv([0.0]))
        # one vote each; summed posteriors: 1.2, 0.9, 0.9 -> class 1
        assert pred.label == 1

    def test_confidence_never_exceeds_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dists = []
            for _ in range(3):
                p = rng.random(4)
                dists.append(p / p.sum())
            pred = stub_ensemble(dists, classes=(1, 2, 3, 4)).classify(fv([0.0]))
            assert 0.0 <= pred.confidence <= 1.0

    def test_nan_trained_member_is_rejected(self):
        # naive Bayes gives a NaN query NaN posteriors; they must not reach
        # the vote as confidence=nan
        model = Ensemble((1, 2)).train_offline([fv(np.zeros(N_FEATURES))])
        with pytest.raises(LearnerError):
            model.classify(fv(np.full(N_FEATURES, np.nan)))

    def test_clear_rows_skip_the_array_check(self):
        model = stub_ensemble([[0.9, 0.1], [0.8, 0.2], [0.4, 0.6]])
        with mock.patch("harbench.ensemble._check_rows") as check:
            model.classify(fv([0.0]))
        check.assert_not_called()

    def test_a_sum_within_the_check_classifies(self):
        # 5e-10 off 1 fails the float screen but passes _check_rows' 1e-9
        model = stub_ensemble([[0.5, 0.5 + 5e-10], [1.0, 0.0], [1.0, 0.0]])
        pred = model.classify(fv([0.0]))
        assert pred.label == 1
        assert pred.confidence == 2 / 3

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [1.0, np.nan],
                                     [np.inf, 0.0], [-1e-300, 1.0],
                                     [0.5, 0.5 + 2e-9]],
                             ids=["nan-first", "nan-last", "inf",
                                  "negative", "sum-off-2e-9"])
    def test_an_invalid_row_is_named(self, bad):
        model = stub_ensemble([[1.0, 0.0], bad, [1.0, 0.0]])
        with pytest.raises(LearnerError) as err:
            model.classify(fv([0.0]))
        assert str(err.value) == (
            f"invalid class distribution: {np.array(bad)}")

    def test_untrained_model_raises(self):
        with pytest.raises(EnsembleError):
            Ensemble((1, 2)).classify(fv([0.0]))


class RowStub:
    """Member whose posterior for a query is row int(x[0]) of a table."""
    size = 1

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def predict(self, x):
        return self.table[int(x[0])]

    def predict_rows(self, X):
        return self.table[X[:, 0].astype(int)]


@st.composite
def posterior_tables(draw):
    """member_posteriors draws over one class count, one per query: up to
    90 queries picked from up to 30 draws, so that 40-row chunks can end
    in a ragged one."""
    n_classes = draw(st.integers(2, 12))
    table = draw(st.lists(member_posteriors(n_classes), min_size=1,
                          max_size=30))
    picks = draw(st.lists(st.integers(0, len(table) - 1), min_size=1,
                          max_size=90))
    return [table[i] for i in picks]


def assert_rows_classify_alike(model, X, chunk_rows=None):
    """classify_rows(X), in chunks of chunk_rows rows or of the default
    size, gives each row classify's Prediction: its label, and the bits of
    its confidence and of every member posterior."""
    block = learners._BLOCK_VALUES
    if chunk_rows is not None:
        block = chunk_rows * len(model.members) * len(model.classes)
    with mock.patch.object(learners, "_BLOCK_VALUES", block):
        rows = model.classify_rows(X)
    preds = [model.classify(fv(x)) for x in X]
    assert all(type(row) is Prediction for row in rows)
    assert [row.label for row in rows] == [p.label for p in preds]
    assert ([row.confidence.hex() for row in rows]
            == [p.confidence.hex() for p in preds])
    for row, p in zip(rows, preds):
        assert row.member_distributions.shape == p.member_distributions.shape
        assert (row.member_distributions.tobytes()
                == p.member_distributions.tobytes())


class TestClassifyRows:
    @settings(max_examples=200, deadline=None)
    @given(queries=posterior_tables(),
           chunk_rows=st.sampled_from([None, 1, 40]))
    def test_block_vote_equals_classify(self, queries, chunk_rows):
        # vote ties, summed-posterior ties and every confidence, over
        # chunks of one row, of 40 rows with a ragged last one, or all
        classes = tuple(range(10, 10 + len(queries[0][0])))
        model = Ensemble(classes)
        model.members = [RowStub([q[m] for q in queries]) for m in range(3)]
        X = np.zeros((len(queries), N_FEATURES))
        X[:, 0] = np.arange(len(queries))
        assert_rows_classify_alike(model, X, chunk_rows)

    @pytest.mark.parametrize("capacity", [100, 400])
    def test_trained_members_and_state(self, capacity):
        # stores on both sides of the kNN filter's crossover
        rng = np.random.default_rng(12)
        model = Ensemble((1, 2, 3),
                         params=LearnerParams(knn_capacity=capacity,
                                              vfdt_grace_period=50,
                                              vfdt_tie_threshold=0.5))
        model.train_offline(make_instances(rng, 450, noise=4.0))
        assert model.members[2].n_splits > 0
        before = model.state_hash()
        X = np.array([i.values for i in make_instances(rng, 150, noise=4.0)])
        assert_rows_classify_alike(model, X, chunk_rows=40)
        assert model.state_hash() == before

    def test_invalid_row_rejected(self):
        # as in classify, NaN posteriors never reach the vote
        model = Ensemble((1, 2)).train_offline([fv(np.zeros(N_FEATURES))])
        X = np.zeros((3, N_FEATURES))
        X[1] = np.nan
        with pytest.raises(LearnerError):
            model.classify_rows(X)

    def test_untrained_model_raises(self):
        with pytest.raises(EnsembleError):
            Ensemble((1, 2)).classify_rows(np.zeros((1, N_FEATURES)))


class TestTraining:
    def test_empty_training_set(self):
        with pytest.raises(EnsembleError):
            Ensemble((1, 2)).train_offline([])

    def test_rows_in_parts_train_as_train_offline(self):
        # train_rows over consecutive parts of the arrays, an empty one
        # among them, leaves the state one train_offline call leaves; no
        # rows leave an untrained model untrained
        instances = make_instances(np.random.default_rng(4), 90)
        X, labels = rows(instances)
        whole = Ensemble((1, 2, 3)).train_offline(instances)
        parts = Ensemble((1, 2, 3)).train_rows(X[:0], labels[:0])
        with pytest.raises(EnsembleError, match="untrained"):
            parts.classify_row(X[0])
        for lo, hi in ((0, 40), (40, 40), (40, 90)):
            parts.train_rows(X[lo:hi], labels[lo:hi])
        assert parts.state_hash() == whole.state_hash()
        a, b = parts.classify_row(X[0]), whole.classify(instances[0])
        assert (a.label, a.confidence) == (b.label, b.confidence)

    def test_train_offline_hands_train_rows_one_float64_call(self):
        # train_offline stacks its feature vectors whole: one train_rows
        # call gets every row, as float64, and every label, in stream
        # order, and leaves that call's state
        instances = make_instances(np.random.default_rng(15), 1000)
        X, labels = rows(instances)
        calls = []
        train_rows = Ensemble.train_rows

        def spying(model, part, part_labels):
            calls.append((part, part_labels))
            return train_rows(model, part, part_labels)

        with mock.patch.object(Ensemble, "train_rows", spying):
            offline = Ensemble((1, 2, 3)).train_offline(instances)
        assert len(calls) == 1
        part, part_labels = calls[0]
        assert type(part) is np.ndarray and part.dtype == np.float64
        assert part.shape == X.shape and part.tobytes() == X.tobytes()
        assert list(part_labels) == labels
        whole = Ensemble((1, 2, 3)).train_rows(X, labels)
        assert offline.state_hash() == whole.state_hash()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_train_offline_refuses_a_nan_row_after_the_rows_before_it(self):
        # a NaN at row 700 of 1000: the rows before it are trained into
        # every member, as a row loop leaves them, then it raises
        params = LearnerParams(knn_capacity=300, vfdt_grace_period=50)
        instances = make_instances(np.random.default_rng(16), 1000)
        X, labels = rows(instances)
        X[700, 4] = np.nan
        instances[700] = fv(X[700], label=labels[700], index=700)
        want, message = row_loop_model(params, X, labels)
        model = Ensemble((1, 2, 3), params=params)
        with pytest.raises(LearnerError) as exc:
            model.train_offline(instances)
        assert str(exc.value) == message
        assert model.state_hash() == want.state_hash()
        assert model.members[0].n_trained == 700

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(1)
        instances = make_instances(rng, 120)
        probes = make_instances(np.random.default_rng(2), 30)
        a = Ensemble((1, 2, 3)).train_offline(instances)
        b = Ensemble((1, 2, 3)).train_offline(instances)
        for probe in probes:
            pa, pb = a.classify(probe), b.classify(probe)
            assert pa.label == pb.label
            assert pa.confidence == pb.confidence

    def test_single_class_training(self):
        rng = np.random.default_rng(3)
        instances = make_instances(rng, 50, classes=(2,))
        model = Ensemble((1, 2)).train_offline(instances)
        pred = model.classify(fv(rng.normal(size=N_FEATURES)))
        assert pred.label == 2
        # VFDT Laplace smoothing keeps its posterior below 1, so confidence
        # is high but member-dependent; the vote itself is unanimous.
        assert all(int(np.argmax(d)) == 1 for d in pred.member_distributions)

    def test_separable_members_each_accurate(self, small_streams, small_spec):
        from harbench.features import extract_stream
        from harbench.windowing import WindowConfig, labeled_windows
        config = WindowConfig(50, 0.9)
        users = [extract_stream(labeled_windows(
            stream, config, valid_labels=small_spec.class_labels))
            for stream in small_streams]
        train, test = users[0] + users[1], users[2]
        # many equally informative features tie the top two gains, so the
        # tie path must be reachable within a few hundred instances
        params = LearnerParams(vfdt_grace_period=50, vfdt_delta=0.05,
                               vfdt_tie_threshold=0.5)
        model = Ensemble(small_spec.class_labels,
                         params=params).train_offline(train)
        for member in model.members:
            correct = sum(
                model.classes[int(np.argmax(member.predict(t.values)))] == t.label
                for t in test)
            assert correct / len(test) >= 0.9


def row_loop_model(params, X, labels):
    """A model whose members train each row in turn, as train_rows did
    when it was a row loop: it stops at the first row a member refuses."""
    model = Ensemble((1, 2, 3), params=params)
    try:
        for x, label in zip(X, labels):
            for member in model.members:
                member.train(x, label)
    except LearnerError as exc:
        return model, str(exc)
    return model, None


class TestTrainRowsRefusals:
    PARAMS = LearnerParams(knn_capacity=60, vfdt_grace_period=5,
                           vfdt_tie_threshold=1.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", ["label", np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 130, 249])
    def test_a_refused_row_raises_as_the_row_loop(self, bad, at):
        # row 130 lies in a later chunk than the first; the rows before the
        # refused one wrap the store and split the tree
        X, labels = rows(drawn_instances(np.random.default_rng(8), 250, 0.8))
        if bad == "label":
            labels[at] = 7
        else:
            X[at, 5] = bad
        want, message = row_loop_model(self.PARAMS, X, labels)
        model = Ensemble((1, 2, 3), params=self.PARAMS)
        with pytest.raises(LearnerError) as exc:
            model.train_rows(X, labels)
        assert str(exc.value) == message
        assert model.state_hash() == want.state_hash()
        if at > 100:
            assert model.members[2].n_splits > 0
            assert model.members[0].n_trained > 60

    @pytest.mark.parametrize("bad", ["label", np.nan])
    def test_a_refused_single_row(self, bad):
        X, labels = rows(drawn_instances(np.random.default_rng(8), 1, 0.8))
        if bad == "label":
            labels[0] = 7
        else:
            X[0, 0] = bad
        want, message = row_loop_model(self.PARAMS, X, labels)
        model = Ensemble((1, 2, 3), params=self.PARAMS)
        with pytest.raises(LearnerError, match=message):
            model.train_rows(X, labels)
        assert model.state_hash() == want.state_hash()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_model_that_refused_a_row_classifies_as_the_row_loop(self):
        # the rows before the refused one are trained into every member,
        # so the model classifies, as one train_rows call per row leaves it
        X, labels = rows(drawn_instances(np.random.default_rng(8), 8, 0.8))
        X[5, 3] = np.nan
        model, loop = (Ensemble((1, 2, 3), params=self.PARAMS)
                       for _ in range(2))
        with pytest.raises(LearnerError):
            model.train_rows(X, labels)
        with pytest.raises(LearnerError):
            for i in range(len(X)):
                loop.train_rows(X[i:i + 1], labels[i:i + 1])
        assert model.state_hash() == loop.state_hash()
        a, b = model.classify_row(X[0]), loop.classify_row(X[0])
        assert (a.label, a.confidence) == (b.label, b.confidence)
        assert ([(p.label, p.confidence) for p in model.classify_rows(X[:5])]
                == [(p.label, p.confidence)
                    for p in loop.classify_rows(X[:5])])

    @pytest.mark.parametrize("n_rows, n_labels", [(3, 1), (1, 3), (0, 2),
                                                  (2, 0)])
    def test_rows_and_labels_of_other_lengths(self, n_rows, n_labels):
        model = Ensemble((1, 2, 3))
        before = model.state_hash()
        with pytest.raises(EnsembleError, match="rows for"):
            model.train_rows(np.zeros((n_rows, N_FEATURES)), [1] * n_labels)
        assert model.state_hash() == before


class TestSelfUpdate:
    def test_gate_is_strict(self):
        model = stub_ensemble([[1.0, 0.0]] * 3)
        pred = Prediction(label=1, confidence=0.99,
                          member_distributions=np.array([[1.0, 0.0]] * 3))
        assert model.self_update(fv([0.0]), pred) is False
        assert all(m.trained == [] for m in model.members)

    def test_nan_gate_rejected(self):
        # confidence <= nan is never true, so a NaN gate would train every
        # instance back; a gate above 1 or below 0 is a valid setting
        with pytest.raises(EnsembleError):
            Ensemble((1, 2), LearnerParams(confidence_threshold=float("nan")))
        for theta in (1.01, -0.5):
            Ensemble((1, 2), LearnerParams(confidence_threshold=theta))

    def test_full_confidence_applies(self):
        model = stub_ensemble([[1.0, 0.0]] * 3)
        pred = model.classify(fv([0.0]))
        assert pred.confidence == 1.0
        assert model.self_update(fv([0.0]), pred) is True
        assert all(m.trained == [1] for m in model.members)

    def test_histogram_recount_matches_updates(self):
        rng = np.random.default_rng(4)
        model = Ensemble((1, 2, 3), params=LearnerParams(knn_capacity=500))
        model.train_offline(make_instances(rng, 90))
        stream = make_instances(rng, 300)
        audit = model.run_online(stream, "semi_supervised")
        gate_count = sum(1 for rec in audit if rec.confidence > 0.99)
        assert sum(1 for rec in audit if rec.updated) == gate_count

    def test_a_self_update_trains_each_member_by_train(self):
        # a self-update trains one row through each member's train: with
        # every member's train_rows refusing, self_update and a
        # semi-supervised run_blocks still update; and a one-row train_rows
        # leaves the state each member's train leaves, past a wrapped kNN
        # store and across the tree's grace-period boundaries
        rng = np.random.default_rng(16)
        params = LearnerParams(knn_capacity=60, vfdt_grace_period=5,
                               vfdt_tie_threshold=1.0,
                               confidence_threshold=0.3)
        model = Ensemble((1, 2, 3), params=params)
        model.train_offline(make_instances(rng, 90))
        stream = make_instances(rng, 40)
        twin = model.clone()

        def refuse(*args):
            raise AssertionError("a self-update called train_rows")

        with mock.patch.object(learners.KnnClassifier, "train_rows", refuse), \
                mock.patch.object(learners.GaussianNbClassifier,
                                  "train_rows", refuse), \
                mock.patch.object(learners.HoeffdingTreeClassifier,
                                  "train_rows", refuse):
            assert model.self_update(stream[0],
                                     model.classify(stream[0])) is True
            audit = model.run_blocks(*rows(stream[1:]), "semi_supervised")
        assert sum(rec.updated for rec in audit) > 20
        for inst in stream:
            by_train = twin.clone()
            for member in by_train.members:
                member.train(inst.values, inst.label)
            twin.train_rows(inst.values[None], [inst.label])
            assert twin.state_hash() == by_train.state_hash()
        assert twin.members[2].n_splits > 0


class TestRunOnline:
    def test_unknown_mode(self):
        model = stub_ensemble([[1.0, 0.0]] * 3)
        with pytest.raises(EnsembleError):
            model.run_online([fv([0.0])], "nonsense")

    def test_frozen_mode_never_mutates(self):
        rng = np.random.default_rng(5)
        model = Ensemble((1, 2, 3), params=LearnerParams(knn_capacity=300))
        model.train_offline(make_instances(rng, 90))
        before = model.state_hash()
        model.run_online(make_instances(rng, 100), "supervised_frozen")
        assert model.state_hash() == before

    def test_theta_above_one_equals_frozen(self):
        rng = np.random.default_rng(6)
        train = make_instances(rng, 90)
        stream = make_instances(rng, 150)
        frozen = Ensemble((1, 2, 3)).train_offline(train)
        gated = Ensemble((1, 2, 3),
                         params=LearnerParams(confidence_threshold=1.01))
        gated.train_offline(train)
        af = frozen.run_online(stream, "supervised_frozen")
        ag = gated.run_online(stream, "semi_supervised")
        assert ([r.predicted_label for r in af]
                == [r.predicted_label for r in ag])
        assert sum(r.updated for r in ag) == 0

    def test_gate_soundness_state_hash(self):
        rng = np.random.default_rng(7)
        model = Ensemble((1, 2), params=LearnerParams(knn_capacity=200))
        model.train_offline(make_instances(rng, 60, classes=(1, 2)))
        stream = make_instances(rng, 120, classes=(1, 2), noise=2.0)
        h = model.state_hash()
        for i, inst in enumerate(stream):
            pred = model.classify(inst)
            model.self_update(inst, pred)
            h2 = model.state_hash()
            if pred.confidence > 0.99:
                assert h2 != h
            else:
                assert h2 == h
            h = h2

    def test_clone_is_independent(self):
        rng = np.random.default_rng(8)
        model = Ensemble((1, 2, 3)).train_offline(make_instances(rng, 90))
        twin = model.clone()
        before = model.state_hash()
        twin.run_online(make_instances(rng, 60), "semi_supervised")
        assert model.state_hash() == before

    def test_equal_training_gives_equal_hash(self):
        # a kNN store's unfilled rows must not hash stale memory: filled
        # arrays of the store's sizes are freed before each model is built
        rng = np.random.default_rng(10)
        train = make_instances(rng, 50)
        hashes = set()
        for i in range(4):
            for shape in [(500, N_FEATURES), (500,)] * 4:
                np.full(shape, i + 0.5)
            model = Ensemble((1, 2, 3), params=LearnerParams(knn_capacity=500))
            hashes.add(model.train_offline(train).state_hash())
        assert len(hashes) == 1

    def test_wrapped_store_keeps_its_squares_and_hash(self):
        # the filter's centered float32 store and its squares are written
        # only by train: after the kNN store wraps they are still the store
        # less the first row ever trained, rounded to float32, and that
        # squared, row for row, and two ensembles that classified and
        # self-updated alike hash alike
        rng = np.random.default_rng(11)
        train = make_instances(rng, 200)
        stream = make_instances(rng, 400)
        params = LearnerParams(knn_capacity=300, confidence_threshold=0.5)
        models = [Ensemble((1, 2, 3), params=params).train_offline(train)
                  for _ in range(2)]
        audits = [m.run_online(stream, "semi_supervised") for m in models]
        knn = models[0].members[0]
        assert knn.n_trained > knn.capacity
        np.testing.assert_array_equal(knn._center, train[0].values)
        centered = (knn._X - knn._center).astype(np.float32)
        assert knn._Xc.tobytes() == centered.tobytes()
        squared = np.square(centered.astype(np.float64)).astype(np.float32)
        assert knn._Xc2.tobytes() == squared.tobytes()
        assert audits[0] == audits[1]
        assert models[0].state_hash() == models[1].state_hash()


class TrainedRowStub(RowStub):
    """RowStub that records the rows trained into it and, once trained,
    reverses its posteriors, so a score taken before an update shows."""

    def __init__(self, table):
        super().__init__(table)
        self.trained = []

    def predict(self, x):
        return self.predict_rows(x[None])[0]

    def predict_rows(self, X):
        rows = super().predict_rows(X)
        return rows[:, ::-1] if self.trained else rows

    def train(self, x, label):
        self.trained.append((int(x[0]), label))


def rows(instances):
    """The rows and labels of instances, as run_blocks takes them."""
    X = np.array([fv.values for fv in instances]).reshape(-1, N_FEATURES)
    return X, [fv.label for fv in instances]


def assert_runs_alike(model, stream, mode="semi_supervised"):
    """run_blocks over the instances' arrays and run_online over the
    instances, on clones of model, give equal audits and leave equal
    models; returns the block run's model."""
    online, blocks = model.clone(), model.clone()
    assert (blocks.run_blocks(*rows(stream), mode)
            == online.run_online(stream, mode))
    assert blocks.state_hash() == online.state_hash()
    return blocks


def drawn_instances(rng, n, noise, classes=(1, 2, 3)):
    """Instances of random labels around centres 1 apart: confidence moves
    from row to row, so a gate fires in runs, now and then or not at all."""
    labels = rng.choice(classes, size=n).tolist()
    return [fv(rng.normal(classes.index(label), noise, size=N_FEATURES),
               label=label, index=i) for i, label in enumerate(labels)]


GATES = [1.5, 0.99, 0.65, 0.3]  # no, sparse, dense and nearly all updates


class TestRunBlocks:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), theta=st.sampled_from(GATES),
           mode=st.sampled_from(MODES), capacity=st.sampled_from([60, 300]),
           noise=st.sampled_from([2.0, 4.0, 8.0]), n=st.integers(0, 300))
    def test_audit_and_model_equal_run_online(self, seed, theta, mode,
                                              capacity, noise, n):
        # kNN stores that wrap in training or during the run, and a tree
        # that may split between two updates
        rng = np.random.default_rng(seed)
        params = LearnerParams(knn_capacity=capacity, vfdt_grace_period=20,
                               vfdt_tie_threshold=0.5,
                               confidence_threshold=theta)
        model = Ensemble((1, 2, 3), params=params)
        model.train_offline(drawn_instances(rng, 240, noise))
        assert_runs_alike(model, drawn_instances(rng, n, noise), mode)

    @pytest.mark.parametrize("theta", [0.65, 0.3])
    def test_wrapped_store_and_tree_split_mid_run(self, theta):
        # updates fill the kNN store past its capacity and split the tree
        rng = np.random.default_rng(13)
        params = LearnerParams(knn_capacity=300, vfdt_grace_period=20,
                               vfdt_tie_threshold=0.5,
                               confidence_threshold=theta)
        model = Ensemble((1, 2, 3), params=params)
        model.train_offline(drawn_instances(rng, 240, 4.0))
        splits = model.members[2].n_splits
        after = assert_runs_alike(model, drawn_instances(rng, 400, 4.0))
        assert after.members[0].n_trained > after.members[0].capacity
        assert after.members[2].n_splits > splits

    @pytest.mark.parametrize("update,blocks", [
        (15, [list(range(8, 16))]),
        (10, [list(range(8, 16)), [19]])], ids=["last_row", "mid_block"])
    def test_update_in_a_block(self, update, blocks):
        # 8 rejections, then a block of 8 whose last or third row passes
        # the gate. The rows after it are scored again from the updated
        # model, a window at a time, until 8 more have been rejected.
        table = [[0.6, 0.4]] * 20
        table[update] = [1.0, 0.0]
        model = Ensemble((1, 2))
        model.members = [TrainedRowStub(table) for _ in range(3)]
        scored = []
        classify_rows = Ensemble.classify_rows

        def recording(self, X):
            scored.append(X[:, 0].astype(int).tolist())
            return classify_rows(self, X)

        stream = [fv([i], index=i) for i in range(20)]
        with mock.patch.object(Ensemble, "classify_rows", recording):
            after = assert_runs_alike(model, stream)
        assert scored == blocks
        assert all(m.trained == [(update, 1)] for m in after.members)

    @pytest.mark.parametrize("theta,update", [
        (1.5, 10), (0.99, 0), (0.99, 19), (0.99, 10)],
        ids=["never", "first_row", "last_row", "mid_run"])
    def test_frozen_audit_is_the_first_block(self, theta, update):
        # given the frozen audit of the same rows, a semi-supervised run
        # takes it up to and including the first row that passes the gate,
        # and scores only the rows after that one; a gate above 1 passes
        # none, and the audit is the frozen one
        table = [[0.6, 0.4]] * 20
        table[update] = [1.0, 0.0]
        model = Ensemble((1, 2), LearnerParams(confidence_threshold=theta))
        model.members = [TrainedRowStub(table) for _ in range(3)]
        stream = [fv([i], index=i) for i in range(20)]
        frozen = model.run_blocks(*rows(stream), "supervised_frozen")
        online, given = model.clone(), model.clone()
        expected = online.run_online(stream, "semi_supervised")
        scored = []
        classify_row = Ensemble.classify_row
        classify_rows = Ensemble.classify_rows

        def one(self, x):
            scored.append(int(x[0]))
            return classify_row(self, x)

        def block(self, X):
            scored.extend(X[:, 0].astype(int).tolist())
            return classify_rows(self, X)

        with mock.patch.object(Ensemble, "classify_row", one), \
                mock.patch.object(Ensemble, "classify_rows", block):
            audit = given.run_blocks(*rows(stream), "semi_supervised", frozen)
        assert audit == expected
        assert given.state_hash() == online.state_hash()
        if theta > 1:
            assert audit == frozen and scored == []
        else:
            assert [rec.updated for rec in audit].index(True) == update
            assert scored == list(range(update + 1, 20))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), theta=st.sampled_from(GATES),
           noise=st.sampled_from([2.0, 4.0, 8.0]), n=st.integers(0, 200))
    def test_frozen_audit_as_first_block_equals_run_online(self, seed, theta,
                                                           noise, n):
        rng = np.random.default_rng(seed)
        params = LearnerParams(knn_capacity=300, vfdt_grace_period=20,
                               vfdt_tie_threshold=0.5,
                               confidence_threshold=theta)
        model = Ensemble((1, 2, 3), params=params)
        model.train_offline(drawn_instances(rng, 240, noise))
        stream = drawn_instances(rng, n, noise)
        frozen = model.run_blocks(*rows(stream), "supervised_frozen")
        online, given = model.clone(), model.clone()
        assert (given.run_blocks(*rows(stream), "semi_supervised", frozen)
                == online.run_online(stream, "semi_supervised"))
        assert given.state_hash() == online.state_hash()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [0, 33, 140])
    def test_nan_row_raises_at_run_onlines_row_after_a_frozen_audit(self,
                                                                    bad):
        # a NaN row gives NaN member posteriors: the frozen run over every
        # row raises, so no frozen audit reaches the semi-supervised run,
        # and one given the frozen audit of the rows before it still raises
        # at run_online's row and state
        rng = np.random.default_rng(14)
        params = LearnerParams(knn_capacity=300, confidence_threshold=0.65)
        model = Ensemble((1, 2, 3), params=params)
        model.train_offline(drawn_instances(rng, 150, 8.0))
        stream = drawn_instances(rng, 200, 8.0)
        stream[bad] = fv(np.full(N_FEATURES, np.nan), index=bad)
        with pytest.raises(LearnerError):
            model.clone().run_blocks(*rows(stream), "supervised_frozen")
        frozen = model.run_blocks(*rows(stream[:bad]), "supervised_frozen")
        online, given = model.clone(), model.clone()
        with pytest.raises(LearnerError):
            online.run_online(stream, "semi_supervised")
        with pytest.raises(LearnerError):
            given.run_blocks(*rows(stream), "semi_supervised", frozen)
        assert given.state_hash() == online.state_hash()

    @pytest.mark.parametrize("mode", MODES)
    def test_no_instances(self, mode):
        # as run_online, an untrained model scores no rows
        assert Ensemble((1, 2)).run_blocks(*rows([]), mode) == []
        with pytest.raises(EnsembleError):
            Ensemble((1, 2)).run_blocks(*rows([]), "nonsense")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_rows, n_labels", [(5, 3), (3, 9), (0, 8)])
    def test_rows_and_labels_of_other_lengths(self, mode, n_rows, n_labels):
        # fewer rows than labels once scored no row and never returned
        rng = np.random.default_rng(3)
        model = Ensemble((1, 2, 3)).train_offline(make_instances(rng, 30))
        X, _ = rows(make_instances(rng, n_rows))
        with pytest.raises(EnsembleError, match="rows for"):
            model.run_blocks(X, [1] * n_labels, mode)

    def test_a_frozen_audit_longer_than_the_rows(self):
        rng = np.random.default_rng(3)
        model = Ensemble((1, 2, 3)).train_offline(make_instances(rng, 30))
        X, labels = rows(make_instances(rng, 12))
        frozen = model.run_blocks(X, labels, "supervised_frozen")
        with pytest.raises(EnsembleError, match="frozen audit"):
            model.run_blocks(X[:10], labels[:10], "semi_supervised", frozen)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bad", [0, 33, 55, 140, 199])
    def test_non_finite_row_raises_where_run_online_does(self, mode, bad):
        # the row fails the distribution check: both runs raise there, after
        # the same updates. Semi-supervised, rows 33, 55 and 140 fall in a
        # block, the last two after an update in that block.
        rng = np.random.default_rng(14)
        params = LearnerParams(knn_capacity=300, confidence_threshold=0.65)
        model = Ensemble((1, 2, 3), params=params)
        model.train_offline(drawn_instances(rng, 150, 8.0))
        stream = drawn_instances(rng, 200, 8.0)
        stream[bad] = fv(np.full(N_FEATURES, np.nan), index=bad)
        online, blocks = model.clone(), model.clone()
        with pytest.raises(LearnerError):
            online.run_online(stream, mode)
        with pytest.raises(LearnerError):
            blocks.run_blocks(*rows(stream), mode)
        assert blocks.state_hash() == online.state_hash()


def test_audit_csv(tmp_path):
    rng = np.random.default_rng(9)
    model = Ensemble((1, 2, 3)).train_offline(make_instances(rng, 90))
    audit = model.run_online(make_instances(rng, 30), "semi_supervised")
    path = tmp_path / "audit.csv"
    write_audit_csv(audit, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,true_label,predicted_label,confidence,updated"
    assert len(lines) == 31
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} <= {"0", "1"}
    # row i is record i, numbered by its position in the audit
    assert [line.split(",") for line in lines[1:]] == [
        [str(i), str(rec.true_label), str(rec.predicted_label),
         repr(rec.confidence), str(int(rec.updated))]
        for i, rec in enumerate(audit)]
