"""Acceptance gate: one test per release criterion.

Each test name carries the criterion number, so a verbose pytest run yields
one pass/fail line per criterion. Criteria 1 and 7 need the real recorded
dataset and skip cleanly when no data directory is configured (set
HARBENCH_DATA_DIR or PAMAP2_DIR to enable them).
"""

import math
import os
import time

import numpy as np
import pytest

from harbench import cli, dataset
from harbench.dataset import SyntheticSpec, generate_synthetic
from harbench.ensemble import Ensemble, LearnerParams
from harbench.evaluation import emit_reports, evaluate_fold, sweep
from harbench.features import FeatureVector, extract
from harbench.learners import (GaussianNbClassifier, HoeffdingTreeClassifier,
                               KnnClassifier, hoeffding_bound)
from harbench.profiling import PowerModel, estimate_energy, timed_run
from harbench.windowing import WindowConfig, classification_count, segment

from conftest import random_window
from test_features import oracle_extract
from test_learners import separable_stream
from test_windowing import id_stream, oracle_starts


def _data_dir():
    for var in ("HARBENCH_DATA_DIR", "PAMAP2_DIR"):
        path = os.environ.get(var)
        if path and cli._subject_path(path, 1):
            return path
    return None


needs_dataset = pytest.mark.skipif(
    _data_dir() is None,
    reason="recorded dataset not available (set HARBENCH_DATA_DIR)")


@needs_dataset
def test_criterion_1_dataset_fidelity(capsys):
    start = time.monotonic()
    assert cli.main(["validate", "--data-dir", _data_dir()]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert time.monotonic() - start < 120


def test_criterion_2_segmentation_oracle():
    lengths = list(range(2, 21)) + [37, 50, 64, 100, 127, 250, 333, 499, 500]
    overlaps = [round(0.1 * i, 1) for i in range(10)]
    for n in lengths:
        stream = id_stream([1] * n)
        for w in range(2, 51):
            for o in overlaps:
                cfg = WindowConfig(w, o)
                got = [win.start for win in segment(stream, cfg)]
                assert got == oracle_starts(n, w, cfg.step), (n, w, o)


def test_criterion_3_feature_oracle():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        win = random_window(rng, w=int(rng.integers(4, 64)))
        fv = extract(win)
        assert fv.values.shape == (81,)
        assert np.max(np.abs(fv.values - oracle_extract(win))) < 1e-9
        corrs = fv.values[54:]
        assert ((corrs >= -1.0) & (corrs <= 1.0)).all()


class TestCriterion4LearnerCorrectness:
    def test_a_incremental_nb_equals_batch(self):
        rng = np.random.default_rng(101)
        X = rng.normal(loc=1.0, scale=3.0, size=(600, 7))
        y = rng.integers(0, 3, size=600)
        nb = GaussianNbClassifier(classes=(0, 1, 2), n_features=7)
        for x, label in zip(X, y):
            nb.train(x, int(label))
        for c in (0, 1, 2):
            sel = X[y == c]
            n, mean, var = nb.class_stats(c)
            assert n == len(sel)
            np.testing.assert_allclose(mean, sel.mean(axis=0), rtol=1e-9)
            np.testing.assert_allclose(
                var, ((sel - sel.mean(axis=0)) ** 2).mean(axis=0),
                rtol=1e-9, atol=1e-12)

    def test_b_knn_matches_brute_force(self):
        rng = np.random.default_rng(102)
        knn = KnnClassifier(classes=tuple(range(4)), n_features=8, k=5,
                            capacity=1000)
        X = rng.normal(size=(200, 8))
        y = rng.integers(0, 4, size=200)
        for x, label in zip(X, y):
            knn.train(x, int(label))
        mean = X.mean(axis=0)
        std = np.sqrt(((X - mean) ** 2).mean(axis=0))
        std = np.where(std > 0, std, 1.0)
        for _ in range(100):
            q = rng.normal(size=8)
            d = (((X - q) / std) ** 2).sum(axis=1)
            votes = np.bincount(y[np.argsort(d, kind="stable")[:5]],
                                minlength=4)
            assert int(np.argmax(knn.predict(q))) == int(np.argmax(votes))

    def test_c_vfdt_single_split_high_accuracy(self):
        rng = np.random.default_rng(103)
        X, y = separable_stream(rng, 10_000)
        tree = HoeffdingTreeClassifier(classes=(0, 1), n_features=5)
        for x, label in zip(X, y):
            tree.train(x, int(label))
        assert tree.n_splits == 1
        Xh, yh = separable_stream(rng, 2000)
        correct = sum(int(np.argmax(tree.predict(x))) == label
                      for x, label in zip(Xh, yh))
        assert correct / len(yh) >= 0.99

    def test_d_bound_halves_when_n_quadruples(self):
        for n in (1, 5, 123, 4000):
            assert hoeffding_bound(1.0, 1e-7, 4 * n) == \
                hoeffding_bound(1.0, 1e-7, n) / 2


def _gate_stream(rng, n, sep=3.0, max_noise=3.0):
    """Two-class instances whose noise varies so confidence straddles 0.99."""
    out = []
    for i in range(n):
        label = 1 + i % 2
        noise = rng.uniform(0.3, max_noise)
        values = rng.normal(sep * (label - 1), noise, size=81)
        out.append(FeatureVector(values=values, label=label, user_id=1,
                                 window_index=i))
    return out


class TestCriterion5GateSoundness:
    def test_hash_changes_only_above_threshold(self):
        rng = np.random.default_rng(104)
        params = LearnerParams(knn_capacity=200, vfdt_grace_period=50,
                               vfdt_delta=0.05, vfdt_tie_threshold=0.5)
        model = Ensemble((1, 2), params=params)
        model.train_offline(_gate_stream(rng, 1000, max_noise=0.8))
        stream = _gate_stream(rng, 10_000)
        h = model.state_hash()
        confidences = []
        for fv in stream:
            pred = model.classify(fv)
            model.self_update(fv, pred)
            confidences.append(pred.confidence)
            h2 = model.state_hash()
            assert (h2 != h) == (pred.confidence > 0.99), pred.confidence
            h = h2
        # the run must actually exercise both sides of the gate
        assert any(c > 0.99 for c in confidences)
        assert any(c <= 0.99 for c in confidences)

    def test_theta_above_one_equals_frozen(self):
        rng = np.random.default_rng(105)
        train = _gate_stream(rng, 400)
        stream = _gate_stream(rng, 10_000)
        frozen = Ensemble((1, 2)).train_offline(train)
        gated = Ensemble((1, 2),
                         params=LearnerParams(confidence_threshold=1.01))
        gated.train_offline(train)
        af = frozen.run_online(stream, "supervised_frozen")
        ag = gated.run_online(stream, "semi_supervised")
        assert ([r.predicted_label for r in af]
                == [r.predicted_label for r in ag])
        assert sum(r.updated for r in ag) == 0


def test_criterion_6_semi_supervised_benefit():
    start = time.monotonic()
    params = LearnerParams(vfdt_grace_period=100, vfdt_delta=0.05,
                           vfdt_tie_threshold=0.5, knn_capacity=2000)
    overlaps = [0.0, 0.2, 0.4, 0.6, 0.8]
    accs = {"semi_supervised": [], "supervised_frozen": []}
    for seed in range(10):
        spec = SyntheticSpec.default(class_count=4, samples_per_class=1125,
                                     users=(1, 2, 3, 4), user_drifts={4: 1.25},
                                     noise_sigma=0.4, class_sep=2.0, seed=seed)
        streams = generate_synthetic(spec)
        for mode in accs:
            accs[mode].append([
                evaluate_fold(streams, 4, WindowConfig(25, o), mode,
                              params=params,
                              valid_labels=spec.class_labels)[0].accuracy
                for o in overlaps])
    semi = np.array(accs["semi_supervised"])
    sup = np.array(accs["supervised_frozen"])
    # adapting online must not cost accuracy...
    assert semi.mean() >= sup.mean() - 0.01
    # ...and must flatten the accuracy profile across the overlap grid
    assert semi.mean(axis=0).var() <= sup.mean(axis=0).var()
    assert time.monotonic() - start < 300


@needs_dataset
def test_criterion_7_window_size_trend():
    streams = []
    for user in range(1, 10):
        path = cli._subject_path(_data_dir(), user)
        if path is None:
            pytest.skip(f"subject file for user {user} missing")
        streams.append(dataset.filter_protocol_activities(
            dataset.parse_subject_file(path, user)))
    acc = {}
    for w in (100, 500, 1000):
        for o in (0.0, 0.8):
            result = evaluate_fold(streams, 6, WindowConfig(w, o),
                                   "supervised_frozen")[0]
            acc[(w, o)] = result.accuracy
    assert acc[(1000, 0.0)] >= acc[(500, 0.0)]
    assert abs(acc[(500, 0.0)] - 0.85) <= 0.05
    assert abs(acc[(1000, 0.0)] - 0.90) <= 0.05
    for o in (0.0, 0.8):
        assert acc[(100, o)] < min(acc[(500, o)], acc[(1000, o)])


def test_criterion_8_profiling_trends():
    start = time.monotonic()
    spec = SyntheticSpec.default(class_count=3, samples_per_class=3000,
                                 users=(1, 2, 3), seed=20)
    streams = generate_synthetic(spec)
    params = LearnerParams(knn_capacity=500, vfdt_grace_period=50)
    power = PowerModel(sampling_watts=1.0, feature_watts=2.0,
                       classification_watts=1.5)
    overlaps = [0.0, 0.2, 0.4, 0.6, 0.8]
    feature_ns, joules = [], []
    for o in overlaps:
        config = WindowConfig(100, o)
        bd = timed_run(streams, 3, config, params=params,
                       valid_labels=spec.class_labels, repetitions=5)
        assert bd.result.n_windows == classification_count(streams[2],
                                                           config)
        feature_ns.append(bd.feature_ns)
        joules.append(estimate_energy(bd, power))
    for series in (feature_ns, joules):
        for prev, cur in zip(series, series[1:]):
            assert cur >= 0.9 * prev, series  # non-decreasing with 10% slack
    assert time.monotonic() - start < 600


def test_criterion_9_sweep_determinism(tmp_path, small_streams, small_spec):
    params = LearnerParams(knn_capacity=500, vfdt_grace_period=50)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        results = sweep(small_streams, [50], [0.0, 0.5],
                        ["supervised_frozen", "semi_supervised"], seed=0,
                        out_dir=str(out), params=params,
                        valid_labels=small_spec.class_labels, workers=1)
        paths = emit_reports(results, str(out),
                             valid_labels=small_spec.class_labels)
        outputs.append({os.path.basename(p): open(p, "rb").read()
                        for p in paths})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
