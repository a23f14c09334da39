import dataclasses
import json
import os
import pickle
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from harbench import (dataset, ensemble, evaluation, features, learners,
                      windowing)
from harbench.dataset import (FEATURE_CHANNEL_INDEX, DatasetError,
                              SensorStream, generate_synthetic)
from harbench.ensemble import Ensemble, EnsembleError, LearnerParams
from harbench.evaluation import (EvaluationError, FoldResult,
                                 SINGLE_ACTIVITY_USER, emit_reports,
                                 evaluate_fold, louo_split, sweep)
from harbench.features import N_FEATURES, FeatureVector, extract_stream
from harbench.windowing import (Window, WindowConfig, WindowingError,
                                labeled_windows)

FAST = LearnerParams(knn_capacity=500, vfdt_grace_period=50)
# a low gate, so semi-supervised runs update their model
GATE_05 = LearnerParams(knn_capacity=500, vfdt_grace_period=50,
                        confidence_threshold=0.5)


def fold_model(tables, config, user, params, labels):
    """The model fold_models yields for one test user."""
    return next(evaluation.fold_models(tables, config, [user], params,
                                       labels))[1]


def pipeline_instances(stream, config, labels):
    """The stream's instances at the point, from the per-window forms."""
    return extract_stream(labeled_windows(stream, config,
                                          valid_labels=labels))


class TestLouoSplit:
    def test_one_fold_per_user(self, small_streams):
        assert louo_split(small_streams) == [1, 2, 3]

    def test_needs_two_users(self, small_streams):
        with pytest.raises(EvaluationError):
            louo_split(small_streams[:1])

    def test_duplicate_users_rejected(self, small_streams):
        with pytest.raises(EvaluationError):
            louo_split([small_streams[0], small_streams[0]])


class TestFoldResult:
    def make(self, **kw):
        base = dict(user=1, window_size=100, overlap=0.5, mode="supervised_frozen",
                    per_activity_windows={1: 6, 2: 4},
                    per_activity_correct={1: 5, 2: 2})
        base.update(kw)
        return FoldResult(**base)

    def test_accuracy(self):
        assert self.make().accuracy == 0.7

    def test_empty_accuracy_is_none(self):
        r = self.make(per_activity_windows={}, per_activity_correct={})
        assert r.accuracy is None

    def test_dict_round_trip_restores_int_keys(self):
        import json
        r = self.make()
        back = FoldResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back == r
        assert all(isinstance(k, int) for k in back.per_activity_windows)


class TestEvaluateFold:
    def test_per_activity_counts_recompose_totals(self, small_streams, small_spec):
        result = evaluate_fold(small_streams, 3,
                               WindowConfig(50, 0.5), "supervised_frozen",
                               params=FAST,
                               valid_labels=small_spec.class_labels)[0]
        assert sum(result.per_activity_windows.values()) == result.n_windows
        assert sum(result.per_activity_correct.values()) == result.n_correct
        assert result.n_windows > 0

    def test_frozen_mode_never_self_updates(self, small_streams, small_spec):
        result = evaluate_fold(small_streams, 1,
                               WindowConfig(50, 0.0), "supervised_frozen",
                               params=FAST,
                               valid_labels=small_spec.class_labels)[0]
        assert result.self_updates == 0

    def test_audit_covers_every_test_window(self, small_streams, small_spec):
        result, audit = evaluate_fold(small_streams, 2,
                                      WindowConfig(50, 0.5), "semi_supervised",
                                      params=FAST,
                                      valid_labels=small_spec.class_labels)
        assert len(audit) == result.n_windows
        assert sum(1 for rec in audit if rec.updated) == result.self_updates
        # the audit trail alone must reproduce the headline accuracy
        recount = sum(1 for rec in audit if rec.predicted_label == rec.true_label)
        assert recount == result.n_correct

    def test_window_longer_than_stream_is_empty(self, small_streams, small_spec):
        result = evaluate_fold(small_streams, 1,
                               WindowConfig(10_000, 0.0), "supervised_frozen",
                               params=FAST,
                               valid_labels=small_spec.class_labels)[0]
        assert result.n_windows == 0 and result.accuracy is None

    def test_matches_manual_pipeline(self, small_streams, small_spec):
        # the fold's test instances are exactly the test user's pipeline output
        config = WindowConfig(50, 0.0)
        manual = extract_stream(labeled_windows(
            small_streams[2], config, valid_labels=small_spec.class_labels))
        result = evaluate_fold(small_streams, 3, config,
                               "supervised_frozen", params=FAST,
                               valid_labels=small_spec.class_labels)[0]
        assert result.n_windows == len(manual)

    @pytest.mark.parametrize("capacity", [100, 500])
    def test_frozen_block_is_the_online_run(self, hard_streams, hard_spec,
                                            capacity):
        # score_fold scores a frozen cell as one block of the row table's
        # rows; it leaves the model unchanged and gives the audit of the
        # per-window online run over the user's pipeline instances, with
        # the kNN store on either side of the filter's crossover
        labels = hard_spec.class_labels
        config = WindowConfig(20, 0.8)
        tables = evaluation.row_tables(hard_streams, [config],
                                       valid_labels=labels)
        model = fold_model(tables, config, 2,
                           LearnerParams(knn_capacity=capacity), labels)
        assert model.members[0].size == capacity
        before = model.state_hash()
        result, audit = evaluation.score_fold(model, tables, 2, config,
                                              "supervised_frozen")
        assert model.state_hash() == before
        online = model.run_online(
            pipeline_instances(hard_streams[1], config, labels),
            "supervised_frozen")
        assert audit == online and len(audit) == result.n_windows > 0
        assert result == evaluation.fold_result(online, 2, config,
                                                "supervised_frozen", labels)

    def test_unknown_user_raises(self, small_streams, small_spec):
        with pytest.raises(DatasetError, match="no stream for user 7"):
            evaluate_fold(small_streams, 7, WindowConfig(50, 0.0),
                          "supervised_frozen", params=FAST,
                          valid_labels=small_spec.class_labels)

    def test_repeated_user_raises(self, small_streams, small_spec):
        with pytest.raises(EvaluationError, match="duplicate"):
            evaluate_fold([*small_streams, small_streams[0]], 2,
                          WindowConfig(50, 0.0), "supervised_frozen",
                          params=FAST, valid_labels=small_spec.class_labels)

    @pytest.mark.parametrize("labels", [(1, 2, 3), (1, 8, 3)])
    def test_cell_is_keyed_by_its_models_classes(self, small_spec, labels):
        # score_fold takes the class set from the model, whatever classes
        # it holds, in their order; none of them need be a PAMAP2 activity
        spec = dataclasses.replace(small_spec, classes=[
            dataclasses.replace(c, label=label)
            for c, label in zip(small_spec.classes, labels)])
        config = WindowConfig(50, 0.5)
        tables = evaluation.row_tables(generate_synthetic(spec), [config],
                                       valid_labels=labels)
        model = fold_model(tables, config, 2, FAST, labels)
        result, audit = evaluation.score_fold(model, tables, 2, config,
                                              "semi_supervised")
        assert tuple(result.per_activity_windows) == labels
        assert tuple(result.per_activity_correct) == labels
        assert min(result.per_activity_windows.values()) > 0
        assert result.n_windows == len(audit)


def gapped_stream(stream):
    """A copy of the stream with a short gap in one channel and a gap
    longer than a window in another, so that gap filling and quality
    flags show."""
    values = stream.values.copy()
    values[40:45, FEATURE_CHANNEL_INDEX[0]] = np.nan
    values[200:330, FEATURE_CHANNEL_INDEX[5]] = np.nan
    return SensorStream(stream.user_id, values)


class TestRowTables:
    # steps 50, 35, 25 and 5, which do not all nest
    CONFIGS = [WindowConfig(50, o) for o in (0.0, 0.3, 0.5, 0.9)]

    def test_each_point_gathers_its_pipeline_instances(self, small_streams,
                                                       small_spec):
        # a user's table holds the kept windows at the union of the row's
        # starts, once each; a point's mask takes the starts, features and
        # labels of the instances the per-window pipeline gives
        labels = small_spec.class_labels
        short = SensorStream(4, small_streams[1].values[:30])  # no window
        streams = [gapped_stream(small_streams[0]), *small_streams[1:], short]
        tables = evaluation.row_tables(streams, self.CONFIGS,
                                       valid_labels=labels)
        assert sorted(tables) == [1, 2, 3, 4]
        flagged = 0
        for stream in streams:
            starts, X, kept = tables[stream.user_id]
            assert starts.dtype == kept.dtype == np.int64
            assert X.shape == (len(starts), N_FEATURES) == (len(kept), 81)
            union = set()
            for config in self.CONFIGS:
                at = starts % config.step == 0
                windows = labeled_windows(stream, config, valid_labels=labels)
                want = extract_stream(windows)
                assert starts[at].tolist() == [w.start for w in windows]
                assert X[at].tobytes() == b"".join(
                    fv.values.tobytes() for fv in want)
                assert kept[at].tolist() == [fv.label for fv in want]
                union.update(w.start for w in windows)
                flagged += sum(not fv.quality_ok for fv in want)
            assert starts.tolist() == sorted(union)
        assert flagged > 0 and len(tables[4][0]) == 0

    def test_device_form_equals_row_tables(self):
        # the device's segment -> label_window -> extract gives a point's
        # starts, labels and feature bytes of row_tables, and featurize's
        # quality flags, over one-activity and mixed windows, transient
        # gaps, a non-protocol run and drop-outs short and longer than W
        labels = (1, 2, 3)
        runs = [(1, 60), (0, 15), (2, 70), (10, 40), (2, 30), (3, 120),
                (0, 5), (1, 50), (3, 23)]
        ids = np.concatenate([np.full(n, a) for a, n in runs])
        rng = np.random.default_rng(3)
        streams = []
        for user in (1, 2):
            values = rng.normal(size=(len(ids), dataset.N_COLUMNS))
            values[:, 1] = ids
            values[100:104, FEATURE_CHANNEL_INDEX] = np.nan  # device drop-out
            values[200:203, FEATURE_CHANNEL_INDEX[5]] = np.nan
            values[260:330, FEATURE_CHANNEL_INDEX[user]] = np.nan  # > W
            streams.append(SensorStream(user, values))
        counted = Counter()
        for w, o in [(2, 0.0), (2, 0.5), (7, 0.3), (20, 0.5), (50, 0.9)]:
            config = WindowConfig(w, o)
            tables = evaluation.row_tables(streams, [config],
                                           valid_labels=labels)
            for stream in streams:
                starts, X, kept = tables[stream.user_id]
                wins = [windowing.label_window(c, valid_labels=labels)
                        for c in windowing.segment(stream, config)]
                wins = [win for win in wins if win is not None]
                fvs = [features.extract(win, i) for i, win in enumerate(wins)]
                quality = features.featurize(
                    [(stream, start) for start in starts.tolist()], w)[1]
                assert [win.start for win in wins] == starts.tolist()
                assert [fv.label for fv in fvs] == kept.tolist()
                assert b"".join(fv.values.tobytes() for fv in fvs) == (
                    X.tobytes())
                assert [fv.quality_ok for fv in fvs] == quality.tolist()
                for win, fv in zip(wins, fvs):
                    col = stream.values[win.start:win.start + w, 1]
                    counted["one" if len(set(col)) == 1 else "mixed"] += 1
                    counted["flagged"] += not fv.quality_ok
        assert min(counted["one"], counted["mixed"], counted["flagged"]) > 0

    @pytest.mark.parametrize("purity", [1.5, -3.0, float("nan")])
    def test_purity_outside_unit_interval_raises(self, small_streams,
                                                 small_spec, purity):
        # sweep, eval and profile build their tables here, so each refuses
        # the purity rather than keeping no window or every window
        with pytest.raises(WindowingError, match="purity"):
            evaluation.row_tables(small_streams, [WindowConfig(50, 0.0)],
                                  purity=purity,
                                  valid_labels=small_spec.class_labels)


class TestFoldModels:
    CONFIG = WindowConfig(50, 0.5)

    @staticmethod
    def with_empty_user(streams):
        """The streams and a user 4 too short for any window."""
        return [*streams, SensorStream(4, streams[0].values[:30])]

    @classmethod
    def reference(cls, streams, test_user, params, labels):
        """The fold's model trained in one train_offline call on the other
        users' pipeline instances in sorted user order, when the test user
        has instances."""
        instances = {s.user_id: pipeline_instances(s, cls.CONFIG, labels)
                     for s in streams}
        model = Ensemble(labels, params=params)
        if instances[test_user]:
            model.train_offline([fv for user in sorted(instances)
                                 if user != test_user
                                 for fv in instances[user]])
        return model.state_hash()

    @pytest.mark.parametrize("pending", [[1, 2, 3, 4], [2], [3, 1], [4]],
                             ids=["all", "middle", "ends", "empty"])
    def test_prefix_folds_equal_fold_model(self, hard_streams, hard_spec,
                                           pending):
        labels = hard_spec.class_labels
        streams = self.with_empty_user(hard_streams)
        # the tables of a row with a second point, whose rows the fold
        # leaves out
        tables = evaluation.row_tables(
            streams, [self.CONFIG, WindowConfig(50, 0.3)], valid_labels=labels)
        folds = list(evaluation.fold_models(tables, self.CONFIG, pending,
                                            GATE_05, labels))
        assert [user for user, _ in folds] == sorted(pending)
        for user, model in folds:
            assert model.state_hash() == self.reference(streams, user,
                                                        GATE_05, labels)
            assert model.state_hash() == fold_model(
                tables, self.CONFIG, user, GATE_05, labels).state_hash()

    def test_only_the_test_users_instances_leave_nothing_to_train(
            self, small_streams, small_spec):
        # users 1 and 2 keep no window: fold 1 has nothing to score, and
        # fold 3 nothing to train on
        labels = small_spec.class_labels
        streams = self.with_empty_user(
            [SensorStream(user, small_streams[2].values[:30])
             for user in (1, 2)] + [small_streams[2]])
        tables = evaluation.row_tables(streams, [self.CONFIG],
                                       valid_labels=labels)
        folds = evaluation.fold_models(tables, self.CONFIG, [1, 3], FAST,
                                       labels)
        user, model = next(folds)
        assert user == 1 and model.state_hash() == Ensemble(
            labels, params=FAST).state_hash()
        with pytest.raises(EnsembleError, match="empty training set"):
            next(folds)


class TestSweep:
    WINDOWS = [50]
    OVERLAPS = [0.0, 0.5]
    MODES = ["supervised_frozen", "semi_supervised"]

    def run(self, streams, labels, out, **kw):
        return sweep(streams, self.WINDOWS, self.OVERLAPS, self.MODES, seed=0,
                     out_dir=str(out), params=FAST, valid_labels=labels, **kw)

    def test_full_grid_of_cells(self, small_streams, small_spec, tmp_path):
        results = self.run(small_streams, small_spec.class_labels, tmp_path)
        assert len(results) == 3 * len(self.WINDOWS) * len(self.OVERLAPS) * 2
        assert len(os.listdir(tmp_path / "cells")) == len(results)

    def test_cell_file_is_dumps_of_its_key_and_result(
            self, small_streams, small_spec, tmp_path):
        # one json.dumps call writes the bytes json.dump wrote
        results = self.run(small_streams, small_spec.class_labels, tmp_path)
        files = _cell_files(tmp_path)
        for r in results:
            text = files[_cell_key(r)].read_text()
            cell = {"key": json.loads(text)["key"], "result": r.to_dict()}
            assert text == json.dumps(cell, sort_keys=True)

    def test_resume_skips_finished_cells(self, small_streams, small_spec,
                                         tmp_path):
        first = self.run(small_streams, small_spec.class_labels, tmp_path)
        recomputed = []
        again = self.run(small_streams, small_spec.class_labels, tmp_path,
                         resume=True, progress=recomputed.append)
        assert recomputed == []  # everything loaded from disk
        assert again == first

    def test_resume_keys_cells_by_exact_overlap(self, small_streams,
                                                small_spec, tmp_path):
        labels = small_spec.class_labels
        fresh = sweep(small_streams, [50], [0.2, 0.25], ["supervised_frozen"],
                      seed=0, out_dir=str(tmp_path / "fresh"), params=FAST,
                      valid_labels=labels)
        sweep(small_streams, [50], [0.2, 0.25], ["supervised_frozen"], seed=0,
              out_dir=str(tmp_path), params=FAST, valid_labels=labels)
        again = sweep(small_streams, [50], [0.2, 0.25], ["supervised_frozen"],
                      seed=0, out_dir=str(tmp_path), params=FAST,
                      valid_labels=labels, resume=True)
        assert len(os.listdir(tmp_path / "cells")) == len(fresh) == 6
        assert again == fresh
        assert sorted({r.overlap for r in again}) == [0.2, 0.25]

    def test_resume_recomputes_changed_params(self, small_streams,
                                              small_spec, tmp_path):
        labels = small_spec.class_labels
        self.run(small_streams, labels, tmp_path)
        other = LearnerParams(k=1, knn_capacity=500, vfdt_grace_period=50)
        recomputed = []
        again = sweep(small_streams, self.WINDOWS, self.OVERLAPS, self.MODES,
                      seed=0, out_dir=str(tmp_path), params=other,
                      valid_labels=labels, resume=True,
                      progress=recomputed.append)
        fresh = sweep(small_streams, self.WINDOWS, self.OVERLAPS, self.MODES,
                      seed=0, out_dir=str(tmp_path / "fresh"), params=other,
                      valid_labels=labels)
        assert len(recomputed) == len(fresh)
        assert again == fresh

    def test_two_workers_write_same_bytes(self, small_streams, small_spec,
                                          tmp_path):
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            results = self.run(small_streams, small_spec.class_labels, out,
                               workers=workers)
            emit_reports(results, str(out / "reports"),
                         valid_labels=small_spec.class_labels)
            outputs.append({
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > len(os.listdir(tmp_path / "w1" / "cells"))

    def test_pool_gets_the_streams_once_per_worker(self, small_streams,
                                                   small_spec, tmp_path,
                                                   monkeypatch):
        # the streams go through the pool initializer; a task is one window
        # size's row, which carries only its points' (W, o) and cells, far
        # fewer bytes than one stream
        sent = []

        class InlinePool:
            def __init__(self, workers, initializer, initargs):
                initializer(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, points):
                sent.extend(pickle.dumps(point) for point in points)
                return map(fn, map(pickle.loads, sent))

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(evaluation, "_shared", ())
        labels = small_spec.class_labels
        pooled = self.run(small_streams, labels, tmp_path / "w2", workers=2)
        assert pooled == self.run(small_streams, labels, tmp_path / "w1")
        assert len(sent) == len(self.WINDOWS)
        assert max(map(len, sent)) < min(s.values.nbytes
                                         for s in small_streams)

    def test_pool_starts_a_worker_per_pending_row_at_most(
            self, small_streams, small_spec, tmp_path, monkeypatch):
        # a worker scores whole window-size rows, so 8 requested over 2
        # rows start 2, and a fully resumed sweep builds no pool
        started = []

        class CountingPool:
            def __init__(self, workers, initializer, initargs):
                started.append(workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, rows):
                return map(fn, rows)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(evaluation, "_shared", ())
        labels = small_spec.class_labels
        for _ in range(2):
            sweep(small_streams, [50, 80], [0.0], ["supervised_frozen"],
                  seed=0, out_dir=str(tmp_path), params=FAST,
                  valid_labels=labels, workers=8)
        assert started == [2]

    def test_every_cell_equals_evaluate_fold(self, small_streams, small_spec,
                                             tmp_path):
        labels = small_spec.class_labels
        windows = [50, 10_000]  # the second is longer than every stream
        first = sweep(small_streams, windows, [0.0], self.MODES, seed=0,
                      out_dir=str(tmp_path), params=FAST, valid_labels=labels)
        # drop half of the (50, 0.0) point's cells, then resume it
        files = _cell_files(tmp_path)
        dropped = [r for r in first if r.window_size == 50][::2]
        for r in dropped:
            files[_cell_key(r)].unlink()
        recomputed = []
        results = sweep(small_streams, windows, [0.0], self.MODES, seed=0,
                        out_dir=str(tmp_path), params=FAST,
                        valid_labels=labels, progress=recomputed.append)
        assert sorted(recomputed, key=_cell_key) == dropped
        assert len(results) == 3 * len(windows) * len(self.MODES)
        for r in results:
            expected = evaluate_fold(small_streams, r.user,
                                     WindowConfig(r.window_size, r.overlap),
                                     r.mode, params=FAST,
                                     valid_labels=labels)[0]
            assert r == expected
        assert all(r.n_windows == 0 for r in results
                   if r.window_size == 10_000)

    def test_featurizes_each_window_once_per_row(self, small_streams,
                                                 small_spec, tmp_path,
                                                 monkeypatch):
        # one featurize call per user and window size, over distinct
        # windows: the union of the row's starts
        calls = Counter()
        featurized = []
        original = evaluation.featurize

        def counting(spans, size):
            spans = list(spans)
            calls[(spans[0][0].user_id, size)] += 1
            featurized.extend((s.user_id, size, start) for s, start in spans)
            return original(spans, size)

        monkeypatch.setattr(evaluation, "featurize", counting)
        sweep(small_streams, [20, 50], self.OVERLAPS, self.MODES, seed=0,
              out_dir=str(tmp_path), params=FAST,
              valid_labels=small_spec.class_labels)
        assert calls == {(u, w): 1 for u in (1, 2, 3) for w in (20, 50)}
        assert len(featurized) == len(set(featurized))

    def test_trains_folds_on_a_shared_prefix(self, small_streams, small_spec,
                                             tmp_path, monkeypatch):
        # frozen cells only, so that every train_rows call trains a fold:
        # one call per user, on that user's rows at the point
        labels = small_spec.class_labels
        owners = {}
        for config in (WindowConfig(50, o) for o in self.OVERLAPS):
            tables = evaluation.row_tables(small_streams, [config],
                                           valid_labels=labels)
            for user, (starts, X, _) in tables.items():
                owners[X[starts % config.step == 0].tobytes()] = user
        trained, cloned = [], []
        original, clone = Ensemble.train_rows, Ensemble.clone

        def counting(model, X, rows_labels):
            trained.append(owners[X.tobytes()])
            return original(model, X, rows_labels)

        def counting_clone(model):
            cloned.append(1)
            return clone(model)

        monkeypatch.setattr(Ensemble, "train_rows", counting)
        monkeypatch.setattr(Ensemble, "clone", counting_clone)

        def run():
            return sweep(small_streams, self.WINDOWS, self.OVERLAPS,
                         ["supervised_frozen"], seed=0, out_dir=str(tmp_path),
                         params=FAST, valid_labels=labels)

        first = run()
        # per point: fold 1 trains users 2 and 3 on a clone of the empty
        # prefix, the prefix trains user 1, fold 2 trains user 3 on a clone
        # of it, the prefix trains user 2 and is fold 3
        assert trained == [2, 3, 1, 3, 2] * 2 and len(cloned) == 2 * 2
        files = _cell_files(tmp_path)
        files[(1, 50, 0.0, "supervised_frozen")].unlink()
        files[(2, 50, 0.5, "supervised_frozen")].unlink()
        trained.clear()
        cloned.clear()
        again = run()
        # only pending folds train, each the last of its point: no clone
        assert trained == [2, 3, 1, 3]
        assert cloned == []
        assert again == first

    def test_theta_above_one_semi_cells_are_frozen_cells(
            self, hard_streams, hard_spec, tmp_path, monkeypatch):
        # no self-update passes a gate above 1, so every semi-supervised
        # cell counts as its frozen cell, and takes every row from that
        # cell's audit: the sweep classifies only the frozen cells' rows
        classified = []
        classify_row = Ensemble.classify_row
        classify_rows = Ensemble.classify_rows

        def one(model, x):
            classified.append(1)
            return classify_row(model, x)

        def block(model, X):
            classified.append(len(X))
            return classify_rows(model, X)

        monkeypatch.setattr(Ensemble, "classify_row", one)
        monkeypatch.setattr(Ensemble, "classify_rows", block)
        params = LearnerParams(knn_capacity=500, vfdt_grace_period=50,
                               confidence_threshold=1.5)
        results = sweep(hard_streams, self.WINDOWS, self.OVERLAPS,
                        self.MODES, seed=0, out_dir=str(tmp_path),
                        params=params, valid_labels=hard_spec.class_labels)
        cells = {_cell_key(r): r for r in results}
        frozen = [r for r in results if r.mode == "supervised_frozen"]
        assert len(frozen) == len(results) / 2 == 6
        for r in frozen:
            semi = cells[_cell_key(r)[:3] + ("semi_supervised",)]
            assert r.n_windows > 0 and semi.self_updates == 0
            assert ((semi.per_activity_windows, semi.per_activity_correct)
                    == (r.per_activity_windows, r.per_activity_correct))
        assert sum(classified) == sum(r.n_windows for r in frozen)

    def test_semi_cells_without_a_frozen_audit(self, hard_streams, hard_spec,
                                               tmp_path):
        # a semi-supervised cell whose frozen cell is on disk, or not in
        # the sweep, is scored from its first row, and writes the bytes it
        # writes when it takes its frozen cell's audit
        labels = hard_spec.class_labels
        both = sweep(hard_streams, self.WINDOWS, self.OVERLAPS, self.MODES,
                     seed=0, out_dir=str(tmp_path), params=GATE_05,
                     valid_labels=labels)
        files = _cell_files(tmp_path)
        semi = {key: path.read_bytes() for key, path in files.items()
                if key[3] == "semi_supervised"}
        assert len(semi) == 6
        for path in (files[key] for key in semi):
            path.unlink()
        recomputed = []
        again = sweep(hard_streams, self.WINDOWS, self.OVERLAPS, self.MODES,
                      seed=0, out_dir=str(tmp_path), params=GATE_05,
                      valid_labels=labels, resume=True,
                      progress=recomputed.append)
        assert sorted(map(_cell_key, recomputed)) == sorted(semi)
        assert {key: files[key].read_bytes() for key in semi} == semi
        assert again == both
        alone = sweep(hard_streams, self.WINDOWS, self.OVERLAPS,
                      ["semi_supervised"], seed=0,
                      out_dir=str(tmp_path / "semi"), params=GATE_05,
                      valid_labels=labels)
        assert alone == [r for r in both if r.mode == "semi_supervised"]
        assert all(r.self_updates > 0 for r in alone)

    def test_reversed_modes_write_same_bytes(self, hard_streams, hard_spec,
                                             tmp_path):
        labels = hard_spec.class_labels
        outputs = []
        for name, modes in (("fwd", self.MODES), ("rev", self.MODES[::-1])):
            out = tmp_path / name
            results = sweep(hard_streams, self.WINDOWS, self.OVERLAPS, modes,
                            seed=0, out_dir=str(out), params=GATE_05,
                            valid_labels=labels)
            emit_reports(results, str(out / "reports"), valid_labels=labels)
            outputs.append({
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()})
        assert outputs[0] == outputs[1]
        # the semi-supervised cells did update and score differently
        semi = {_cell_key(r)[:3]: r for r in results
                if r.mode == "semi_supervised"}
        assert all(r.self_updates > 0 for r in semi.values())
        assert any(semi[_cell_key(r)[:3]].n_correct != r.n_correct
                   for r in results if r.mode == "supervised_frozen")

    def test_every_run_starts_from_the_trained_model(self, hard_streams,
                                                     hard_spec, tmp_path,
                                                     monkeypatch):
        # every cell, in either mode, is one score_fold call, and starts
        # from the model fold_model trains for its point and user; the
        # semi-supervised cell is given its frozen cell's audit
        labels = hard_spec.class_labels
        started, given = [], []
        score_fold = evaluation.score_fold

        def recording_score(model, tables, user, config, mode, frozen=()):
            started.append(model.state_hash())
            given.append(list(frozen))
            result, audit = score_fold(model, tables, user, config, mode,
                                       frozen)
            if mode == "supervised_frozen":
                given.append(audit)
            return result, audit

        monkeypatch.setattr(evaluation, "score_fold", recording_score)
        sweep(hard_streams, self.WINDOWS, self.OVERLAPS, self.MODES[::-1],
              seed=0, out_dir=str(tmp_path), params=GATE_05,
              valid_labels=labels)
        expected = []
        for w, o in product(self.WINDOWS, self.OVERLAPS):
            config = WindowConfig(w, o)
            tables = evaluation.row_tables(hard_streams, [config],
                                           valid_labels=labels)
            for user in sorted(tables):
                fresh = fold_model(tables, config, user, GATE_05, labels)
                expected += [fresh.state_hash()] * len(self.MODES)
        assert started == expected and len(started) == 12
        # per user and point: none, the frozen audit, then that audit
        assert given[::3] == [[]] * 6 and given[1::3] == given[2::3]
        assert all(given[1::3])

    def test_carries_no_per_window_objects(self, hard_streams, hard_spec,
                                           tmp_path, monkeypatch):
        # the sweep labels, featurizes, trains and scores on arrays: with
        # Window and FeatureVector construction made to raise, it writes
        # the bytes it writes without
        labels = hard_spec.class_labels
        outputs = []
        for name in ("plain", "no_objects"):
            if name == "no_objects":
                def refuse(self, *args, **kwargs):
                    raise AssertionError(f"built a {type(self).__name__}")

                monkeypatch.setattr(Window, "__init__", refuse)
                monkeypatch.setattr(FeatureVector, "__init__", refuse)
            out = tmp_path / name
            results = sweep(hard_streams, [20, 50], [0.0, 0.3, 0.5],
                            self.MODES, seed=0, out_dir=str(out),
                            params=GATE_05, valid_labels=labels)
            emit_reports(results, str(out / "reports"), valid_labels=labels)
            outputs.append({
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()})
        assert outputs[0] == outputs[1]
        with pytest.raises(AssertionError, match="built a Window"):
            labeled_windows(hard_streams[0], WindowConfig(50, 0.0))
        with pytest.raises(AssertionError, match="built a FeatureVector"):
            FeatureVector(np.zeros(N_FEATURES), 1, 1, 0)

    @pytest.mark.parametrize("module", [dataset, windowing, features,
                                        learners, ensemble, evaluation],
                             ids=lambda m: m.__name__.split(".")[-1])
    def test_resume_recomputes_cells_after_a_source_edit(
            self, small_streams, small_spec, tmp_path, monkeypatch, module):
        # an edit to any module a cell's scores read, dataset's channel
        # layout and transient label among them, keys the cells anew, so a
        # resume recomputes them rather than serve the old scores
        labels = small_spec.class_labels
        first = self.run(small_streams, labels, tmp_path / "out")
        edited = tmp_path / "edited.py"
        edited.write_bytes(Path(module.__file__).read_bytes() + b"# edit\n")
        monkeypatch.setattr(module, "__file__", str(edited))
        recomputed = []
        again = self.run(small_streams, labels, tmp_path / "out",
                         resume=True, progress=recomputed.append)
        assert len(recomputed) == len(first) and again == first
        assert len(os.listdir(tmp_path / "out" / "cells")) == 2 * len(first)

    @pytest.mark.parametrize("modes", [
        ["nonsense"], ["supervised_frozen", "supervised_frozen"],
        ["semi_supervised", "supervised_frozen", "semi_supervised"],
        ["supervised_frozen", "frozen"]],
        ids=["unknown", "repeated", "repeated3", "one_unknown"])
    def test_bad_modes_rejected_before_any_write(self, small_streams,
                                                 small_spec, tmp_path, modes):
        with pytest.raises(EvaluationError):
            sweep(small_streams, self.WINDOWS, self.OVERLAPS, modes, seed=0,
                  out_dir=str(tmp_path / "out"), params=FAST,
                  valid_labels=small_spec.class_labels)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("windows,overlaps", [([50, 50], [0.0]),
                                                  ([50], [0.5, 0.5])],
                             ids=["window", "overlap"])
    def test_repeated_grid_value_rejected_before_any_write(
            self, small_streams, small_spec, tmp_path, windows, overlaps):
        with pytest.raises(EvaluationError):
            sweep(small_streams, windows, overlaps, self.MODES, seed=0,
                  out_dir=str(tmp_path / "out"), params=FAST,
                  valid_labels=small_spec.class_labels)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("windows,overlaps", [([1], [0.0]), ([50], [1.0])],
                             ids=["window", "overlap"])
    def test_invalid_grid_value_rejected_before_any_write(
            self, small_streams, small_spec, tmp_path, windows, overlaps):
        with pytest.raises(WindowingError):
            sweep(small_streams, windows, overlaps, self.MODES, seed=0,
                  out_dir=str(tmp_path / "out"), params=FAST,
                  valid_labels=small_spec.class_labels)
        assert not (tmp_path / "out").exists()

    def test_resume_recomputes_bad_cells(self, small_streams, small_spec,
                                         tmp_path, capsys):
        labels = small_spec.class_labels
        clean, bad = tmp_path / "clean", tmp_path / "bad"
        emit_reports(self.run(small_streams, labels, clean), str(clean),
                     valid_labels=labels)
        self.run(small_streams, labels, bad)
        cells = sorted((bad / "cells").iterdir())
        cells[0].write_text('{"user": 1')  # truncated JSON
        cells[1].write_text('{"user": 1}')  # not a FoldResult
        cells[3].write_text(cells[2].read_text())  # another cell's result
        capsys.readouterr()
        recomputed = []
        results = self.run(small_streams, labels, bad, resume=True,
                           progress=recomputed.append)
        emit_reports(results, str(bad), valid_labels=labels)
        assert len(recomputed) == 3
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 3
        assert all(w.startswith("warning: ") for w in warnings)
        for name in os.listdir(clean):
            if (clean / name).is_file():
                assert (bad / name).read_bytes() == (clean / name).read_bytes()
        for path in (clean / "cells").iterdir():
            assert (bad / "cells" / path.name).read_bytes() == \
                path.read_bytes()

    def test_resume_recomputes_cell_of_other_params(self, small_streams,
                                                    small_spec, tmp_path,
                                                    capsys):
        labels = small_spec.class_labels
        mine, theirs = tmp_path / "mine", tmp_path / "theirs"
        first = self.run(small_streams, labels, mine)
        other = sweep(small_streams, self.WINDOWS, self.OVERLAPS, self.MODES,
                      seed=0, out_dir=str(theirs), valid_labels=labels,
                      params=LearnerParams(knn_capacity=500,
                                           vfdt_grace_period=50,
                                           confidence_threshold=0.5))
        cell = next(_cell_key(a) for a, b in zip(first, other) if a != b)
        # a cell run at another gate, copied under the name of this one
        _cell_files(mine)[cell].write_bytes(
            _cell_files(theirs)[cell].read_bytes())
        capsys.readouterr()
        recomputed = []
        again = self.run(small_streams, labels, mine, resume=True,
                         progress=recomputed.append)
        assert [_cell_key(r) for r in recomputed] == [cell]
        assert again == first
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1 and warnings[0].startswith("warning: ")

    @pytest.mark.parametrize("field,other", [("code", "0" * 64),
                                             ("numpy", "1.26.4")],
                             ids=["code", "numpy"])
    def test_resume_recomputes_cell_of_other_code(self, small_streams,
                                                  small_spec, tmp_path,
                                                  capsys, field, other):
        # a cell scored by other source of the scoring modules, as before a
        # change to a learner rule, or under another numpy, whose kernels
        # may round otherwise, is recomputed, not served
        labels = small_spec.class_labels
        first = self.run(small_streams, labels, tmp_path)
        paths = sorted((tmp_path / "cells").iterdir())
        keys = [json.loads(p.read_text())["key"] for p in paths]
        codes = {key["code"] for key in keys}
        assert len(codes) == 1 and len(codes.pop()) == 64
        assert {key["numpy"] for key in keys} == {np.__version__}
        fresh = paths[0].read_bytes()
        cell = json.loads(fresh)
        cell["key"][field] = other
        paths[0].write_text(json.dumps(cell, sort_keys=True))
        capsys.readouterr()
        recomputed = []
        again = self.run(small_streams, labels, tmp_path, resume=True,
                         progress=recomputed.append)
        assert recomputed == [FoldResult.from_dict(cell["result"])]
        assert again == first
        assert paths[0].read_bytes() == fresh
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1 and warnings[0].startswith("warning: ")

    def test_resume_recomputes_bare_result_cell(self, small_streams,
                                                small_spec, tmp_path, capsys):
        labels = small_spec.class_labels
        first = self.run(small_streams, labels, tmp_path)
        path = sorted((tmp_path / "cells").iterdir())[0]
        fresh = path.read_bytes()
        r = FoldResult.from_dict(json.loads(fresh)["result"])
        # the earlier format: the result alone, with its totals
        path.write_text(json.dumps(dict(r.to_dict(), n_windows=r.n_windows,
                                        n_correct=r.n_correct, empty=False)))
        capsys.readouterr()
        recomputed = []
        again = self.run(small_streams, labels, tmp_path, resume=True,
                         progress=recomputed.append)
        assert recomputed == [r]
        assert again == first
        assert path.read_bytes() == fresh
        assert capsys.readouterr().err.startswith("warning: ")

    def test_rerun_reports_byte_identical(self, small_streams, small_spec,
                                          tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ra = self.run(small_streams, small_spec.class_labels, a)
        rb = self.run(small_streams, small_spec.class_labels, b)
        emit_reports(ra, str(a), valid_labels=small_spec.class_labels)
        emit_reports(rb, str(b), valid_labels=small_spec.class_labels)
        for name in ("long.csv", "summary.csv", "heatmap_user1_semi_supervised.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def _cell_key(r):
    return (r.user, r.window_size, r.overlap, r.mode)


def _cell_files(out):
    """(user, W, o, mode) -> path of each cell file under out/cells."""
    cells = {p: json.loads(p.read_text())["result"]
             for p in (out / "cells").iterdir()}
    return {_cell_key(FoldResult.from_dict(r)): p for p, r in cells.items()}


def result_cell(user, w, o, mode, n, correct):
    return FoldResult(user=user, window_size=w, overlap=o, mode=mode,
                      per_activity_windows={1: n},
                      per_activity_correct={1: correct})


class TestEmitReports:
    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(EvaluationError):
            emit_reports([], str(tmp_path))

    def test_repeated_cell_rejected_before_any_write(self, tmp_path):
        # counted twice, one user's cell read as n_users 2
        r = result_cell(1, 100, 0.0, "supervised_frozen", 10, 8)
        with pytest.raises(EvaluationError):
            emit_reports([r, r], str(tmp_path / "out"), valid_labels=(1,))
        assert not (tmp_path / "out").exists()

    def test_unwritable_report_raises_os_error(self, tmp_path):
        # the CLI maps OSError to the unwritable-output exit code
        (tmp_path / "long.csv").mkdir()
        results = [result_cell(1, 100, 0.0, "supervised_frozen", 10, 8)]
        with pytest.raises(OSError):
            emit_reports(results, str(tmp_path), valid_labels=(1,))

    def test_heatmap_shape_and_missing_cells(self, tmp_path):
        results = [result_cell(1, 100, 0.0, "supervised_frozen", 10, 8),
                   result_cell(1, 200, 0.5, "supervised_frozen", 10, 9),
                   result_cell(1, 200, 0.0, "supervised_frozen", 0, 0)]
        emit_reports(results, str(tmp_path), valid_labels=(1,))
        lines = (tmp_path / "heatmap_user1_supervised_frozen.csv").read_text() \
            .splitlines()
        assert lines[0] == "window_size,o=0.0,o=0.5"
        assert lines[1] == "100,0.8,"      # (100, 0.5) never ran -> empty
        assert lines[2] == "200,,0.9"      # (200, 0.0) empty cell -> empty, not 0
        assert len(lines) == 3

    def test_summary_recount_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        results = []
        for user in (1, 2, 3):
            n = int(rng.integers(50, 150))
            results.append(result_cell(user, 100, 0.0, "supervised_frozen", n,
                                       int(rng.integers(0, n + 1))))
        emit_reports(results, str(tmp_path), valid_labels=(1,))
        row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
        accs = [r.accuracy for r in results]
        assert float(row[4]) == pytest.approx(np.mean(accs), abs=1e-12)
        assert float(row[5]) == pytest.approx(np.var(accs), abs=1e-12)
        weighted = (sum(r.n_correct for r in results)
                    / sum(r.n_windows for r in results))
        assert float(row[6]) == pytest.approx(weighted, abs=1e-12)

    def test_single_activity_user_excluded_by_default(self, tmp_path):
        results = [result_cell(1, 100, 0.0, "supervised_frozen", 10, 10),
                   result_cell(SINGLE_ACTIVITY_USER, 100, 0.0,
                               "supervised_frozen", 10, 0)]
        emit_reports(results, str(tmp_path), valid_labels=(1,))
        row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "1" and float(row[4]) == 1.0
        emit_reports(results, str(tmp_path), valid_labels=(1,),
                     include_single_activity_user=True)
        row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "2" and float(row[4]) == 0.5

    def test_long_csv_rows(self, tmp_path):
        results = [result_cell(1, 100, 0.0, "supervised_frozen", 10, 8)]
        emit_reports(results, str(tmp_path), valid_labels=(1, 2))
        lines = (tmp_path / "long.csv").read_text().splitlines()
        assert lines[0] == ("user,activity,window_size,overlap,mode,"
                            "n_windows,accuracy")
        assert len(lines) == 3  # one row per (result, activity)
        assert lines[1].split(",")[-1] == "0.8"
        assert lines[2].split(",")[-2:] == ["0", ""]  # unseen activity
