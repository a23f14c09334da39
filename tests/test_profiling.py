from pathlib import Path
from types import SimpleNamespace

import pytest

from harbench import profiling
from harbench.dataset import DatasetError
from harbench.ensemble import Ensemble, LearnerParams
from harbench.evaluation import EvaluationError, FoldResult, sweep
from harbench.profiling import (PowerModel, ProfilingError, TimingBreakdown,
                                estimate_energy, timed_run, write_profile)
from harbench.windowing import WindowConfig, classification_count, segment

FAST = LearnerParams(knn_capacity=500, vfdt_grace_period=50)


def breakdown(sampling_s=1.0, features_s=1.0, classification_s=1.0,
              window_size=100, overlap=0.0, windows=None, correct=None, **kw):
    result = FoldResult(3, window_size, overlap, "supervised_frozen",
                        {1: 10} if windows is None else windows,
                        {1: 9} if correct is None else correct)
    return TimingBreakdown(sampling_ns=int(sampling_s * 1e9),
                           feature_ns=int(features_s * 1e9),
                           classification_ns=int(classification_s * 1e9),
                           result=result, **kw)


class TestPowerModel:
    def test_hand_computed_example(self):
        # 1s @ 1W + 2s @ 4W + 1s @ 3W = 12 J
        model = PowerModel(sampling_watts=1.0, feature_watts=4.0,
                           classification_watts=3.0)
        bd = breakdown(sampling_s=1.0, features_s=2.0, classification_s=1.0)
        assert estimate_energy(bd, model) == pytest.approx(12.0)

    def test_zero_power_is_zero_energy(self):
        model = PowerModel(0.0, 0.0, 0.0)
        assert estimate_energy(breakdown(), model) == 0.0

    def test_negative_watts_rejected(self):
        with pytest.raises(ProfilingError):
            PowerModel(1.0, -0.1, 1.0)

    @pytest.mark.parametrize("watts", [float("nan"), float("inf")])
    def test_non_finite_watts_rejected(self, watts):
        with pytest.raises(ProfilingError):
            PowerModel(1.0, watts, 1.0)

    def test_from_file(self, tmp_path):
        path = tmp_path / "power.json"
        path.write_text('{"sampling_watts": 0.5, "feature_watts": 2.0, '
                        '"classification_watts": 1.5}')
        model = PowerModel.from_file(path)
        assert model.feature_watts == 2.0

    def test_from_file_missing_key(self, tmp_path):
        path = tmp_path / "power.json"
        path.write_text('{"sampling_watts": 0.5}')
        with pytest.raises(ProfilingError):
            PowerModel.from_file(path)


@pytest.fixture(scope="module")
def run(small_streams, small_spec):
    return timed_run(small_streams, 3, WindowConfig(50, 0.5), params=FAST,
                     valid_labels=small_spec.class_labels, repetitions=5)


class TestTimedRun:

    def test_window_count_matches_formula(self, run, small_streams):
        assert run.result.n_windows == classification_count(
            small_streams[2], WindowConfig(50, 0.5))

    def test_phases_positive_and_bounded_by_reps(self, run):
        assert run.sampling_ns > 0
        assert run.feature_ns > 0
        assert run.classification_ns > 0
        assert len(run.per_rep_total_ns) == 5
        assert run.total_ns == (run.sampling_ns + run.feature_ns
                                + run.classification_ns)
        # each median is within the observed per-rep range
        assert run.total_ns <= 3 * max(run.per_rep_total_ns)

    def test_accuracy_fields_consistent(self, run):
        assert 0 <= run.result.n_correct <= run.result.n_windows
        assert (run.result.window_size, run.result.overlap) == (50, 0.5)

    def test_features_timed_one_extract_per_window(self, small_streams,
                                                   small_spec, monkeypatch):
        extract = profiling.extract
        calls = []

        def counting_extract(window, window_index=0):
            calls.append(window_index)
            return extract(window, window_index)

        monkeypatch.setattr(profiling, "extract", counting_extract)
        bd = timed_run(small_streams, 3, WindowConfig(50, 0.5), params=FAST,
                       valid_labels=small_spec.class_labels, repetitions=2)
        assert bd.result.n_windows > 0
        assert calls == list(range(bd.result.n_windows)) * 2

    def test_sampling_timed_one_label_window_per_window(
            self, small_streams, small_spec, monkeypatch):
        # a device labels each window as it closes, not the stream at once
        label_window = profiling.label_window
        calls = []

        def counting_label(window, *args):
            calls.append(window.start)
            return label_window(window, *args)

        monkeypatch.setattr(profiling, "label_window", counting_label)
        config = WindowConfig(50, 0.5)
        bd = timed_run(small_streams, 3, config, params=FAST,
                       valid_labels=small_spec.class_labels, repetitions=2)
        starts = [w.start for w in segment(small_streams[2], config)]
        assert 0 < bd.result.n_windows < len(starts)
        assert calls == starts * 2

    def test_trains_once_across_repetitions(self, small_streams, small_spec,
                                            monkeypatch):
        # the fold trains one train_rows call per training user, once for
        # all repetitions (frozen runs make no self-update)
        calls = []
        original = Ensemble.train_rows

        def counting(model, X, labels):
            calls.append(len(labels))
            return original(model, X, labels)

        monkeypatch.setattr(Ensemble, "train_rows", counting)
        bd = timed_run(small_streams, 3, WindowConfig(50, 0.5), params=FAST,
                       valid_labels=small_spec.class_labels, repetitions=5)
        assert bd.result.n_windows > 0
        assert len(calls) == 2 and min(calls) > 0

    def test_semi_supervised_reps_start_from_the_trained_model(
            self, hard_streams, hard_spec, monkeypatch):
        # a low gate, so each semi-supervised run updates its model
        config = WindowConfig(50, 0.5)
        labels = hard_spec.class_labels
        params = LearnerParams(knn_capacity=500, vfdt_grace_period=50,
                               confidence_threshold=0.5)
        started = []
        run_online = Ensemble.run_online

        def recording_run(model, instances, mode):
            started.append(model.state_hash())
            return run_online(model, instances, mode)

        monkeypatch.setattr(Ensemble, "run_online", recording_run)
        bd = timed_run(hard_streams, 3, config, mode="semi_supervised",
                       params=params, valid_labels=labels, repetitions=3)
        assert len(started) == 3 and len(set(started)) == 1
        assert bd.result.self_updates > 0

    @pytest.mark.parametrize("mode", ["supervised_frozen", "semi_supervised"])
    def test_result_is_the_sweep_cell(self, hard_streams, hard_spec,
                                      tmp_path, mode):
        params = LearnerParams(knn_capacity=500, vfdt_grace_period=50,
                               confidence_threshold=0.5)
        cells = sweep(hard_streams, [50], [0.5], [mode], seed=0,
                      out_dir=str(tmp_path), params=params,
                      valid_labels=hard_spec.class_labels)
        # every fold, the first and middle ones training users after the prefix
        for cell in cells:
            bd = timed_run(hard_streams, cell.user, WindowConfig(50, 0.5),
                           mode=mode, params=params,
                           valid_labels=hard_spec.class_labels, repetitions=1)
            assert bd.result == cell
        assert [cell.user for cell in cells] == [1, 2, 3]

    @pytest.mark.parametrize("mode", ["supervised_frozen", "semi_supervised"])
    def test_result_is_the_sweep_cell_whatever_the_training_order(
            self, hard_streams, hard_spec, tmp_path, mode):
        # the fold trains in user order, as the sweep does, not in the order
        # the streams are given
        params = LearnerParams(k=5, knn_capacity=300, vfdt_delta=0.05,
                               vfdt_tie_threshold=0.5, vfdt_grace_period=50,
                               confidence_threshold=0.65)
        cells = sweep(hard_streams, [50], [0.5], [mode], seed=0,
                      out_dir=str(tmp_path), params=params,
                      valid_labels=hard_spec.class_labels)
        bd = timed_run(hard_streams[::-1], 3, WindowConfig(50, 0.5),
                       mode=mode, params=params,
                       valid_labels=hard_spec.class_labels, repetitions=1)
        assert bd.result == next(r for r in cells if r.user == 3)

    @pytest.mark.parametrize("streams,test_user,error",
                             [((0, 1, 2, 0), 3, EvaluationError),
                              ((0, 1, 2), 7, DatasetError)],
                             ids=["repeated_user", "unknown_test_user"])
    def test_bad_training_streams_rejected(self, small_streams, small_spec,
                                           streams, test_user, error):
        with pytest.raises(error):
            timed_run([small_streams[i] for i in streams], test_user,
                      WindowConfig(50, 0.5), params=FAST,
                      valid_labels=small_spec.class_labels, repetitions=1)

    def test_coarse_timer_is_reported(self, small_streams, small_spec,
                                      monkeypatch, tmp_path):
        monkeypatch.setattr(profiling.time, "get_clock_info",
                            lambda name: SimpleNamespace(resolution=0.001))
        bd = timed_run(small_streams, 3, WindowConfig(50, 0.0), params=FAST,
                       valid_labels=small_spec.class_labels, repetitions=1)
        warning = "timer resolution 0.001s is coarser than 1us"
        assert bd.warnings == [warning]
        timing, _ = write_profile([bd], PowerModel(1.0, 2.0, 1.5), tmp_path)
        assert Path(timing).read_text().splitlines()[1].endswith("," + warning)

    def test_bad_repetitions(self, small_streams, small_spec):
        with pytest.raises(ProfilingError):
            timed_run(small_streams, 3, WindowConfig(50, 0.0), repetitions=0,
                      valid_labels=small_spec.class_labels)


def test_write_profile_sorts_the_grid(tmp_path):
    model = PowerModel(1.0, 2.0, 1.5)
    grid = [breakdown(window_size=200, overlap=0.0, per_rep_total_ns=[4, 5],
                      warnings=["coarse"]),
            breakdown(window_size=100, overlap=0.5, windows={1: 0},
                      correct={1: 0}),
            breakdown(window_size=100, overlap=0.0, features_s=2.0)]
    timing, heat = write_profile(grid, model, tmp_path / "new")
    lines = Path(timing).read_text().splitlines()
    assert lines == [
        "window_size,overlap,n_windows,sampling_ns,feature_ns,"
        "classification_ns,rep_total_ns_list,warnings",
        "100,0.0,10,1000000000,2000000000,1000000000,,",
        "100,0.5,0,1000000000,1000000000,1000000000,,",
        "200,0.0,10,1000000000,1000000000,1000000000,4;5,coarse"]
    lines = Path(heat).read_text().splitlines()
    assert lines == ["window_size,overlap,joules,accuracy,n_windows",
                     "100,0.0,6.5,0.9,10",
                     "100,0.5,4.5,,0",   # an empty cell: no accuracy, not 0
                     "200,0.0,4.5,0.9,10"]
