import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harbench import dataset
from harbench.dataset import PROTOCOL_ACTIVITIES, SensorStream
from harbench.features import extract
from harbench.windowing import (Window, WindowConfig, WindowingError,
                                classification_count, label_starts,
                                label_window, labeled_windows, segment)


def id_stream(ids, user_id=1):
    """Stream whose only meaningful content is the activity sequence."""
    values = np.full((len(ids), dataset.N_COLUMNS), 0.5)
    values[:, 0] = np.arange(len(ids)) * 0.01
    values[:, 1] = ids
    return SensorStream(user_id=user_id, values=values)


def oracle_starts(n, w, step):
    """Brute-force slider: every index list fully inside the stream."""
    starts = []
    i = 0
    while i + w <= n:
        starts.append(i)
        i += step
    return starts


class TestWindowConfig:
    def test_step_round_half_up(self):
        assert WindowConfig(100, 0.1).step == 90
        assert WindowConfig(3, 0.5).step == 2  # 1.5 rounds up

    def test_step_never_zero(self):
        assert WindowConfig(2, 0.9).step == 1

    def test_half_overlap_reuse(self):
        # half-overlap at W=512 reuses 256 samples
        cfg = WindowConfig(512, 0.5)
        assert cfg.step == 256
        assert cfg.window_size - cfg.step == 256

    def test_invalid_configs(self):
        with pytest.raises(WindowingError):
            WindowConfig(1, 0.0)
        with pytest.raises(WindowingError):
            WindowConfig(10, 1.0)
        with pytest.raises(WindowingError):
            WindowConfig(10, -0.1)


class TestSegment:
    def test_basic_example(self):
        wins = segment(id_stream([1] * 8), WindowConfig(4, 0.5))
        assert [w.start for w in wins] == [0, 2, 4]

    def test_short_stream_yields_empty(self):
        assert segment(id_stream([1] * 3), WindowConfig(4, 0.0)) == []

    def test_count_formula(self):
        stream = id_stream([1] * 10_000)
        assert len(segment(stream, WindowConfig(100, 0.0))) == 100

    def test_matches_oracle_over_grid(self):
        lengths = [2, 3, 17, 100, 333, 500]
        for n in lengths:
            stream = id_stream([1] * n)
            for w in range(2, 51):
                for o in [round(0.1 * i, 1) for i in range(10)]:
                    cfg = WindowConfig(w, o)
                    got = [x.start for x in segment(stream, cfg)]
                    assert got == oracle_starts(n, w, cfg.step), (n, w, o)

    def test_consecutive_windows_share_expected_samples(self):
        cfg = WindowConfig(20, 0.7)
        wins = segment(id_stream([1] * 200), cfg)
        for a, b in zip(wins, wins[1:]):
            shared = set(range(a.start, a.start + 20)) & set(
                range(b.start, b.start + 20))
            assert len(shared) == 20 - cfg.step

    def test_never_reads_past_stream_end(self):
        n = 95
        for w in (10, 30, 90):
            for o in (0.0, 0.3, 0.9):
                for win in segment(id_stream([1] * n), WindowConfig(w, o)):
                    assert win.start + win.size <= n


class RowRecorder:
    """Array stand-in that records every index it is read with."""

    def __init__(self, values):
        self.values = values
        self.keys = []

    def __getitem__(self, key):
        self.keys.append(key)
        return self.values[key]


class RecordingStream:
    def __init__(self, stream):
        self.user_id = stream.user_id
        self.values = RowRecorder(stream.values)


class TestWindow:
    def test_segment_yields_unlabeled_views(self):
        wins = segment(id_stream([4] * 8), WindowConfig(4, 0.5))
        assert all(w.label is None for w in wins)

    def test_label_returns_labeled_copy(self):
        win = segment(id_stream([4] * 8), WindowConfig(4, 0.5))[1]
        kept = label_window(win)
        assert kept == Window(win.stream, 2, 4, label=4)
        assert win.label is None

    def test_label_and_extract_read_only_the_window_rows(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(30, dataset.N_COLUMNS))
        values[:, 1] = 4
        stream = RecordingStream(SensorStream(3, values))
        win = Window(stream, 10, 5)
        assert win.user_id == 3
        assert label_window(win).label == 4
        fv = extract(win)
        assert stream.values.keys
        for rows, _ in stream.values.keys:
            assert (rows.start, rows.stop) == (10, 15)
        assert fv.user_id == 3
        assert fv.values[0] == pytest.approx(
            values[10:15, dataset.FEATURE_CHANNEL_INDEX[0]].mean())


class TestLabelWindow:
    def test_pure_window(self):
        win = label_window(segment(id_stream([4] * 10), WindowConfig(10, 0.0))[0])
        assert win.label == 4

    def test_below_purity_discarded(self):
        ids = [4] * 79 + [3] * 21
        cand = segment(id_stream(ids), WindowConfig(100, 0.0))[0]
        assert label_window(cand) is None

    def test_tie_discarded_at_default_threshold(self):
        cand = segment(id_stream([4] * 5 + [3] * 5), WindowConfig(10, 0.0))[0]
        assert label_window(cand) is None  # purity 0.5 < 0.8

    def test_tie_broken_toward_earlier_label(self):
        cand = segment(id_stream([4] * 5 + [3] * 5), WindowConfig(10, 0.0))[0]
        win = label_window(cand, purity_threshold=0.5)
        assert win.label == 4

    def test_transient_modal_discarded(self):
        cand = segment(id_stream([0] * 10), WindowConfig(10, 0.0))[0]
        assert label_window(cand, purity_threshold=0.5) is None

    def test_nonprotocol_modal_discarded(self):
        cand = segment(id_stream([99] * 10), WindowConfig(10, 0.0))[0]
        assert label_window(cand) is None

    @pytest.mark.parametrize("purity", [-0.1, 1.5, float("nan")])
    def test_purity_outside_unit_interval_rejected(self, purity):
        with pytest.raises(WindowingError):
            labeled_windows(id_stream([1] * 200), WindowConfig(100, 0.0),
                            purity)
        # label_window refuses it too, for a 70%-pure and a one-activity
        # window, rather than dropping or keeping them
        for ids in ([1] * 7 + [2] * 3, [1] * 10):
            cand = segment(id_stream(ids), WindowConfig(10, 0.0))[0]
            with pytest.raises(WindowingError, match="purity"):
                label_window(cand, purity)

    @pytest.mark.parametrize("ids", [
        [4] * 10, [0] * 10, [99] * 10, [4.5] * 10, [-0.5] * 10,
        [np.inf] * 10, [1e19] * 10, [np.nan] * 10, [4] * 9 + [np.nan],
        [np.nan] + [4] * 9, [4] * 5 + [np.nan] + [4] * 4],
        ids=["one", "transient", "nonprotocol", "fraction", "negative",
             "inf", "past-int64", "nan", "nan-last", "nan-first",
             "nan-inside"])
    @pytest.mark.parametrize("purity", [0.0, 0.8, 1.0])
    def test_one_activity_shortcut_is_label_starts(self, ids, purity):
        # a window whose activity column holds one id inside int64's range
        # is labeled without np.unique; label_starts counts every window
        # alike
        stream = id_stream(ids)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to int64
            starts, labels = label_starts(stream, [0], len(ids), purity)
            win = label_window(Window(stream, 0, len(ids)), purity)
        assert starts.tolist() == ([] if win is None else [0])
        assert labels.tolist() == ([] if win is None else [win.label])


def per_window_labels(stream, starts, size, purity, valid):
    """label_window's kept windows at these starts."""
    labeled = [label_window(Window(stream, start, size), purity, valid)
               for start in starts]
    return [win for win in labeled if win is not None]


def assert_labels_windows(kept, windows):
    """label_starts' (starts, labels) arrays are those of the windows."""
    starts, labels = kept
    assert starts.dtype == labels.dtype == np.int64
    assert starts.tolist() == [w.start for w in windows]
    assert labels.tolist() == [w.label for w in windows]


class TestLabelStarts:
    # runs of protocol ids, the transient id and a non-protocol id (99),
    # so that ties, shares exactly at the purity and dropped labels occur;
    # the starts are the union of up to three steps', which need not nest
    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from([0, 1, 2, 4, 99]),
                                   st.integers(1, 6)), min_size=1,
                         max_size=40),
           size=st.integers(2, 12),
           steps=st.lists(st.integers(1, 7), min_size=1, max_size=3),
           purity=st.sampled_from([0.0, 0.5, 0.6, 0.75, 0.8, 1.0]),
           valid=st.sampled_from([PROTOCOL_ACTIVITIES, (1, 99), (0, 2)]))
    def test_equals_label_window(self, runs, size, steps, purity, valid):
        stream = id_stream([a for a, n in runs for _ in range(n)])
        starts = sorted({start for step in steps
                         for start in range(0, len(stream) - size + 1, step)})
        assert_labels_windows(
            label_starts(stream, starts, size, purity, valid),
            per_window_labels(stream, starts, size, purity, valid))

    @pytest.mark.parametrize("ids, purity, label", [
        ([3, 4, 4, 3, 3, 4], 0.5, 3),  # a tie: 3 occurs first
        ([4, 3, 3, 4, 4, 3], 0.5, 4),
        ([0, 0, 2, 2, 2, 0], 0.5, 0),  # a tie won by the transient id: dropped
        ([1, 1, 1, 1, 2], 0.8, 1),  # a share of 4/5, exactly at the purity
        ([1, 1, 1, 2, 2], 0.8, 1),  # 3/5, below it
        ([99, 99, 99, 99, 1], 0.5, 99)])  # not a protocol activity
    def test_ties_purity_and_dropped_labels(self, ids, purity, label):
        stream = id_stream(ids)
        kept = label_starts(stream, [0], len(ids), purity)
        assert_labels_windows(kept, per_window_labels(
            stream, [0], len(ids), purity, PROTOCOL_ACTIVITIES))
        expect_kept = (label in PROTOCOL_ACTIVITIES
                       and ids.count(label) / len(ids) >= purity)
        assert_labels_windows(kept, [Window(stream, 0, len(ids), label)]
                              if expect_kept else [])

    def test_labeled_windows_takes_segments_starts(self):
        ids = [1] * 37 + [0] * 20 + [4] * 51
        stream = id_stream(ids)
        cfg = WindowConfig(10, 0.3)
        starts = [win.start for win in segment(stream, cfg)]
        assert labeled_windows(stream, cfg) == per_window_labels(
            stream, starts, 10, 0.8, PROTOCOL_ACTIVITIES)


class TestWindowBounds:
    # a window's rows must all lie in its stream: both labelers keep the
    # start len - size and refuse len - size + 1 and -1, and anything past
    @pytest.mark.parametrize("size", [2, 50])
    def test_each_side_of_the_stream_limits(self, size):
        stream = id_stream([4] * 300)
        last = 300 - size
        assert label_window(Window(stream, last, size)).label == 4
        assert label_window(Window(stream, 0, size)).label == 4
        assert label_starts(stream, [0, last], size)[0].tolist() == [0, last]
        for start in (last + 1, -1, 305, -5):
            with pytest.raises(WindowingError, match="outside its"):
                label_window(Window(stream, start, size))
            with pytest.raises(WindowingError, match="outside its"):
                label_starts(stream, [0, start], size)

    def test_a_stream_shorter_than_its_window(self):
        stream = id_stream([4] * 5)
        with pytest.raises(WindowingError):
            label_window(Window(stream, 0, 10))
        with pytest.raises(WindowingError):
            label_starts(stream, [0], 10)
        # no start at all is no window, and no error
        assert label_starts(stream, [], 10)[0].tolist() == []
        assert classification_count(stream, WindowConfig(10, 0.0)) == 0

    @pytest.mark.parametrize("size", [0, -3])
    def test_a_window_needs_at_least_one_row(self, size):
        # a size below 1 is no window: refused before any row is read,
        # even with no start to label
        stream = id_stream([4] * 200)
        with pytest.raises(WindowingError, match="at least 1 row"):
            label_window(Window(stream, 3, size))
        for starts in ([0, 5, 100], []):
            with pytest.raises(WindowingError, match="at least 1 row"):
                label_starts(stream, starts, size)


class TestClassificationCount:
    def test_monotone_in_overlap(self):
        stream = id_stream([1] * 3000)
        counts = [classification_count(stream, WindowConfig(100, o))
                  for o in [round(0.1 * i, 1) for i in range(10)]]
        assert counts == sorted(counts)

    def test_equals_kept_windows(self):
        ids = [1] * 500 + [0] * 50 + [4] * 500
        stream = id_stream(ids)
        cfg = WindowConfig(100, 0.5)
        assert classification_count(stream, cfg) == len(
            labeled_windows(stream, cfg))

    def test_counts_label_starts_without_windows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a Window")

        stream = id_stream([1] * 500 + [0] * 50 + [4] * 500)
        cfg = WindowConfig(100, 0.5)
        expected = len(labeled_windows(stream, cfg))
        monkeypatch.setattr(Window, "__init__", refuse)
        assert classification_count(stream, cfg) == expected > 0

    def test_single_activity_formula(self):
        stream = id_stream([1] * 10_000)
        assert classification_count(stream, WindowConfig(100, 0.0)) == 100
