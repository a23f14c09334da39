import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harbench import features
from harbench.dataset import FEATURE_CHANNEL_INDEX, N_COLUMNS, SensorStream
from harbench.features import (FEATURE_NAMES, N_FEATURES, FeatureError,
                               FeatureVector, extract, extract_stream,
                               featurize)
from harbench.windowing import Window, WindowConfig, segment

from conftest import FakeWindow, random_window


def oracle_stats(xs):
    """Independent two-pass mean/std."""
    n = len(xs)
    mean = sum(xs) / n
    return mean, math.sqrt(sum((x - mean) ** 2 for x in xs) / n)


def oracle_pearson(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    if va == 0 or vb == 0:
        return 0.0
    return cov / math.sqrt(va * vb)


def window_channels(window):
    """The window's (size, 27) feature channels, read from its stream."""
    rows = window.stream.values[window.start:window.start + window.size]
    return np.asarray(rows[:, FEATURE_CHANNEL_INDEX], dtype=np.float64)


def oracle_extract(window):
    """Each of the 81 features computed independently, one at a time."""
    data = window_channels(window)
    means = [oracle_stats(data[:, j])[0] for j in range(27)]
    stds = [oracle_stats(data[:, j])[1] for j in range(27)]
    corrs = []
    for s in range(9):
        x, y, z = data[:, 3 * s], data[:, 3 * s + 1], data[:, 3 * s + 2]
        corrs += [oracle_pearson(x, y), oracle_pearson(x, z),
                  oracle_pearson(y, z)]
    return np.array(means + stds + corrs)


# ---------------------------------------------------------------------------
# The per-window featurizer the block kernel replaced, frozen as the
# bit-exact reference: one window at a time, 27 Pearson calls per window.


@np.errstate(divide="ignore")  # va * vb can underflow to 0
def _reference_pearson(a, b):
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        return 0.0
    r = float(da @ db) / np.sqrt(va * vb)
    return float(min(1.0, max(-1.0, r)))


def _reference_fill(channels):
    if not np.isnan(channels).any():
        return channels, True
    filled = channels.copy()
    quality_ok = True
    idx = np.arange(channels.shape[0])
    for j in range(channels.shape[1]):
        col = filled[:, j]
        missing = np.isnan(col)
        if not missing.any():
            continue
        if missing.all():
            filled[:, j] = 0.0
            quality_ok = False
            continue
        col[missing] = np.interp(idx[missing], idx[~missing], col[~missing])
    return filled, quality_ok


def reference_extract(window):
    """(81 values, quality flag) exactly as the per-window featurizer gave."""
    data, quality_ok = _reference_fill(window_channels(window))
    means = data.mean(axis=0)
    stds = np.sqrt(np.mean((data - means) ** 2, axis=0))
    corrs = np.empty(27)
    for s in range(9):
        x, y, z = data[:, 3 * s], data[:, 3 * s + 1], data[:, 3 * s + 2]
        corrs[3 * s:3 * s + 3] = [_reference_pearson(x, y),
                                  _reference_pearson(x, z),
                                  _reference_pearson(y, z)]
    return np.concatenate([means, stds, corrs]), quality_ok


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@st.composite
def streams(draw):
    """(stream, window size): a SensorStream whose feature channels mix
    scales and offsets, with NaN runs, fully missing stretches and
    constant channels."""
    w = draw(st.integers(2, 64))
    n = draw(st.integers(w, 6 * w + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    chans = (rng.normal(size=(n, 27)) * 10.0 ** rng.integers(-3, 4, size=27)
             + rng.normal(scale=100.0, size=27))
    if draw(st.booleans()):
        chans = np.round(chans, 1)  # repeated values and exact ties
    for _ in range(draw(st.integers(0, 3))):  # constant channels
        chans[:, draw(st.integers(0, 26))] = draw(st.floats(-1e3, 1e3))
    for _ in range(draw(st.integers(0, 6))):  # NaN runs, some spanning a window
        j = draw(st.integers(0, 26))
        lo = draw(st.integers(0, n - 1))
        chans[lo:lo + draw(st.integers(1, 2 * w)), j] = np.nan
    values = np.zeros((n, N_COLUMNS))
    values[:, 0] = np.arange(n) / 100.0
    values[:, 1] = 1.0
    values[:, FEATURE_CHANNEL_INDEX] = chans
    return SensorStream(1, values), w


class TestBlockKernel:
    @settings(max_examples=150, deadline=None)
    @given(streams(), st.sampled_from([0.0, 0.5, 0.8, 0.9]),
           st.integers(1, 8))
    def test_bit_equal_to_per_window_reference(self, drawn, overlap,
                                               windows_per_block):
        stream, w = drawn
        windows = segment(stream, WindowConfig(w, overlap))
        # small blocks put clean and NaN windows, and block edges, anywhere
        with mock.patch.object(features, "_BLOCK_VALUES",
                               windows_per_block * 27 * w):
            got = extract_stream(windows)
        assert [fv.window_index for fv in got] == list(range(len(windows)))
        for win, fv in zip(windows, got):
            want, quality_ok = reference_extract(win)
            assert np.array_equal(bits(fv.values), bits(want)), win.start
            assert fv.quality_ok == quality_ok
            one = extract(win, 7)
            assert np.array_equal(bits(one.values), bits(want)), win.start
            assert one.quality_ok == quality_ok and one.window_index == 7

    def test_mixed_window_sizes_rejected_across_blocks(self):
        rng = np.random.default_rng(10)  # one block: TestPearson
        with mock.patch.object(features, "_BLOCK_VALUES", 27 * 10):
            with pytest.raises(FeatureError):
                extract_stream([random_window(rng, 10),
                                random_window(rng, 12)])


@st.composite
def gapped_windows(draw):
    """(n, W, 27) windows whose channels have NaN runs of every kind: inner
    ones, ones touching either edge or both, channels with a single known
    value or none, and +-inf or a repeated value next to a gap."""
    n, w = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = rng.normal(scale=10.0, size=(n, w, 27))
    if draw(st.booleans()):
        data = np.round(data)  # equal neighbours
    for _ in range(draw(st.integers(0, 30))):
        k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 26))
        col = data[k, :, j]
        kind = draw(st.sampled_from(["run", "edges", "single", "all"]))
        if kind == "run":
            lo = draw(st.integers(0, w - 1))
            col[lo:lo + draw(st.integers(1, w))] = np.nan
        elif kind == "edges":  # a gap at each edge, or all but a middle
            col[:draw(st.integers(1, w))] = np.nan
            col[w - draw(st.integers(1, w)):] = np.nan
        elif kind == "single":
            keep = col[draw(st.integers(0, w - 1))]
            col[:] = np.nan
            col[draw(st.integers(0, w - 1))] = keep
        else:
            col[:] = np.nan
        # an infinite or a copied value next to one of the column's gaps
        gaps = np.flatnonzero(np.isnan(col))
        known = np.flatnonzero(~np.isnan(col))
        for _ in range(draw(st.integers(0, 2)) if len(gaps) and len(known)
                       else 0):
            at = known[np.abs(known - gaps[draw(st.integers(
                0, len(gaps) - 1))]).argmin()]
            col[at] = draw(st.sampled_from([np.inf, -np.inf,
                                            col[known[0]]]))
    return data


class TestFillGaps:
    @settings(max_examples=300, deadline=None)
    @given(gapped_windows())
    def test_fill_has_np_interp_bits_column_by_column(self, data):
        # the one array pass over a block's gapped channels against
        # np.interp called on each gapped column of each window
        block = data.transpose(0, 2, 1).copy()  # C-ordered, not a view
        quality = features._fill_gaps(block)
        for k, window in enumerate(data):
            with np.errstate(invalid="ignore"):
                want, quality_ok = _reference_fill(window)
            assert block[k].T.tobytes() == want.tobytes(), k
            assert quality[k] == quality_ok

    def test_fill_falls_back_as_np_interp_beside_infinities(self):
        # inf then 1: slope -inf, inf - inf is NaN, so the fill counts from
        # the upper end; inf on both sides: NaN both ways, equal ends give
        # inf; inf and -inf stay NaN, as np.interp leaves them
        window = np.zeros((3, 27))
        for j, (a, b) in enumerate([(np.inf, 1.0), (1.0, -np.inf),
                                    (np.inf, np.inf), (np.inf, -np.inf)]):
            window[:, j] = [a, np.nan, b]
        block = np.ascontiguousarray(window.T[None])
        assert features._fill_gaps(block).tolist() == [True]
        middle = block[0, :4, 1]
        assert middle[:3].tolist() == [np.inf, -np.inf, np.inf]
        assert np.isnan(middle[3])


class TestSignalStats:
    """The mean and population-std features of one channel."""

    def test_constant_signal(self):
        data = np.zeros((4, 27))
        data[:, 0] = 5.0
        fv = extract(FakeWindow(data))
        assert (fv.values[0], fv.values[27]) == (5.0, 0.0)

    def test_hand_computed(self):
        data = np.zeros((4, 27))
        data[:, 0] = [1, 2, 3, 4]
        fv = extract(FakeWindow(data))
        assert fv.values[0] == 2.5
        assert fv.values[27] == pytest.approx(1.118033988749895, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            data = rng.normal(scale=rng.uniform(0.1, 100), size=(64, 27))
            fv = extract(FakeWindow(data))
            for j in range(27):
                omean, ostd = oracle_stats(list(data[:, j]))
                assert fv.values[j] == pytest.approx(omean, rel=1e-9)
                assert fv.values[27 + j] == pytest.approx(ostd, rel=1e-9,
                                                          abs=1e-12)


class TestPearson:
    """The correlation features: the (x, y) pair of the first sensor is
    feature 54, (x, z) 55 and (y, z) 56."""

    @staticmethod
    def window(x, y, z=None):
        data = np.zeros((len(x), 27))
        data[:, 0], data[:, 1] = x, y
        if z is not None:
            data[:, 2] = z
        return FakeWindow(data)

    def test_self_correlation(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert extract(self.window(x, x)).values[54] == pytest.approx(1.0)

    def test_anti_correlation(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert extract(self.window(x, -x)).values[54] == pytest.approx(-1.0)

    def test_constant_is_zero(self):
        values = extract(self.window([2, 2, 2], [1, 5, 9], [3, 1, 4])).values
        assert values[54] == 0.0 and values[55] == 0.0
        assert values[56] != 0.0

    def test_length_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(FeatureError):
            extract_stream([random_window(rng, 2), random_window(rng, 3)])

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            corrs = extract(random_window(rng, 16)).values[54:]
            assert ((corrs >= -1.0) & (corrs <= 1.0)).all()


class TestExtract:
    def test_constant_window(self):
        const = np.tile(np.arange(27, dtype=float), (10, 1))
        fv = extract(FakeWindow(const, label=4))
        assert np.array_equal(fv.values[:27], np.arange(27))
        assert np.array_equal(fv.values[27:54], np.zeros(27))
        assert np.array_equal(fv.values[54:], np.zeros(27))
        assert fv.label == 4 and fv.quality_ok

    def test_deterministic(self):
        win = random_window(np.random.default_rng(3))
        a, b = extract(win), extract(win)
        assert np.array_equal(a.values, b.values)

    def test_dimensionality_always_81(self):
        rng = np.random.default_rng(4)
        for w in (2, 5, 100):
            fv = extract(random_window(rng, w))
            assert fv.values.shape == (N_FEATURES,)
        data = rng.normal(size=(20, 27))
        data[:, 5] = np.nan  # fully missing channel
        fv = extract(FakeWindow(data))
        assert fv.values.shape == (N_FEATURES,)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            win = random_window(rng, w=int(rng.integers(4, 64)))
            got = extract(win).values
            assert np.max(np.abs(got - oracle_extract(win))) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        win = random_window(rng)
        shifted = FakeWindow(win.channels + 17.5)
        a, b = extract(win).values, extract(shifted).values
        assert np.max(np.abs(a[27:] - b[27:])) < 1e-9  # stds and corrs

    def test_scale_covariance(self):
        rng = np.random.default_rng(7)
        win = random_window(rng)
        scaled = FakeWindow(win.channels * 3.0)
        a, b = extract(win).values, extract(scaled).values
        assert np.allclose(b[27:54], 3.0 * a[27:54], atol=1e-9)
        assert np.max(np.abs(a[54:] - b[54:])) < 1e-9

    def test_fully_missing_channel_zeroed_and_flagged(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(16, 27))
        data[:, 3] = np.nan
        fv = extract(FakeWindow(data))
        assert not fv.quality_ok
        assert fv.values[3] == 0.0 and fv.values[27 + 3] == 0.0
        assert np.isfinite(fv.values).all()

    def test_partial_missing_interpolated(self):
        data = np.zeros((5, 27))
        data[:, 0] = [0.0, np.nan, 2.0, np.nan, 4.0]
        fv = extract(FakeWindow(data))
        assert fv.quality_ok
        assert fv.values[0] == pytest.approx(2.0)  # mean of 0,1,2,3,4

    def test_edge_missing_extends_nearest(self):
        data = np.zeros((4, 27))
        data[:, 0] = [np.nan, 1.0, 1.0, np.nan]
        fv = extract(FakeWindow(data))
        assert fv.values[0] == pytest.approx(1.0)
        assert fv.values[27] == pytest.approx(0.0)


def test_feature_vector_holds_81_values():
    with pytest.raises(FeatureError):
        FeatureVector(values=np.zeros(80), label=1, user_id=1, window_index=0)


def test_feature_names_align_with_values():
    assert len(FEATURE_NAMES) == N_FEATURES
    assert FEATURE_NAMES[0].endswith("_mean")
    assert FEATURE_NAMES[27].endswith("_std")
    assert "corr" in FEATURE_NAMES[54]


def test_window_past_its_stream_raises():
    # a window's rows must lie in its stream, alone or in a block
    win = random_window(np.random.default_rng(9), 10)
    past = FakeWindow(win.channels)
    past.start = 4
    with pytest.raises(FeatureError):
        extract(past)
    with pytest.raises(FeatureError):
        extract_stream([win, past])


def test_a_short_window_is_named_outside_its_stream():
    # featurize gets fewer than size rows only past its stream's end
    win = random_window(np.random.default_rng(9), 10)
    with pytest.raises(FeatureError, match="runs outside its stream"):
        featurize([(win.stream, 0), (win.stream, 4)], 10)


def test_a_start_below_zero_is_outside_its_stream():
    # numpy would take a negative start from the end: start -5 of a
    # 300-row stream would read rows 295-297
    values = np.random.default_rng(4).normal(size=(300, N_COLUMNS))
    stream = SensorStream(1, values)
    for start in (-1, -5):
        for spans in ([(stream, start)],
                      [(stream, 0), (stream, start), (stream, 297)]):
            with pytest.raises(FeatureError, match="runs outside its stream"):
                featurize(spans, 3)
        with pytest.raises(FeatureError, match="runs outside its stream"):
            extract(Window(stream, start, 3))


@pytest.mark.parametrize("size", [0, -3])
def test_a_window_needs_at_least_one_row(size):
    # a size below 1 is refused before the block arithmetic divides by
    # it, with spans or without
    stream = SensorStream(1, np.random.default_rng(4).normal(
        size=(200, N_COLUMNS)))
    for spans in ([(stream, 3)], []):
        with pytest.raises(FeatureError, match="at least 1 row"):
            featurize(spans, size)
    with pytest.raises(FeatureError, match="at least 1 row"):
        extract(Window(stream, 3, size))
