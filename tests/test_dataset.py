import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harbench import dataset
from harbench.dataset import (DatasetError, ParseError, SensorStream,
                              SyntheticSpec, filter_protocol_activities,
                              generate_synthetic, parse_subject_file,
                              sample_counts, serialize_stream)

from conftest import make_imu_line, make_line


@pytest.fixture
def parse(tmp_path):
    """parse_subject_file over a list of lines (the line loop) and over a
    file of them (numpy's C reader, then the line loop if it refuses).
    The two must give the same bytes or the same ParseError, which is
    raised."""
    path = tmp_path / "subject.dat"

    def parse(lines, user_id):
        path.write_text("".join(line + "\n" for line in lines))
        outcomes = []
        for source in (lines, path):
            try:
                outcomes.append(parse_subject_file(source, user_id))
            except ParseError as exc:
                outcomes.append(exc)
        from_list, from_file = outcomes
        if isinstance(from_list, ParseError):
            assert str(from_file) == f"{path}: {from_list}"
            raise from_list
        assert from_file.values.tobytes() == from_list.values.tobytes()
        return from_file
    return parse


def _block(base):
    # temp, a16 x3, a6 x3, gyro x3, mag x3, orientation x4
    return [20.0, base, base + 1, base + 2, base, base + 1, base + 2,
            0.1, 0.2, 0.3, 30.0, 31.0, 32.0, 1.0, 0.0, 0.0, 0.0]


def test_parse_direct_field_mapping(parse):
    line = make_imu_line(0.01, 1, 100.0, [_block(9.8), _block(1.0), _block(2.0)])
    row = parse([line], 1).values[0]
    assert row[1] == 1
    assert row[0] == 0.01
    assert row[2] == 100.0
    assert not np.isnan(row[3:]).any()


def test_parse_nan_heart_rate_sets_missing(parse):
    line = make_imu_line(0.01, 1, "NaN", [_block(1.0)] * 3)
    row = parse([line], 1).values[0]
    assert math.isnan(row[dataset.COLUMNS.index("heart_rate")])
    assert not np.isnan(row[3:]).any()


def test_parse_missing_channel_flagged(parse):
    block = _block(1.0)
    block[1] = "NaN"  # hand accel16 x
    line = make_imu_line(0.01, 4, 90, [block, _block(1.0), _block(1.0)])
    row = parse([line], 2).values[0]
    assert np.isnan(row[dataset.COLUMNS.index("hand_accel16_x")])
    assert not np.isnan(row[dataset.COLUMNS.index("hand_accel16_y")])


def test_parse_wrong_column_count_reports_line(parse):
    for n_imu_cols in (0, 50, 52):  # 3, 53 and 55 columns
        lines = [make_line(0.01, 1), make_line(0.02, 1, n_imu_cols=n_imu_cols)]
        with pytest.raises(ParseError, match=rf"^line 2: expected 54 "
                                             rf"columns, got {n_imu_cols + 3}$"):
            parse(lines, 1)


def test_parse_unparsable_token_reports_line(parse):
    bad = make_line(0.02, 1).replace("1.0", "abc", 1)
    with pytest.raises(ParseError, match=r"line 3\b.*'abc'"):
        parse([make_line(0.01, 1), make_line(0.015, 1), bad], 1)


@pytest.mark.parametrize("token,value", [("1_0", 10.0), ("\u0661\u0662", 12.0)],
                         ids=["underscore", "arabic-indic"])
def test_parse_reads_what_float_reads(parse, token, value):
    # numpy's C reader refuses these tokens; the line loop takes them
    line = make_line(0.02, 1).replace("1.0", token, 1)  # hand temperature
    stream = parse([make_line(0.01, 1), line], 1)
    assert stream.values[1, dataset.COLUMNS.index("hand_temp")] == value


@pytest.mark.parametrize("kind", ["undecodable", "directory"])
def test_unreadable_subject_file_is_a_dataset_error(tmp_path, kind):
    # a UTF-16 byte-order mark is no UTF-8; opening a directory is an OSError
    path = tmp_path / "subject101.dat"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + make_line(0.01, 1).encode())
    with pytest.raises(DatasetError, match="subject101.dat"):
        parse_subject_file(path, user_id=1)


def test_parse_a_file_object_past_its_first_line(tmp_path):
    # a text file being iterated cannot tell its position: the line loop
    # reads the rest, numbering from where the file stands
    path = tmp_path / "subject.dat"
    path.write_text("header\n" + make_line(0.01, 1) + "\n1 2 3\n")
    with open(path) as fh:
        next(fh)
        with pytest.raises(ParseError, match="^line 2: expected 54"):
            parse_subject_file(fh, 1)


def test_parse_infinite_values_report_first_line(parse):
    inf_channel = make_line(0.02, 1).replace("1.0", "inf", 1)  # hand temp
    lines = [make_line(0.01, 1), "", inf_channel, make_line(0.03, 1, hr="-inf")]
    with pytest.raises(ParseError, match=r"line 3\b.*hand_temp"):
        parse(lines, 1)
    with pytest.raises(ParseError, match=r"line 4\b.*heart_rate"):
        parse([lines[0], "", "", lines[3], ""], 1)
    with pytest.raises(ParseError, match=r"line 2\b.*activity_id"):
        parse([lines[0], make_line(0.02, "inf")], 1)


def test_parse_names_an_infinite_value_before_a_later_fault(parse, tmp_path):
    # line 2 holds an infinite hand temperature and line 4 repeats line 3's
    # timestamp: the loop refuses line 2 as it reads it
    lines = [make_line(0.01, 1),
             make_line(0.02, 1).replace("1.0", "inf", 1),  # hand temp
             make_line(0.03, 1), make_line(0.03, 1)]
    first = r"line 2: infinite value in column hand_temp"
    with pytest.raises(ParseError, match=rf"^{first}"):
        parse(lines, 1)
    path = tmp_path / "faults.dat"
    path.write_text("".join(line + "\n" for line in lines))
    with open(path) as fh, pytest.raises(ParseError, match=rf"^{first}"):
        parse_subject_file(fh, 1)


def test_parse_ignores_an_infinite_orientation(parse):
    tokens = make_line(0.02, 1).split()
    tokens[_ORIENTATION_POSITIONS[0]] = "inf"
    stream = parse([make_line(0.01, 1), " ".join(tokens)], 1)
    assert np.isfinite(stream.values[:, 3:]).all()


@pytest.mark.parametrize("ts,activity,message", [
    ("NaN", 1, "missing timestamp"), (0.03, "NaN", "missing activity id")],
    ids=["timestamp", "activity"])
def test_parse_nan_key_column_reports_line(parse, ts, activity, message):
    lines = [make_line(0.01, 1), "", make_line(0.02, 1),
             make_line(ts, activity)]
    with pytest.raises(ParseError, match=rf"line 4: {message}"):
        parse(lines, 1)
    with pytest.raises(ParseError, match=rf"line 1: {message}"):
        parse([make_line(ts, activity)], 1)  # no timestamp to follow


def test_parse_non_monotone_timestamp(parse):
    with pytest.raises(ParseError, match="non-monotone"):
        parse([make_line(0.02, 1), make_line(0.01, 1)], 1)


def test_parse_stops_reading_at_the_first_bad_chunk(tmp_path, monkeypatch):
    # line 2 repeats line 1's timestamp: the C reader stops after the first
    # chunk instead of reading the other nine, and the line loop names it
    path = tmp_path / "subject101.dat"
    lines = [make_line(0.01 * max(i, 1), 1) for i in range(40)]
    path.write_text("".join(line + "\n" for line in lines))
    calls, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        calls.append(kwargs["max_rows"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(dataset, "CHUNK", 4)
    monkeypatch.setattr(np, "loadtxt", spy)
    with pytest.raises(ParseError) as exc:
        parse_subject_file(path, 1)
    assert calls == [4]
    assert str(exc.value) == (f"{path}: line 2: non-monotone timestamp "
                              "0.01 after 0.01")


@pytest.mark.parametrize("lines", [[], ["", "  ", "\t"]],
                         ids=["empty", "blank"])
def test_parse_no_rows_is_an_empty_stream(parse, lines, recwarn):
    assert parse(lines, 1).values.shape == (0, dataset.N_COLUMNS)
    assert not recwarn.list  # numpy's "contained no data" notices


def test_parse_serialize_round_trip(parse):
    lines = [make_imu_line(0.01 * (i + 1), i % 3, "NaN" if i % 2 else 80 + i,
                           [_block(i * 1.5), _block(-i), _block(0.25 * i)])
             for i in range(20)]
    stream = parse(lines, 3)
    again = parse(serialize_stream(stream).splitlines(), 3)
    assert np.array_equal(stream.values, again.values, equal_nan=True)


# PAMAP2's documented layout, written out independently of harbench.dataset:
# timestamp, activity id, heart rate, then a 17-column block per IMU.
_PAMAP2_BLOCK = ["temp", "accel16_x", "accel16_y", "accel16_z",
                 "accel6_x", "accel6_y", "accel6_z", "gyro_x", "gyro_y",
                 "gyro_z", "mag_x", "mag_y", "mag_z",
                 "orientation_1", "orientation_2", "orientation_3",
                 "orientation_4"]
_PAMAP2_POSITIONS = {"timestamp": 0, "activity_id": 1, "heart_rate": 2} | {
    f"{dev}_{ch}": 3 + 17 * d + k
    for d, dev in enumerate(["hand", "chest", "ankle"])
    for k, ch in enumerate(_PAMAP2_BLOCK)}
_ORIENTATION_POSITIONS = sorted(p for name, p in _PAMAP2_POSITIONS.items()
                                if "orientation" in name)


def test_every_column_lands_on_its_pamap2_position(parse):
    line = " ".join(str(i) for i in range(54))  # each token is its position
    row = parse([line], 1).values[0]
    assert len(dataset.COLUMNS) == 42
    for j, name in enumerate(dataset.COLUMNS):
        assert row[j] == _PAMAP2_POSITIONS[name], name


def test_serialize_writes_nan_orientation_and_int_activity():
    values = np.arange(2 * 42, dtype=np.float64).reshape(2, 42) + 0.5
    values[:, 0] = [0.01, 0.02]
    values[:, 1] = [7, 24]
    lines = serialize_stream(SensorStream(1, values)).splitlines()
    assert len(lines) == 2
    for line, act in zip(lines, ["7", "24"]):
        tokens = line.split()
        assert len(tokens) == 54
        assert tokens[1] == act
        nan_at = [i for i, t in enumerate(tokens) if t == "NaN"]
        assert nan_at == _ORIENTATION_POSITIONS
        assert len(nan_at) == 12


def test_serialize_exact_bytes():
    values = np.full((2, 42), 1.0)
    values[0, :3] = [0.01, 4, np.nan]
    values[1, :3] = [0.02, 17, 91.0]
    values[0, 3] = -0.0  # hand temperature
    values[1, 41] = 1e-300  # ankle mag z
    device = " ".join(["1.0"] * 13) + " NaN NaN NaN NaN"
    expected = (
        "0.01 4 NaN -0.0 " + " ".join(["1.0"] * 12) + " NaN NaN NaN NaN "
        + device + " " + device + "\n"
        + "0.02 17 91.0 " + device + " " + device + " "
        + " ".join(["1.0"] * 12) + " 1e-300 NaN NaN NaN NaN\n")
    assert serialize_stream(SensorStream(1, values)) == expected


def test_parse_serialize_round_trip_bit_exact(parse):
    rng = np.random.default_rng(11)
    n = 300
    values = rng.normal(size=(n, 42)) * 10.0 ** rng.integers(-300, 300,
                                                             size=(n, 42))
    values[:, 0] = np.cumsum(rng.uniform(1e-3, 1.0, size=n))
    values[:, 1] = rng.choice([0, 1, 4, 24], size=n)
    for _ in range(20):  # NaN runs in the sensor columns
        start, col = rng.integers(0, n - 10), rng.integers(2, 42)
        values[start:start + rng.integers(1, 10), col] = np.nan
    values[5, 3:8] = -0.0
    values[6, 3:9] = [np.finfo(float).max, -np.finfo(float).max,
                      np.finfo(float).tiny, 5e-324, -5e-324, 0.0]
    stream = SensorStream(2, values)
    text = serialize_stream(stream)
    again = parse(text.splitlines(), 2)
    assert again.values.tobytes() == stream.values.tobytes()
    assert serialize_stream(again) == text


# Line faults: each is refused by numpy's C reader or by a check after it,
# and the line loop then decides as it does for a list of lines.
_FAULTS = ("blank", "spaces", "53", "55", "abc", "1_0", "arabic", "nan_ts",
           "nan_act", "inf_act", "inf_stored", "inf_orient", "repeat_ts",
           "neg_inf_ts")


@st.composite
def subject_lines(draw):
    kinds = ["ok"] * draw(st.integers(0, 12))
    for _ in range(draw(st.integers(0, 2)) if kinds else 0):  # faulty lines
        kinds[draw(st.integers(0, len(kinds) - 1))] = draw(
            st.sampled_from(_FAULTS))
    lines, ts = [], 0.0
    for kind in kinds:
        if kind != "repeat_ts":
            ts += draw(st.sampled_from([0.01, 0.5, 1e-9]))
        fill = repr(draw(st.floats(allow_infinity=False)))
        tokens = [repr(ts), str(draw(st.sampled_from([0, 1, 4, 24])))]
        tokens += [fill] * 52
        stored = draw(st.sampled_from(sorted(set(range(2, 54))
                                             - set(_ORIENTATION_POSITIONS))))
        token_at = {"abc": "abc", "1_0": "1_0", "arabic": "\u0661\u0662",
                    "inf_stored": "inf"}
        if kind in token_at:
            tokens[stored] = token_at[kind]
        elif kind == "inf_orient":
            tokens[draw(st.sampled_from(_ORIENTATION_POSITIONS))] = "-inf"
        elif kind in ("nan_ts", "neg_inf_ts"):
            tokens[0] = "NaN" if kind == "nan_ts" else "-inf"
        elif kind in ("nan_act", "inf_act"):
            tokens[1] = "NaN" if kind == "nan_act" else "inf"
        elif kind in ("53", "55"):
            tokens = tokens[:53] if kind == "53" else tokens + ["1.0"]
        lines.append({"blank": "", "spaces": " \t "}.get(kind, " ".join(tokens)))
    return lines


@pytest.fixture(scope="module")
def subject_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "subject101.dat"


@settings(max_examples=300, deadline=None)
@given(lines=subject_lines(), newline=st.sampled_from(["\n", "\r\n"]),
       chunk=st.sampled_from([1, 2, 3, dataset.CHUNK]))
def test_file_and_list_sources_agree(subject_path, lines, newline, chunk):
    # the same bytes, or the same ParseError, from the C reader in chunks of
    # `chunk` rows (with the line loop behind it) as from the line loop alone
    with open(subject_path, "w", newline="") as fh:
        fh.write("".join(line + newline for line in lines))

    def outcome(source):
        try:
            return parse_subject_file(source, 1).values.tobytes()
        except ParseError as exc:
            return str(exc)

    with mock.patch.object(dataset, "CHUNK", chunk), \
            open(subject_path) as fh:
        from_file = outcome(fh)
    assert from_file == outcome(lines)


def test_parse_peak_memory_and_no_stream_copy(tmp_path, monkeypatch):
    spec = SyntheticSpec.default(class_count=4, samples_per_class=10_000,
                                 users=(1,), seed=3)
    path = tmp_path / "subject101.dat"
    path.write_text(serialize_stream(generate_synthetic(spec)[0]))
    parsed = []

    class Stream(SensorStream):
        def __post_init__(self):
            parsed.append(self.values)
            super().__post_init__()

    monkeypatch.setattr(dataset, "SensorStream", Stream)
    tracemalloc.start()
    try:
        stream = parse_subject_file(path, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stream) == 40_000
    assert stream.values is parsed[0]  # the stream kept the parsed array
    # the chunks and their concatenation (2x); a chunk far longer than the
    # file (the reader allocates all its rows) or a copy in the stream is more
    assert peak <= 2.5 * stream.values.nbytes


def test_stream_values_are_c_ordered():
    values = np.asfortranarray(np.arange(3 * 42, dtype=np.float64)
                               .reshape(3, 42))
    stream = SensorStream(1, values)
    assert stream.values.flags.c_contiguous
    assert np.array_equal(stream.values, values)


@pytest.mark.parametrize("shape", [(3, dataset.N_COLUMNS - 1),
                                   (dataset.N_COLUMNS,), (1, 3, 42)])
def test_stream_refuses_other_shapes(shape):
    with pytest.raises(DatasetError, match=r"stream array must be \(n, 42\)"):
        SensorStream(1, np.zeros(shape))


def test_stream_leaves_the_callers_array_writable():
    v = np.zeros((2, dataset.N_COLUMNS))
    stream = SensorStream(1, v)
    v[0, 0] = 1
    assert stream.values[0, 0] == 0
    assert not stream.values.flags.writeable
    assert SensorStream(2, stream.values).values is stream.values  # shared
    view = v.view()
    view.setflags(write=False)  # read-only, but v still writes through
    assert not np.shares_memory(SensorStream(1, view).values, v)


def test_filter_keeps_protocol_only_in_order(parse):
    lines = [make_line(0.01 * (i + 1), a) for i, a in enumerate([0, 1, 0, 4])]
    stream = parse(lines, 1)
    filtered = filter_protocol_activities(stream)
    assert filtered.values[:, 1].tolist() == [1, 4]
    assert (np.diff(filtered.values[:, 0]) > 0).all()


def test_filter_empty_result_is_not_an_error(parse):
    stream = parse([make_line(0.01, 0)], 9)
    assert len(filter_protocol_activities(stream)) == 0


def test_sample_counts(parse):
    lines = [make_line(0.01 * (i + 1), a)
             for i, a in enumerate([1, 1, 4, 24, 24, 24])]
    counts = sample_counts(parse(lines, 1))
    assert counts[1] == 2 and counts[4] == 1 and counts[24] == 3
    assert counts[17] == 0


def test_sample_counts_empty_stream():
    stream = SensorStream(user_id=1, values=np.empty((0, dataset.N_COLUMNS)))
    assert all(v == 0 for v in sample_counts(stream).values())


def test_reference_table_row_sums():
    # cross-checks embedded in the validate matrix
    assert sum(dataset.REFERENCE_COUNTS[6].values()) == 250096
    assert dataset.REFERENCE_COUNTS[1][1] == 27187
    assert dataset.REFERENCE_COUNTS[9] == {a: (6391 if a == 24 else 0)
                                           for a in dataset.PROTOCOL_ACTIVITIES}


def test_reference_counts_fit_in_the_raw_total():
    # filtering keeps a subset of the raw rows, so a dataset matching every
    # per-user count must be able to match the total too
    assert sum(sum(c.values()) for c in dataset.REFERENCE_COUNTS.values()) \
        <= dataset.TOTAL_RAW_SAMPLES


def test_synthetic_determinism():
    spec = SyntheticSpec.default(seed=42, samples_per_class=300)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for sa, sb in zip(a, b):
        assert sa.user_id == sb.user_id
        assert np.array_equal(sa.values, sb.values, equal_nan=True)


def test_synthetic_sample_arithmetic():
    spec = SyntheticSpec.default(class_count=4, samples_per_class=2000,
                                 users=(1, 2, 3))
    streams = generate_synthetic(spec)
    assert sum(len(s) for s in streams) == 24000


def test_synthetic_rejects_single_class():
    with pytest.raises(DatasetError):
        SyntheticSpec.default(class_count=1)


def test_synthetic_spec_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("""{
        "seed": 5, "samples_per_class": 100,
        "users": [{"id": 1, "offset": 0.0}, {"id": 2, "offset": 0.5}],
        "classes": [
            {"label": 1, "frequency": 1.0, "mean": 0.0},
            {"label": 2, "frequency": 2.0, "mean": 3.0}
        ]
    }""")
    spec = SyntheticSpec.from_file(path)
    streams = generate_synthetic(spec)
    assert [s.user_id for s in streams] == [1, 2]
    assert len(streams[0]) == 200


def test_synthetic_spec_from_file_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1, "classes": []}')
    with pytest.raises(DatasetError):
        SyntheticSpec.from_file(path)


def test_synthetic_feature_channels_finite(small_streams):
    for s in small_streams:
        assert np.isfinite(s.values[:, dataset.FEATURE_CHANNEL_INDEX]).all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("field", ["sample_rate", "frequency"])
def test_synthetic_refuses_a_non_finite_stream(field):
    # sample rate 1e-320 passes 0 < rate < inf, but its period overflows,
    # so every timestamp and channel value is NaN or inf; frequency 1e308
    # leaves about half the channel values non-finite
    spec = SyntheticSpec.default(class_count=2, samples_per_class=50,
                                 users=(1, 2))
    if field == "sample_rate":
        spec = replace(spec, sample_rate=1e-320)
    else:
        spec = replace(spec, classes=[replace(spec.classes[0],
                                              frequency=1e308),
                                      *spec.classes[1:]])
    with pytest.raises(DatasetError, match="non-finite"):
        generate_synthetic(spec)


def test_importing_a_module_loads_only_its_imports():
    # the package binds no name but __version__, so a fresh interpreter
    # that imports harbench.dataset loads no other harbench module
    src = os.path.dirname(os.path.dirname(dataset.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, harbench.dataset; print(*sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'harbench'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.split() == ["harbench", "harbench.dataset"]
