import math

import numpy as np
import pytest

from harbench import dataset
from harbench.dataset import (DatasetError, ParseError, SensorStream,
                              SyntheticSpec, filter_protocol_activities,
                              generate_synthetic, parse_subject_file,
                              sample_counts, serialize_stream)

from conftest import make_imu_line, make_line


def _block(base):
    # temp, a16 x3, a6 x3, gyro x3, mag x3, orientation x4
    return [20.0, base, base + 1, base + 2, base, base + 1, base + 2,
            0.1, 0.2, 0.3, 30.0, 31.0, 32.0, 1.0, 0.0, 0.0, 0.0]


def test_parse_direct_field_mapping():
    line = make_imu_line(0.01, 1, 100.0, [_block(9.8), _block(1.0), _block(2.0)])
    row = parse_subject_file([line], user_id=1).values[0]
    assert row[1] == 1
    assert row[0] == 0.01
    assert row[2] == 100.0
    assert not np.isnan(row[3:]).any()


def test_parse_nan_heart_rate_sets_missing():
    line = make_imu_line(0.01, 1, "NaN", [_block(1.0)] * 3)
    row = parse_subject_file([line], user_id=1).values[0]
    assert math.isnan(row[dataset.COLUMNS.index("heart_rate")])
    assert not np.isnan(row[3:]).any()


def test_parse_missing_channel_flagged():
    block = _block(1.0)
    block[1] = "NaN"  # hand accel16 x
    line = make_imu_line(0.01, 4, 90, [block, _block(1.0), _block(1.0)])
    row = parse_subject_file([line], user_id=2).values[0]
    assert np.isnan(row[dataset.COLUMNS.index("hand_accel16_x")])
    assert not np.isnan(row[dataset.COLUMNS.index("hand_accel16_y")])


def test_parse_wrong_column_count_reports_line():
    lines = [make_line(0.01, 1), "1 2 3"]
    with pytest.raises(ParseError, match="line 2"):
        parse_subject_file(lines, user_id=1)


def test_parse_unparsable_token_reports_line():
    bad = make_line(0.02, 1).replace("1.0", "abc", 1)
    with pytest.raises(ParseError, match="line 3"):
        parse_subject_file([make_line(0.01, 1), make_line(0.015, 1), bad], 1)


def test_parse_non_monotone_timestamp():
    with pytest.raises(ParseError, match="non-monotone"):
        parse_subject_file([make_line(0.02, 1), make_line(0.01, 1)], 1)


def test_parse_serialize_round_trip():
    lines = [make_imu_line(0.01 * (i + 1), i % 3, "NaN" if i % 2 else 80 + i,
                           [_block(i * 1.5), _block(-i), _block(0.25 * i)])
             for i in range(20)]
    stream = parse_subject_file(lines, user_id=3)
    again = parse_subject_file(serialize_stream(stream).splitlines(), user_id=3)
    assert np.array_equal(stream.values, again.values, equal_nan=True)


def test_filter_keeps_protocol_only_in_order():
    lines = [make_line(0.01 * (i + 1), a) for i, a in enumerate([0, 1, 0, 4])]
    stream = parse_subject_file(lines, user_id=1)
    filtered = filter_protocol_activities(stream)
    assert filtered.values[:, 1].tolist() == [1, 4]
    assert (np.diff(filtered.values[:, 0]) > 0).all()


def test_filter_empty_result_is_not_an_error():
    stream = parse_subject_file([make_line(0.01, 0)], user_id=9)
    assert len(filter_protocol_activities(stream)) == 0


def test_sample_counts():
    lines = [make_line(0.01 * (i + 1), a)
             for i, a in enumerate([1, 1, 4, 24, 24, 24])]
    counts = sample_counts(parse_subject_file(lines, user_id=1))
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
