"""PAMAP2 ingestion, activity filtering and synthetic stream generation.

PAMAP2 subject files are space-separated, one sample per line, 54 columns:
timestamp, activityID, heart rate, then three 17-column IMU blocks
(temperature, +-16g accel x3, +-6g accel x3, gyro x3, magnetometer x3,
orientation quaternion x4) for hand/wrist, chest and ankle. "NaN" marks a
missing value. Orientation columns are invalid in the dataset and always
dropped here.
"""

from __future__ import annotations

import json
import math
import warnings
from array import array
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

# Protocol activities (activityID -> name); 0 is the transient marker.
ACTIVITY_NAMES = {
    1: "Lying",
    2: "Sitting",
    3: "Standing",
    4: "Walking",
    5: "Running",
    6: "Cycling",
    7: "Nordic Walking",
    12: "Ascending Stairs",
    13: "Descending Stairs",
    16: "Vacuum Cleaning",
    17: "Ironing",
    24: "Rope Jumping",
}
PROTOCOL_ACTIVITIES = tuple(sorted(ACTIVITY_NAMES))
TRANSIENT_ACTIVITY = 0

DEVICES = ("hand", "chest", "ankle")

# Stored columns per sample: timestamp, activity, heart rate, then per device
# 13 channels (temp, accel16 xyz, accel6 xyz, gyro xyz, mag xyz).
_DEVICE_CHANNELS = ("temp",
                    "accel16_x", "accel16_y", "accel16_z",
                    "accel6_x", "accel6_y", "accel6_z",
                    "gyro_x", "gyro_y", "gyro_z",
                    "mag_x", "mag_y", "mag_z")
COLUMNS = ["timestamp", "activity_id", "heart_rate"] + [
    f"{dev}_{ch}" for dev in DEVICES for ch in _DEVICE_CHANNELS
]
N_COLUMNS = len(COLUMNS)  # 42 stored columns

# The 27 channels that feed feature extraction: per device, the +-16g
# accelerometer, gyroscope and magnetometer axes (heart rate, temperature
# and the saturating +-6g accelerometer are excluded).
FEATURE_CHANNELS = [
    f"{dev}_{sensor}_{axis}"
    for dev in DEVICES
    for sensor in ("accel16", "gyro", "mag")
    for axis in ("x", "y", "z")
]
FEATURE_CHANNEL_INDEX = np.array([COLUMNS.index(c) for c in FEATURE_CHANNELS])

# Raw PAMAP2 line: timestamp, activity, heart rate, then per device a 17-column
# IMU block: the 13 stored channels, then 4 orientation columns. _RAW_INDEX[j]
# is the raw position of COLUMNS[j]; parse gathers by it, serialize scatters.
_RAW_LAYOUT = COLUMNS[:3] + [f"{dev}_{ch}" for dev in DEVICES for ch in (
    *_DEVICE_CHANNELS, "orient_w", "orient_x", "orient_y", "orient_z")]
_RAW_COLUMNS = len(_RAW_LAYOUT)  # 54
_RAW_INDEX = [_RAW_LAYOUT.index(c) for c in COLUMNS]
_GATHER = itemgetter(*_RAW_INDEX)

# Rows per np.loadtxt call. The reader allocates max_rows rows up front, so a
# chunk far longer than a file holds multiplies that file's parse memory.
CHUNK = 4096

# Per-user per-activity reference sample counts for the nine subjects
# (protocol activities only), used by the validate command.
REFERENCE_COUNTS = {
    1: {1: 27187, 2: 23480, 3: 21717, 4: 22253, 5: 21265, 6: 23575,
        7: 20265, 12: 15890, 13: 14899, 16: 22941, 17: 23573, 24: 12912},
    2: {1: 23430, 2: 22345, 3: 25576, 4: 32533, 5: 9238, 6: 25108,
        7: 29739, 12: 17342, 13: 15213, 16: 20683, 17: 28880, 24: 13262},
    3: {1: 22044, 2: 28761, 3: 20533, 4: 29036, 5: 0, 6: 0,
        7: 0, 12: 10389, 13: 15275, 16: 20325, 17: 27975, 24: 0},
    4: {1: 23047, 2: 25492, 3: 24706, 4: 31932, 5: 1, 6: 22699,
        7: 27533, 12: 16694, 13: 14285, 16: 20037, 17: 24995, 24: 0},
    5: {1: 23699, 2: 26864, 3: 22132, 4: 32033, 5: 24646, 6: 24577,
        7: 26271, 12: 14281, 13: 12727, 16: 24445, 17: 33034, 24: 7733},
    6: {1: 23340, 2: 23041, 3: 24356, 4: 25721, 5: 22825, 6: 20486,
        7: 26686, 12: 13291, 13: 11272, 16: 21078, 17: 37744, 24: 256},
    7: {1: 25611, 2: 12282, 3: 25751, 4: 33720, 5: 3692, 6: 22680,
        7: 28725, 12: 17646, 13: 11618, 16: 21552, 17: 29499, 24: 0},
    8: {1: 24165, 2: 22923, 3: 25160, 4: 31533, 5: 16532, 6: 25475,
        7: 28888, 12: 11683, 13: 9655, 16: 24292, 17: 32990, 24: 8806},
    9: {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0,
        7: 0, 12: 0, 13: 0, 16: 0, 17: 0, 24: 6391},
}
# Rows of the nine Protocol files, transient (id 0) and other activities
# included: the filtered rows above are a subset of them.
TOTAL_RAW_SAMPLES = 2_872_533


class DatasetError(Exception):
    """Raised for malformed input files or invalid synthetic specs."""


class ParseError(DatasetError):
    def __init__(self, message, line_no, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.message, self.line_no = message, line_no


@dataclass
class SensorStream:
    """Immutable per-user sample stream backed by a C-ordered (n, 42) array.

    Columns follow COLUMNS: timestamp, activity id, heart rate, then the
    per-device channels.
    """
    user_id: int
    values: np.ndarray  # shape (n, N_COLUMNS)

    def __post_init__(self):
        # Share the array only if numpy offers no route to write to it (a
        # fresh parse buffer, another stream's values). Copy anything else,
        # so the stream never changes and the caller's array stays writable.
        base = self.values
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        self.values = np.array(self.values, dtype=np.float64, order="C",
                               copy=True if isinstance(base, np.ndarray) else None)
        if self.values.ndim != 2 or self.values.shape[1] != N_COLUMNS:
            raise DatasetError(
                f"stream array must be (n, {N_COLUMNS}), got {self.values.shape}")
        self.values.setflags(write=False)

    def __len__(self):
        return self.values.shape[0]


def parse_subject_file(text_source, user_id) -> SensorStream:
    """Parse a PAMAP2 subject file (path, file object or iterable of lines).

    Raises ParseError with the offending line number, after the path when
    the source is one, on wrong column count, unparsable or infinite
    tokens or non-monotone timestamps, and DatasetError naming a path it
    cannot open, read or decode.

    A seekable file goes through numpy's C reader CHUNK rows at a time;
    input it refuses, or whose rows fail a check, is rewound for the line
    loop, which other iterables go to directly. The loop names the line at
    fault, and reads tokens float() takes that the C reader refuses ("1_0").
    """
    if isinstance(text_source, (str, bytes)) or hasattr(text_source, "__fspath__"):
        try:
            with open(text_source, "r") as fh:
                return parse_subject_file(fh, user_id)
        except ParseError as exc:
            raise ParseError(exc.message, exc.line_no, text_source) from None
        except (OSError, UnicodeDecodeError) as exc:
            raise DatasetError(f"cannot read {text_source}: {exc}") from exc

    try:  # a text file being iterated cannot tell its position
        start = text_source.tell() if text_source.seekable() else None
    except (AttributeError, OSError):
        start = None
    if start is not None:
        values = _read_chunks(text_source)
        if values is not None:
            return SensorStream(user_id, values)
        text_source.seek(start)

    kept = array("d")  # every line's stored columns, back to back
    prev_ts = -math.inf
    for line_no, line in enumerate(text_source, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != _RAW_COLUMNS:
            raise ParseError(
                f"expected {_RAW_COLUMNS} columns, got {len(tokens)}", line_no)
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:  # float names the token
            raise ParseError(f"unparsable token: {exc}", line_no) from None
        ts = row[0]
        if math.isnan(ts):
            raise ParseError("missing timestamp", line_no)
        if ts <= prev_ts:
            raise ParseError(
                f"non-monotone timestamp {ts} after {prev_ts}", line_no)
        prev_ts = ts
        if math.isnan(row[1]):
            raise ParseError("missing activity id", line_no)
        stored = _GATHER(row)
        if math.inf in stored or -math.inf in stored:
            name = next(c for c, v in zip(COLUMNS, stored) if math.isinf(v))
            raise ParseError(f"infinite value in column {name}", line_no)
        kept.extend(stored)

    values = np.frombuffer(memoryview(kept).toreadonly()).reshape(-1, N_COLUMNS)
    return SensorStream(user_id, values)


def _read_chunks(fh):
    """The stored columns of an open file, read by np.loadtxt CHUNK rows at
    a time, read-only; None where the line loop must decide: the reader
    refuses the text, a row is not 54 wide, or a row fails a check. Each
    chunk is checked as it is read, so the reader stops at the first one
    that fails."""
    chunks = [np.empty((0, N_COLUMNS))]  # an empty file joins to (0, 42)
    prev_ts = -np.inf
    with warnings.catch_warnings():
        # the reader's notices of an empty chunk (the last one, or an empty
        # file) and of a blank line, which no chunk counts as a row
        warnings.filterwarnings(
            "ignore", r"(loadtxt: input|Input line \d+) contained no data",
            UserWarning)
        while True:
            try:
                raw = np.loadtxt(fh, np.float64, comments=None, ndmin=2,
                                 max_rows=CHUNK)
            except ValueError:
                return None
            if not len(raw):
                break
            if raw.shape[1] != _RAW_COLUMNS:
                return None
            kept = raw.take(_RAW_INDEX, axis=1)
            ts = kept[:, 0]
            # the line loop's checks, the first timestamp against the last
            # chunk's; an orientation column is not kept, so an infinite
            # value there passes as it does in the loop
            if not (np.isfinite(ts).all() and ts[0] > prev_ts
                    and (np.diff(ts) > 0).all()
                    and not np.isnan(kept[:, 1]).any()
                    and not np.isinf(kept).any()):
                return None
            prev_ts = ts[-1]
            chunks.append(kept)
            if len(raw) < CHUNK:
                break
    values = np.concatenate(chunks)
    values.setflags(write=False)  # fresh: the stream shares it
    return values


def serialize_stream(stream) -> str:
    """Re-emit a stream in PAMAP2 54-column format (round-trips exactly).

    Discarded orientation columns are written as NaN.
    """
    def fmt(v):
        return "NaN" if math.isnan(v) else repr(v)

    raw = np.full((len(stream), _RAW_COLUMNS), np.nan)
    raw[:, _RAW_INDEX] = stream.values
    lines = [" ".join([fmt(ts), str(int(act)), *map(fmt, rest)])
             for ts, act, *rest in (row.tolist() for row in raw)]
    return "\n".join(lines) + "\n"


def filter_protocol_activities(stream) -> SensorStream:
    """Keep only samples labeled with a protocol activity, in order."""
    mask = np.isin(stream.values[:, 1], PROTOCOL_ACTIVITIES)
    kept = stream.values[mask]
    kept.setflags(write=False)  # a fresh copy: the stream shares it
    return SensorStream(user_id=stream.user_id, values=kept)


def sample_counts(stream):
    """Exact per-protocol-activity sample counts (0 for absent ones)."""
    counts = {a: 0 for a in PROTOCOL_ACTIVITIES}
    ids, ns = np.unique(stream.values[:, 1].astype(np.int64), return_counts=True)
    for a, n in zip(ids, ns):
        if int(a) in counts:
            counts[int(a)] = int(n)
    return counts


# ---------------------------------------------------------------------------
# Synthetic streams


@dataclass(frozen=True)
class ClassSpec:
    """Per-class sinusoid generator: distinct means/frequencies separate classes."""
    label: int
    frequency: float
    amplitude: float
    noise_sigma: float
    mean: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.frequency, self.amplitude,
                                       self.noise_sigma, self.mean))):
            raise DatasetError(f"class {self.label}: frequency, amplitude, "
                               "noise_sigma and mean must be finite")
        if self.noise_sigma < 0:
            raise DatasetError(f"class {self.label}: noise_sigma must be >= 0")
        if self.label == TRANSIENT_ACTIVITY:  # labeling drops its windows
            raise DatasetError(f"class label {TRANSIENT_ACTIVITY} is the "
                               "transient marker")
        # the activity column holds labels as float64 and windowing reads
        # them back as int64, so a label must survive both
        if not -2**63 <= self.label < 2**63 or float(self.label) != self.label:
            raise DatasetError(f"class label {self.label} is not held "
                               "exactly as float64 and int64")


@dataclass
class SyntheticSpec:
    """Deterministic synthetic dataset description.

    Identical spec + seed produce bit-identical streams. Per-user offsets
    shift every channel mean, simulating user variability.
    """
    classes: list  # list[ClassSpec]
    samples_per_class: int
    user_offsets: dict  # user_id -> channel-mean offset
    seed: int
    sample_rate: float = 100.0
    # extra offset ramped linearly from 0 to this value within each class
    # block, simulating within-user signal drift
    user_drifts: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.classes) < 2:
            raise DatasetError("synthetic spec needs at least 2 classes")
        if len(set(self.class_labels)) < len(self.classes):
            raise DatasetError("repeated class label in synthetic spec")
        if self.samples_per_class < 1:
            raise DatasetError("samples_per_class must be positive")
        if not 0 < self.sample_rate < math.inf:
            raise DatasetError("sample_rate must be positive and finite")
        if self.seed < 0 or min(self.user_offsets, default=0) < 0:
            raise DatasetError("seed and user ids must be >= 0")  # rng keys

    @property
    def class_labels(self):
        return tuple(c.label for c in self.classes)

    @classmethod
    def default(cls, class_count=4, samples_per_class=2000, users=(1, 2, 3, 4),
                user_offsets=None, user_drifts=None, noise_sigma=0.25,
                class_sep=2.0, seed=0):
        if class_count < 2:
            raise DatasetError("class_count must be >= 2")
        classes = [
            ClassSpec(label=c + 1, frequency=0.5 + 0.7 * c, amplitude=1.0,
                      noise_sigma=noise_sigma, mean=class_sep * (c + 1))
            for c in range(class_count)
        ]
        if user_offsets is None:
            user_offsets = {u: 0.0 for u in users}
        return cls(classes=classes, samples_per_class=samples_per_class,
                   user_offsets=dict(user_offsets), seed=seed,
                   user_drifts=dict(user_drifts or {}))

    @classmethod
    def from_file(cls, path):
        """Load a spec from its JSON config file (see README for the schema).
        A label, user id, seed or samples_per_class must be integral."""
        try:
            with open(path) as fh:
                cfg = json.load(fh)
            classes = [ClassSpec(label=_integral(c["label"], "label"),
                                 frequency=float(c["frequency"]),
                                 amplitude=float(c.get("amplitude", 1.0)),
                                 noise_sigma=float(c.get("noise_sigma", 0.25)),
                                 mean=float(c["mean"]))
                       for c in cfg["classes"]]
            users = {_integral(u["id"], "user id"): u for u in cfg["users"]}
            if len(users) < len(cfg["users"]):
                raise DatasetError(f"repeated user id in synthetic spec {path}")
            return cls(classes=classes,
                       samples_per_class=_integral(cfg["samples_per_class"],
                                                   "samples_per_class"),
                       user_offsets={i: float(u.get("offset", 0.0))
                                     for i, u in users.items()},
                       seed=_integral(cfg["seed"], "seed"),
                       sample_rate=float(cfg.get("sample_rate", 100.0)),
                       user_drifts={i: float(u.get("drift", 0.0))
                                    for i, u in users.items()})
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"invalid synthetic spec {path}: {exc}") from exc


def _integral(value, name):
    """value as an int; a float with a fraction part (which int() would
    truncate), or an infinite or NaN one, raises DatasetError."""
    if isinstance(value, float) and not value.is_integer():
        raise DatasetError(f"{name} must be an integer, got {value!r}")
    return int(value)


def generate_synthetic(spec) -> list:
    """Generate one deterministic SensorStream per user in the spec.

    Each class occupies a contiguous block of samples_per_class readings;
    every feature channel carries that class's sinusoid plus Gaussian noise,
    with a small per-channel mean spread so axes are not identical, plus the
    user offset. A non-finite timestamp or feature channel value, as from a
    sample rate whose period overflows, raises DatasetError.
    """
    n_feat = len(FEATURE_CHANNELS)
    dt = 1.0 / spec.sample_rate
    streams = []
    for user_id in sorted(spec.user_offsets):
        rng = np.random.default_rng((spec.seed, user_id))
        offset = spec.user_offsets[user_id]
        drift = spec.user_drifts.get(user_id, 0.0)
        n_total = spec.samples_per_class * len(spec.classes)
        values = np.full((n_total, N_COLUMNS), np.nan)
        t = np.arange(n_total) * dt
        values[:, 0] = t
        pos = 0
        for cs in spec.classes:
            n = spec.samples_per_class
            block = slice(pos, pos + n)
            values[block, 1] = cs.label
            tb = t[block]
            ramp = (np.arange(n) / max(1, n - 1)) * drift
            for j in range(n_feat):
                phase = 2.0 * math.pi * j / n_feat
                signal = (cs.mean + 0.1 * j + offset + ramp
                          + cs.amplitude * np.sin(2 * math.pi * cs.frequency * tb + phase)
                          + rng.normal(0.0, cs.noise_sigma, size=n))
                values[block, FEATURE_CHANNEL_INDEX[j]] = signal
            pos += n
        finite = np.isfinite(values).all(axis=0)  # per column, in one pass
        if not finite[[0, *FEATURE_CHANNEL_INDEX]].all():
            raise DatasetError(f"synthetic spec gives user {user_id} a "
                               "non-finite timestamp or channel value")
        # Plumbing channels kept finite so stream invariants hold.
        values[:, 2] = np.nan  # heart rate unused
        for dev in range(3):
            values[:, 3 + dev * 13] = 20.0  # temperature
            a16 = values[:, 3 + dev * 13 + 1: 3 + dev * 13 + 4]
            values[:, 3 + dev * 13 + 4: 3 + dev * 13 + 7] = a16  # accel6 mirror
        values.setflags(write=False)  # built here: the stream shares it
        streams.append(SensorStream(user_id=user_id, values=values))
    return streams
