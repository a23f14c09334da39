"""The benchmark's workloads: inputs, the timed job, and output checks.

Each workload is a closed loop in one process with workers=1: the next job
(and, inside a job, the next operation) starts only when the previous one
has returned. A workload has

* ``setup(seed, workdir)``: builds the inputs from the seed (and, for
  stream-semi, trains the offline model); timed as ``setup_s``;
* ``job(state, workdir, op, watch)``: one whole job, returning a ``Job``
  with its wall time and what the checks need. It hands the wall time of
  each operation (a sweep cell, a stream window, a subject file) to
  ``watch.op``, which may run the reference kernel in between, outside the
  operations' timings, and calls ``watch.done()`` after the last, before
  the job's wall time ends; ``op()`` opens a tracing span per operation;
* ``check(state, job)``: the number of failed operations and the job's
  output digest, computed outside the timed region;
* ``named(result)``: the workload's metrics under the names users know;
* ``kernel``: the reference kernel whose work is most like the job's (see
  reference.py).

The bench calls the program only through module attributes
(``windowing.segment``, not ``from ... import segment``), so the tracer's
patches see every call.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

import gen
from harbench import dataset, ensemble, evaluation, features, learners, windowing

PURITY = windowing.DEFAULT_PURITY
# Learner settings, all settable from the CLI. Under them the confidence gate
# fires on most windows and the tree keeps splitting online, so self_update
# and VFDT split attempts are on the measured path; at the default gate of
# 0.99 neither runs and semi-supervised mode equals frozen mode.
PARAMS = ensemble.LearnerParams(k=5, knn_capacity=2000, vfdt_delta=0.05,
                                vfdt_tie_threshold=0.5, vfdt_grace_period=100,
                                confidence_threshold=0.65)


@dataclass
class Job:
    seconds: float  # wall time, with the kernel runs the watch made in it
    output: object = None  # what check() needs
    info: dict = field(default_factory=dict)


def _sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _expected_segments(n, config):
    return 0 if n < config.window_size else (
        (n - config.window_size) // config.step + 1)


def _expected_kept(ids, config, valid):
    """Independent count of windows kept by purity and label validity."""
    w, step = config.window_size, config.step
    kept = 0
    for start in range(0, len(ids) - w + 1, step):
        labels, counts = np.unique(ids[start:start + w], return_counts=True)
        top = counts.argmax()
        if counts[top] / w >= PURITY and int(labels[top]) in valid:
            kept += 1
    return kept


def _scaled(samples_per_activity, size):
    """Samples per activity at a fraction `size` of the benchmark's inputs."""
    return max(1, round(samples_per_activity * size))


def _filtered_streams(shapes, seed, signal=gen.SignalParams()):
    return [dataset.filter_protocol_activities(
        dataset.SensorStream(s.user_id, gen.make_values(s, seed, signal)))
        for s in shapes]


class SweepGrid:
    """evaluation.sweep + emit_reports over a small W x o grid, both modes."""

    name = "sweep-grid"
    unit = "cell"
    kernel = "windows"  # feature extraction is ~70% of the job
    labels = dataset.PROTOCOL_ACTIVITIES
    windows = (100, 200)
    overlaps = (0.0, 0.8)
    modes = ("supervised_frozen", "semi_supervised")

    def __init__(self, size=1.0):
        self.shapes = gen.users((1, 2, 9), gen.PROTOCOL_ORDER,
                                _scaled(200, size), single_activity_user=9,
                                long_dropout=max(self.windows) + 50)

    def setup(self, seed, workdir):
        return {"seed": seed, "streams": _filtered_streams(self.shapes, seed)}

    def expected(self, state):
        """(user, W, o) -> (segmented, kept) from the stream arrays alone."""
        out = {}
        for s in state["streams"]:
            ids = s.values[:, 1].astype(np.int64)
            for w in self.windows:
                for o in self.overlaps:
                    cfg = windowing.WindowConfig(w, o)
                    out[(s.user_id, w, o)] = (
                        _expected_segments(len(s), cfg),
                        _expected_kept(ids, cfg, self.labels))
        return out

    def job(self, state, workdir, op, watch):
        out_dir = os.path.join(workdir, "sweep")
        last = t0 = time.perf_counter_ns()

        def progress(_result):  # a cell has ended; the next starts on return
            nonlocal last
            watch.op(time.perf_counter_ns() - last)
            last = time.perf_counter_ns()

        results = evaluation.sweep(
            state["streams"], list(self.windows), list(self.overlaps),
            list(self.modes), state["seed"], out_dir, params=PARAMS,
            valid_labels=self.labels, workers=1, resume=False,
            progress=progress)
        paths = evaluation.emit_reports(results, os.path.join(out_dir,
                                                              "reports"))
        watch.done()
        t1 = time.perf_counter_ns()
        reports = []
        for path in sorted(paths):
            with open(path, "rb") as fh:
                reports.append((os.path.basename(path).encode(), fh.read()))
        return Job((t1 - t0) / 1e9, (results, reports))

    def check(self, state, job):
        if "expected" not in state:  # here, so setup_s times no check work
            state["expected"] = self.expected(state)
        results, reports = job.output
        failed = 0
        for r in results:
            segmented, kept = state["expected"][(r.user, r.window_size,
                                                 r.overlap)]
            cfg = windowing.WindowConfig(r.window_size, r.overlap)
            stream = next(s for s in state["streams"] if s.user_id == r.user)
            ok = (len(windowing.segment(stream, cfg)) == segmented
                  and r.n_windows == kept
                  and 0 <= r.n_correct <= r.n_windows)
            failed += not ok
        n_cells = (len(self.shapes) * len(self.windows) * len(self.overlaps)
                   * len(self.modes))
        failed += max(0, n_cells - len(results))
        digest = _sha(b"%s\0%s\0" % pair for pair in reports)
        return failed, digest

    def named(self, result):
        return [("sweep_s", result["end_to_end"]["job_s"], "s")]


class StreamSemi:
    """One fold on the device: per-window label -> extract -> classify ->
    self_update over the test user's stream, after offline training."""

    name = "stream-semi"
    unit = "window"
    kernel = "store"  # kNN prediction over a full store is the largest part
    labels = (1, 2, 3, 4, 5, 6)
    test_user = 4
    config = windowing.WindowConfig(50, 0.8)
    signal = gen.SignalParams(class_sep=1.0, noise_sigma=1.0)

    def __init__(self, size=1.0):
        w = self.config.window_size
        self.shapes = [gen.UserShape(u, self.labels, _scaled(1200, size),
                                     long_dropout=2 * w,
                                     drift=2.0 if u == self.test_user else 0.0)
                       for u in (1, 2, 3, self.test_user)]

    def setup(self, seed, workdir):
        streams = _filtered_streams(self.shapes, seed, self.signal)
        train = []
        for s in streams:
            if s.user_id != self.test_user:
                train.extend(features.extract_stream(windowing.labeled_windows(
                    s, self.config, PURITY, self.labels)))
        model = ensemble.Ensemble(self.labels, params=PARAMS)
        model.train_offline(train)
        test = next(s for s in streams if s.user_id == self.test_user)
        return {"model": model, "test": test}

    def job(self, state, workdir, op, watch):
        model = state["model"].clone()
        tree = _vfdt(model)
        splits_before = tree.n_splits
        out = []
        t0 = time.perf_counter_ns()
        candidates = windowing.segment(state["test"], self.config)
        for cand in candidates:
            with op():
                a = time.perf_counter_ns()
                win = windowing.label_window(cand, PURITY, self.labels)
                if win is None:
                    continue
                fv = features.extract(win, len(out))
                pred = model.classify(fv)
                updated = model.self_update(fv, pred)
                b = time.perf_counter_ns()
            watch.op(b - a)
            out.append((fv.label, pred.label, pred.confidence, updated))
        watch.done()
        t1 = time.perf_counter_ns()
        return Job((t1 - t0) / 1e9, out,
                   {"segmented": len(candidates),
                    "splits": tree.n_splits - splits_before})

    def check(self, state, job):
        out = job.output
        ok = (job.info["segmented"] == _expected_segments(len(state["test"]),
                                                          self.config)
              and sum(u for *_, u in out) > 0 and job.info["splits"] > 0)
        failed = len(out) if not ok else sum(
            1 for _, label, conf, _ in out
            if label not in self.labels or not 0.0 <= conf <= 1.0)
        digest = _sha([repr([(label, conf, u) for _, label, conf, u in out])
                       .encode()])
        return failed, digest

    def named(self, result):
        e2e = result["end_to_end"]
        return [("window_p50_us", e2e["op_p50_us"], "us"),
                ("window_p90_us (ungated)", result["op_p90_us"], "us"),
                ("window_p99_us (pooled, ungated)",
                 result["pooled_op_p99_us"], "us"),
                ("stream_windows_per_s", result["ops_per_job"] / e2e["job_s"],
                 "1/s")]


def _vfdt(model):
    return next(m for m in model.members
                if isinstance(m, learners.HoeffdingTreeClassifier))


class Ingest:
    """parse_subject_file + filter_protocol_activities per PAMAP2 file."""

    name = "ingest"
    unit = "file"
    # Parsing is Python between short native calls, which the windows
    # kernel tracks: over ten runs job_s spread 1-3% with it.
    kernel = "windows"

    def __init__(self, size=1.0):
        self.shapes = gen.users(range(1, 10), gen.PROTOCOL_ORDER,
                                _scaled(350, size), single_activity_user=9,
                                long_dropout=300)

    def setup(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        files = []
        for shape in self.shapes:
            values = gen.make_values(shape, seed)
            path = os.path.join(workdir, f"subject10{shape.user_id}.dat")
            with open(path, "w") as fh:
                fh.write(dataset.serialize_stream(
                    dataset.SensorStream(shape.user_id, values)))
            files.append((shape.user_id, path, values))
        return files

    def job(self, state, workdir, op, watch):
        out = []
        t0 = time.perf_counter_ns()
        for user_id, path, _ in state:
            with op():
                a = time.perf_counter_ns()
                raw = dataset.parse_subject_file(path, user_id)
                kept = dataset.filter_protocol_activities(raw)
                b = time.perf_counter_ns()
            watch.op(b - a)
            out.append((raw, kept))
        watch.done()
        t1 = time.perf_counter_ns()
        lines = sum(len(values) for _, _, values in state)
        return Job((t1 - t0) / 1e9, out, {"lines": lines})

    def check(self, state, job):
        failed = max(0, len(state) - len(job.output))
        for (_, _, values), (raw, kept) in zip(state, job.output):
            failed += not (
                len(raw) == len(values)
                and np.array_equal(raw.values, values, equal_nan=True)
                and len(kept) == gen.protocol_row_count(values)
                and np.isin(kept.values[:, 1], gen.PROTOCOL_ORDER).all())
        return failed, _sha(s.values.data for pair in job.output
                            for s in pair)

    def named(self, result):
        return [("ingest_lines_per_s",
                 result["job_info"]["lines"] / result["end_to_end"]["job_s"],
                 "1/s")]


WORKLOADS = {w.name: w for w in (SweepGrid, StreamSemi, Ingest)}
