"""In-memory span tracing around calls into harbench's public functions.

While installed, the tracer replaces each traced function with a wrapper
everywhere a harbench module binds it (``harbench.evaluation`` imports
``labeled_windows`` and ``extract_stream`` by name, so patching
``harbench.features`` alone would miss the sweep's calls), and each traced
method on its class. A span is ``[name, start_ns, end_ns, parent, trace_id]``;
spans stay in memory and are written once, at the end of the run. A new
trace id starts at each sweep cell (``evaluate_fold``), each subject file and
each stream window.

Counts are taken at the same boundaries, from arguments and return values
only. Self time is a span's duration minus that of its children; the self
time of the benchmark's own ``bench.*`` spans is time no program span
covers, reported as unattributed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from harbench import dataset, ensemble, evaluation, features, learners, windowing

LAYERS = ("dataset", "windowing", "features", "learners", "ensemble",
          "evaluation")


@dataclass(frozen=True)
class Target:
    name: str  # span name, "<layer>.<function>"
    owner: object  # module or class that defines it
    attr: str
    before: object = None  # hook(tracer, args) before the call
    after: object = None  # hook(tracer, args, result) after the call
    new_trace: bool = False


def _lines(tracer, args, result):
    # parse_subject_file re-enters itself with the opened file; count once.
    if not isinstance(args[0], (str, bytes, os.PathLike)):
        tracer.counts["dataset.lines"] += len(result)


def _dropped(tracer, args, result):
    tracer.counts["dataset.rows_dropped"] += len(args[0]) - len(result)


def _segmented(tracer, args, result):
    tracer.counts["windowing.windows_segmented"] += len(result)


def _kept(tracer, args, result):
    tracer.counts["windowing.windows_kept"] += result is not None


def _extracted(tracer, args, result):
    w = args[0]
    tracer.counts["features.extract_calls"] += 1
    tracer.windows.add((getattr(w, "user_id", None), getattr(w, "start", None),
                        getattr(w, "size", None)))


def _counter(key):
    def hook(tracer, args, result):
        tracer.counts[key] += 1
    return hook


def _knn_predict(tracer, args, result):
    tracer.counts["learners.knn.predict_calls"] += 1
    tracer.knn_store = max(tracer.knn_store, args[0].size)


def _tree(key):
    def hook(tracer, args):
        tracer.counts[key] += 1
        tree = args[0]
        tracer.trees.setdefault(id(tree), (tree, tree.n_splits))
    return hook


def _classified(tracer, args, result):
    votes = [int(d.argmax()) for d in result.member_distributions]
    pairs = [(i, j) for i in range(len(votes)) for j in range(i + 1, len(votes))]
    tracer.counts["ensemble.classify_calls"] += 1
    tracer.agreement += sum(votes[i] == votes[j] for i, j in pairs) / len(pairs)


def _self_updated(tracer, args, result):
    tracer.counts["ensemble.self_update_calls"] += 1
    tracer.counts["ensemble.self_update_accepted"] += bool(result)


TARGETS = (
    Target("dataset.parse_subject_file", dataset, "parse_subject_file",
           after=_lines, new_trace=True),
    Target("dataset.filter_protocol_activities", dataset,
           "filter_protocol_activities", after=_dropped),
    Target("windowing.segment", windowing, "segment", after=_segmented),
    Target("windowing.label_window", windowing, "label_window", after=_kept),
    Target("windowing.labeled_windows", windowing, "labeled_windows"),
    Target("features.extract", features, "extract", after=_extracted),
    Target("features.extract_stream", features, "extract_stream"),
    Target("learners.knn.predict", learners.KnnClassifier, "predict",
           after=_knn_predict),
    Target("learners.knn.train", learners.KnnClassifier, "train",
           after=_counter("learners.knn.train_calls")),
    Target("learners.nb.predict", learners.GaussianNbClassifier, "predict",
           after=_counter("learners.nb.predict_calls")),
    Target("learners.nb.train", learners.GaussianNbClassifier, "train",
           after=_counter("learners.nb.train_calls")),
    Target("learners.vfdt.predict", learners.HoeffdingTreeClassifier,
           "predict", before=_tree("learners.vfdt.predict_calls")),
    Target("learners.vfdt.train", learners.HoeffdingTreeClassifier, "train",
           before=_tree("learners.vfdt.train_calls")),
    Target("ensemble.train_offline", ensemble.Ensemble, "train_offline"),
    Target("ensemble.classify", ensemble.Ensemble, "classify",
           after=_classified),
    Target("ensemble.self_update", ensemble.Ensemble, "self_update",
           after=_self_updated),
    Target("ensemble.run_online", ensemble.Ensemble, "run_online"),
    Target("evaluation.sweep", evaluation, "sweep"),
    Target("evaluation.evaluate_fold", evaluation, "evaluate_fold",
           after=_counter("evaluation.cells"), new_trace=True),
    Target("evaluation.emit_reports", evaluation, "emit_reports"),
)


class Tracer:
    """Spans and counts of one traced job."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_trace = 0
        self._patched = []
        self.missing = []
        self.counts = Counter()
        self.windows = set()
        self.trees = {}
        self.knn_store = 0
        self.agreement = 0.0

    def _open(self, name, new_trace):
        parent = self._stack[-1] if self._stack else -1
        if new_trace or parent < 0:
            trace_id = self._next_trace
            self._next_trace += 1
        else:
            trace_id = self.spans[parent][4]
        self.spans.append([name, time.perf_counter_ns(), 0, parent, trace_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name, new_trace=False):
        self._open(name, new_trace)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.before:
                target.before(self, args)
            self._open(target.name, target.new_trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if target.after:
                target.after(self, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] == "harbench"]
        try:
            for target in TARGETS:
                original = getattr(target.owner, target.attr, None)
                if original is None:
                    self.missing.append(target.name)
                    continue
                wrapper = self._wrap(target, original)
                owners = ([target.owner] if isinstance(target.owner, type)
                          else modules)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapper)
                            self._patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def self_ns(self):
        """Total self time per span name."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out


# name, unit, better; the order BENCHMARK.json lists them in.
PER_LAYER = (
    ("dataset.parse_s", "s", "lower"),
    ("dataset.lines", "count", "higher"),
    ("dataset.filter_s", "s", "lower"),
    ("dataset.rows_dropped", "count", "lower"),
    ("windowing.label_s", "s", "lower"),
    ("windowing.windows_segmented", "count", "lower"),
    ("windowing.windows_kept", "count", "higher"),
    ("features.extract_s", "s", "lower"),
    ("features.extract_calls", "count", "lower"),
    ("features.distinct_windows", "count", "lower"),
    ("features.reuse_ratio", "ratio", "higher"),
    ("features.us_per_window", "us", "lower"),
    *((f"learners.{m}.{what}", unit, "lower")
      for m in ("knn", "nb", "vfdt")
      for what, unit in (("predict_s", "s"), ("predict_calls", "count"),
                         ("train_s", "s"), ("train_calls", "count"))),
    ("learners.knn.store_size", "count", "lower"),
    ("learners.vfdt.splits", "count", "higher"),
    ("learners.vfdt.leaves", "count", "higher"),
    ("ensemble.train_offline_s", "s", "lower"),
    ("ensemble.classify_s", "s", "lower"),
    ("ensemble.self_update_s", "s", "lower"),
    ("ensemble.self_update_accept_ratio", "ratio", "higher"),
    ("ensemble.member_agreement", "ratio", "higher"),
    ("evaluation.evaluate_fold_self_s", "s", "lower"),
    ("evaluation.cells", "count", "lower"),
    ("evaluation.emit_reports_s", "s", "lower"),
    ("evaluation.sweep_self_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# per-layer time metric -> the span names whose self time it sums
_TIMES = {
    "dataset.parse_s": ("dataset.parse_subject_file",),
    "dataset.filter_s": ("dataset.filter_protocol_activities",),
    "windowing.label_s": ("windowing.segment", "windowing.label_window",
                          "windowing.labeled_windows"),
    "features.extract_s": ("features.extract", "features.extract_stream"),
    **{f"learners.{m}.{what}_s": (f"learners.{m}.{what}",)
       for m in ("knn", "nb", "vfdt") for what in ("predict", "train")},
    "ensemble.train_offline_s": ("ensemble.train_offline",),
    "ensemble.classify_s": ("ensemble.classify",),
    "ensemble.self_update_s": ("ensemble.self_update",),
    "evaluation.evaluate_fold_self_s": ("evaluation.evaluate_fold",),
    "evaluation.emit_reports_s": ("evaluation.emit_reports",),
    "evaluation.sweep_self_s": ("evaluation.sweep",),
}


def _ratio(num, den):
    return num / den if den else 0.0


def job_metrics(tracer):
    """Per-layer metrics of one traced job (all but trace.overhead_s)."""
    self_ns = tracer.self_ns()
    c = tracer.counts
    m = {name: sum(self_ns.get(s, 0) for s in spans) / 1e9
         for name, spans in _TIMES.items()}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(ns for name, ns in self_ns.items()
                                   if name.split(".")[0] == layer) / 1e9
    m["trace.unattributed_s"] = sum(ns for name, ns in self_ns.items()
                                    if name.split(".")[0] == "bench") / 1e9
    m["trace.spans"] = len(tracer.spans)
    for key in ("dataset.lines", "dataset.rows_dropped",
                "windowing.windows_segmented", "windowing.windows_kept",
                "features.extract_calls", "evaluation.cells",
                *(f"learners.{m_}.{w}_calls" for m_ in ("knn", "nb", "vfdt")
                  for w in ("predict", "train"))):
        m[key] = c[key]
    calls = c["features.extract_calls"]
    m["features.distinct_windows"] = len(tracer.windows)
    m["features.reuse_ratio"] = _ratio(len(tracer.windows), calls)
    m["features.us_per_window"] = _ratio(m["features.extract_s"] * 1e6, calls)
    m["learners.knn.store_size"] = tracer.knn_store
    m["learners.vfdt.splits"] = sum(tree.n_splits - first
                                    for tree, first in tracer.trees.values())
    m["learners.vfdt.leaves"] = sum(len(tree.leaves())
                                    for tree, _ in tracer.trees.values())
    m["ensemble.self_update_accept_ratio"] = _ratio(
        c["ensemble.self_update_accepted"], c["ensemble.self_update_calls"])
    m["ensemble.member_agreement"] = _ratio(tracer.agreement,
                                            c["ensemble.classify_calls"])
    return m
