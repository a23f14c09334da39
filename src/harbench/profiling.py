"""Phase timing and energy estimation for a pipeline run.

Mirrors the three-phase breakdown used in the accuracy/energy trade-off
study: sampling (window instantiation), feature extraction and
classification, each timed as a device pays it when a window closes: one
label_window call per segmented window, one extract call per kept window,
and the fold's model run online, one classify call per window in either
mode, though the sweep labels, featurizes and scores in blocks. Energy comes
from a constant watts-per-phase model. Profiling must run single-threaded;
do not overlap it with parallel sweeps.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

from . import evaluation
from .dataset import PROTOCOL_ACTIVITIES
from .features import extract
from .windowing import DEFAULT_PURITY, label_window, segment

_TIMER_RESOLUTION_WARN_NS = 1000  # warn above 1 us


class ProfilingError(Exception):
    pass


@dataclass
class TimingBreakdown:
    """Median per-phase wall times (ns) of one sweep cell, and its result."""
    sampling_ns: int
    feature_ns: int
    classification_ns: int
    result: evaluation.FoldResult
    per_rep_total_ns: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def total_ns(self):
        return self.sampling_ns + self.feature_ns + self.classification_ns


@dataclass(frozen=True)
class PowerModel:
    """Constant watts per phase."""
    sampling_watts: float
    feature_watts: float
    classification_watts: float

    def __post_init__(self):
        for name in ("sampling_watts", "feature_watts",
                     "classification_watts"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ProfilingError(f"{name} must be finite and >= 0")

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                cfg = json.load(fh)
            return cls(sampling_watts=float(cfg["sampling_watts"]),
                       feature_watts=float(cfg["feature_watts"]),
                       classification_watts=float(cfg["classification_watts"]))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ProfilingError(f"invalid power model {path}: {exc}") from exc


def timed_run(streams, test_user, config, mode="supervised_frozen",
              purity=DEFAULT_PURITY, valid_labels=PROTOCOL_ACTIVITIES,
              params=None, repetitions=5) -> TimingBreakdown:
    """Median per-phase times of one device pass over the test user's
    stream, and the cell's FoldResult: sweep's, from sweep's streams. The
    fold's model is trained once, untimed, by evaluation.fold_models on
    row_tables' rows; each repetition then times segment and one
    label_window call per window (sampling), one extract call per kept
    window (features) and run_online (classification) on an untimed clone
    of the model. Users and streams are refused as evaluation.user_stream
    and row_tables refuse them."""
    if repetitions < 1:
        raise ProfilingError("repetitions must be >= 1")
    test = evaluation.user_stream(streams, test_user)
    tables = evaluation.row_tables(streams, [config], purity, valid_labels)
    _, model = next(evaluation.fold_models(tables, config, [test_user],
                                           params, valid_labels))

    warnings = []
    res = time.get_clock_info("perf_counter").resolution
    if res > _TIMER_RESOLUTION_WARN_NS / 1e9:
        warnings.append(f"timer resolution {res}s is coarser than 1us")

    reps = []
    for _ in range(repetitions):
        t0 = time.perf_counter_ns()
        labeled = [label_window(w, purity, valid_labels)
                   for w in segment(test, config)]
        windows = [w for w in labeled if w is not None]
        t1 = time.perf_counter_ns()
        instances = [extract(w, i) for i, w in enumerate(windows)]
        t2 = time.perf_counter_ns()
        run = model.clone()
        t3 = time.perf_counter_ns()
        audit = run.run_online(instances, mode)
        reps.append((t1 - t0, t2 - t1, time.perf_counter_ns() - t3))
    result = evaluation.fold_result(audit, test_user, config, mode,
                                    model.classes)
    return TimingBreakdown(
        sampling_ns=int(statistics.median(r[0] for r in reps)),
        feature_ns=int(statistics.median(r[1] for r in reps)),
        classification_ns=int(statistics.median(r[2] for r in reps)),
        result=result,
        per_rep_total_ns=[sum(r) for r in reps],
        warnings=warnings)


def estimate_energy(breakdown, power_model) -> float:
    """Joules under the phase-constant model: sum of watts x seconds."""
    return (power_model.sampling_watts * (breakdown.sampling_ns / 1e9)
            + power_model.feature_watts * (breakdown.feature_ns / 1e9)
            + power_model.classification_watts
            * (breakdown.classification_ns / 1e9))


def write_profile(breakdowns, power_model, out_dir):
    """Create out_dir and write timing.csv and energy_heatmap.csv, one row
    per (W, o) point in (W, o) order; an empty cell's accuracy is an empty
    field. Returns the two paths."""
    breakdowns = sorted(breakdowns, key=lambda bd: (bd.result.window_size,
                                                    bd.result.overlap))
    timing = [["window_size", "overlap", "n_windows", "sampling_ns",
               "feature_ns", "classification_ns", "rep_total_ns_list",
               "warnings"]]
    heat = [["window_size", "overlap", "joules", "accuracy", "n_windows"]]
    for bd in breakdowns:
        r = bd.result
        timing.append([r.window_size, r.overlap, r.n_windows, bd.sampling_ns,
                       bd.feature_ns, bd.classification_ns,
                       ";".join(map(str, bd.per_rep_total_ns)),
                       ";".join(bd.warnings)])
        heat.append([r.window_size, r.overlap, estimate_energy(bd, power_model),
                     r.accuracy, r.n_windows])
    os.makedirs(out_dir, exist_ok=True)
    return [evaluation.write_rows(os.path.join(out_dir, name), rows)
            for name, rows in (("timing.csv", timing),
                               ("energy_heatmap.csv", heat))]
