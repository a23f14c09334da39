"""Leave-one-user-out evaluation and the window-size x overlap sweep.

A sweep's unit of work is a W row, every pending (window size, overlap) point
at one window size: each user's windows at the union of the row's starts are
labeled and featurized once, into one (starts, X, labels) table, and a point
takes a user's rows at its own starts. A point's folds train on one shared
prefix of the sorted users, and each cell is scored in row blocks in either
mode (Ensemble.run_blocks). A user's frozen cell is scored first, and the
semi-supervised cell takes its audit up to the first self-update instead of
scoring those rows again. Finished cells are persisted as JSON so an
interrupted sweep resumes without recomputation. Reports are plain CSV, each
one list of rows handed to write_rows: a long-form per-activity table, one
accuracy heat map per (user, mode), and a cross-user summary.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import dataset, ensemble, features, learners, windowing
from .dataset import PROTOCOL_ACTIVITIES, DatasetError
from .ensemble import MODES, Ensemble, EnsembleError, LearnerParams
from .features import featurize
from .windowing import (DEFAULT_PURITY, WindowConfig, check_purity,
                        label_starts, window_starts)

STUDY_WINDOWS = tuple(range(100, 1001, 100))
STUDY_OVERLAPS = tuple(round(0.1 * i, 1) for i in range(10))
SINGLE_ACTIVITY_USER = 9  # rope-jumping-only subject, skews cross-user averages


class EvaluationError(Exception):
    pass


@dataclass
class FoldResult:
    user: int
    window_size: int
    overlap: float
    mode: str
    per_activity_windows: dict  # activity -> window count
    per_activity_correct: dict
    self_updates: int = 0

    @property
    def n_windows(self):
        return sum(self.per_activity_windows.values())

    @property
    def n_correct(self):
        return sum(self.per_activity_correct.values())

    @property
    def accuracy(self):
        n = self.n_windows
        return self.n_correct / n if n else None

    def per_activity_accuracy(self):
        return {a: (self.per_activity_correct[a] / n if n else None)
                for a, n in self.per_activity_windows.items()}

    def to_dict(self):
        """The fields as a dict, sharing the per-activity dicts."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        for name in ("per_activity_windows", "per_activity_correct"):
            d[name] = {int(k): v for k, v in d[name].items()}
        return cls(**d)


def louo_split(streams) -> list:
    """The sorted user ids, one fold each: that user tests, all others
    train."""
    users = sorted(s.user_id for s in streams)
    if len(users) != len(set(users)):
        raise EvaluationError("duplicate user ids")
    if len(users) < 2:
        raise EvaluationError("leave-one-user-out needs at least 2 users")
    return users


def check_grid(windows, overlaps) -> list:
    """Every (W, o) point's WindowConfig, in grid order. A repeated value
    raises EvaluationError, an invalid one WindowingError."""
    if len(set(windows)) < len(windows) or len(set(overlaps)) < len(overlaps):
        raise EvaluationError(f"repeated grid value: windows {windows}, "
                              f"overlaps {overlaps}")
    return [WindowConfig(w, o) for w in windows for o in overlaps]


def row_tables(streams, configs, purity=DEFAULT_PURITY,
               valid_labels=PROTOCOL_ACTIVITIES):
    """user -> (starts, X, labels) for configs of one window size: the
    user's kept windows at the union of the configs' starts, labeled and
    featurized once, in order. A point takes the rows at multiples of its
    step: a window's features do not depend on its block. Streams that
    louo_split refuses raise EvaluationError."""
    louo_split(streams)
    size = configs[0].window_size
    tables = {}
    for stream in streams:
        union = np.zeros(max(0, len(stream) - size + 1), dtype=bool)
        for config in configs:
            union[window_starts(len(stream), config)] = True
        starts, labels = label_starts(stream, np.flatnonzero(union), size,
                                      purity, valid_labels)
        X = featurize([(stream, start) for start in starts.tolist()], size)[0]
        tables[stream.user_id] = starts, X, labels
    return tables


def fold_models(tables, config, test_users, params=None,
                valid_labels=PROTOCOL_ACTIVITIES):
    """(user, model) for each test user, in sorted order: the fold's model,
    trained offline on every other user's rows at the point in sorted user
    order, only when the test user has any. One running model trains the
    sorted users in turn, and fold u is a clone of it before u that then
    trains the users after u: each member sees the row sequence of that
    training, so the states are equal. The prefix trains only as far as a
    fold needs. Built first, so bad params fail on any data."""
    prefix = Ensemble(valid_labels, params=params)
    picks = {user: starts % config.step == 0
             for user, (starts, _, _) in tables.items()}
    users = sorted(tables)
    done = 0  # users[:done] are in the prefix
    test_users = sorted(test_users)
    for test_user in test_users:
        if not picks[test_user].any():
            yield test_user, Ensemble(valid_labels, params=params)
            continue
        if not any(picks[user].any() for user in users if user != test_user):
            raise EnsembleError("empty training set")
        model = prefix  # trains the users before test_user; the fold, after
        for user in users[done:]:
            if user == test_user:
                done = users.index(user)
                # the last fold takes the prefix itself: no later fold needs it
                model = prefix if user == test_users[-1] else prefix.clone()
                continue
            _, X, labels = tables[user]
            model.train_rows(X[picks[user]], labels[picks[user]].tolist())
        yield test_user, model


def fold_result(audit, test_user, config, mode, classes):
    """The FoldResult of one cell's audit over its model's classes: every
    count comes from its records."""
    windows = dict.fromkeys(classes, 0)
    correct = dict.fromkeys(classes, 0)
    for rec in audit:
        windows[rec.true_label] += 1
        correct[rec.true_label] += rec.predicted_label == rec.true_label
    return FoldResult(test_user, config.window_size, config.overlap, mode,
                      windows, correct,
                      self_updates=sum(rec.updated for rec in audit))


def score_fold(model, tables, test_user, config, mode, frozen=()):
    """(FoldResult, audit) of one cell: the fold's model run on the test
    user's rows at the point by Ensemble.run_blocks in either mode, which
    gives the audit, and leaves the model, that run_online would. frozen,
    the model's frozen cell's audit if known, gives the predictions up to
    the first self-update, which are not scored again."""
    starts, X, labels = tables[test_user]
    at = starts % config.step == 0
    audit = model.run_blocks(X[at], labels[at].tolist(), mode, frozen)
    return fold_result(audit, test_user, config, mode, model.classes), audit


def cell_model(streams, test_user, config, params=None,
               purity=DEFAULT_PURITY, valid_labels=PROTOCOL_ACTIVITIES):
    """(stream, tables, model) of one point's fold of sweep's streams: the
    test user's stream, row_tables' tables at the point and the fold's
    model from fold_models. A test user with no stream raises DatasetError
    before row_tables labels and featurizes anything."""
    test = next((s for s in streams if s.user_id == test_user), None)
    if test is None:
        raise DatasetError(f"no stream for user {test_user}")
    tables = row_tables(streams, [config], purity, valid_labels)
    _, model = next(fold_models(tables, config, [test_user], params,
                                valid_labels))
    return test, tables, model


def evaluate_fold(streams, test_user, config, mode, params=None,
                  purity=DEFAULT_PURITY, valid_labels=PROTOCOL_ACTIVITIES):
    """(FoldResult, audit) of one cell of sweep's streams: train on every
    other user, score the test user as score_fold does."""
    _, tables, model = cell_model(streams, test_user, config, params, purity,
                                  valid_labels)
    return score_fold(model, tables, test_user, config, mode)


# ---------------------------------------------------------------------------
# Sweep with per-cell persistence


def _cell_path(cell_dir, key):
    """A cell's file in cell_dir: the sha256 of its key."""
    name = hashlib.sha256(json.dumps(key, sort_keys=True).encode())
    return os.path.join(cell_dir, name.hexdigest() + ".json")


def _load_cell(cell_dir, key):
    """The persisted result of the cell with this key, or None to compute it.

    A file that does not load as {"key", "result"}, or whose stored key is
    not this key, is reported on stderr and recomputed.
    """
    path = _cell_path(cell_dir, key)
    try:
        with open(path) as fh:
            cell = json.load(fh)
        stored, result = cell["key"], FoldResult.from_dict(cell["result"])
    except FileNotFoundError:
        return None
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        print(f"warning: recomputing unreadable cell {path}: {exc!r}",
              file=sys.stderr)
        return None
    if stored != key:
        print(f"warning: recomputing cell {path}: it was written for "
              f"another configuration", file=sys.stderr)
        return None
    return result


def _row_cells(streams, params, purity, valid_labels, points):
    """Yield (key, result) for every cell key of one window size's points,
    [(config, keys)]: row_tables featurizes each user once for the row,
    and fold_models trains a point's pending folds on one shared prefix.
    A user's cells come together, frozen first, so the fold's model
    serves both modes: a frozen run leaves it unchanged, and its audit is
    the semi-supervised run's up to the first self-update."""
    tables = row_tables(streams, [config for config, _ in points], purity,
                        valid_labels)
    for config, keys in points:
        pending = {}
        for key in keys:
            pending.setdefault(key["user"], []).append(key)
        for user, model in fold_models(tables, config, pending, params,
                                       valid_labels):
            frozen = ()  # the user's frozen audit, once scored
            for key in pending[user]:
                result, audit = score_fold(model, tables, user, config,
                                           key["mode"], frozen)
                if key["mode"] == "supervised_frozen":
                    frozen = audit
                yield key, result


_shared = ()  # a pool worker's (streams, params, purity, valid_labels)


def _init_worker(*shared):
    """Keep the sweep's inputs common to every row, sent once per
    worker."""
    global _shared
    _shared = shared


def _score_row(points):
    return list(_row_cells(*_shared, points))


def sweep(streams, windows, overlaps, modes, seed, out_dir,
          params=None, purity=DEFAULT_PURITY,
          valid_labels=PROTOCOL_ACTIVITIES, workers=1, resume=True,
          progress=None):
    """Evaluate the full (user x window x overlap x mode) grid.

    Completed cells live in out_dir/cells/, one file per cell key (everything
    the cell's result depends on), and are skipped on resume. Deterministic
    given the inputs: any worker count writes the same bytes. Nothing random
    reads the seed; it only namespaces the cell files.
    """
    if workers < 1:
        raise EvaluationError(f"workers must be >= 1, got {workers}")
    ordered = [m for m in MODES if m in modes]  # frozen first: _row_cells
    if len(ordered) != len(modes):
        raise EvaluationError(f"modes must be distinct, of {MODES}: {modes}")
    configs = check_grid(windows, overlaps)
    Ensemble(valid_labels, params=params)  # bad params fail before any write
    check_purity(purity)
    users = louo_split(streams)
    base = {"params": asdict(params or LearnerParams()),
            "purity": repr(purity), "labels": list(valid_labels),
            "streams": sorted([s.user_id, hashlib.sha256(s.values).hexdigest()]
                              for s in streams),
            "code": hashlib.sha256(b"".join(  # the source that scores a cell
                Path(path).read_bytes() for path in (
                    dataset.__file__, windowing.__file__, features.__file__,
                    learners.__file__, ensemble.__file__,
                    __file__))).hexdigest(),
            "numpy": np.__version__,  # its kernels' bits may change
            "seed": seed}
    cell_dir = os.path.join(out_dir, "cells")
    os.makedirs(cell_dir, exist_ok=True)

    rows = {}  # window size -> its points with pending cells
    results = []
    for config in configs:
        keys = []
        for user in users:
            for mode in ordered:
                key = dict(base, user=user, window_size=config.window_size,
                           overlap=repr(config.overlap), mode=mode)
                done = _load_cell(cell_dir, key) if resume else None
                if done is None:
                    keys.append(key)
                else:
                    results.append(done)
        if keys:
            rows.setdefault(config.window_size, []).append((config, keys))

    shared = (streams, params, purity, valid_labels)
    # a worker scores whole rows, and the pool starts every worker at once
    pool = (ProcessPoolExecutor(min(workers, len(rows)),
                                initializer=_init_worker, initargs=shared)
            if workers > 1 and rows else None)
    with pool or nullcontext():  # in-process, each cell comes as it is scored
        for cells in (pool.map(_score_row, rows.values()) if pool else
                      (_row_cells(*shared, row) for row in rows.values())):
            for key, result in cells:
                path = _cell_path(cell_dir, key)
                tmp = path + ".tmp"
                cell = {"key": key, "result": result.to_dict()}
                with open(tmp, "w") as fh:  # dumps: C; dump: Python encoder
                    fh.write(json.dumps(cell, sort_keys=True))
                os.replace(tmp, path)
                results.append(result)
                if progress:
                    progress(result)

    results.sort(key=lambda r: (r.user, r.window_size, r.overlap, r.mode))
    return results


# ---------------------------------------------------------------------------
# Reports


def write_rows(path, rows):
    """Write rows as one CSV file and return its path. csv writes None as an
    empty field, so a missing value is never 0, and a float by its repr."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def write_audit_csv(audit, path):
    """One row per score_fold audit record, numbered from 0 in order,
    updated as 0 or 1 (not True)."""
    rows = [[i, rec.true_label, rec.predicted_label, rec.confidence,
             int(rec.updated)] for i, rec in enumerate(audit)]
    return write_rows(path, [["index", "true_label", "predicted_label",
                              "confidence", "updated"]] + rows)


def emit_reports(results, out_dir, include_single_activity_user=False,
                 valid_labels=PROTOCOL_ACTIVITIES):
    """Write long.csv, per-(user, mode) heat maps, and summary.csv from one
    (user, mode, W, o) table; a repeated cell raises before any write.

    Missing cells (no test windows) are emitted as empty fields, never 0.
    Returns the list of written paths.
    """
    if not results:
        raise EvaluationError("no results to report")
    cells = {}
    groups = {}  # (mode, W, o) -> its scored users' results, in results order
    for r in results:
        key = (r.user, r.mode, r.window_size, r.overlap)
        if key in cells:
            raise EvaluationError(f"repeated cell (user, mode, W, o) {key}")
        cells[key] = r
        if r.accuracy is not None and (include_single_activity_user
                                       or r.user != SINGLE_ACTIVITY_USER):
            groups.setdefault(key[1:], []).append(r)
    windows = sorted({r.window_size for r in results})
    overlaps = sorted({r.overlap for r in results})

    long = [["user", "activity", "window_size", "overlap", "mode",
             "n_windows", "accuracy"]]
    for r in results:
        per_acc = r.per_activity_accuracy()
        long += [[r.user, a, r.window_size, r.overlap, r.mode,
                  r.per_activity_windows.get(a, 0), per_acc.get(a)]
                 for a in valid_labels]
    reports = {"long.csv": long}
    for user, mode in sorted({(r.user, r.mode) for r in results}):
        rows = [["window_size"] + [f"o={o}" for o in overlaps]]
        for w in windows:
            row = [cells.get((user, mode, w, o)) for o in overlaps]
            rows.append([w] + [c.accuracy if c else None for c in row])
        reports[f"heatmap_user{user}_{mode}.csv"] = rows

    summary = reports["summary.csv"] = [[
        "mode", "window_size", "overlap", "n_users", "mean_accuracy",
        "var_accuracy", "weighted_mean_accuracy"]]
    for point in product(sorted({r.mode for r in results}), windows, overlaps):
        group = groups.get(point, [])
        stats = [None] * 3
        if group:
            accs = np.array([r.accuracy for r in group])
            stats = [float(accs.mean()), float(accs.var()),
                     sum(r.n_correct for r in group)
                     / sum(r.n_windows for r in group)]
        summary.append([*point, len(group), *stats])

    os.makedirs(out_dir, exist_ok=True)
    return [write_rows(os.path.join(out_dir, name), rows)
            for name, rows in reports.items()]
