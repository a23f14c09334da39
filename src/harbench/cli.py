"""Command-line entry point.

Subcommands: validate (dataset count check), sweep (full grid evaluation),
eval (single cell), profile (timing/energy grid), synth (write synthetic
streams). Exit codes: 0 ok, 2 invalid grid, arguments, learner/ensemble
parameters or power model file, 3 missing or unreadable input (a subject
file, a synthetic spec or a test user's stream), 4 unwritable output, 1
anything else.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import dataset, evaluation, profiling
from .dataset import (ACTIVITY_NAMES, PROTOCOL_ACTIVITIES, REFERENCE_COUNTS,
                      SyntheticSpec, TOTAL_RAW_SAMPLES, DatasetError)
from .ensemble import EnsembleError, LearnerParams
from .evaluation import STUDY_OVERLAPS, STUDY_WINDOWS, EvaluationError
from .features import FeatureError
from .learners import LearnerError
from .profiling import ProfilingError
from .windowing import DEFAULT_PURITY, WindowConfig, WindowingError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_GRID = 2
EXIT_MISSING_DATA = 3
EXIT_UNWRITABLE = 4

DATA_DIR_ENV = "HARBENCH_DATA_DIR"


class CliError(Exception):
    def __init__(self, message, code=EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _subject_path(data_dir, user):
    candidates = [os.path.join(data_dir, f"subject10{user}.dat"),
                  os.path.join(data_dir, "Protocol", f"subject10{user}.dat")]
    for path in candidates:
        if os.path.exists(path):
            return path
    return None


def load_pamap2(data_dir):
    """Parse and protocol-filter the available subject files of users 1-9:
    (raw row count, filtered stream) pairs, so no raw stream outlives its
    filtering, and the users with no file."""
    if not data_dir or not os.path.isdir(data_dir):
        raise CliError(f"data directory not found: {data_dir!r}",
                       EXIT_MISSING_DATA)
    streams, missing = [], []
    for user in range(1, 10):
        path = _subject_path(data_dir, user)
        if path is None:
            missing.append(user)
            continue
        raw = dataset.parse_subject_file(path, user)
        streams.append((len(raw), dataset.filter_protocol_activities(raw)))
    if not streams:
        raise CliError(f"no subject files found under {data_dir}",
                       EXIT_MISSING_DATA)
    return streams, missing


def _load_streams(args):
    """Streams plus the class set, from PAMAP2 or a synthetic spec."""
    if args.synthetic:
        spec = SyntheticSpec.from_file(args.synthetic)
        return dataset.generate_synthetic(spec), spec.class_labels
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    pairs, missing = load_pamap2(data_dir)
    if missing:
        print(f"warning: missing subject files for users {missing}",
              file=sys.stderr)
    return [filtered for _, filtered in pairs], PROTOCOL_ACTIVITIES


def _parse_grid(args):
    if args.grid == "study":
        windows, overlaps = list(STUDY_WINDOWS), list(STUDY_OVERLAPS)
    else:
        try:
            windows = [int(w) for w in args.windows.split(",")]
            overlaps = [float(o) for o in args.overlaps.split(",")]
        except (AttributeError, ValueError) as exc:
            raise CliError(f"invalid grid: {exc}", EXIT_BAD_GRID) from exc
    evaluation.check_grid(windows, overlaps)  # a repeated or bad value: exit 2
    if not args.allow_any_grid:
        bad_w = [w for w in windows if w not in STUDY_WINDOWS]
        bad_o = [o for o in overlaps if round(o, 1) not in STUDY_OVERLAPS
                 or round(o, 1) != o]
        if bad_w or bad_o:
            raise CliError(
                f"grid values outside the study bounds (windows {bad_w}, "
                f"overlaps {bad_o}); pass --allow-any-grid to override",
                EXIT_BAD_GRID)
    return windows, overlaps


def _modes(arg):
    return {"sup": ["supervised_frozen"],
            "semi": ["semi_supervised"],
            "both": ["supervised_frozen", "semi_supervised"]}[arg]


def _learner_params(args):
    return LearnerParams(k=args.k, knn_capacity=args.knn_capacity,
                         vfdt_delta=args.delta,
                         vfdt_tie_threshold=args.tie_threshold,
                         vfdt_grace_period=args.grace_period,
                         confidence_threshold=args.theta)


def cmd_validate(args):
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    pairs, missing = load_pamap2(data_dir)
    for user in missing:
        print(f"user {user}: MISSING subject file")
    ok = not missing
    total_raw = 0
    for n_raw, filtered in pairs:
        total_raw += n_raw
        counts = dataset.sample_counts(filtered)
        expected = REFERENCE_COUNTS[filtered.user_id]
        diffs = {a: (counts[a], expected[a]) for a in PROTOCOL_ACTIVITIES
                 if counts[a] != expected[a]}
        status = "PASS" if not diffs else "FAIL"
        ok = ok and not diffs
        print(f"user {filtered.user_id}: raw={n_raw} filtered={len(filtered)} "
              f"{status}")
        for a, (got, want) in sorted(diffs.items()):
            print(f"  {ACTIVITY_NAMES[a]}: got {got}, expected {want}")
    print(f"total raw samples: {total_raw} "
          f"(reference {TOTAL_RAW_SAMPLES})")
    if total_raw != TOTAL_RAW_SAMPLES:
        ok = False
    print("RESULT:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_ERROR


def cmd_sweep(args):
    streams, classes = _load_streams(args)
    windows, overlaps = _parse_grid(args)
    results = evaluation.sweep(
        streams, windows, overlaps, _modes(args.mode), seed=args.seed,
        out_dir=args.out, params=_learner_params(args), purity=args.purity,
        valid_labels=classes, workers=args.workers, resume=args.resume,
        progress=(lambda r: print(
            f"user {r.user} W={r.window_size} o={r.overlap} {r.mode}: "
            f"acc={'n/a' if r.accuracy is None else f'{r.accuracy:.4f}'}"))
        if args.verbose else None)
    # user 9 is PAMAP2's rope-jumping-only subject; a synthetic one is not
    paths = evaluation.emit_reports(
        results, args.out, valid_labels=classes,
        include_single_activity_user=args.include_user9 or bool(args.synthetic))
    for p in paths:
        print("wrote", p)
    return EXIT_OK


def cmd_eval(args):
    streams, classes = _load_streams(args)
    config = WindowConfig(args.window, args.overlap)
    result, audit = evaluation.evaluate_fold(
        streams, args.user, config, _modes(args.mode)[0],
        params=_learner_params(args), purity=args.purity,
        valid_labels=classes)
    acc = result.accuracy
    print(f"user {args.user} W={args.window} o={args.overlap} {result.mode}: "
          f"windows={result.n_windows} "
          f"accuracy={'n/a' if acc is None else f'{acc:.4f}'} "
          f"self_updates={result.self_updates}")
    for a, pa in sorted(result.per_activity_accuracy().items()):
        n = result.per_activity_windows[a]
        if n:
            name = a if args.synthetic else ACTIVITY_NAMES[a]
            print(f"  {name}: n={n} accuracy={pa:.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        print("wrote", evaluation.write_audit_csv(
            audit, os.path.join(args.out, f"audit_u{args.user}.csv")))
    return EXIT_OK


def cmd_profile(args):
    streams, classes = _load_streams(args)
    windows, overlaps = _parse_grid(args)
    power = (profiling.PowerModel.from_file(args.power_model)
             if args.power_model
             else profiling.PowerModel(1.0, 2.0, 1.5))
    test_user = (args.user if args.user is not None
                 else max(s.user_id for s in streams))

    breakdowns = []
    for config in evaluation.check_grid(windows, overlaps):
        bd = profiling.timed_run(streams, test_user, config,
                                 mode=_modes(args.mode)[0],
                                 purity=args.purity, valid_labels=classes,
                                 params=_learner_params(args),
                                 repetitions=args.reps)
        breakdowns.append(bd)
        print(f"W={config.window_size} o={config.overlap}: "
              f"windows={bd.result.n_windows} total={bd.total_ns / 1e6:.1f}ms "
              f"energy={profiling.estimate_energy(bd, power):.4f}J")
    for path in profiling.write_profile(breakdowns, power, args.out):
        print("wrote", path)
    return EXIT_OK


def cmd_synth(args):
    spec = SyntheticSpec.from_file(args.spec)
    os.makedirs(args.out, exist_ok=True)
    for stream in dataset.generate_synthetic(spec):
        path = os.path.join(args.out, f"synthetic{stream.user_id:03d}.dat")
        with open(path, "w") as fh:
            fh.write(dataset.serialize_stream(stream))
        print(f"wrote {path} ({len(stream)} samples)")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--data-dir", default=None,
                        help=f"PAMAP2 directory (default ${DATA_DIR_ENV})")
    parser.add_argument("--synthetic", default=None, metavar="SPEC_JSON",
                        help="synthetic spec file instead of PAMAP2")
    parser.add_argument("--purity", type=float, default=DEFAULT_PURITY,
                        help="minimum modal-label fraction to keep a window")
    learner = LearnerParams()
    parser.add_argument("--k", type=int, default=learner.k,
                        help="kNN neighbors")
    parser.add_argument("--knn-capacity", type=int,
                        default=learner.knn_capacity)
    parser.add_argument("--delta", type=float, default=learner.vfdt_delta,
                        help="VFDT split confidence")
    parser.add_argument("--tie-threshold", type=float,
                        default=learner.vfdt_tie_threshold)
    parser.add_argument("--grace-period", type=int,
                        default=learner.vfdt_grace_period)
    parser.add_argument("--theta", type=float,
                        default=learner.confidence_threshold,
                        help="self-update confidence gate (strict >)")


def _add_grid(parser):
    parser.add_argument("--grid", choices=["study", "custom"], default="custom")
    parser.add_argument("--windows", default="100,500,1000",
                        help="comma-separated window sizes")
    parser.add_argument("--overlaps", default="0.0,0.5,0.8",
                        help="comma-separated overlap factors")
    parser.add_argument("--allow-any-grid", action="store_true",
                        help="permit values outside the study grid bounds")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="harbench",
        description="Streaming HAR benchmark: windowed features, "
                    "semi-supervised ensemble, accuracy/energy sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check PAMAP2 sample counts")
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="run the full evaluation grid")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--seed", type=int, required=True,
                   help="namespace for the cell files; nothing random "
                        "reads it")
    p.add_argument("--mode", choices=["sup", "semi", "both"], default="both")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--resume", action="store_true",
                   help="skip cells already persisted in --out")
    p.add_argument("--include-user9", action="store_true",
                   help="include PAMAP2's single-activity user 9 in "
                        "summaries (a synthetic sweep always does)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate one (user, W, o, mode) cell")
    _add_common(p)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--overlap", type=float, required=True)
    p.add_argument("--mode", choices=["sup", "semi"], default="semi")
    p.add_argument("--out", default=None, help="write the audit CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("profile", help="time phases and estimate energy")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--mode", choices=["sup", "semi"], default="semi")
    p.add_argument("--user", type=int, default=None,
                   help="test user (default: highest user id)")
    p.add_argument("--power-model", default=None,
                   help="JSON phase-to-watts file")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("synth", help="materialize synthetic streams")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DatasetError, WindowingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_GRID if isinstance(exc, WindowingError) else EXIT_MISSING_DATA
    except (LearnerError, EnsembleError, EvaluationError, ProfilingError,
            FeatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_GRID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE


if __name__ == "__main__":
    sys.exit(main())
