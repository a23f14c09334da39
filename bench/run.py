#!/usr/bin/env python3
"""harbench benchmark runner.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, sets up several times (timing
each), then runs whole jobs back to back for --seconds and checks every
job's outputs. Runs of the workload's fixed reference kernel around each
set-up and between a job's operations scale every time to the host's
reference speed (see reference.py). With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced jobs and reports the per-layer
metrics of the median traced one, with the tracing overhead. The last line
of stdout is one JSON object: correct, attempted, failed, metrics. The full
result, with the environment, goes to .bench_out/ in the checkout, and the
spans of that traced job next to it.

The program is imported from src/ of the checkout this file sits in, never
from an installed copy. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# name, unit, better; the order BENCHMARK.json lists them in.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("job_s", "s", "lower"),
    ("op_p50_us", "us", "lower"),
)
MIN_SETUPS = 3  # before the first job
SETUP_SHARE = 0.1  # more set-ups between jobs while they take less than this


def _arguments(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=float, default=1.0,
                   help="scale of the inputs (tests use a tiny size)")
    return p.parse_args(argv)


def _import_program():
    """Import harbench from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, SRC)
    import harbench
    where = os.path.dirname(os.path.abspath(harbench.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"harbench imported from {where}, not {SRC}")


def _git_sha():
    """HEAD of the checkout's git metadata, if it has any."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest():
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    return {"git_sha": _git_sha(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "load1_start": os.getloadavg()[0]}


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(workload, seed, seconds, trace, workdir):
    """Set up, run jobs for `seconds`, check them; returns a result dict."""
    import reference
    import tracer as tracing

    kernel_s = [reference.kernel_s(workload.kernel)]
    setup_s, setup_scales = [], []

    def set_up():
        t0 = time.perf_counter()
        state = workload.setup(seed, os.path.join(workdir, "inputs"))
        setup_s.append(time.perf_counter() - t0)
        kernel_s.append(reference.kernel_s(workload.kernel))
        setup_scales.append(reference.scale(workload.kernel, *kernel_s[-2:]))
        return state

    state = None
    for _ in range(MIN_SETUPS):
        state = None  # release the previous set-up before timing the next
        state = set_up()

    jobs, traced = [], []  # (job, watch) and (job, tracer)
    attempted = failed = 0
    digests = set()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 1 + trace or time.perf_counter() < deadline:
        tr = tracing.Tracer() if trace and i % 2 else None
        # traced jobs run no kernel, so that it adds no spans
        watch = (reference.Stopwatch() if tr
                 else reference.Gauge(workload.kernel))
        try:
            with (tr.installed() if tr else nullcontext()):
                op = (lambda: tr.span(f"bench.{workload.unit}", True)) if tr \
                    else nullcontext
                with (tr.span("bench.job") if tr else nullcontext()):
                    job = workload.job(state, os.path.join(workdir, "job"),
                                       op, watch)
            n_failed, digest = workload.check(state, job)
        except Exception:  # the job's operations all fail; stop the run
            traceback.print_exc()
            n = len(jobs[-1][1].op_ns) if jobs else 1
            attempted += n
            failed += n
            break
        job.output = None  # keep only one job's outputs alive at a time
        digests.add(digest)
        attempted += len(watch.op_ns)
        failed += n_failed
        if tr:
            traced.append((job, tr))
        else:
            jobs.append((job, watch))
        kernel_s.extend(watch.kernel_s)
        i += 1
        if sum(setup_s) < SETUP_SHARE * seconds:
            state = None
            state = set_up()
    if len(digests) > 1:  # a job whose outputs differ from the others
        failed = attempted
    if not jobs or (trace and not traced):
        raise RuntimeError("no job completed")

    # Every job repeats the same deterministic work. Each operation's time
    # is scaled to the reference speed (see reference.py) and taken at its
    # median over the jobs; job_s sums them, with the median of the job's
    # time outside operations and kernel runs. A Gauge makes its first
    # kernel run before the job starts, and every other one inside it.
    ops = [statistics.median(col) / 1e3 for col in zip(
        *([ns * f for ns, f in zip(w.op_ns, w.scales)] for _, w in jobs))]
    outside = statistics.median(
        (job.seconds - sum(w.op_ns) / 1e9 - sum(w.kernel_s[1:]))
        * statistics.median(w.scales) for job, w in jobs)
    pooled = [ns * f / 1e3 for _, w in jobs for ns, f in zip(w.op_ns, w.scales)]
    wall = [job.seconds - sum(w.kernel_s[1:]) for job, w in jobs]
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "unit": workload.unit,
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "setups": len(setup_s), "jobs": len(jobs), "ops_per_job": len(ops),
        "attempted": attempted, "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(
                s * f for s, f in zip(setup_s, setup_scales)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "job_s": sum(ops) / 1e6 + outside,
            "op_p50_us": statistics.median(ops),
        },
        "op_p90_us": _percentile(ops, 90),
        "pooled_op_p99_us": _percentile(pooled, 99),
        "median_wall_job_s": statistics.median(wall),
        "median_wall_setup_s": statistics.median(setup_s),
        "kernel_s": kernel_s,
        "setup_seconds": setup_s,
        "job_wall_seconds": wall,
        "job_info": jobs[0][0].info,
    }
    if trace:
        traced.sort(key=lambda t: t[0].seconds)
        job, tr = traced[len(traced) // 2]
        result["per_layer"] = {
            **tracing.job_metrics(tr),
            "trace.overhead_s": job.seconds - statistics.median(wall)}
        result["missing_targets"] = tr.missing
        result["spans"] = tr.spans
    return result


def report(result, env, workload):
    import reference
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']:g}  trace {result['trace']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"digest {result['digest']}")
    kernel = result["kernel_s"]
    print(f"samples: {result['setups']} set-ups; {result['jobs']} untraced "
          f"jobs of {result['ops_per_job']} {result['unit']}s; times are at "
          f"the reference speed; job_s and op_p50_us take each "
          f"{result['unit']}'s median over the jobs")
    print(f"host: {len(kernel)} runs of the {workload.kernel!r} kernel, "
          f"median {statistics.median(kernel) * 1e3:.2f} ms, range "
          f"{min(kernel) * 1e3:.2f}-{max(kernel) * 1e3:.2f} ms; "
          f"{reference.KERNELS[workload.kernel][1] * 1e3:.2f} ms at the "
          f"reference speed")
    print(f"ungated: op_p90_us {result['op_p90_us']:.1f} us; pooled op p99 "
          f"{result['pooled_op_p99_us']:.1f} us; wall clock: median job "
          f"{result['median_wall_job_s']:.4f} s, median set-up "
          f"{result['median_wall_setup_s']:.4f} s")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<14} {result['end_to_end'][name]:>14.4f} {unit}")
    for name, value, unit in workload.named(result):
        print(f"  {name:<28} {value:.4f} {unit}")
    if result["trace"]:
        import tracer as tracing
        layer = result["per_layer"]
        totals = {l: layer[f"{l}.self_s"] for l in tracing.LAYERS}
        print("per layer (median traced job; times are wall-clock self "
              "times):")
        for name, unit, _ in tracing.PER_LAYER:
            print(f"  {name:<36} {layer[name]:>14.6f} {unit}")
        ranked = sorted(totals, key=totals.get, reverse=True)
        job_s = sum(totals.values()) + layer["trace.unattributed_s"]
        print("layers by self time: " + ", ".join(
            f"{l} {totals[l] / job_s:.0%}" for l in ranked))
        print("dominant layer: " + ranked[0])
        if result["missing_targets"]:
            print("not traced (missing): " + ", ".join(
                result["missing_targets"]))
    print(f"attempted {result['attempted']}  failed {result['failed']}")


def _write(result, env):
    stem = f"{result['workload']}-seed{result['seed']}"
    spans = result.pop("spans", None)
    if spans is not None:
        t0 = spans[0][1]
        with open(os.path.join(OUT, stem + ".trace.json"), "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "trace_id"],
                       "spans": [[n, s - t0, e - t0, p, t]
                                 for n, s, e, p, t in spans]}, fh)
    with open(os.path.join(OUT, f"{stem}-trace{result['trace']}.json"),
              "w") as fh:
        json.dump({"env": env, **result}, fh, indent=1, default=str)


def main(argv=None):
    args = _arguments(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import harbench from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.size <= 0:
        print("--seconds and --size must be positive", file=sys.stderr)
        return 2
    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.size)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        result = measure(workload, args.seed, args.seconds, args.trace,
                         workdir)
    except RuntimeError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["load1_end"] = os.getloadavg()[0]
    report(result, env, workload)
    _write(result, env)
    if args.trace:
        import tracer as tracing
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
