"""Tests of the benchmark itself, at a tiny input size.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# the smallest inputs at which every check still has work to check
SIZE = {"sweep-grid": "1", "stream-semi": "0.5", "ingest": "0.25"}


def _bench(workload, trace, cwd=ROOT, seed=3):
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.01", "--trace",
         str(trace), "--size", SIZE[workload]],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return out


def _result(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_and_traced_runs(workload):
    plain, plain_digest = _result(_bench(workload, 0))
    traced, traced_digest = _result(_bench(workload, 1))
    for res, table in ((plain, run.END_TO_END), (traced, tracer.PER_LAYER)):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [name for name, _, _ in table]
        for name, unit, _ in table:
            assert res["metrics"][name]["unit"] == unit
            assert isinstance(res["metrics"][name]["value"], (int, float))
    for name, _, _ in run.END_TO_END:
        assert plain["metrics"][name]["value"] > 0
    assert plain_digest == traced_digest


def test_gauge_scales_every_operation_once():
    gauge = reference.Gauge("windows")
    for ms in (1, 1, 1, 1, 1, 50, 1, 1, 1):
        gauge.op(ms * 10**6)
    gauge.done()
    gauge.done()  # nothing left to scale: no further kernel run
    assert len(gauge.scales) == len(gauge.op_ns) == 9
    # one run before the first stretch, one after the 50 ms operation closed
    # it, one after the last three
    assert len(gauge.kernel_s) == 3
    assert len(set(gauge.scales[:6])) == 1 and len(set(gauge.scales[6:])) == 1
    assert all(scale > 0 for scale in gauge.scales)


def test_same_seed_same_digest_other_seed_other_inputs():
    _, first = _result(_bench("ingest", 0, seed=5))
    _, again = _result(_bench("ingest", 0, seed=5))
    _, other = _result(_bench("ingest", 0, seed=6))
    assert first == again != other


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", tracer.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            list(table)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("ingest", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
