"""Smoke test of the benchmark harness, so that it cannot rot.

Run from the root of the repository:

    python -m pytest -q bench

Each workload runs at the smoke size (``run.py --smoke``), untraced and
traced, and its result line is checked against ``BENCHMARK.json``.
"""

import json
import math
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] < result["attempted"]
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0.0, name


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "h_scan", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", ["h_scan", "n_scan"])
def test_inputs_follow_the_seed(workload):
    def inputs(seed):
        sweep = next(workloads.WORKLOADS[workload](random.Random(seed)))
        return [op.args[1:] for op in sweep]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_n_scan_sizes_do_not_repeat_within_a_rule_group():
    gen = workloads.n_scan(random.Random(3))
    seen = set()
    for _ in range(3):
        for op in next(gen):
            dim, variant, N = op.args[1:]
            size = N - 1 if (dim, variant) == (2, "var") else N
            key = (workloads.N_SCAN_RULE_GROUP[dim, variant], size)
            assert key not in seen
            seen.add(key)


def test_tracer_reports_absent_boundaries_and_self_time():
    mod = types.ModuleType("fake_layers")
    sys.modules["fake_layers"] = mod
    mod.inner = lambda n: sum(range(n))
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    tracer = spans.Tracer()
    try:
        tracer.install((
            ("fake_layers", "outer", "a", {"items": ("arg", 0, lambda n: n)}),
            ("fake_layers", "inner", "b", {}),
            ("fake_layers", "gone", "b", {}),
            ("no_such_module_here", "f", "c", {}),
        ))
        mod.outer(100_000)
    finally:
        tracer.uninstall()
        del sys.modules["fake_layers"]
    assert tracer.absent == ["fake_layers.gone", "no_such_module_here.f"]
    assert tracer.count("a", "calls") == 1 and tracer.count("b", "calls") == 2
    assert tracer.count("a", "items") == 100_000
    outer, *inner = tracer.span_records()
    assert all(s["parent"] == 0 for s in inner)
    covered = sum(s["end"] - s["start"] for s in inner)
    assert outer["self_s"] == pytest.approx(outer["end"] - outer["start"] - covered)
    assert tracer.count("b", "self_s") == pytest.approx(covered)


def test_scaled_times_follow_the_program_not_the_host():
    ops = [0.004, 0.02, 0.3, 0.06, 0.01] * 6
    rec = {"op_s": ops, "op_ok": [True, True, False, True, True] * 6,
           "ref_s": [7e-4, 6e-4, 8e-4] * 10, "extra_s": [0.2],
           "attempted": len(ops), "peak_rss_mb": 100.0}

    def scaled(r):
        metrics = run.end_to_end(r, [1.0])[0]
        return [metrics[k][0] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")]

    slow_host = dict(rec, op_s=[1.4 * t for t in ops],
                     ref_s=[1.4 * t for t in rec["ref_s"]], extra_s=[0.28])
    assert scaled(slow_host) == pytest.approx(scaled(rec))
    slow_program = dict(rec, op_s=[1.4 * t for t in ops], extra_s=[0.28])
    ops_per_s, p50, p90 = scaled(slow_program)
    assert ops_per_s == pytest.approx(scaled(rec)[0] / 1.4)
    assert (p50, p90) == pytest.approx([1.4 * v for v in scaled(rec)[1:]])
