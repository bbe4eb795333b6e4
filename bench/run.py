"""lagmesh benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload h_scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload n_scan --seed 1 --smoke

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (the
median wall time of several fresh interpreters importing ``lagmesh.cli``,
the CLI cold start), then one fresh child interpreter runs the workload's
closed loop and gives ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``,
``ok_frac`` and ``peak_rss_mb``.  The child runs a fixed number of whole
sweeps, sized from ``--seconds`` by the nominal sweep times in
``SWEEP_S``, so that a seed always gives the same operations and the same
failures, and the run measures about ``--seconds`` seconds.  Every time
reported is scaled to the host's nominal speed by a reference kernel timed
next to it (see ``pace.py``); the times as measured are printed beside
them and kept in the record.

With ``--trace 1`` one untraced child runs half as many sweeps, then a
traced child runs exactly the same sweeps with every layer boundary
wrapped (see ``spans.py``).  The traced child's counters and self times,
per operation, are the per-layer metrics; ``trace.overhead_frac`` compares
the two wall times.  The traced run never feeds the end-to-end metrics.

Children run with BLAS and OpenMP pinned to one thread and import lagmesh
from the checkout's ``src``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with provenance, failures by exception type and spans, goes to
``bench/out/``.  ``correct`` is false when an operation returned a value
that failed its check; operations that raised are counted in ``failed``
(and lower ``ok_frac``) but are not wrong answers.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before pace imports numpy

import pace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("h_scan", "n_scan", "phase_scan")
SETUP_IMPORTS = 5
SETUP_REF_SAMPLES = 40  # reference kernels timed before and after an import
# Nominal wall seconds of one sweep, measured on a 2-core 2.1 GHz Xeon VM
# with BLAS pinned to one thread; they turn --seconds into a sweep count.
SWEEP_S = {"h_scan": 2.0, "n_scan": 8.0, "phase_scan": 12.5}
# A child starts no sweep after this many times --seconds (a much slower
# program is cut short rather than overrunning the run's time limit).
SLOW_FACTOR = 4.0
# The smoke size: seconds per workload and one cold import, for the
# benchmark's own test.
SMOKE_SECONDS = {"h_scan": 1.0, "n_scan": 2.0, "phase_scan": 1.0}
RUN_LIMIT_S = 170  # a run that cannot finish in this time fails


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _left(deadline):
    return max(1.0, deadline - time.monotonic())


def setup_times(count, deadline):
    """Wall times of ``count`` fresh interpreters importing lagmesh.cli, raw
    and scaled by the reference kernels timed around each import.

    One untimed import first writes the bytecode cache.
    """
    raw, scaled = [], []
    for i in range(count + 1):
        ref = [pace.time_kernel() for _ in range(SETUP_REF_SAMPLES)]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import lagmesh.cli"],
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=_left(deadline))
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("import lagmesh.cli failed:\n" + proc.stderr)
        ref += [pace.time_kernel() for _ in range(SETUP_REF_SAMPLES)]
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * pace.factor(ref))
    return raw, scaled


def sweeps_for(workload, seconds):
    return max(1, round(seconds / SWEEP_S[workload]))


def child(workload, seed, deadline, sweeps, limit_s, *, trace=0, spans=None):
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--sweeps", str(sweeps),
           "--limit-s", str(limit_s)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=_left(deadline))
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} child printed no record")
    return json.loads(lines[-1])


def tail_percentile(values, q):
    """The q-quantile (nearest rank), lowered when needed so that at least
    ten samples lie beyond it.  Returns (value, quantile used)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, min(math.ceil(q * n) - 1, n - 11))
    return ordered[k], (k + 1) / n


def timings(rec, scale):
    """Latencies, count of operations that passed and wall time of the
    timed phase of a child record; with ``scale``, each time in the host's
    nominal speed (see ``pace.py``)."""
    f = pace.factors(rec["ref_s"]) if scale else [1.0] * len(rec["op_s"])
    times = [t * k for t, k in zip(rec["op_s"], f)]
    # time outside the operations (making inputs) at the run's median scale
    wall = sum(times) + sum(rec["extra_s"]) * statistics.median(f)
    ok = [t for t, passed in zip(times, rec["op_ok"]) if passed]
    # a failed operation misses every latency limit: it counts as lasting
    # the whole timed phase
    return ok + [wall] * (len(times) - len(ok)), len(ok), wall


def end_to_end(rec, setup, scale=True):
    """The end-to-end metrics of one untraced child record, in the host's
    nominal speed (``scale``) or as measured."""
    latencies, ok, wall = timings(rec, scale)
    p90, q = tail_percentile(latencies, 0.9)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ok / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "ok_frac": (ok / rec["attempted"], "ratio"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }
    return metrics, {"samples": len(latencies), "p90_quantile_used": q}


PER_LAYER_UNITS = {"dim_mean": "count", "no_plateau_frac": "ratio",
                   "self_s": "s/op"}


def traced(rec, plain):
    """Per-layer metrics of a traced child record; times in the host's
    nominal speed, overhead against the untraced child ``plain``."""
    factor = pace.factor(rec["ref_s"])
    metrics = {}
    for name, value in rec["per_layer"].items():
        unit = PER_LAYER_UNITS.get(name.split(".")[1], "1/op")
        metrics[name] = (value * factor if unit == "s/op" else value, unit)
    overhead = timings(rec, True)[2] / timings(plain, True)[2] - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke size: a few seconds and one cold import")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        if not args.smoke:
            parser.error("--seconds is required unless --smoke is given")
        seconds = SMOKE_SECONDS[args.workload]
    if not seconds > 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + RUN_LIMIT_S
    sweeps = sweeps_for(args.workload, seconds)
    limit_s = min(SLOW_FACTOR * seconds, RUN_LIMIT_S / 3)
    try:
        if not (ROOT / "src" / "lagmesh" / "__init__.py").is_file():
            raise BenchError(f"no lagmesh sources under {ROOT / 'src'}")
        OUT.mkdir(exist_ok=True)
        stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": seconds, "trace": args.trace}
        if args.trace:
            half = max(1, sweeps // 2)
            plain = child(args.workload, args.seed, deadline, half, limit_s)
            rec = child(args.workload, args.seed, deadline, plain["sweeps"],
                        RUN_LIMIT_S, trace=1, spans=OUT / f"{stem}_spans.json")
            metrics = traced(rec, plain)
            record["absent_boundaries"] = rec["absent"]
            runs = (plain, rec)
        else:
            setup, setup_scaled = setup_times(1 if args.smoke else SETUP_IMPORTS,
                                              deadline)
            rec = child(args.workload, args.seed, deadline, sweeps, limit_s)
            metrics, detail = end_to_end(rec, setup_scaled)
            raw = end_to_end(rec, setup, scale=False)[0]
            record.update(detail, setup_samples_s=setup,
                          setup_scaled_s=setup_scaled,
                          measured={k: v for k, (v, _) in raw.items()})
            runs = (rec,)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    attempted = rec["attempted"]
    failed = attempted - sum(rec["op_ok"])
    record["provenance"] = dict(rec["provenance"], nproc=len(os.sched_getaffinity(0)),
                                commit=_git_commit(), seed=args.seed)
    record.update({k: rec[k] for k in ("op_s", "op_ok", "ref_s", "extra_s")})
    record.update(attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, failures=rec["failures"],
                  wrong=rec["wrong"], wall_s=rec["wall_s"],
                  sweeps=rec["sweeps"], cut=rec["cut"])
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"bench: {args.workload} seed={args.seed}: {attempted} ops, "
          f"{failed} failed (fail_frac {failed / attempted:.4f}) {rec['failures']}, "
          f"{rec['sweeps']} sweeps in {rec['wall_s']:.1f} s"
          + (" (cut short: the program is slow)" if rec["cut"] else ""),
          file=sys.stderr)
    if rec.get("absent"):
        print(f"bench: absent boundaries: {', '.join(rec['absent'])}", file=sys.stderr)
    measured = record.get("measured", {})
    for name, (value, unit) in metrics.items():
        also = f"  (measured {measured[name]:.6g})" if name in measured else ""
        print(f"  {name:28s} {value:14.6g} {unit}{also}", file=sys.stderr)
    wrong = sum(run["failures"].get("WrongResult", 0) for run in runs)
    result = {"correct": wrong == 0, "attempted": attempted,
              "failed": failed, "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
