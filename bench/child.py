"""One workload run in a fresh interpreter; prints a JSON record.

``run.py`` starts this file with BLAS and OpenMP pinned to one thread and
``PYTHONPATH`` set to the checkout's ``src``.  It runs the workload's closed
loop for ``--sweeps`` whole sweeps, so that a seed always gives the same
operations (and the same failures), and prints one JSON object as its last
line of standard output: the wall time and outcome of every operation,
failures tallied by exception type, the timed-phase wall time, peak RSS over the first sweeps, library
provenance and, with ``--trace 1``, the per-layer counters of the traced
run.  After every operation it times the host-speed reference kernel of
``pace.py`` once; the timed phase's wall time leaves the kernels out.
"""

import argparse
import collections
import json
import platform
import random
import resource
import sys
import time

import numpy as np
import scipy

import pace
from spans import Tracer
from workloads import WORKLOADS, WrongResult

_WRONG_KEPT = 5  # messages of wrong results kept for the record
# Peak RSS is read after this many sweeps, so that it measures a fixed
# amount of work: today's caches are unbounded and grow with every sweep.
RSS_SWEEPS = 2


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def provenance():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas()}


def per_layer(tracer, ops):
    """Per-operation counts and self times of each layer."""
    c = tracer.count
    scans = c("scattering", "calls") - c("scattering", "failures")
    solves = c("solver", "solves")
    values = {
        "quadrature.rules_built": c("quadrature", "calls"),
        "quadrature.self_s": c("quadrature", "self_s"),
        "matelem.assemblies": c("matelem", "calls"),
        "matelem.self_s": c("matelem", "self_s"),
        "basis.points": c("basis", "points"),
        "basis.self_s": c("basis", "self_s"),
        "solver.solves": solves,
        "solver.self_s": c("solver", "self_s"),
        "potentials.points": c("potentials", "points"),
        "potentials.self_s": c("potentials", "self_s"),
        "specfun.calls": c("specfun", "calls"),
        "specfun.points": c("specfun", "points"),
        "specfun.failures": c("specfun", "failures"),
        "specfun.self_s": c("specfun", "self_s"),
        "scattering.gammas": c("scattering", "gammas"),
        "scattering.self_s": c("scattering", "self_s"),
        "cli.runs": c("cli", "runs"),
        "cli.self_s": c("cli", "self_s"),
    }
    out = {name: value / ops for name, value in values.items()}
    out["solver.dim_mean"] = c("solver", "dim_total") / solves if solves else 0.0
    out["scattering.no_plateau_frac"] = (
        c("scattering", "no_plateau") / scans if scans else 0.0)
    return out


def run(workload, seed, sweeps, limit_s, tracer):
    """``sweeps`` whole sweeps, or fewer if ``limit_s`` seconds run out.

    The limit only keeps a much slower program inside the run's time
    budget; a run that hits it says so with ``cut``.
    """
    workload_sweeps = WORKLOADS[workload](random.Random(seed))
    op_s = []  # wall time of every operation attempted
    op_ok = []
    ref_s = []  # the reference kernel's time after each operation
    extra_s = []  # time of each sweep outside operations and kernels
    failures = collections.Counter()
    wrong = []
    attempted = done = 0
    start = time.perf_counter()
    while done < sweeps and time.perf_counter() - start < limit_s:
        tracer.op = None  # work done while making inputs belongs to no operation
        t_sweep = time.perf_counter()
        first = attempted
        for op in next(workload_sweeps):
            tracer.op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                op()
                ok = True
            except WrongResult as e:
                ok = False
                failures["WrongResult"] += 1
                if len(wrong) < _WRONG_KEPT:
                    wrong.append(str(e))
            except Exception as e:  # every failure of the program is tallied
                ok = False
                failures[type(e).__name__] += 1
            op_s.append(time.perf_counter() - t0)
            op_ok.append(ok)
            ref_s.append(pace.time_kernel())
        swept = time.perf_counter() - t_sweep
        extra_s.append(swept - sum(op_s[first:]) - sum(ref_s[first:]))
        done += 1
        if done <= RSS_SWEEPS:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sweeps": done,
        "cut": done < sweeps,
        "attempted": attempted,
        "op_s": op_s,
        "op_ok": op_ok,
        "ref_s": ref_s,
        "extra_s": extra_s,
        "failures": dict(failures),
        "wrong": wrong,
        "wall_s": sum(op_s) + sum(extra_s),
        "peak_rss_mb": peak_rss / 1024.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweeps", type=int, required=True)
    parser.add_argument("--limit-s", type=float, required=True,
                        help="start no sweep after this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write spans here")
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    record = run(args.workload, args.seed, args.sweeps, args.limit_s, tracer)
    tracer.uninstall()
    record["provenance"] = provenance()
    if args.trace:
        record["per_layer"] = per_layer(tracer, max(record["attempted"], 1))
        record["absent"] = tracer.absent
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump({"absent": tracer.absent,
                           "spans": tracer.span_records()}, f)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
