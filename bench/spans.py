"""Span recorder for the traced benchmark run.

The recorder wraps public lagmesh functions at the module attribute where
another layer (or the benchmark's own workload code) looks them up, so the
package itself is never edited.  Each call becomes one span: name, layer,
start, end, parent span and operation id.  Spans stay in memory until the
run ends.  A layer's self time is the duration of its spans minus the time
their child spans cover; since every call is synchronous, children never
overlap, so that is the duration minus the sum of child durations.

A boundary whose module or attribute no longer exists (after a refactor
renames or removes it) is reported as absent instead of failing the run.
"""

import functools
import importlib
import time

import numpy as np


def _size(x):
    return int(np.size(x))


def _one(_):
    return 1


def _dim(H):
    return int(np.shape(getattr(H, "values", H))[0])


def _gammas(result):
    # gamma_scan returns (recommendation, per-gamma table)
    return len(result[1])


def _no_plateau(result):
    return int(bool(getattr(result[0], "no_plateau", False)))


# (module, attribute, layer, counters).  ``counters`` maps a counter name to
# ("arg", index, fn) for a count taken from the call's positional arguments,
# or ("result", fn) for one taken from the return value; every span also
# counts one call of its layer.  The same function is listed once per module
# that binds it, because ``from x import f`` copies the reference.
BOUNDARIES = (
    ("lagmesh.basis", "generate_rule", "quadrature", {}),
    ("lagmesh.matelem", "generate_rule", "quadrature", {}),
    ("lagmesh.basis", "reconstruct_wavefunction", "basis",
     {"points": ("arg", 2, _size)}),
    ("lagmesh.cli", "hamiltonian_3d", "matelem", {}),
    ("lagmesh.cli", "hamiltonian_2d", "matelem", {}),
    ("lagmesh.matelem", "hamiltonian_3d", "matelem", {}),
    ("lagmesh.matelem", "hamiltonian_2d", "matelem", {}),
    ("lagmesh.matelem", "evaluate_potential", "potentials",
     {"points": ("arg", 1, _size)}),
    ("lagmesh.scattering", "evaluate_potential", "potentials",
     {"points": ("arg", 1, _size)}),
    ("lagmesh.cli", "solve_bound_states", "solver",
     {"solves": ("arg", 0, _one), "dim_total": ("arg", 0, _dim)}),
    ("lagmesh.solver", "solve_bound_states", "solver",
     {"solves": ("arg", 0, _one), "dim_total": ("arg", 0, _dim)}),
    ("lagmesh.cli", "pseudostates", "solver", {}),
    ("lagmesh.solver", "pseudostates", "solver", {}),
    ("lagmesh.scattering", "coulomb_wave", "specfun",
     {"points": ("arg", 2, _size)}),
    ("lagmesh.scattering", "gamma_scan", "scattering",
     {"gammas": ("result", _gammas), "no_plateau": ("result", _no_plateau)}),
    ("lagmesh.cli", "run", "cli", {"runs": ("arg", 0, _one)}),
    ("lagmesh.cli", "render_json", "cli", {}),
)


class Tracer:
    """In-memory spans and per-layer counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, op, self_s, failed]
        self.counts = {}  # (layer, counter) -> total
        self.absent = []
        self.op = None
        self._stack = []
        self._undo = []

    def install(self, boundaries=BOUNDARIES):
        """Wrap every boundary that exists; record the ones that do not."""
        for module_name, attr, layer, counters in boundaries:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(fn, f"{module_name}.{attr}", layer, counters)
            setattr(module, attr, wrapper)
            self._undo.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _count(self, layer, name, value):
        key = (layer, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, name, layer, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            span = [name, layer, 0.0, 0.0, parent, self.op, 0.0, False]
            frame = [len(self.spans), 0.0]  # span index, time its children cover
            self.spans.append(span)
            self._stack.append(frame)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[7] = True
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                duration = span[3] - span[2]
                if self._stack:
                    self._stack[-1][1] += duration
                span[6] = duration - frame[1]
                self._count(layer, "calls", 1)
                self._count(layer, "failures", int(span[7]))
                self._count(layer, "self_s", span[6])
                for counter, (source, *rest) in counters.items():
                    if source == "arg" and len(args) > rest[0]:
                        self._count(layer, counter, rest[1](args[rest[0]]))
            for counter, (source, *rest) in counters.items():
                if source == "result":
                    self._count(layer, counter, rest[0](result))
            return result

        return traced

    def count(self, layer, name):
        return self.counts.get((layer, name), 0)

    def span_records(self):
        keys = ("name", "layer", "start", "end", "parent", "op", "self_s", "failed")
        return [dict(zip(keys, span)) for span in self.spans]
