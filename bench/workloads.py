"""Inputs, operations and correctness checks of the benchmark workloads.

Every workload is a closed loop: one caller runs its next operation only
after the previous one has returned.  A workload is an endless generator of
sweeps made from the seed, each a list of operations in a seeded order.
Every sweep covers the same grid of schemes and sizes, with a seeded draw
inside each grid cell, and the run measures whole sweeps only; so each run
does the same mix of work whatever its seed or length, and its figures
vary with the program, not with which part of a sweep the clock cut off.

The benchmark calls lagmesh only through module attributes looked up at
call time (``matelem.hamiltonian_3d(...)``), so the traced run can wrap
them.  Caches are never warmed: every run starts in a fresh interpreter.

An operation returns nothing.  It raises ``WrongResult`` when the program
returned a value that fails its check against a known answer, and lets any
exception of the program propagate; both count as failed.
"""

import functools
import itertools
import json
import math

import numpy as np

from lagmesh import basis, cli, matelem, potentials, scattering, solver

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class WrongResult(Exception):
    """The program returned a value that fails the operation's check."""


def _cells(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal cells of ``[lo, hi)``."""
    width = (hi - lo) / count
    return [lo + (c + rng.random()) * width for c in range(count)]


def _sweep(rng, ops):
    rng.shuffle(ops)
    return ops


def _check_level(energy, exact, rtol, what):
    if not abs(energy - exact) <= rtol * abs(exact):
        raise WrongResult(f"{what}: E={energy!r}, exact {exact!r}, rtol {rtol:g}")


# 3D scheme -> (HamiltonianVariant name, mesh family, Laguerre parameter);
# the CLI's variant aliases name the same five schemes.
SCHEMES_3D = {
    "var": ("Var", "RegSqrt", 1.0),
    "reg-sqrt": ("RegSqrtMesh", "RegSqrt", 1.0),
    "reg-r": ("RegRMesh", "RegR", 0.0),
    "non-reg": ("NonReg", "NonReg", 2.0),
    "non-reg-vg": ("NonRegVG", "NonReg", 2.0),
}
SCHEMES_2D = {"var": "Var2D", "reg-sqrt": "RegSqrtMesh2D"}
SCHEMES = [(3, v) for v in SCHEMES_3D] + [(2, v) for v in SCHEMES_2D]


# ---------------------------------------------------------------------------
# h_scan: one CLI bound run per point, Coulomb l=1 (3D) and m=1 (2D), N=150

H_SCAN_N = 150
H_SCAN_RANGE = (0.3, 1.2)
H_SCAN_CELLS = 10  # h values per scheme and sweep
# Relative tolerance on the lowest level.  non-reg evaluates the l=1
# centrifugal term at the Gauss approximation and is about 1e-6 off here.
H_SCAN_RTOL = {(3, "non-reg"): 1e-5}
H_SCAN_RTOL_DEFAULT = 1e-9


def _h_point(coulomb, dim, variant, h):
    config = cli.ExperimentConfig(
        mode="bound", potential=coulomb, angular=1, dimension=dim,
        variant=variant, N=H_SCAN_N, h=h, format="json")
    rows = json.loads(cli.render_json(cli.run(config)))["rows"]
    # Var2D works on N-1 basis functions
    size = H_SCAN_N - 1 if (dim, variant) == (2, "var") else H_SCAN_N
    if len(rows) != size:
        raise WrongResult(f"{dim}D {variant} h={h!r}: {len(rows)} rows, want {size}")
    exact = -0.5 / 2.0**2 if dim == 3 else -0.5 / 1.5**2
    rtol = H_SCAN_RTOL.get((dim, variant), H_SCAN_RTOL_DEFAULT)
    _check_level(rows[0]["energy"], exact, rtol, f"{dim}D {variant} h={h!r}")


def h_scan(rng):
    coulomb = potentials.builtin("coulomb")
    while True:
        yield _sweep(rng, [
            functools.partial(_h_point, coulomb, dim, variant, h)
            for dim, variant in SCHEMES
            for h in _cells(rng, *H_SCAN_RANGE, H_SCAN_CELLS)])


# ---------------------------------------------------------------------------
# n_scan: assemble, solve, reconstruct; harmonic l=0 (3D) and m=1 (2D)

N_SCAN_H = 0.06
N_SCAN_RANGE = (20, 400)  # crosses the N >= ~380 region where rules fail
N_SCAN_CELLS = 10  # sizes per scheme and sweep
# Meshes with the same Laguerre parameter share quadrature rules, so the
# schemes of one group draw distinct sizes (Var2D's basis has N-1 functions
# with alpha=2).  Sizes repeat within a group only after a cell runs out,
# about 12 sweeps; a repeated size would hit the caches.
N_SCAN_RULE_GROUP = {(3, "var"): 1.0, (3, "reg-sqrt"): 1.0, (3, "reg-r"): 0.0,
                     (2, "reg-sqrt"): 0.0, (3, "non-reg"): 2.0,
                     (3, "non-reg-vg"): 2.0, (2, "var"): 2.0}
N_SCAN_GRID = np.linspace(0.006, 6.0, 1000)
N_SCAN_RTOL = 1e-8
# The N=20 mesh reaches only r ~ 4.5, which costs up to ~5e-6 here.
N_SCAN_WF_ATOL = 1e-4


def _ground_state(dim, r):
    """Analytic normalized ground state u(r) of the oscillator."""
    if dim == 3:  # l = 0
        return 2.0 * math.pi**-0.25 * r * np.exp(-0.5 * r * r)
    return math.sqrt(2.0) * r**1.5 * np.exp(-0.5 * r * r)  # 2D, m = 1


def _n_point(harmonic, dim, variant, N):
    if dim == 3:
        scheme, family, alpha = SCHEMES_3D[variant]
        mesh = basis.MeshSpec(N, alpha, family, N_SCAN_H)
        H, S = matelem.hamiltonian_3d(mesh, 0, harmonic, scheme)
        exact = 1.5
    else:
        mesh = basis.MeshSpec(N, 0.0, "RegSqrt", N_SCAN_H)
        H, S = matelem.hamiltonian_2d(mesh, 1, harmonic, SCHEMES_2D[variant])
        if variant == "var":  # Var2D: N-1 functions with alpha=2
            mesh = basis.MeshSpec(N - 1, 2.0, "RegSqrt", N_SCAN_H)
        exact = 2.0
    spectrum = solver.solve_bound_states(H, S)
    what = f"{dim}D {variant} N={N}"
    _check_level(float(spectrum.energies[0]), exact, N_SCAN_RTOL, what)
    u = basis.reconstruct_wavefunction(mesh, spectrum.coefficients[:, 0], N_SCAN_GRID)
    u = u * math.copysign(1.0, u[np.argmax(np.abs(u))])
    err = float(np.max(np.abs(u - _ground_state(dim, N_SCAN_GRID))))
    if not err <= N_SCAN_WF_ATOL:
        raise WrongResult(f"{what}: wave function off by {err:.3e}")


def _cell_sizes(rng, cell):
    """Endless sizes of one grid cell, each once before any repeats.

    Size ``k`` of the cell is due at ``frac(offset + k * phi)``; the sizes
    due first are spread evenly over the cell (the three-gap theorem), so
    every run draws close to the same share of sizes in the failing region.
    """
    lo, hi = N_SCAN_RANGE
    width = (hi - lo) // N_SCAN_CELLS
    offset = rng.random()
    due = sorted(range(width), key=lambda k: (offset + k * _PHI) % 1.0)
    while True:
        yield from (lo + cell * width + k for k in due)


def n_scan(rng):
    harmonic = potentials.builtin("harmonic")
    pools = {}
    while True:
        ops = []
        for dim, variant in SCHEMES:
            group = N_SCAN_RULE_GROUP[dim, variant]
            for cell in range(N_SCAN_CELLS):
                if (group, cell) not in pools:
                    pools[group, cell] = _cell_sizes(rng, cell)
                size = next(pools[group, cell])
                N = size + 1 if (dim, variant) == (2, "var") else size
                ops.append(functools.partial(_n_point, harmonic, dim, variant, N))
        yield _sweep(rng, ops)


# ---------------------------------------------------------------------------
# phase_scan: gamma_scan of every pseudostate on N=30 meshes

PHASE_N = 30
PHASE_H_JITTER = 0.05  # relative, uniform
_REG_MESHES = {"RegSqrt": ("RegSqrtMesh", 1.0), "RegR": ("RegRMesh", 0.0)}
# (potential, parameters, l values, meshes, nominal h, reporting window)
PHASE_SYSTEMS = (
    ("buck_alpha_alpha", {}, (0, 2, 4), ("RegSqrt", "RegR"), 0.23, "positive"),
    ("eckart", {}, (0, 1, 2), ("RegSqrt", "RegR"), 0.1, "principal"),
    ("coulomb", {"Z": -1.0}, (0, 4, 8, 10), ("RegSqrt",), 1.1, "principal"),
)
# The advertised domain of the Coulomb functions.  A state that lands just
# above zero energy has a larger |eta|, which the program rightly rejects, so
# such a state is not an input.
PHASE_MAX_ETA = 50.0
# Eckart s-wave phases match the analytic value to ~1e-4 degrees below this
# scaled energy; above it the N=30 mesh no longer resolves the state and is
# off by up to ~3 degrees.
ECKART_RESOLVED_E = 40.0
ECKART_TOL_DEG = 1e-3
ECKART_UNRESOLVED_TOL_DEG = 5.0


def _fold_180(d):
    return (d + 90.0) % 180.0 - 90.0


def _check_phase(name, l, state, rec):
    what = f"{name} l={l} E={state.energy!r}"
    delta = rec.delta_deg
    if not (math.isfinite(delta) and math.isfinite(rec.tan_delta)):
        raise WrongResult(f"{what}: phase {delta!r} is not finite")
    if name == "buck_alpha_alpha":
        ok = 0.0 <= delta < 180.0
    elif name == "coulomb":  # pure Coulomb: the short-range integral is 0
        ok = rec.tan_delta == 0.0
    elif l == 0:
        ref = scattering.eckart_reference_delta0(state.energy, 2.0, -1.0)
        tol = (ECKART_TOL_DEG if state.energy < ECKART_RESOLVED_E
               else ECKART_UNRESOLVED_TOL_DEG)
        ok = abs(_fold_180(delta - ref)) <= tol
    else:
        ok = -90.0 < delta <= 90.0
    if not ok:
        raise WrongResult(f"{what}: phase {delta!r} deg fails its check")


def _phase_point(name, V, l, mesh, state, window):
    rec, _ = scattering.gamma_scan(state, l, V, V.tail_Z, mesh, window=window)
    _check_phase(name, l, state, rec)


def phase_scan(rng):
    while True:
        ops = []
        for name, params, ls, families, h0, window in PHASE_SYSTEMS:
            V = potentials.builtin(name, **params)
            for l, family in itertools.product(ls, families):
                scheme, alpha = _REG_MESHES[family]
                h = h0 * (1.0 + PHASE_H_JITTER * (2.0 * rng.random() - 1.0))
                mesh = basis.MeshSpec(PHASE_N, alpha, family, h)
                H, S = matelem.hamiltonian_3d(mesh, l, V, scheme)
                states = solver.pseudostates(solver.solve_bound_states(H, S))
                ops += [functools.partial(_phase_point, name, V, l, mesh, st, window)
                        for st in states if abs(V.tail_Z) <= PHASE_MAX_ETA * st.k]
        yield _sweep(rng, ops)


WORKLOADS = {"h_scan": h_scan, "n_scan": n_scan, "phase_scan": phase_scan}
