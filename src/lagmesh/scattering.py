"""Scattering phase shifts from pseudostates.

A positive-energy eigenvector of the discretized Hamiltonian is square
integrable, so it cannot carry the oscillating tail of a true continuum
state.  Short-ranged integrals of its interior part against the regular
and (regularized) irregular Coulomb functions nevertheless determine
``tan(delta_l)`` through integral relations of the Kohn variational
type; only the region where ``V - Z/r`` is non-negligible contributes,
which is exactly where the pseudostate is reliable.

All integrals are evaluated with the Gauss rule of the mesh the
pseudostate was computed on; no auxiliary grid is involved.  At the mesh
points each basis function takes the value ``(h lam_i)**-0.5 delta_ij``,
so every integral collapses to a weighted dot product with the
coefficient vector.  The node factors that do not depend on gamma (the
Coulomb functions among them) are formed once per state, and
``_ratios`` evaluates the ratio on a whole gamma grid in one pass: one
call serves a single rate, a scan and its fallback alike.

Everything internal is in the scaled units of the Hamiltonian
(``hbar = M = 1``); the reported energy is converted back to problem
units with the potential's ``energy_unit``.  The asymptotic
normalization of the pseudostate never enters: the phase is a ratio of
integrals that are both linear in the wave function.
"""

import dataclasses
import math

import numpy as np

from .potentials import _finite, evaluate as evaluate_potential
from .specfun import _integer, coulomb_wave

__all__ = [
    "IndeterminatePhaseError",
    "PhaseShiftResult",
    "eckart_reference_delta0",
    "gamma_scan",
    "tan_delta",
]

_INDETERMINATE_RTOL = 1e-14
_PLATEAU_MEDIAN_FACTOR = 3.0
# the default scan grid: 16 log-spaced rates on [0.1, 10], read-only
_DEFAULT_GAMMAS = np.geomspace(0.1, 10.0, 16)
_DEFAULT_GAMMAS.flags.writeable = False


class IndeterminatePhaseError(ArithmeticError):
    """The integral relation determines no phase.

    Raised instead of guessing a phase when the denominator magnitude
    falls below 1e-14 of the numerator scale, or when the numerator or the
    denominator is not finite (at a rate so extreme that the regularizing
    factors over- or underflow).
    """


@dataclasses.dataclass(frozen=True)
class PhaseShiftResult:
    """Phase shift extracted from one pseudostate at one gamma.

    Attributes
    ----------
    energy : float
        Pseudostate energy in problem units.
    k : float
        Wave number ``sqrt(2 E)`` in scaled units.
    tan_delta : float
        Tangent of the phase shift.
    delta_deg : float
        Phase shift in degrees: the principal value ``atan(tan_delta)``
        in (-90, 90] plus ``180 * branch``.  A square-integrable state
        determines its phase only modulo 180 degrees (flipping the sign
        of the eigenvector flips both integrals), so the branch is a
        reporting convention chosen by ``window``.
    branch : int
        Multiple of 180 degrees separating ``delta_deg`` from the
        principal value; 1 exactly when the ``positive`` window lifted
        a negative principal value.
    gamma : float
        Regularization rate used (inverse length).
    sensitivity : float
        ``max |delta(gamma +- one step) - delta(gamma)|`` in degrees
        when produced by a scan; 0 for a single evaluation.
    no_plateau : bool
        True when a scan found no clear plateau and this result was
        evaluated at a caller-supplied fallback gamma.
    """

    energy: float
    k: float
    tan_delta: float
    delta_deg: float
    branch: int
    gamma: float
    sensitivity: float = 0.0
    no_plateau: bool = False


def _check_inputs(state, l, V, Z, mesh):
    _integer("l", l, nonnegative=True)
    if not (0.0 < state.energy < math.inf and 0.0 < state.k < math.inf):
        raise ValueError("pseudostate energy and k must be positive and finite")
    if not np.all(np.isfinite(state.coefficients)):
        raise ValueError("pseudostate coefficients must be finite")
    if not math.isfinite(Z):  # NaN would pass the tail test below
        raise ValueError(f"Z must be finite (got {Z!r})")
    if abs(Z - V.tail_Z) > 1e-12 * max(1.0, abs(Z)):
        raise ValueError(
            f"potential {V.label!r} has Coulomb tail {V.tail_Z!r}, not Z={Z!r}"
        )
    if np.shape(state.coefficients) != (mesh.N,):
        raise ValueError("coefficient vector length does not match the mesh")


def _interior_table(state, l, V, Z, mesh):
    """Gamma-independent node factors: weights, wave function, F, G, G'.

    Returns ``(r, wWu, wu, F, G, Gp)`` where ``r`` are the scaled nodes,
    ``wWu`` combines quadrature weight, short-range potential ``V - Z/r``
    and wave-function values, and ``wu`` omits the potential (for the
    compensating integral).  ``Gp`` is the derivative with respect to
    ``k r``.
    """
    r = mesh.h * mesh.nodes
    w = mesh.h * mesh.weights
    # u(h r_i) = c_i (h lam_i)^(-1/2): the Lagrange property makes the
    # reconstruction at the mesh points a rescaling of the coefficients.
    u = np.asarray(state.coefficients, dtype=float) / np.sqrt(w)
    pair = coulomb_wave(l, Z / state.k, state.k * r)
    W = evaluate_potential(V, r) - Z / r
    return r, w * W * u, w * u, pair.F, pair.G, pair.Gprime


# At an extreme rate g r over- or underflows and the terms below may come out
# infinite or NaN; _result raises on a numerator or denominator that is not
# finite.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _ratios(table, l, k, grid):
    """Numerator and the denominators of the tan(delta) ratio on a gamma grid.

    The numerator does not depend on gamma.  The regularizing factors are
    formed once as (gamma, node) arrays, and each denominator is the same
    pair of 1-D dot products at every grid size, so a value does not depend
    on the grid it was computed in.
    """
    r, wWu, wu, F, G, Gp = table
    g = np.asarray(grid, dtype=float)[:, None]
    reg = -np.expm1(-g * r)
    damp = np.exp(-g * r)
    num = -float(wWu @ F)
    # Compensating term for regularizing G in the denominator:
    # 1/2 Int u (1-e^-gr)^(l-1) (l+1) g e^-gr
    #         {g [1-(l+1)e^-gr] - 2 (1-e^-gr) d/dr} G(eta, kr) dr
    bracket = g * (1.0 - (l + 1) * damp) * G - 2.0 * reg * k * Gp
    plain = G * reg ** (l + 1)
    comp = damp * reg ** (l - 1) * bracket
    dens = [
        float(wWu @ plain[i]) + 0.5 * (l + 1) * g[i, 0] * float(wu @ comp[i])
        for i in range(g.shape[0])
    ]
    return num, dens


def _result(state, V, gamma, num, den, window):
    if not (math.isfinite(num) and math.isfinite(den)):
        raise IndeterminatePhaseError(
            f"indeterminate phase at gamma={gamma:g}: numerator {num:.3e} "
            f"or denominator {den:.3e} is not finite"
        )
    if den == 0.0 or abs(den) < _INDETERMINATE_RTOL * abs(num):
        raise IndeterminatePhaseError(
            f"indeterminate phase at gamma={gamma:g}: denominator {den:.3e} "
            f"is below 1e-14 of the numerator {num:.3e}"
        )
    tan_d = num / den
    delta = math.degrees(math.atan(tan_d))
    branch = 0
    if window == "positive":
        if delta < 0.0:
            delta += 180.0
            branch = 1
    elif window != "principal":
        raise ValueError(f"unknown window: {window!r}")
    return PhaseShiftResult(
        energy=state.energy * V.energy_unit,
        k=state.k,
        tan_delta=tan_d,
        delta_deg=delta,
        branch=branch,
        gamma=float(gamma),
    )


def tan_delta(state, l, V, Z, gamma, mesh, window="principal"):
    """Phase shift of one pseudostate from the integral relations.

    Parameters
    ----------
    state : Pseudostate
        Positive-energy state computed on ``mesh`` (scaled units).
    l : int
        Orbital angular momentum.
    V : PotentialSpec
        Full potential; its tail must match ``Z/r``.
    Z : float
        Coulomb-tail strength in scaled units (0 for neutral systems).
    gamma : float
        Regularization rate, ``gamma > 0``.
    mesh : MeshSpec
        Mesh the state was computed on; supplies the Gauss rule.
    window : {'principal', 'positive'}
        Representative of the (mod 180) phase to report: the principal
        interval (-90, 90], or [0, 180) as is customary for
        charged-particle phase curves.

    Returns
    -------
    PhaseShiftResult

    Raises
    ------
    ValueError
        Naming the out-of-domain parameter: l, Z (also one that does not
        match the tail), gamma, or the state's energy, k or coefficients.
    IndeterminatePhaseError
        If the denominator of the ratio vanishes.
    """
    _check_inputs(state, l, V, Z, mesh)
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    table = _interior_table(state, l, V, Z, mesh)
    num, (den,) = _ratios(table, l, state.k, [gamma])
    return _result(state, V, float(gamma), num, den, window)


def _fold_180(d):
    """Representative of ``d`` modulo 180 in [-90, 90)."""
    return (d + 90.0) % 180.0 - 90.0


def gamma_scan(state, l, V, Z, mesh, gammas=None, fallback_gamma=None, window="principal"):
    """Evaluate the phase over a gamma grid and locate the plateau.

    The recommended point minimizes the centered finite difference
    ``|d delta / d gamma|`` over the interior of the grid.  When that
    minimum is within a factor 3 of the median slope there is no clear
    plateau: the recommendation is flagged ``no_plateau`` and, if a
    ``fallback_gamma`` is supplied (e.g. the plateau of a neighboring
    pseudostate), it is evaluated there instead.

    Parameters
    ----------
    state, l, V, Z, mesh, window
        As in :func:`tan_delta`.
    gammas : array_like, optional
        Strictly increasing grid of at least 8 positive rates.  Default:
        16 log-spaced points on [0.1, 10].
    fallback_gamma : float, optional
        Positive, finite rate to fall back to when no plateau is found.

    Returns
    -------
    (PhaseShiftResult, tuple of PhaseShiftResult)
        The recommendation (with ``sensitivity`` filled in from its
        neighbors one grid step away) and the full per-gamma table in
        grid order.
    """
    _check_inputs(state, l, V, Z, mesh)
    grid = _DEFAULT_GAMMAS if gammas is None else np.asarray(gammas, dtype=float)
    if grid.ndim != 1 or grid.size < 8:
        raise ValueError("gamma grid too small: at least 8 points are required")
    if not np.all(np.isfinite(grid)) or grid[0] <= 0.0:
        raise ValueError("gamma grid must be positive and finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("gamma grid must be strictly increasing")
    if fallback_gamma is not None and not (
            fallback_gamma > 0.0 and math.isfinite(fallback_gamma)):
        raise ValueError(
            f"fallback gamma must be positive and finite, got {fallback_gamma!r}")

    table = _interior_table(state, l, V, Z, mesh)
    num, dens = _ratios(table, l, state.k, grid)
    results = [_result(state, V, g, num, den, window) for g, den in zip(grid, dens)]
    # Slopes on a branch-unwrapped copy so a 180-degree hop between
    # neighboring grid points is not mistaken for a huge derivative.
    deg = np.unwrap(np.array([res.delta_deg for res in results]), period=180.0)
    slopes = np.abs((deg[2:] - deg[:-2]) / (grid[2:] - grid[:-2]))
    ibest = 1 + int(np.argmin(slopes))
    median = float(np.median(slopes))
    no_plateau = median > 0.0 and slopes[ibest - 1] * _PLATEAU_MEDIAN_FACTOR >= median

    if no_plateau and fallback_gamma is not None:
        step = (grid[-1] / grid[0]) ** (1.0 / (grid.size - 1))
        near = (fallback_gamma / step, float(fallback_gamma), fallback_gamma * step)
        num, dens = _ratios(table, l, state.k, near)
        lo, rec, hi = (_result(state, V, g, num, den, window) for g, den in zip(near, dens))
        sens = max(
            abs(_fold_180(lo.delta_deg - rec.delta_deg)),
            abs(_fold_180(hi.delta_deg - rec.delta_deg)),
        )
        rec = dataclasses.replace(rec, sensitivity=float(sens), no_plateau=True)
    else:
        sens = max(abs(deg[ibest - 1] - deg[ibest]), abs(deg[ibest + 1] - deg[ibest]))
        rec = dataclasses.replace(
            results[ibest], sensitivity=float(sens), no_plateau=bool(no_plateau)
        )
    return rec, tuple(results)


def eckart_reference_delta0(E, b, c):
    """Analytic s-wave phase shift of the Eckart well, in degrees.

    ``delta_0 = atan[sqrt(2E) (b - c) / (2E + b c)]`` on the branch that
    tends to 0 as ``E -> 0+``; when ``2E + bc = 0`` the phase passes
    through +-90 degrees.  E must be positive and finite, b and c finite.
    """
    if not (E > 0.0 and math.isfinite(E)):
        raise ValueError(f"E must be positive and finite (got {E!r})")
    b, c = _finite("b", b), _finite("c", c)
    num = math.sqrt(2.0 * E) * (b - c)
    den = 2.0 * E + b * c
    if not (math.isfinite(num) and math.isfinite(den)):
        # the ratio is homogeneous of degree 0 in (sqrt(2E), b, c): scale
        # all three by the power of two that brings the largest near 1
        e = math.frexp(max(math.sqrt(E), abs(b), abs(c)))[1]
        k, b, c = math.sqrt(2.0 * math.ldexp(E, -2 * e)), math.ldexp(b, -e), math.ldexp(c, -e)
        num, den = k * (b - c), k * k + b * c
    if den == 0.0:
        return math.copysign(90.0, num)
    return math.degrees(math.atan(num / den))
