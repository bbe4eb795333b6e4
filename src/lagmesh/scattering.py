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
coefficient vector.  The node factors of a mesh and potential are cached
for all its states; a state forms its Coulomb functions once, and the
ratio, its checks and the plateau search on a whole gamma grid are a few
array operations.  One call serves a single rate and a scan alike, with
the same bits.

Everything here is in the scaled units of the Hamiltonian
(``hbar = M = 1``).  A result holds phases only; a report converts the
state's own energy to problem units.  The asymptotic normalization of
the pseudostate never enters: the phase is a ratio of integrals that are
both linear in the wave function.
"""

import dataclasses
import functools
import math

import numpy as np

from .basis import _CACHE_SIZE
from .potentials import _finite, evaluate as evaluate_potential
from .specfun import _integer, _real, _reals, coulomb_wave

__all__ = [
    "IndeterminatePhaseError",
    "PhaseShiftResult",
    "eckart_reference_delta0",
    "gamma_scan",
    "tan_delta",
]

_INDETERMINATE_RTOL = 1e-14
_PLATEAU_MEDIAN_FACTOR = 3.0
_PLATEAU_TIE = 1e-10  # degrees of phase change across a point's two neighbors
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
    tan_delta : float
        Tangent of the phase shift.
    delta_deg : float
        Phase shift in degrees: the principal value ``atan(tan_delta)``
        in (-90, 90] plus ``180 * branch``.  A square-integrable state
        determines its phase only modulo 180 degrees (flipping the sign
        of the eigenvector flips both integrals), so the branch is a
        reporting convention: the window of the phase.
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
        True when a scan found no clear plateau: its least slope is within a
        factor 3 of the median slope.
    """

    tan_delta: float
    delta_deg: float
    branch: int
    gamma: float
    sensitivity: float = 0.0
    no_plateau: bool = False


def _short_range(V):
    """ValueError naming ``V`` unless ``V - Z/r`` vanishes faster than 1/r,
    as a continuum at k = sqrt(2E) needs: the undamped terms ``c r**p`` of
    one power p > -1, their c summed, must cancel."""
    undamped = [(p, c) for c, p, a, b in V.terms if a == b == 0.0 and p > -1.0]
    for p, _ in undamped:
        c = sum(c for q, c in undamped if q == p)
        if c != 0.0:
            raise ValueError(f"potential {V.label!r} is not short-range: its term "
                             f"{c:g} r**{p:g} does not vanish faster than 1/r")


def _window(V):
    """The window of V's phases: "positive", [0, 180), for a Coulomb tail, else "principal"."""
    return "positive" if V.tail_Z != 0.0 else "principal"


def _check_inputs(state, l, V, mesh):
    _integer("l", l, nonnegative=True)
    energy = _real("pseudostate energy and k", state.energy)
    if not (0.0 < energy < math.inf and 0.0 < state.k < math.inf):
        raise ValueError("pseudostate energy and k must be positive and finite")
    if not np.all(np.isfinite(state.coefficients)):
        raise ValueError("pseudostate coefficients must be finite")
    _short_range(V)
    if np.shape(state.coefficients) != (mesh.N,):
        raise ValueError("coefficient vector length does not match the mesh")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _node_factors(mesh, V):
    """``r``, ``w``, ``sqrt(w)`` and ``w (V(r) - V.tail_Z/r)`` at the nodes, read-only."""
    r = mesh.h * mesh.nodes
    w = mesh.h * mesh.weights
    factors = r, w, np.sqrt(w), w * (evaluate_potential(V, r) - V.tail_Z / r)
    for a in factors:
        a.flags.writeable = False
    return factors


def _interior_table(state, l, V, mesh):
    """Gamma-independent node factors: weights, wave function, F, G, G'.

    Returns ``(r, wWu, wu, F, G, Gp)`` where ``r`` are the scaled nodes,
    ``wWu`` combines quadrature weight, short-range potential ``V - Z/r``
    and wave-function values, and ``wu`` omits the potential (for the
    compensating integral).  ``Gp`` is the derivative with respect to
    ``k r``.
    """
    r, w, sqrt_w, wW = _node_factors(mesh, V)
    # u(h r_i) = c_i (h lam_i)^(-1/2): the Lagrange property makes the
    # reconstruction at the mesh points a rescaling of the coefficients.
    u = np.asarray(state.coefficients, dtype=float) / sqrt_w
    F, _, G, Gp = coulomb_wave(l, V.tail_Z / state.k, state.k * r)
    return r, wW * u, w * u, F, G, Gp


# At an extreme rate g r over- or underflows and the terms below may come out
# infinite or NaN; _phases raises on a numerator or denominator that is not
# finite.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _ratios(table, l, k, grid):
    """Numerator and the denominators of the tan(delta) ratio on a gamma grid.

    The numerator does not depend on gamma.  The regularizing factors are
    formed once as (gamma, node) arrays, and each denominator is the same
    pair of per-row dot products at every grid size, so a value does not
    depend on the grid it was computed in.
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
    # the term is 0 where e^-gr underflows, whatever g times G does there
    comp = np.where(damp == 0.0, 0.0, damp * reg ** (l - 1) * bracket)
    # a stacked (1, n) @ (n, 1) product is one ddot per row, the same sum as
    # a 1-D ``v @ M[i]``; ``M @ v`` and einsum may sum in another order
    c = np.matmul(comp[:, None, :], wu[:, None])[:, 0, 0]
    dens = np.matmul(plain[:, None, :], wWu[:, None])[:, 0, 0]
    dens += np.where(c != 0.0, 0.5 * (l + 1) * g[:, 0] * c, 0.0)
    return num, dens.tolist()


def _phases(grid, num, dens, window):
    """tan(delta), delta in degrees and the branch at each rate of ``grid``, as
    arrays; raises IndeterminatePhaseError at the first rate, in grid order,
    whose ratio determines no phase."""
    dens = np.asarray(dens)
    # one test of the whole grid; the loop runs only to name the failure
    if not (math.isfinite(num) and (np.isfinite(dens) & (dens != 0.0)
                                    & (abs(dens) >= _INDETERMINATE_RTOL * abs(num))).all()):
        for gamma, den in zip(grid, dens):
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
    tan = num / dens + 0.0  # a zero ratio is +0, whatever the signs
    # math.atan per element: np.arctan can differ from it in the last bit
    delta = np.array([math.degrees(math.atan(t)) for t in tan.tolist()])
    branch = (delta < 0.0) & (window == "positive")
    return tan, np.where(branch, delta + 180.0, delta), branch.astype(int)


def tan_delta(state, l, V, gamma, mesh):
    """Phase shift of one pseudostate from the integral relations.

    Parameters
    ----------
    state : Pseudostate
        Positive-energy state computed on ``mesh`` (scaled units).
    l : int
        Orbital angular momentum.
    V : PotentialSpec
        Full potential.  Its Coulomb tail ``Z/r`` (``V.tail_Z``) picks the
        Coulomb functions and the window of the phase: [0, 180) for a
        charged system, as charged-particle phase curves are drawn, else
        the principal interval (-90, 90].
    gamma : float
        Regularization rate, ``gamma > 0``.
    mesh : MeshSpec
        Mesh the state was computed on; supplies the Gauss rule.

    Returns
    -------
    PhaseShiftResult

    Raises
    ------
    ValueError
        Naming the out-of-domain parameter: l, V (when ``V - Z/r`` is not
        short-range), gamma, or the state's energy, k or coefficients.
        Every argument is checked before any Coulomb function is evaluated.
    IndeterminatePhaseError
        If the denominator of the ratio vanishes.
    """
    _check_inputs(state, l, V, mesh)
    gamma = _rate(gamma)
    table = _interior_table(state, l, V, mesh)
    (tan,), (delta,), (branch,) = _phases([gamma], *_ratios(table, l, state.k, [gamma]),
                                          _window(V))
    return PhaseShiftResult(float(tan), float(delta), int(branch), gamma)


def _rate(value):
    """``value`` as a float, if a positive, finite rate gamma (``tan_delta``)."""
    if not 0.0 < (gamma := _real("gamma", value)) < math.inf:
        raise ValueError(f"gamma must be positive and finite (got {gamma!r})")
    return gamma


def _unwrap_180(p):
    """``np.unwrap(p, period=180.0)`` of a list, in numpy's order of operations."""
    up, shift = p[:1], 0.0
    for a, b in zip(p, p[1:]):
        dd = b - a
        if not abs(dd) < 90.0:
            fold = (dd + 90.0) % 180.0 - 90.0  # dd modulo 180 in [-90, 90)
            # a jump of exactly +90 keeps its sign
            shift += (90.0 if fold == -90.0 and dd > 0.0 else fold) - dd
        up.append(b + shift)
    return up


def _median(xs):
    """``np.median`` of a list, in numpy's order of operations."""
    s, h = sorted(xs), len(xs) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2.0


def _plateau(grid, scan, at=None):
    """The plateau rule of a scan: ``(i, sens, no_plateau)``.

    ``i`` is the first interior grid point whose centered slope exceeds the
    least one by at most ``_PLATEAU_TIE / (g[i+1] - g[i-1])``, so that slopes
    tied at rounding noise pick the same point whatever their last bits.
    ``sens`` is the larger phase change to a neighbor from the interior point
    ``at`` (default ``i``).  ``no_plateau`` is true when the least slope is
    within a factor 3 of the median.  All are read on a 180-unwrapped copy
    of the scan, as Python floats (cheaper than arrays on a grid this short).
    """
    g, deg = grid.tolist(), _unwrap_180(scan.tolist())
    slopes = [abs((deg[j + 2] - deg[j]) / (g[j + 2] - g[j])) for j in range(len(g) - 2)]
    least = min(slopes)
    i = next(j for j, s in enumerate(slopes, 1)
             if s - least <= _PLATEAU_TIE / (g[j + 1] - g[j - 1]))
    j = i if at is None else at
    sens = max(abs(deg[j - 1] - deg[j]), abs(deg[j + 1] - deg[j]))
    return i, sens, 0.0 < _median(slopes) <= least * _PLATEAU_MEDIAN_FACTOR


def _gamma_grid(gammas):
    """``gammas`` as a float array, or a ValueError naming the rule of a scan
    grid it breaks: at least 8 rates, positive and finite, strictly increasing."""
    grid = _reals("gamma grid", gammas)
    if grid.ndim != 1 or grid.size < 8:
        raise ValueError("gamma grid too small: at least 8 points are required")
    if not np.all(np.isfinite(grid)) or grid[0] <= 0.0:
        raise ValueError("gamma grid must be positive and finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("gamma grid must be strictly increasing")
    return grid


def gamma_scan(state, l, V, Z, mesh, gammas=None, window=None):
    """Evaluate the phase over a gamma grid and locate the plateau.

    The recommended point is the interior grid point of least centered slope
    ``|d delta / d gamma|`` (the first within 1e-10 degrees of phase change of
    it, where slopes tie at rounding noise).  When that slope is within a
    factor 3 of the median slope there is no clear plateau, and the
    recommendation is flagged ``no_plateau``; a caller with a better rate of
    the grid at hand (table 4 borrows a neighboring pseudostate's plateau)
    reads the phase there from the scan.

    Parameters
    ----------
    state, l, V, mesh
        As in :func:`tan_delta`.
    Z : float
        ``V.tail_Z``, to 1e-12.
    gammas : array_like, optional
        Strictly increasing grid of at least 8 positive rates.  Default:
        16 log-spaced points on [0.1, 10].
    window : {'principal', 'positive'}, optional
        (-90, 90] or [0, 180).  Default: the window of :func:`tan_delta`.

    Returns
    -------
    (PhaseShiftResult, ndarray)
        The recommendation (with ``sensitivity`` filled in from its
        neighbors one grid step away) and ``delta_deg`` at every rate of
        the grid, in grid order and in ``window``.
    """
    _check_inputs(state, l, V, mesh)
    if not math.isfinite(_real("Z", Z)):  # NaN would pass the tail test below
        raise ValueError(f"Z must be finite (got {Z!r})")
    if abs(Z - V.tail_Z) > 1e-12 * max(1.0, abs(Z)):
        raise ValueError(f"potential {V.label!r} has Coulomb tail {V.tail_Z!r}, not Z={Z!r}")
    window = _window(V) if window is None else window
    if window not in ("principal", "positive"):
        raise ValueError(f"unknown window: {window!r}")
    # the default grid is read-only, and valid
    grid = _DEFAULT_GAMMAS if gammas is None else _gamma_grid(gammas)

    table = _interior_table(state, l, V, mesh)
    tan, scan, branch = _phases(grid, *_ratios(table, l, state.k, grid), window)
    i, sens, no_plateau = _plateau(grid, scan)
    return PhaseShiftResult(float(tan[i]), float(scan[i]), int(branch[i]), float(grid[i]),
                            sens, no_plateau), scan


def eckart_reference_delta0(E, b, c):
    """Analytic s-wave phase shift of the Eckart well, in degrees.

    ``delta_0 = atan[sqrt(2E) (b - c) / (2E + b c)]`` on the branch that
    tends to 0 as ``E -> 0+``; when ``2E + bc = 0`` the phase passes
    through +-90 degrees.  E must be positive and finite, b and c finite.
    """
    if not 0.0 < _real("E", E) < math.inf:
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
