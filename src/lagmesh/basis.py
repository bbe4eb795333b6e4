"""The three Lagrange-Laguerre basis families and their evaluation.

Each family multiplies the cardinal combination ``L_N^{(alpha)}(x)/(x-x_j)``
by a power of ``x`` and the half-weight ``exp(-x/2)``:

* ``NonReg``  : power ``alpha/2``     (plain Lagrange-Laguerre functions)
* ``RegSqrt`` : power ``(alpha+1)/2`` (regularized by ``sqrt(r/r_j)``)
* ``RegR``    : power ``alpha/2 + 1`` (regularized by ``r/r_j``)

All evaluation goes through the exponentially weighted recurrence, so no
intermediate ever carries ``exp(+x)``.  Near a mesh point the removable
singularity of the cardinal ratio is evaluated from the Taylor expansion of
``L_N`` about the node, batched over every near (node, point) pair of a
call; the pairs are found by binary search on the sorted nodes, and
elsewhere the ratio is formed directly.  A wave function needs no basis
matrix: all its basis functions share the factor ``x**p B_N(x)``, so it is
that factor times one matrix-vector product with the poles ``1/(x - r_j)``.

``MeshSpec.nodes`` and ``MeshSpec.weights`` are the arrays of the
``(nodes, weights)`` Gauss rule for ``(N, alpha)``.  The rule is cached and
shared between meshes, so both arrays are read-only.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from .quadrature import generate_rule
from .specfun import _integer, _weighted_laguerre_pair

__all__ = [
    "Family",
    "MeshSpec",
    "reconstruct_wavefunction",
]

# Switch to the Taylor expansion of the cardinal ratio inside this window.
# The direct form divides B_N, near its zero and so carrying a relatively
# large rounding error, by (x - r_j), so its error grows like eps/window;
# the expansion (exact for polynomials) stays short inside 1e-2.
_NEAR_NODE_FRACTION = 1e-2
_MAX_TAYLOR_TERMS = 60
# Entries per cache of rules, node derivatives and operator matrices.  All
# seven schemes at one N need about a dozen dense operator matrices; a
# matrix is 8 MB at N = 1000.
_CACHE_SIZE = 16


class Family(enum.Enum):
    """Regularization family of a Lagrange-Laguerre basis."""

    NonReg = "NonReg"
    RegSqrt = "RegSqrt"
    RegR = "RegR"


def _alpha(value):
    """``value`` as a float, if a finite, nonnegative Laguerre parameter."""
    alpha = float(value)
    if not (alpha >= 0.0) or not math.isfinite(alpha):
        raise ValueError("alpha must be finite and nonnegative")
    return alpha


@dataclasses.dataclass(frozen=True)
class MeshSpec:
    """A scaled Lagrange-Laguerre mesh.

    Attributes
    ----------
    N : int
        Number of mesh points (and basis functions).
    alpha : float
        Laguerre parameter, ``alpha >= 0``.
    family : Family
        Regularization family.
    h : float
        Scaling factor; physical radii are ``h`` times the mesh points.
    """

    N: int
    alpha: float
    family: Family
    h: float

    def __post_init__(self):
        object.__setattr__(self, "N", _integer("N", self.N))
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        object.__setattr__(self, "alpha", _alpha(self.alpha))
        if isinstance(self.family, str):
            object.__setattr__(self, "family", Family[self.family])
        if not isinstance(self.family, Family):
            raise ValueError(f"unknown family: {self.family!r}")
        object.__setattr__(self, "h", float(self.h))
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise ValueError("h must be positive and finite")

    @property
    def nodes(self):
        """Unscaled mesh points (zeros of ``L_N^{(alpha)}``), read-only."""
        return _cached_rule(self.N, self.alpha)[0]

    @property
    def weights(self):
        """Modified quadrature weights of the associated rule, read-only."""
        return _cached_rule(self.N, self.alpha)[1]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_rule(N, alpha):
    return generate_rule(N, alpha)


def _normalization(N, alpha):
    """Normalization coefficient ``Gamma(N+alpha+1)/N!`` of ``L_N^{(alpha)}``."""
    # alpha = n + f: an exact product for the integer part n, times a gamma
    # ratio that is exactly 1 when f = 0
    n = math.floor(alpha)
    f = alpha - n
    ratio = math.exp(math.lgamma(N + 1.0 + f) - math.lgamma(N + 1.0))
    return ratio * math.prod(N + f + k for k in range(1, n + 1))


def _family_power(family, alpha):
    """Leading power of ``x`` multiplying the cardinal ratio."""
    if family is Family.NonReg:
        return 0.5 * alpha
    if family is Family.RegSqrt:
        return 0.5 * (alpha + 1.0)
    return 0.5 * alpha + 1.0


def _prefactors(mesh):
    """Per-function constants: sign, node power, and normalization."""
    nodes = mesh.nodes
    j = np.arange(1, mesh.N + 1)
    rho = {Family.NonReg: 0.5, Family.RegSqrt: 0.0, Family.RegR: -0.5}[mesh.family]
    sign = np.where(j % 2 == 1, -1.0, 1.0)
    return sign * nodes**rho / math.sqrt(_normalization(mesh.N, mesh.alpha))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _node_taylor(N, alpha):
    """Read-only ``T_1 = L_N' exp(-r/2) = (N+1) B_{N+1}/r`` at every node."""
    r = _cached_rule(N, alpha)[0]
    t1 = (N + 1.0) * _weighted_laguerre_pair(N + 1, alpha, r)[1] / r
    t1.setflags(write=False)
    return t1


def _taylor_psi(N, alpha, rj, t1, s):
    """Weighted cardinal ratio near a node, for many pairs.

    Sums ``L_N(x)/(x-r_j) * exp(-x/2) = exp(-s/2) sum_m T_m s^(m-1)/m!`` in
    powers of ``s = x - r_j``, where ``T_m = L_N^(m)(r_j) exp(-r_j/2)``
    follows from ``T_1`` by the three-term recurrence of the differentiated
    Laguerre equation.  ``rj``, ``t1`` and ``s`` have one entry per (node,
    point) pair; the recurrence runs on all pairs at once, and a pair leaves
    the live set once its terms fall below 1e-17 of its largest.
    """
    out = t1.copy()  # the s = 0 limits
    live = np.nonzero(s != 0.0)[0]
    rj, s, t_prev = rj[live], s[live], t1[live]
    t_prev2 = np.zeros_like(s)
    p = t_prev.copy()  # m = 1 term: T_1 s^0 / 1!
    top = np.abs(t_prev)
    s_pow = np.ones_like(s)  # s^(m-2) for the current m
    inv_fact = 1.0
    for m in range(2, _MAX_TAYLOR_TERMS):
        if live.size == 0:
            break
        t_m = ((rj - alpha - 1.0 - (m - 2)) * t_prev - (N - (m - 2)) * t_prev2) / rj
        inv_fact /= m
        d = t_m * inv_fact * s_pow * s
        p += d
        ad = np.abs(d)
        top = np.maximum(top, ad)
        if m > 6:
            keep = ad > 1e-17 * top
            if not keep.all():
                out[live[~keep]] = np.exp(-0.5 * s[~keep]) * p[~keep]
                live, rj, s, t_m, t_prev, s_pow, p, top = (
                    a[keep] for a in (live, rj, s, t_m, t_prev, s_pow, p, top))
        s_pow *= s
        t_prev2, t_prev = t_prev, t_m
    out[live] = np.exp(-0.5 * s) * p
    return out


def _near_pairs(nodes, x):
    """Every (node, point) pair inside the near-node window, as index arrays
    ``(j, i)`` and the offsets ``s = x_i - r_j``.

    A pair is near when ``|x_i - r_j| < f (1 + r_j)``, f being
    ``_NEAR_NODE_FRACTION``.  Such an ``r_j`` lies within ``f (1 + x_i) /
    (1 - f)`` of ``x_i``, so a binary search of the sorted nodes over twice
    that width finds every candidate, and the test itself decides.
    """
    width = 2.0 * _NEAR_NODE_FRACTION * (1.0 + x)
    lo = np.searchsorted(nodes, x - width)
    count = np.searchsorted(nodes, x + width, side="right") - lo
    i = np.repeat(np.arange(x.size), count)
    j = np.arange(i.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    s = x[i] - nodes[j]
    near = np.abs(s) < _NEAR_NODE_FRACTION * (1.0 + nodes[j])
    return j[near], i[near], s[near]


def _near_taylor(N, alpha, nodes, j, s):
    """``_taylor_psi`` on the near pairs ``(j, s)`` of ``_near_pairs``."""
    return _taylor_psi(N, alpha, nodes[j], _node_taylor(N, alpha)[j], s)


def reconstruct_wavefunction(mesh, coeffs, r):
    """Radial function ``u(r) = sum_j c_j`` times the scaled basis functions.

    At a scaled mesh point ``h r_i`` this returns ``c_i (h lambda_i)^{-1/2}``.
    With ``x = r/h``, ``u`` is ``x**p B_N(x) sum_j c_j pref_j / (x - r_j)``
    over ``sqrt(h)``: one matrix-vector product with the poles, and no
    N x len(r) basis matrix.  A near-node pair takes its term from the Taylor
    expansion of the cardinal ratio instead of its pole.

    Parameters
    ----------
    mesh : MeshSpec
    coeffs : array_like
        Expansion coefficients, length ``N``.
    r : float or array_like
        Finite radii, ``r >= 0``; the result is finite at every one.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (mesh.N,):
        raise ValueError(f"coeffs must have length {mesh.N}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coeffs must be finite")
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    flat = np.atleast_1d(rs).ravel()
    if not np.all((flat >= 0.0) & np.isfinite(flat)):
        raise ValueError("r must be nonnegative and finite")
    with np.errstate(over="ignore"):  # every basis function is 0 past x = 2**1000
        x = np.minimum(flat / mesh.h, 2.0**1000)
    N, alpha, nodes = mesh.N, mesh.alpha, mesh.nodes
    w = c * _prefactors(mesh)
    j, i, s = _near_pairs(nodes, x)
    poles = x[None, :] - nodes[:, None]
    with np.errstate(divide="ignore"):
        np.divide(1.0, poles, out=poles)
    poles[j, i] = 0.0
    near = np.bincount(i, weights=w[j] * _near_taylor(N, alpha, nodes, j, s),
                       minlength=x.size)
    total = _weighted_laguerre_pair(N, alpha, x)[1] * (w @ poles) + near
    # u is 0 where the sum is, as at large x, where B_N underflows and x**p overflows
    xp = np.power(x, _family_power(mesh.family, alpha), out=np.zeros_like(x), where=total != 0)
    values = xp * total / math.sqrt(mesh.h)
    if scalar:
        return float(values[0])
    return values.reshape(rs.shape)
