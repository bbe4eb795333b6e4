"""The three Lagrange-Laguerre basis families and their evaluation.

Each family multiplies the cardinal combination ``L_N^{(alpha)}(x)/(x-x_j)``
by a power of ``x`` and the half-weight ``exp(-x/2)``:

* ``NonReg``  : power ``alpha/2``     (plain Lagrange-Laguerre functions)
* ``RegSqrt`` : power ``(alpha+1)/2`` (regularized by ``sqrt(r/r_j)``)
* ``RegR``    : power ``alpha/2 + 1`` (regularized by ``r/r_j``)

All evaluation goes through the exponentially weighted recurrence, so no
intermediate ever carries ``exp(+x)``.  A wave function needs no basis
matrix: all its basis functions share the factor ``x**p B_N(x)``, so it is
that factor times one matrix-vector product with the poles ``1/(x - r_j)``.
Near its nearest node (found by one binary search) a point takes that
node's term from the Lagrange property instead, ``f_j(r_j) =
lambda_j^{-1/2}``, times a short Taylor series of the cardinal ratio about
the node, so the Gauss rule alone fixes the value there.

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
from .specfun import _coerce, _integer, _real, _reals, _weighted_laguerre_pair

__all__ = [
    "Family",
    "MeshSpec",
    "reconstruct_wavefunction",
]

# A point is near its nearest node r_j when |x - r_j| is below this
# fraction of the node's gap (the distance to its nearer neighbour or, for
# the first node, to the origin).  Outside, the direct form divides B_N, whose
# rounding error is about eps times its size between zeros, by x - r_j, which
# costs at most 1/fraction in relative error; inside, 16 terms of the Taylor
# series give the bits of 40 at every node up to N = 1000.
_NEAR_GAP_FRACTION = 0.1
_TAYLOR_TERMS = 16
# Entries per LRU cache of rules and of operator-matrix slots (matelem).
# All seven schemes at one N need about a dozen dense operator matrices; a
# matrix is 8 MB at N = 1000, so a slot holds one only from its key's second
# request on.
_CACHE_SIZE = 16


class Family(enum.Enum):
    """Regularization family of a Lagrange-Laguerre basis."""

    NonReg = "NonReg"
    RegSqrt = "RegSqrt"
    RegR = "RegR"


def _alpha(value):
    """``value`` as a float, if a finite, nonnegative Laguerre parameter."""
    alpha = _real("alpha", value)
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
        object.__setattr__(self, "family", _coerce(Family, self.family))
        object.__setattr__(self, "h", _real("h", self.h))
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


def _cardinal_series(N, alpha, rj, s):
    """Weighted cardinal ratio near a node over its value at the node.

    ``B_N(x)/(x - r_j)``, ``B_N = L_N exp(-x/2)``, is ``sum_m W_m s^(m-1)/m!``
    in powers of ``s = x - r_j``, ``W_m`` being the m-th derivative of
    ``B_N`` at ``r_j``.  Over ``W_1`` these follow from ``W_0 = 0`` and
    ``W_1 = 1`` by differentiating ``x B'' + (alpha+1) B' + (N + (alpha+1)/2
    - x/4) B = 0`` k times at the node.  The terms fall on the scale of the
    oscillation of ``B_N``, so a fixed ``_TAYLOR_TERMS`` terms reach double
    precision inside the near-node window.  One entry per point.
    """
    q = N + 0.5 * (alpha + 1.0) - 0.25 * rj
    w_prev2, w_prev, w_cur = np.zeros_like(s), np.zeros_like(s), np.ones_like(s)
    total, power = np.ones_like(s), np.ones_like(s)
    for k in range(_TAYLOR_TERMS - 1):
        w_next = -((alpha + 1.0 + k) * w_cur + q * w_prev - 0.25 * k * w_prev2) / rj
        power *= s / (k + 2)
        total += w_next * power
        w_prev2, w_prev, w_cur = w_prev, w_cur, w_next
    return total


def _near_node(nodes, x):
    """The points inside the near-node window of their nearest node, as
    index arrays ``(i, j)`` of point and node, and their offsets ``s = x_i -
    r_j``.

    Node j's window is ``|s| < _NEAR_GAP_FRACTION`` times its gap.  It is
    narrower than half of either gap beside the node, so only points nearest
    to ``r_j`` can lie in it, and one binary search over the midpoints
    between nodes finds each point's candidate.
    """
    j = np.searchsorted(0.5 * (nodes[1:] + nodes[:-1]), x)
    s = x - nodes[j]
    gap = np.minimum(np.diff(nodes, prepend=0.0), np.diff(nodes, append=np.inf))
    i = np.nonzero(np.abs(s) < _NEAR_GAP_FRACTION * gap[j])[0]
    return i, j[i], s[i]


def reconstruct_wavefunction(mesh, coeffs, r):
    """Radial function ``u(r) = sum_j c_j`` times the scaled basis functions.

    At a scaled mesh point ``h r_i`` this returns ``c_i (h lambda_i)^{-1/2}``.
    With ``x = r/h``, ``u`` is ``x**p B_N(x) sum_j c_j pref_j / (x - r_j)``
    over ``sqrt(h)``: one matrix-vector product with the poles, and no
    N x len(r) basis matrix.  A point inside its nearest node's window
    (``_NEAR_GAP_FRACTION`` of the node's gap) takes that node's term as
    ``c_j (x/r_j)**p lambda_j^{-1/2}`` times the Taylor series of the
    cardinal ratio normalized to 1 at the node (``_cardinal_series``)
    instead of its pole.

    Parameters
    ----------
    mesh : MeshSpec
    coeffs : array_like
        Expansion coefficients, length ``N``.
    r : float or 1-D array_like
        Finite radii, ``r >= 0``.  The result is a 1-D array, of length 1
        for a scalar ``r``, and finite at every radius.
    """
    c = _reals("coeffs", coeffs)
    if c.shape != (mesh.N,):
        raise ValueError(f"coeffs must have length {mesh.N}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coeffs must be finite")
    rs = np.atleast_1d(_reals("r", r))
    if rs.ndim != 1:
        raise ValueError(f"r must be a scalar or a 1-D array (got shape {rs.shape})")
    if not np.all((rs >= 0.0) & np.isfinite(rs)):
        raise ValueError("r must be nonnegative and finite")
    with np.errstate(over="ignore"):  # every basis function is 0 past x = 2**1000
        x = np.minimum(rs / mesh.h, 2.0**1000)
    N, alpha, nodes = mesh.N, mesh.alpha, mesh.nodes
    p = _family_power(mesh.family, alpha)
    i, j, s = _near_node(nodes, x)
    poles = x[None, :] - nodes[:, None]
    with np.errstate(divide="ignore"):
        np.divide(1.0, poles, out=poles)
    poles[j, i] = 0.0
    total = _weighted_laguerre_pair(N, alpha, x)[1] * ((c * _prefactors(mesh)) @ poles)
    # the Lagrange property fixes the near term's value at its node
    total[i] += (c[j] * nodes[j] ** -p / np.sqrt(mesh.weights[j])
                 * _cardinal_series(N, alpha, nodes[j], s))
    # u is 0 where the sum is, as at large x, where B_N underflows and x**p overflows
    xp = np.power(x, p, out=np.zeros_like(x), where=total != 0)
    return xp * total / math.sqrt(mesh.h)
