"""The three Lagrange-Laguerre basis families and their evaluation.

Each family multiplies the cardinal combination ``L_N^{(alpha)}(x)/(x-x_j)``
by a power of ``x`` and the half-weight ``exp(-x/2)``:

* ``NonReg``  : power ``alpha/2``     (plain Lagrange-Laguerre functions)
* ``RegSqrt`` : power ``(alpha+1)/2`` (regularized by ``sqrt(r/r_j)``)
* ``RegR``    : power ``alpha/2 + 1`` (regularized by ``r/r_j``)

All evaluation goes through the exponentially weighted recurrence, so no
intermediate ever carries ``exp(+x)``.  Near a mesh point the removable
singularity of the cardinal ratio is evaluated from the Taylor expansion of
``L_N`` about the node; elsewhere the ratio is formed directly.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np
from scipy.special import poch

from .quadrature import generate_rule
from .specfun import _weighted_laguerre_pair

__all__ = [
    "Family",
    "MeshSpec",
    "evaluate_basis",
    "mesh_rule",
    "reconstruct_wavefunction",
]

# Switch to the Taylor expansion of the cardinal ratio inside this window.
# The direct form divides by (x - r_j) up to three times, so its rounding
# error grows like eps/window^2 for second derivatives; 1e-2 keeps that
# below ~1e-12 while the expansion (exact for polynomials) stays short.
_NEAR_NODE_FRACTION = 1e-2
_MAX_TAYLOR_TERMS = 60
# Entries per cache of rules, node derivatives and operator matrices.  All
# schemes at one N need three oracle matrices and one Gauss-kinetic matrix;
# a matrix is 8 MB at N = 1000.
_CACHE_SIZE = 16


class Family(enum.Enum):
    """Regularization family of a Lagrange-Laguerre basis."""

    NonReg = "NonReg"
    RegSqrt = "RegSqrt"
    RegR = "RegR"


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
        if int(self.N) != self.N or self.N < 1:
            raise ValueError("N must be a positive integer")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (self.alpha >= 0.0):
            raise ValueError("alpha must be nonnegative")
        if isinstance(self.family, str):
            object.__setattr__(self, "family", Family[self.family])
        if not isinstance(self.family, Family):
            raise ValueError(f"unknown family: {self.family!r}")
        object.__setattr__(self, "h", float(self.h))
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise ValueError("h must be positive and finite")

    @property
    def nodes(self):
        """Unscaled mesh points (zeros of ``L_N^{(alpha)}``)."""
        return mesh_rule(self).nodes

    @property
    def weights(self):
        """Modified quadrature weights of the associated rule."""
        return mesh_rule(self).weights

    @property
    def scaled_nodes(self):
        """Physical radii ``h * r_i``."""
        return self.h * mesh_rule(self).nodes


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_rule(N, alpha):
    return generate_rule(N, alpha)


def mesh_rule(mesh):
    """Quadrature rule underlying a mesh (cached per (N, alpha))."""
    return _cached_rule(mesh.N, mesh.alpha)


def _normalization(N, alpha):
    """Normalization coefficient ``Gamma(N+alpha+1)/N!`` of ``L_N^{(alpha)}``."""
    return poch(N + 1.0, alpha)


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
def _node_taylor_t1(N, alpha):
    """``L_N' exp(-r/2)`` at every node, via ``(N+1) B_{N+1}(r_i)/r_i``."""
    nodes = _cached_rule(N, alpha).nodes
    _, b_next, _ = _weighted_laguerre_pair(N + 1, alpha, nodes)
    t1 = (N + 1.0) * b_next / nodes
    t1.setflags(write=False)
    return t1


def _taylor_psi(N, alpha, rj, t1, s):
    """Weighted cardinal ratio and derivatives near a node.

    Expands ``L_N(x)/(x-r_j) * exp(-x/2)`` in powers of ``s = x - r_j`` using
    the derivatives of ``L_N`` at the node (three-term recurrence from the
    differentiated Laguerre equation).  Returns the weighted value, first and
    second derivative of the ratio.
    """
    t2 = (rj - alpha - 1.0) * t1 / rj
    if s == 0.0:
        t3 = ((rj - alpha - 2.0) * t2 - (N - 1.0) * t1) / rj
        return t1, 0.5 * t2, t3 / 3.0
    t_prev2, t_prev = 0.0, t1
    p0 = t1  # m = 1 contribution: T_1 s^0 / 1!
    p1 = 0.0
    p2 = 0.0
    s_pow = 1.0  # s^{m-2} for the p1 term of the current m
    inv_fact = 1.0
    top0 = abs(t1)
    top1 = top2 = 0.0
    for m in range(2, _MAX_TAYLOR_TERMS):
        t_m = ((rj - alpha - 1.0 - (m - 2)) * t_prev - (N - (m - 2)) * t_prev2) / rj
        inv_fact /= m
        c = t_m * inv_fact
        d0 = c * s_pow * s
        d1 = c * (m - 1.0) * s_pow
        d2 = c * (m - 1.0) * (m - 2.0) * (s_pow / s)
        p0 += d0
        p1 += d1
        p2 += d2
        top0 = max(top0, abs(d0))
        top1 = max(top1, abs(d1))
        top2 = max(top2, abs(d2))
        if m > 6 and (
            abs(d0) <= 1e-17 * top0
            and abs(d1) <= 1e-17 * top1
            and abs(d2) <= 1e-17 * max(top2, 1e-300)
        ):
            break
        s_pow *= s
        t_prev2, t_prev = t_prev, t_m
    damp = math.exp(-0.5 * s)
    return damp * p0, damp * p1, damp * p2


def _weighted_cardinal_all(mesh, x):
    """Weighted cardinal ratios and derivatives of every basis function.

    Returns three ``(N, len(x))`` arrays: ``L_N(x)/(x-r_j) exp(-x/2)`` and its
    first two derivatives with respect to ``x``.  Derivative rows contain
    garbage at ``x = 0`` (callers needing derivatives keep ``x > 0``).
    """
    N, alpha = mesh.N, mesh.alpha
    nodes = mesh.nodes
    b_prev, b_cur, _ = _weighted_laguerre_pair(N, alpha, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        lpw = (N * b_cur - (N + alpha) * b_prev) / x
        lppw = ((x - alpha - 1.0) * lpw - N * b_cur) / x
    s = x[None, :] - nodes[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        pw0 = b_cur[None, :] / s
        pw1 = (lpw[None, :] - pw0) / s
        pw2 = (lppw[None, :] - 2.0 * pw1) / s
    near = np.abs(s) < _NEAR_NODE_FRACTION * (1.0 + nodes[:, None])
    if np.any(near):
        t1 = _node_taylor_t1(N, alpha)
        for jj, kk in zip(*np.nonzero(near)):
            pw0[jj, kk], pw1[jj, kk], pw2[jj, kk] = _taylor_psi(
                N, alpha, nodes[jj], t1[jj], s[jj, kk]
            )
    return pw0, pw1, pw2


def _eval_all(mesh, x, derivatives=False):
    """Unscaled values (and optionally derivatives) of all basis functions.

    Parameters
    ----------
    mesh : MeshSpec
    x : ndarray
        Unscaled coordinates, ``x >= 0`` (strictly positive if derivatives
        are requested).
    derivatives : bool
        When true, also return first and second derivative arrays.

    Returns
    -------
    ndarray or tuple of ndarray
        ``(N, len(x))`` arrays.
    """
    p = _family_power(mesh.family, mesh.alpha)
    pref = _prefactors(mesh)[:, None]
    pw0, pw1, pw2 = _weighted_cardinal_all(mesh, x)
    xp = x[None, :] ** p
    values = pref * pw0 * xp
    if not derivatives:
        return values
    with np.errstate(divide="ignore", invalid="ignore"):
        g = p / x[None, :] - 0.5
        gp = -p / x[None, :] ** 2
    d1 = pref * (pw1 + pw0 * g) * xp
    d2 = pref * (pw2 + 2.0 * pw1 * g + pw0 * (g * g + gp)) * xp
    return values, d1, d2


def evaluate_basis(mesh, j, r):
    """Scaled basis function ``h^{-1/2} F_j(r/h)``.

    Parameters
    ----------
    mesh : MeshSpec
    j : int
        Function index, 1-based, ``1 <= j <= N``.
    r : float or array_like
        Radii, ``r >= 0``.

    Returns
    -------
    float or ndarray
    """
    if int(j) != j or not 1 <= j <= mesh.N:
        raise ValueError(f"j must be an integer in 1..{mesh.N}")
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    flat = np.atleast_1d(rs).ravel()
    if np.any(flat < 0.0):
        raise ValueError("r must be nonnegative")
    values = _eval_all(mesh, flat / mesh.h)[int(j) - 1] / math.sqrt(mesh.h)
    if scalar:
        return float(values[0])
    return values.reshape(rs.shape)


def _node_derivative_matrices(mesh):
    """Derivatives of all basis functions at the nodes, any family.

    Uses the exact structural limits of the cardinal ratio at the mesh points
    (``L_N(r_i) = 0`` is treated as an identity, not a rounded value).
    """
    N, alpha = mesh.N, mesh.alpha
    r = mesh.nodes
    t1 = _node_taylor_t1(N, alpha)
    t2 = (r - alpha - 1.0) * t1 / r
    t3 = ((r - alpha - 2.0) * t2 - (N - 1.0) * t1) / r

    s = r[:, None] - r[None, :]
    np.fill_diagonal(s, 1.0)  # placeholder; diagonals set explicitly below
    inv_s = 1.0 / s

    pw0 = np.zeros((N, N))
    pw1 = t1[:, None] * inv_s
    pw2 = (t2[:, None] - 2.0 * t1[:, None] * inv_s) * inv_s
    np.fill_diagonal(pw0, t1)
    np.fill_diagonal(pw1, 0.5 * t2)
    np.fill_diagonal(pw2, t3 / 3.0)

    p = _family_power(mesh.family, mesh.alpha)
    pref = _prefactors(mesh)[None, :]
    xp = r[:, None] ** p
    g = (p / r - 0.5)[:, None]
    gp = (-p / r**2)[:, None]
    d1 = pref * (pw1 + pw0 * g) * xp
    d2 = pref * (pw2 + 2.0 * pw1 * g + pw0 * (g * g + gp)) * xp
    return d1, d2


def reconstruct_wavefunction(mesh, coeffs, r):
    """Radial function ``u(r) = sum_j c_j`` times the scaled basis functions.

    At a scaled mesh point ``h r_i`` this returns ``c_i (h lambda_i)^{-1/2}``.

    Parameters
    ----------
    mesh : MeshSpec
    coeffs : array_like
        Expansion coefficients, length ``N``.
    r : float or array_like
        Radii, ``r >= 0``.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (mesh.N,):
        raise ValueError(f"coeffs must have length {mesh.N}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coeffs must be finite")
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    flat = np.atleast_1d(rs).ravel()
    if np.any(flat < 0.0):
        raise ValueError("r must be nonnegative")
    values = c @ _eval_all(mesh, flat / mesh.h) / math.sqrt(mesh.h)
    if scalar:
        return float(values[0])
    return values.reshape(rs.shape)
