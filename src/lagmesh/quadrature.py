"""Gauss-Laguerre quadrature with exponential-free modified weights.

Nodes are the zeros of the generalized Laguerre polynomial, obtained as
eigenvalues of the symmetric Jacobi matrix and sharpened by two Newton
steps.  The stored weights are the modified ones,

    lambda_k = w_k * exp(x_k) * x_k**(-alpha),

so that ``sum lambda_k g(x_k)`` approximates the plain integral of ``g``
over (0, inf) for integrands that already contain their own decay.  The
ratio ``exp(x_k) / L_{N+1}(x_k)**2`` entering ``lambda_k`` is formed from
the exponentially weighted recurrence ``B_n = L_n * exp(-x/2)``, which
never holds an overflowing factor.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .specfun import _weighted_laguerre_pair

__all__ = ["QuadratureRule", "generate_rule"]


# ---------------------------------------------------------------------------
# Double-double helpers (vectorized, branch-free).  The value L_{N+1} entering
# a weight can sit two orders of magnitude below the intermediates of the
# three-term recurrence (the polynomial oscillates near its neighbors' zeros),
# so plain double arithmetic leaves ~1e-13 of cancellation noise in the small
# weights.  Carrying the recurrence in double-double restores full accuracy.

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(a_hi, a_lo, b_hi, b_lo):
    s1, s2 = _two_sum(a_hi, b_hi)
    t1, t2 = _two_sum(a_lo, b_lo)
    s2 = s2 + t1
    s1, s2 = _quick_two_sum(s1, s2)
    s2 = s2 + t2
    return _quick_two_sum(s1, s2)


def _dd_mul(a_hi, a_lo, b_hi, b_lo):
    p, e = _two_prod(a_hi, b_hi)
    e = e + (a_hi * b_lo + a_lo * b_hi)
    return _quick_two_sum(p, e)


def _dd_div_f(a_hi, a_lo, b):
    q = a_hi / b
    p, e = _two_prod(q, b)
    r = ((a_hi - p) - e + a_lo) / b
    return _quick_two_sum(q, r)


def _weighted_laguerre_dd(n, alpha, x):
    """Pair ``(B_{n-1}, B_n)`` with ``B_k = L_k^{(alpha)} exp(-x/2)``, each as
    a double-double ``(hi, lo)``, from the recurrence in double-double."""
    zero = np.zeros_like(x)
    bp_hi, bp_lo = zero, zero
    bc_hi, bc_lo = np.exp(-0.5 * x), zero
    for k in range(n):
        c_hi, c_lo = _two_sum(2.0 * k + alpha + 1.0, -x)
        t1_hi, t1_lo = _dd_mul(c_hi, c_lo, bc_hi, bc_lo)
        t2_hi, t2_lo = _dd_mul(np.full_like(x, k + alpha), zero, bp_hi, bp_lo)
        d_hi, d_lo = _dd_add(t1_hi, t1_lo, -t2_hi, -t2_lo)
        bp_hi, bp_lo = bc_hi, bc_lo
        bc_hi, bc_lo = _dd_div_f(d_hi, d_lo, k + 1.0)
    return (bp_hi, bp_lo), (bc_hi, bc_lo)


@dataclasses.dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A Gauss rule on (0, inf) with modified weights.

    Attributes
    ----------
    order : int
        Number of nodes.
    alpha : float
        Laguerre parameter of the generating polynomial.
    nodes : ndarray
        Zeros of ``L_N^{(alpha)}``, ascending and positive.
    weights : ndarray
        Modified weights ``lambda_k``.
    """

    order: int
    alpha: float
    nodes: np.ndarray
    weights: np.ndarray


def generate_rule(N, alpha):
    """Build the ``N``-point rule for the Laguerre parameter ``alpha``.

    Parameters
    ----------
    N : int
        Number of nodes, ``N >= 1``.
    alpha : float
        Laguerre parameter, ``alpha > -1``.

    Returns
    -------
    QuadratureRule

    Raises
    ------
    FloatingPointError
        If Newton polishing leaves non-positive or unordered nodes, as it
        does once ``exp(-x/2)`` underflows at the largest nodes (about
        N >= 390 for alpha = 1).
    """
    if int(N) != N or N < 1:
        raise ValueError("N must be a positive integer")
    N = int(N)
    alpha = float(alpha)
    if not (alpha > -1.0) or not math.isfinite(alpha):
        raise ValueError("alpha must be finite and exceed -1")

    diag = 2.0 * np.arange(N) + alpha + 1.0
    off = np.sqrt(np.arange(1, N) * (np.arange(1, N) + alpha))
    x = eigh_tridiagonal(diag, off, eigvals_only=True)

    # two Newton sweeps on L_N, using the weighted recurrence; an underflowed
    # recurrence gives 0/0 here, which the ordering check below rejects
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(2):
            b_prev, b = _weighted_laguerre_pair(N, alpha, x)
            x = x - x * b / (N * b - (N + alpha) * b_prev)

    if not (np.all(x > 0.0) and np.all(np.diff(x) > 0.0)):
        raise FloatingPointError("node polishing produced a non-monotone set")

    # weights from the derivative relation: with S = x L'_N exp(-x/2) formed
    # as N B_N - (N+alpha) B_{N-1}, the modified weight is
    #   lambda_k = [Gamma(N+alpha+1)/N!] x^(1-alpha) / S^2,
    # which is first-order insensitive to residual node error
    (bp_hi, bp_lo), (bc_hi, bc_lo) = _weighted_laguerre_dd(N, alpha, x)
    t1_hi, t1_lo = _dd_mul(np.full_like(x, float(N)), np.zeros_like(x), bc_hi, bc_lo)
    t2_hi, t2_lo = _dd_mul(np.full_like(x, N + alpha), np.zeros_like(x), bp_hi, bp_lo)
    s_hi, s_lo = _dd_add(t1_hi, t1_lo, -t2_hi, -t2_lo)
    s = s_hi + s_lo
    c = math.exp(gammaln(N + alpha + 1.0) - gammaln(N + 1.0))
    weights = c * x ** (1.0 - alpha) / s**2

    x.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(N, alpha, x, weights)
