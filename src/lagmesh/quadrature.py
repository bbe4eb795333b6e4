"""Gauss-Laguerre quadrature with exponential-free modified weights.

A rule is the plain pair of read-only arrays ``(nodes, weights)``.  Nodes
are the zeros of the generalized Laguerre polynomial, obtained as
eigenvalues of the (dense) symmetric Jacobi matrix and sharpened by two
Newton steps.  The weights are the modified ones,

    lambda_k = w_k * exp(x_k) * x_k**(-alpha),

so that ``sum lambda_k g(x_k)`` approximates the plain integral of ``g``
over (0, inf) for integrands that already contain their own decay.  They
are Christoffel weights, ``lambda_k = 1 / (x_k**alpha sum_n h_n B_n(x_k)**2)``
with ``B_n = L_n exp(-x/2)`` and ``h_n = n!/Gamma(n+alpha+1)`` (Golub and
Welsch, Math. Comp. 23 (1969) 221): a sum of positive squares, so plain
double arithmetic suffices.  Newton steps and weights share one scaled
recurrence for ``B_n``, which holds no overflowing factor and stays finite
where ``exp(-x/2)`` underflows, so rules are accurate up to N = 1000.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import _integer, _real, _weighted_laguerre_pair

__all__ = ["generate_rule"]


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
    (ndarray, ndarray)
        Read-only ``(nodes, weights)``: the zeros of ``L_N^{(alpha)}``,
        ascending and positive, and the modified weights ``lambda_k``.

    Raises
    ------
    FloatingPointError
        If Newton polishing leaves non-positive or unordered nodes, or,
        naming alpha, if Gamma(alpha + 1) (alpha above about 170.6) or a
        weight (at N = 1000 from alpha of about 90) is out of double range.
        No rule up to N = 1000 with alpha in {0, 1, 2} raises.
    """
    N = _integer("N", N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    alpha = _real("alpha", alpha)
    if not (alpha > -1.0) or not math.isfinite(alpha):
        raise ValueError("alpha must be finite and exceed -1")
    try:
        math.gamma(alpha + 1.0)  # the Laguerre recurrence's norms divide by it
    except OverflowError:
        raise FloatingPointError(
            f"alpha={alpha!r}: Gamma(alpha + 1) is out of double range") from None

    # the Jacobi matrix as one array: eigvalsh reads only its lower triangle,
    # so the diagonal and the subdiagonal are all it needs
    jacobi = np.zeros((N, N))
    jacobi.flat[::N + 1] = 2.0 * np.arange(N) + alpha + 1.0
    jacobi.flat[N::N + 1] = np.sqrt(np.arange(1, N) * (np.arange(1, N) + alpha))
    x = np.linalg.eigvalsh(jacobi)

    # two Newton sweeps on L_N, using the weighted recurrence
    for _ in range(2):
        b_prev, b, _ = _weighted_laguerre_pair(N, alpha, x)
        x = x - x * b / (N * b - (N + alpha) * b_prev)

    if not (np.all(x > 0.0) and np.all(np.diff(x) > 0.0)):
        raise FloatingPointError("node polishing produced a non-monotone set")

    # Christoffel weights: a sum of positive squares, free of cancellation
    _, _, csum = _weighted_laguerre_pair(N, alpha, x, christoffel=True)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            weights = 1.0 / (x**alpha * csum)
    except FloatingPointError as e:
        raise FloatingPointError(
            f"alpha={alpha!r}: a weight is out of double range ({e})") from None

    x.setflags(write=False)
    weights.setflags(write=False)
    return x, weights
