"""Special functions: weighted Laguerre recurrence and Coulomb waves.

The Coulomb wave functions ``F_l(eta, x)`` and ``G_l(eta, x)`` are computed
by Steed's method (the two continued fractions for ``F'/F`` and for the
logarithmic derivative of ``G + iF``) wherever the point lies in the
classically allowed region, and below the turning point by the regular
power series for ``F`` together with integration of the radial equation
in the numerically stable direction for ``G`` (downward from a Steed
anchor; the irregular solution grows toward small ``x``, so contamination
by the regular solution decays).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import erf, gammaln, loggamma

__all__ = [
    "ConvergenceError",
    "CoulombPair",
    "coulomb_norm",
    "coulomb_wave",
    "erf",
]

# Steed's continued fractions are used for x >= max(turning point, _STEED_MIN_X).
_STEED_MIN_X = 5.0
# The regular series loses ~exp(2*sqrt(2*|eta|*x)) in cancellation for eta < 0;
# beyond this exponent the series anchor is moved inward and the radial
# equation is integrated outward instead.
_SERIES_LOSS_LIMIT = 4.0
_MAX_CF_ITER = 500_000
_MAX_SERIES_TERMS = 5_000
_ODE_RTOL = 3e-14
_WRONSKIAN_TOL = 1e-10

# exp(-x/2) is a normal double below this x (exp(-708) > 2**-1022).
_NORMAL_X = 1416.0
# ln 2 split so that m * _LN2_HI is exact for integers m <= _MAX_SHIFT.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_MAX_SHIFT = 2.0**20
# A scaled recurrence value is brought back to [1/2, 1) once it passes
# 2**_BIG_EXP.  One step multiplies it by less than 2**22 (a point starts
# from zero once x passes about 1.5e6), so its square stays finite.
_BIG_EXP = 256


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to converge or lost all accuracy."""


@dataclasses.dataclass(frozen=True)
class CoulombPair:
    """Regular and irregular Coulomb functions with first derivatives.

    Attributes
    ----------
    F, Fprime : float or ndarray
        Regular solution and its derivative with respect to ``x``.
    G, Gprime : float or ndarray
        Irregular solution and its derivative with respect to ``x``.
    """

    F: object
    Fprime: object
    G: object
    Gprime: object


def _weighted_laguerre_pair(n, alpha, x):
    """Return ``(B_{n-1}, B_n, C_n)`` with ``B_k(x) = L_k^{(alpha)}(x) exp(-x/2)``.

    ``C_n = sum_{k<n} h_k B_k**2`` with ``h_k = k!/Gamma(k+alpha+1)`` is the
    Christoffel sum of the orthonormal weighted Laguerre functions; a Gauss
    rule's modified weight at a node is ``1 / (x**alpha C_N)``.

    The weighted functions obey the Laguerre three-term recurrence, so no
    ``exp(x)`` factor is ever held.  Below ``_NORMAL_X``, where ``exp(-x/2)``
    is a normal double, the recurrence starts from it unscaled.  Past it, a
    point starts from ``exp(-x/2) 2**m`` and keeps its exponent apart,
    rescaled by exact powers of two whenever ``|B|`` grows large, so the
    values are finite wherever the true ones can be represented.
    """
    x = np.asarray(x, dtype=float)
    far = x >= _NORMAL_X
    # Cody-Waite reduction: m ln2 - x/2 is formed without rounding error
    m = np.where(far, np.floor(np.minimum(0.5 * x, _MAX_SHIFT * _LN2_HI) / _LN2_HI), 0.0)
    cur = np.where(far, np.exp(m * _LN2_HI - 0.5 * x + m * _LN2_LO), np.exp(-0.5 * x))
    shift = -m.astype(int)
    prev = np.zeros_like(cur)
    csum = np.zeros_like(cur)
    h = 1.0 / math.gamma(alpha + 1.0)
    rescale = bool(np.any(far))
    for k in range(n):
        csum += h * cur * cur
        h *= (k + 1.0) / (k + 1.0 + alpha)
        prev, cur = cur, ((2.0 * k + alpha + 1.0 - x) * cur - (k + alpha) * prev) / (k + 1.0)
        if rescale and np.abs(cur).max() > 2.0**_BIG_EXP:
            e = np.frexp(cur)[1]
            s = np.where(e > _BIG_EXP, e, 0)
            prev, cur, csum = np.ldexp(prev, -s), np.ldexp(cur, -s), np.ldexp(csum, -2 * s)
            shift += s
    return np.ldexp(prev, shift), np.ldexp(cur, shift), np.ldexp(csum, 2 * shift)


def coulomb_norm(l, eta):
    """Normalization ``C_l(eta)`` of the regular Coulomb function at the origin."""
    return math.exp(_log_coulomb_norm(l, eta))


def _log_coulomb_norm(l, eta):
    lg = loggamma(complex(l + 1.0, eta))
    return l * math.log(2.0) - 0.5 * math.pi * eta + lg.real - gammaln(2.0 * l + 2.0)


def _turning_point(l, eta):
    return eta + math.sqrt(eta * eta + l * (l + 1.0))


def _cf1(l, eta, x):
    """Continued fraction for ``F'/F``; returns ``(f, sign of F)``.

    The sign of ``F`` equals the parity of negative denominators met while
    evaluating the fraction by the modified Lentz scheme.
    """
    small = 1e-300
    pk = l + 1.0
    f = eta / pk + pk / x
    if f == 0.0:
        f = small
    c, d = f, 0.0
    sign = 1.0
    for _ in range(_MAX_CF_ITER):
        pk1 = pk + 1.0
        ek = eta / pk
        rk2 = 1.0 + ek * ek
        tk = (pk + pk1) * (1.0 / x + eta / (pk * pk1))
        d = tk - rk2 * d
        c = tk - rk2 / c
        if d == 0.0:
            d = small
        if c == 0.0:
            c = small
        d = 1.0 / d
        if d < 0.0:
            sign = -sign
        delta = c * d
        f *= delta
        pk = pk1
        if abs(delta - 1.0) < 1e-16:
            return f, sign
    raise ConvergenceError(
        f"continued fraction for F'/F did not converge (l={l}, eta={eta}, x={x})"
    )


def _cf2(l, eta, x):
    """Continued fraction for the logarithmic derivative of ``G + iF``."""
    small = 1e-300
    f = complex(0.0, 1.0 - eta / x)
    if f == 0.0:
        f = complex(small, 0.0)
    c, d = f, complex(0.0, 0.0)
    k = 1
    ak = (1j * eta - l) * (1j * eta + l + 1.0) * (1j / x)
    while k < _MAX_CF_ITER:
        bk = 2.0 * complex(x - eta, k)
        d = bk + ak * d
        c = bk + ak / c
        if d == 0.0:
            d = complex(small, 0.0)
        if c == 0.0:
            c = complex(small, 0.0)
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
        k += 1
        ak = (1j * eta - l + k - 1.0) * (1j * eta + l + k)
    else:
        raise ConvergenceError(
            f"continued fraction for (G+iF)'/(G+iF) did not converge "
            f"(l={l}, eta={eta}, x={x})"
        )
    return f


def _steed(l, eta, x):
    """Both Coulomb functions at a classically allowed point."""
    f, sign = _cf1(l, eta, x)
    h = _cf2(l, eta, x)
    p, q = h.real, h.imag
    if q <= 0.0:
        raise ConvergenceError(
            f"irregular-solution fraction returned q <= 0 (l={l}, eta={eta}, x={x})"
        )
    nu = (f - p) / q
    F = sign / math.sqrt(q * (1.0 + nu * nu))
    G = nu * F
    return F, f * F, G, p * G - q * F


def _series_F(l, eta, x):
    """Regular solution from its power series; returns ``(F, F')``.

    Reliable when the cancellation between alternating terms is mild: for
    ``eta >= 0`` anywhere below the turning point, and for ``eta < 0`` when
    ``2*sqrt(2*|eta|*x)`` is small.
    """
    x = float(x)
    a_km2 = 1.0
    a_km1 = eta / (l + 1.0)
    s = a_km2 + a_km1 * x
    sp = (l + 1.0) * a_km2 + (l + 2.0) * a_km1 * x
    xk = x
    t_prev = abs(a_km1 * x)
    for k in range(2, _MAX_SERIES_TERMS):
        xk *= x
        a_k = (2.0 * eta * a_km1 - a_km2) / (k * (k + 2.0 * l + 1.0))
        t = a_k * xk
        s += t
        sp += (k + l + 1.0) * t
        # two consecutive small terms, since alternate terms vanish at eta = 0
        if abs(t) + t_prev <= 1e-17 * abs(s) and k > 8:
            break
        t_prev = abs(t)
        a_km2, a_km1 = a_km1, a_k
    else:
        raise ConvergenceError(
            f"power series for F did not converge (l={l}, eta={eta}, x={x})"
        )
    pref = math.exp(_log_coulomb_norm(l, eta) + (l + 1.0) * math.log(x))
    return pref * s, pref * sp / x


def _radial_rhs(l, eta):
    ll1 = l * (l + 1.0)
    def rhs(t, y):
        return (y[1], (ll1 / (t * t) + 2.0 * eta / t - 1.0) * y[0])
    return rhs


def _ode_sweep(l, eta, x0, y0, targets):
    """Integrate the radial equation from ``x0`` through ``targets`` (sorted
    in the direction of integration); returns values and derivatives."""
    atol = 1e-16 * max(1.0, abs(y0[0]), abs(y0[1]))
    sol = solve_ivp(
        _radial_rhs(l, eta),
        (x0, targets[-1]),
        y0,
        method="DOP853",
        t_eval=targets,
        rtol=_ODE_RTOL,
        atol=atol,
    )
    if not sol.success:
        raise ConvergenceError(
            f"radial integration failed (l={l}, eta={eta}): {sol.message}"
        )
    return sol.y[0], sol.y[1]


def _coulomb_many(l, eta, xs):
    """Evaluate F, F', G, G' at an array of points (one Steed anchor, one
    downward sweep for the irregular solution below the turning point)."""
    gate = max(_turning_point(l, eta), _STEED_MIN_X)
    F = np.empty_like(xs)
    Fp = np.empty_like(xs)
    G = np.empty_like(xs)
    Gp = np.empty_like(xs)

    above = xs >= gate
    for i in np.nonzero(above)[0]:
        F[i], Fp[i], G[i], Gp[i] = _steed(l, eta, xs[i])

    below = ~above
    if np.any(below):
        idx = np.nonzero(below)[0]
        pts = xs[idx]

        # Regular solution: series, with an outward integration from a
        # tighter series anchor when eta < 0 makes the series cancel.
        if eta >= 0.0:
            loss_ok = np.ones(pts.shape, dtype=bool)
        else:
            loss_ok = 8.0 * abs(eta) * pts <= _SERIES_LOSS_LIMIT ** 2
        for i, x in zip(idx[loss_ok], pts[loss_ok]):
            F[i], Fp[i] = _series_F(l, eta, x)
        if not np.all(loss_ok):
            x0 = _SERIES_LOSS_LIMIT ** 2 / (8.0 * abs(eta))
            f0, fp0 = _series_F(l, eta, x0)
            sweep_idx = idx[~loss_ok]
            order = np.argsort(xs[sweep_idx])
            sweep_idx = sweep_idx[order]
            uniq, inv = np.unique(xs[sweep_idx], return_inverse=True)
            vals, ders = _ode_sweep(l, eta, x0, [f0, fp0], uniq)
            F[sweep_idx] = vals[inv]
            Fp[sweep_idx] = ders[inv]

        # Irregular solution: downward sweep from a Steed anchor at the gate.
        ga_f, ga_fp, ga_g, ga_gp = _steed(l, eta, gate)
        order = np.argsort(pts)[::-1]
        didx = idx[order]
        uniq, inv = np.unique(xs[didx], return_inverse=True)
        desc = uniq[::-1]
        vals, ders = _ode_sweep(l, eta, gate, [ga_g, ga_gp], desc)
        n = len(uniq)
        G[didx] = vals[n - 1 - inv]
        Gp[didx] = ders[n - 1 - inv]

    return F, Fp, G, Gp


def coulomb_wave(l, eta, x):
    """Regular and irregular Coulomb wave functions with derivatives.

    Parameters
    ----------
    l : int
        Orbital angular momentum, ``0 <= l <= 20``.
    eta : float
        Sommerfeld parameter, ``|eta| <= 50``.
    x : float or array_like
        Radial argument(s), ``x > 0``.

    Returns
    -------
    CoulombPair
        ``F``, ``F'``, ``G`` and ``G'`` at ``x`` (scalars for scalar input,
        arrays otherwise).

    Raises
    ------
    ValueError
        If an argument lies outside the supported domain.
    ConvergenceError
        If a continued fraction or the bridging integration fails, or the
        Wronskian check ``F'G - FG' = 1`` is violated beyond 1e-10.
    """
    if int(l) != l or not 0 <= l <= 20:
        raise ValueError("l must be an integer in [0, 20]")
    l = int(l)
    eta = float(eta)
    if not (abs(eta) <= 50.0):
        raise ValueError("eta must satisfy |eta| <= 50")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    flat = np.atleast_1d(xs).ravel()
    if flat.size == 0:
        raise ValueError("x must contain at least one point")
    if not np.all(np.isfinite(flat)) or np.any(flat <= 0.0):
        raise ValueError("x must be positive and finite")

    F, Fp, G, Gp = _coulomb_many(l, eta, flat)

    wron = Fp * G - F * Gp
    err = np.max(np.abs(wron - 1.0))
    if not err <= _WRONSKIAN_TOL:
        raise ConvergenceError(
            f"Wronskian check failed (l={l}, eta={eta}): |F'G - FG' - 1| = {err:.3e}"
        )
    if scalar:
        return CoulombPair(float(F[0]), float(Fp[0]), float(G[0]), float(Gp[0]))
    shape = xs.shape
    return CoulombPair(
        F.reshape(shape), Fp.reshape(shape), G.reshape(shape), Gp.reshape(shape)
    )
