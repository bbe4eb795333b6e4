"""Special functions: weighted Laguerre recurrence and Coulomb waves.

The Coulomb wave functions ``F_l(eta, x)`` and ``G_l(eta, x)`` come from
one of three regimes, split at the gate ``max(turning point, 5)``:

* below the gate, one Taylor-series stepper for the radial equation
  (N. Michel, CPC 176 (2007) 232) carries each function in the direction
  in which it grows: ``F`` outward from its power series at one small
  anchor, ``G`` inward from a Steed anchor at the gate, so contamination
  by the other solution decays.  The series is normalized by A&S 14.1.8-9;
* above the gate, Steed's method: the two continued fractions for
  ``F'/F`` and for the logarithmic derivative of ``G + iF``;
* above the gate and at ``x >= 80``, the asymptotic (Hankel) expansion of
  ``H+ = G + iF`` (DLMF 33.11.1, as in COULCC), where Steed's first
  fraction needs hundreds of terms.  The series checks itself: a point
  where a term grows past 10 or the sum has not settled within 60 terms
  falls back to Steed.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "CoulombPair",
    "coulomb_wave",
]

# Steed's continued fractions are used for x >= max(turning point, _STEED_MIN_X).
_STEED_MIN_X = 5.0
# Above the gate and in [_HANKEL_MIN_X, _HANKEL_MAX_X) the asymptotic series
# of H+ is tried first; a point falls back to Steed when a term passes
# _HANKEL_MAX_TERM or the sum has not settled within _HANKEL_MAX_TERMS terms.
_HANKEL_MIN_X = 80.0
_HANKEL_MAX_X = 2.0**22
_HANKEL_MAX_TERM = 10.0
_HANKEL_MAX_TERMS = 60
# 2 pi split so that n * _TWO_PI_HI is exact for integers n < 2**22, which
# covers x < _HANKEL_MAX_X (Cody-Waite, as _LN2_HI/_LO below).
_TWO_PI_HI = 6.2831853069365025
_TWO_PI_LO = 2.430840202602477e-10
# Stirling series for log Gamma(z): B_2k / (2k (2k-1)), k = 1..7, used once
# |z| >= _STIRLING_MIN_ABS.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)
_STIRLING_MIN_ABS = 20.0
# The regular series loses ~exp(2*sqrt(2*|eta|*x)) in cancellation for eta < 0,
# and near a distant turning point for eta > 0; its anchor is kept where this
# exponent stays below the limit, and F is stepped outward from there.
_SERIES_LOSS_LIMIT = 4.0
_MAX_CF_ITER = 500_000
_MAX_SERIES_TERMS = 5_000
_WRONSKIAN_TOL = 1e-10

# exp(-x/2) is a normal double below this x (exp(-708) > 2**-1022).
_NORMAL_X = 1416.0
# ln 2 split so that m * _LN2_HI is exact for integers m <= _MAX_SHIFT.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_MAX_SHIFT = 2.0**20
# Every _RESCALE_STEPS steps, a point whose scaled recurrence values pass
# 2**_BIG_EXP is brought back to [1/2, 1).  One step multiplies
# max(|B_{k-1}|, |B_k|) by less than 2**22 (a point starts from zero once x
# passes about 1.5e6), so between checks it stays below 2**(256 + 8*22) =
# 2**432 and its square below 2**864: finite.  Scaling by powers of two is
# exact, so when the check runs does not change a bit of the result.
_BIG_EXP = 256
_RESCALE_STEPS = 8


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


def _integer(name, value, nonnegative=False):
    """``value`` as an int, or a ValueError naming it when it is not a whole
    number (1.5, NaN and +-inf are not; checked before any ``int()`` can
    truncate it) or, with ``nonnegative``, when it is negative."""
    if not (math.isfinite(value) and int(value) == value):
        raise ValueError(f"{name} must be an integer (got {value!r})")
    if nonnegative and value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return int(value)


def _weighted_laguerre_pair(n, alpha, x, *, christoffel=False):
    """Return ``(B_{n-1}, B_n, C_n)`` with ``B_k(x) = L_k^{(alpha)}(x) exp(-x/2)``.

    ``C_n = sum_{k<n} h_k B_k**2`` with ``h_k = k!/Gamma(k+alpha+1)`` is the
    Christoffel sum of the orthonormal weighted Laguerre functions; a Gauss
    rule's modified weight at a node is ``1 / (x**alpha C_N)``.  It is formed
    only when ``christoffel`` is true (only rule weights read it) and is
    ``None`` otherwise.

    The weighted functions obey the Laguerre three-term recurrence, so no
    ``exp(x)`` factor is ever held.  Below ``_NORMAL_X``, where ``exp(-x/2)``
    is a normal double, the recurrence starts from it unscaled.  Past it, a
    point starts from ``exp(-x/2) 2**m`` and keeps its exponent apart,
    rescaled by exact powers of two whenever ``|B|`` grows large, so the
    values are finite wherever the true ones can be represented.  The loop
    works in place on three buffers and allocates nothing per step.
    """
    x = np.asarray(x, dtype=float)
    far = x >= _NORMAL_X
    # Cody-Waite reduction: m ln2 - x/2 is formed without rounding error
    m = np.where(far, np.floor(np.minimum(0.5 * x, _MAX_SHIFT * _LN2_HI) / _LN2_HI), 0.0)
    cur = np.where(far, np.exp(m * _LN2_HI - 0.5 * x + m * _LN2_LO), np.exp(-0.5 * x))
    shift = -m.astype(int)
    prev = np.zeros_like(cur)
    nxt = np.empty_like(cur)
    csum = np.zeros_like(cur) if christoffel else None
    h = 1.0 / math.gamma(alpha + 1.0)
    rescale = bool(np.any(far))
    # in place, in the operation order of
    # ((2k + alpha + 1 - x) cur - (k + alpha) prev) / (k + 1)
    for k in range(n):
        if christoffel:
            np.multiply(cur, h, out=nxt)
            nxt *= cur
            csum += nxt
            h *= (k + 1.0) / (k + 1.0 + alpha)
        np.subtract(2.0 * k + alpha + 1.0, x, out=nxt)
        nxt *= cur
        prev *= k + alpha
        nxt -= prev
        nxt /= k + 1.0
        prev, cur, nxt = cur, nxt, prev
        if rescale and k % _RESCALE_STEPS == _RESCALE_STEPS - 1:
            e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
            if e.max() > _BIG_EXP:
                s = np.where(e > _BIG_EXP, e, 0)
                np.ldexp(prev, -s, out=prev)
                np.ldexp(cur, -s, out=cur)
                if christoffel:
                    np.ldexp(csum, -2 * s, out=csum)
                shift += s
    if christoffel:
        csum = np.ldexp(csum, 2 * shift)
    return np.ldexp(prev, shift), np.ldexp(cur, shift), csum


def _log_coulomb_norm(l, eta):
    """Log of ``C_l(eta)`` (Abramowitz and Stegun 14.1.8-9): ``C_0**2 = t/expm1(t)``
    with ``t = 2 pi eta``, times the product of ``sqrt(k**2 + eta**2)/(k (2k+1))``
    over ``k = 1..l``, formed before its log to keep the rounding small."""
    t = 2.0 * math.pi * eta
    # log|expm1(t)| = max(t, 0) + log|expm1(-|t|)|, finite for large |t|
    log_c0 = 0.0 if t == 0.0 else 0.5 * (
        math.log(abs(t)) - max(t, 0.0) - math.log(-math.expm1(-abs(t))))
    ratio = math.prod(math.hypot(k, eta) / (k * (2.0 * k + 1.0)) for k in range(1, l + 1))
    return log_c0 + math.log(ratio)


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


def _coulomb_phase(l, eta):
    """``sigma_l = arg Gamma(l+1+i eta)`` (not reduced mod 2 pi).

    ``z = l+1+i eta`` is shifted up by ``m`` until ``|z| >= 20``; there the
    Stirling series of ``Im log Gamma`` is exact to rounding, and the
    shift is undone by the arguments ``atan2(eta, l+1+j)``, ``j < m``.
    """
    z = complex(l + 1.0, eta)
    shift = 0.0
    while abs(z) < _STIRLING_MIN_ABS:
        shift += math.atan2(eta, z.real)
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    series = 0.0
    for c in reversed(_STIRLING):
        series = c + w2 * series
    return ((z - 0.5) * cmath.log(z) - z + w * series).imag - shift


def _reduce_2pi(v):
    """``v`` less its nearest multiple of 2 pi, for ``|v| < _HANKEL_MAX_X``."""
    n = round(v / (2.0 * math.pi))
    return (v - n * _TWO_PI_HI) - n * _TWO_PI_LO


def _hankel(l, eta, x, sigma):
    """``(F, F', G, G')`` from ``H+ = G + iF`` at large ``x``, or None.

    ``H+ = e^{i theta} S`` with ``theta = x - eta ln 2x - l pi/2 + sigma_l``
    and ``S`` the 2F0 series in ``1/(2ix)`` with ``a = l+1+i eta``,
    ``b = -l+i eta`` (DLMF 33.11.1; COULCC, Thompson and Barnett, CPC 36
    (1985) 363).  ``H+' = e^{i theta} (i (1 - eta/x) S + S')``.  The series
    is asymptotic: None is returned when a term passes ``_HANKEL_MAX_TERM``
    or the sum has not settled to 1e-17 within ``_HANKEL_MAX_TERMS`` terms.
    """
    a = complex(l + 1.0, eta)
    b = complex(-l, eta)
    z = complex(0.0, -0.5 / x)
    t = s = complex(1.0, 0.0)
    sk = complex(0.0, 0.0)
    for k in range(_HANKEL_MAX_TERMS):
        t *= (a + k) * (b + k) * z / (k + 1.0)
        s += t
        sk += (k + 1.0) * t
        at = abs(t)
        if at > _HANKEL_MAX_TERM:
            return None
        if at <= 1e-17 * abs(s):
            break
    else:
        return None
    # x and the slowly varying part are reduced apart, so theta keeps the
    # absolute accuracy of its small terms
    theta = (_reduce_2pi(x) - _reduce_2pi(eta * math.log(2.0 * x) - sigma)
             - (l % 4) * (0.5 * math.pi))
    e = complex(math.cos(theta), math.sin(theta))
    h = e * s
    hp = e * (complex(0.0, 1.0 - eta / x) * s - sk / x)
    return h.imag, hp.imag, h.real, hp.real


def _series_F(l, eta, x):
    """Regular solution from its power series; returns ``(F, F')``.

    Reliable when the cancellation between alternating terms is mild, which
    holds when ``2*sqrt(2*|eta|*x)`` is small.
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


def _taylor_sweep(l, eta, x0, u0, up0, targets):
    """Carry a solution ``(u, u')`` of the radial equation from ``x0`` to
    every point of ``targets`` (all on one side of ``x0``); returns values
    and derivatives in the order of ``targets``.

    Each step expands ``u`` in powers of the step ``t`` about the current
    point ``x``; the terms ``b_n = a_n t**n`` of ``u(x + t) = sum b_n``
    follow from ``x**2 u'' = (l(l+1) + 2 eta x - x**2) u`` by a five-term
    recurrence.  A step is at most ``x/2``, so the terms fall like ``2**-n``
    at worst, and at most ``|q(x)|**-0.5`` with ``q = u''/u``, so they do
    not grow; it is formed from ``q x**2``, which neither under- nor
    overflows at tiny ``x``.
    """
    ll1 = l * (l + 1.0)
    vals = np.empty(len(targets))
    ders = np.empty(len(targets))
    x, u, up = float(x0), u0, up0
    for i in np.argsort(np.abs(targets - x0)):
        xt = float(targets[i])
        while x != xt:
            qx2 = abs(ll1 + (2.0 * eta - x) * x)
            step = x * qx2 ** -0.5 if qx2 > 4.0 else 0.5 * x
            # within x/2 of x, xt - x is exact, so the last step lands on xt
            t = max(-step, min(step, xt - x))
            if t == 0.0:
                raise ConvergenceError(f"Taylor step underflows (x={x})")
            u, up = _taylor_step(ll1, eta, x, t, u, up)
            x += t
        vals[i], ders[i] = u, up
    return vals, ders


def _taylor_step(ll1, eta, x, t, u, up):
    """``(u, u')`` at ``x + t`` from the Taylor series about ``x``."""
    p = t / x
    c0 = (ll1 + (2.0 * eta - x) * x) * p * p
    c1 = 2.0 * (eta - x) * x * p ** 3
    c2 = (x * p * p) ** 2
    bm2, bm1, b0, b1 = 0.0, 0.0, u, t * up
    s, sp = b0 + b1, b1
    for n in range(_MAX_SERIES_TERMS):
        b2 = ((c0 - n * (n - 1.0) * p * p) * b0 - 2.0 * n * (n + 1.0) * p * b1
              + c1 * bm1 - c2 * bm2) / ((n + 1.0) * (n + 2.0))
        s += b2
        sp += (n + 2.0) * b2
        if (n + 2.0) * (abs(b1) + abs(b2)) <= 1e-17 * (abs(s) + abs(sp)):
            return s, sp / t
        bm2, bm1, b0, b1 = bm1, b0, b1, b2
    raise ConvergenceError(f"Taylor step did not converge (x={x}, t={t})")


def _coulomb_many(l, eta, xs):
    """Evaluate F, F', G, G' at an array of points (the Hankel series or
    Steed above the gate, one Taylor sweep per function below it)."""
    gate = max(_turning_point(l, eta), _STEED_MIN_X)
    F = np.empty_like(xs)
    Fp = np.empty_like(xs)
    G = np.empty_like(xs)
    Gp = np.empty_like(xs)

    above = xs >= gate
    far = (xs >= _HANKEL_MIN_X) & (xs < _HANKEL_MAX_X)
    sigma = _coulomb_phase(l, eta) if np.any(above & far) else None
    for i in np.nonzero(above)[0]:
        x = float(xs[i])
        pair = _hankel(l, eta, x, sigma) if far[i] else None
        F[i], Fp[i], G[i], Gp[i] = pair or _steed(l, eta, x)

    below = ~above
    if np.any(below):
        pts = xs[below]
        x0 = pts.min()
        if eta != 0.0:
            x0 = min(x0, _SERIES_LOSS_LIMIT ** 2 / (8.0 * abs(eta)))
        F[below], Fp[below] = _taylor_sweep(l, eta, x0, *_series_F(l, eta, x0), pts)
        _, _, g0, gp0 = _steed(l, eta, gate)
        G[below], Gp[below] = _taylor_sweep(l, eta, gate, g0, gp0, pts)

    return F, Fp, G, Gp


def coulomb_wave(l, eta, x):
    """Regular and irregular Coulomb wave functions with derivatives.

    Points below the gate ``max(turning point, 5)`` are reached by Taylor
    sweeps; points above it take the Hankel expansion where ``x >= 80``
    and it converges, and Steed's continued fractions otherwise.  The phase
    ``sigma_l`` of the expansion is formed once per call.  Every result is
    held to the Wronskian ``F'G - FG' = 1``.

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
        If a continued fraction, the power series or a Taylor step fails to
        converge, or the Wronskian check ``F'G - FG' = 1`` is violated
        beyond 1e-10.
    """
    l = _integer("l", l)
    if not 0 <= l <= 20:
        raise ValueError("l must be an integer in [0, 20]")
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
