"""Special functions: weighted Laguerre recurrence and Coulomb waves.

The Coulomb wave functions ``F_l(eta, x)`` and ``G_l(eta, x)`` come from
the cheapest evaluator that is accurate at each point.  At ``eta = 0``
they are Riccati-Bessel functions, formed at every point by recurrence in
``l`` (DLMF 33.4, 10.49).  Otherwise:

* the asymptotic (Hankel) expansion of ``H+ = G + iF`` (DLMF 33.11.1, as
  in COULCC) is tried first at every ``x >= 25``.  The series checks
  itself: a point where a term grows past 10 or the sum has not settled
  within 60 terms goes to one of the two methods below;
* at the points left above the gate ``max(turning point, 5)``, Steed's
  method: the two continued fractions for ``F'/F`` and for the logarithmic
  derivative of ``G + iF``;
* at the points left below the gate, a Taylor-series stepper for the
  radial equation (N. Michel, CPC 176 (2007) 232) carries ``G`` inward
  from Steed at the gate, the direction in which it grows, so
  contamination by ``F`` decays.

F where it is small comes from F'/F and the Wronskian: below the gate, and
below ``x = l + 1`` at ``eta = 0``, the continued fraction for
``f = F'/F`` and ``F (f G - G') = 1`` give ``F`` from ``G``, as in Steed's
method.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "coulomb_wave",
]

# The supported domain is l <= _MAX_L and |eta| <= _MAX_ETA.
_MAX_L = 20
_MAX_ETA = 50.0
# Steed's continued fractions are used for x >= max(turning point, _STEED_MIN_X).
_STEED_MIN_X = 5.0
# At eta != 0 and x >= _HANKEL_MIN_X, the asymptotic series of H+ is tried
# first; a point goes to Steed or the Taylor sweeps when a term passes
# _HANKEL_MAX_TERM or the sum has not settled within _HANKEL_MAX_TERMS terms.
# At eta = 0 every x takes the recurrence in l instead.
_HANKEL_MIN_X = 25.0
_HANKEL_MAX_TERM = 10.0
_HANKEL_MAX_TERMS = 60
# Stirling series for log Gamma(z): B_2k / (2k (2k-1)), k = 1..7, used once
# |z| >= _STIRLING_MIN_ABS.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)
_STIRLING_MIN_ABS = 20.0
_MAX_CF_ITER = 500_000
_MAX_TAYLOR_TERMS = 5_000
_WRONSKIAN_TOL = 1e-10


def _taylor_coefficients(n):
    """``n(n-1)``, ``2n(n+1)``, ``(n+1)(n+2)`` and ``n+2``: the integer
    factors of term ``n`` of ``_taylor_step``'s recurrence."""
    return n * (n - 1.0), 2.0 * n * (n + 1.0), (n + 1.0) * (n + 2.0), n + 2.0


# The factors of the first _TAYLOR_TABLE_TERMS terms, read from a table; a
# step seldom needs more than 180 terms, and later ones are formed as needed
# up to _MAX_TAYLOR_TERMS.  A longer table would cost memory, not time.
_TAYLOR_TABLE_TERMS = 256
_TAYLOR_TABLE = tuple(map(_taylor_coefficients, range(_TAYLOR_TABLE_TERMS)))

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


def _real(name, value):
    """``value`` as a float, or a ValueError naming it when it is no number
    or beyond double range (an int of more than 308 digits)."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within double range") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number (got {value!r})") from None


def _reals(name, values):
    """``values`` as a float array, or a ValueError naming it when an entry
    is beyond double range, is no number, or the entries form no array."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must be within double range") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number or an array of numbers") from None


def _integer(name, value, nonnegative=False):
    """``value`` as an int, or a ValueError naming it when it is not a whole
    number (1.5, NaN, +-inf, a string and an int beyond double range are
    not; checked before any ``int()`` can truncate or parse it) or, with
    ``nonnegative``, when it is negative."""
    if isinstance(value, (str, bytes)) or not (
            math.isfinite(_real(name, value)) and int(value) == value):
        raise ValueError(f"{name} must be an integer (got {value!r})")
    if nonnegative and value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return int(value)


def _coerce(enum_cls, value):
    """``value`` as a member of ``enum_cls``, looked up by name when it is a
    string, or a ValueError naming the enum when it is no member."""
    if isinstance(value, str):
        try:
            return enum_cls[value]
        except KeyError:
            raise ValueError(f"unknown {enum_cls.__name__}: {value!r}") from None
    if not isinstance(value, enum_cls):
        raise ValueError(f"unknown {enum_cls.__name__}: {value!r}")
    return value


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
    if math.isinf(f):
        # at a subnormal x; every later term would be inf * 0 = nan
        raise ConvergenceError(
            f"x underflows the continued fraction for F'/F (l={l}, eta={eta}, x={x})")
    if f == 0.0:
        f = small
    c, d = f, 0.0
    sign = 1.0
    inv_x = 1.0 / x
    for _ in range(_MAX_CF_ITER):
        pk1 = pk + 1.0
        ek = eta / pk
        rk2 = 1.0 + ek * ek
        tk = (pk + pk1) * (inv_x + eta / (pk * pk1))
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
        if -1e-16 < delta - 1.0 < 1e-16:
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
    ieta = 1j * eta
    xe = x - eta
    ak = (ieta - l) * (ieta + l + 1.0) * (1j / x)
    while k < _MAX_CF_ITER:
        bk = 2.0 * complex(xe, k)
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
        ak = (ieta - l + k - 1.0) * (ieta + l + k)
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
    t = s = complex(1.0, 0.0)
    sk = complex(0.0, 0.0)
    for k in range(_HANKEL_MAX_TERMS):
        k1 = k + 1.0
        t *= (a + k) * (b + k) * -0.5j / (k1 * x)
        s += t
        sk += k1 * t
        at = abs(t)
        if at > _HANKEL_MAX_TERM:
            return None
        if at <= 1e-17 * abs(s):
            break
    else:
        return None
    # e^{i theta} = e^{ix} e^{-i phi}: libm reduces x exactly at any size,
    # and phi keeps the absolute accuracy of its small terms
    phi = eta * math.log(2.0 * x) - sigma + (l % 4) * (0.5 * math.pi)
    e = complex(math.cos(x), math.sin(x)) * complex(math.cos(phi), -math.sin(phi))
    h = e * s
    hp = e * (complex(0.0, 1.0 - eta / x) * s - sk / x)
    return h.imag, hp.imag, h.real, hp.real


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
    overflows at tiny ``x``.  A step whose ``(u, u')`` leaves the double
    range raises ConvergenceError before the next series is summed.
    """
    ll1 = l * (l + 1.0)
    eta2 = 2.0 * eta
    xts = targets.tolist()
    vals, ders = [0.0] * len(xts), [0.0] * len(xts)
    x, u, up = float(x0), u0, up0
    for i in np.argsort(np.abs(targets - x0)).tolist():
        xt = xts[i]
        while x != xt:
            qx2 = abs(ll1 + (eta2 - x) * x)
            step = x * qx2 ** -0.5 if qx2 > 4.0 else 0.5 * x
            # within x/2 of x, xt - x is exact, so the last step lands on xt
            t = xt - x
            if not -step <= t <= step:
                t = step if t > 0.0 else -step
            if t == 0.0:
                raise ConvergenceError(f"Taylor step underflows (x={x})")
            u, up = _taylor_step(ll1, eta, x, t, u, up)
            x += t
            if not (math.isfinite(u) and math.isfinite(up)):
                raise ConvergenceError(
                    f"Taylor sweep leaves the double range (l={l}, eta={eta}, x={x})")
        vals[i], ders[i] = u, up
    return np.array(vals), np.array(ders)


def _taylor_step(ll1, eta, x, t, u, up):
    """``(u, u')`` at ``x + t`` from the Taylor series about ``x``; the
    factors of term ``n`` come from ``_TAYLOR_TABLE`` and, past its end, from
    ``_taylor_coefficients``."""
    p = t / x
    c0 = (ll1 + (2.0 * eta - x) * x) * p * p
    c1 = 2.0 * (eta - x) * x * p ** 3
    c2 = (x * p * p) ** 2
    bm2, bm1, b0, b1 = 0.0, 0.0, u, t * up
    s, sp = b0 + b1, b1
    a1 = b1 if b1 >= 0.0 else -b1  # |b1|, carried over from the previous term
    terms = _TAYLOR_TABLE
    while True:
        for nn1, nn2, den, n2 in terms:
            b2 = ((c0 - nn1 * p * p) * b0 - nn2 * p * b1 + c1 * bm1 - c2 * bm2) / den
            s += b2
            sp += n2 * b2
            a2 = b2 if b2 >= 0.0 else -b2
            if n2 * (a1 + a2) <= 1e-17 * ((s if s >= 0.0 else -s) + (sp if sp >= 0.0 else -sp)):
                # overflowed terms pass the test as inf <= inf
                if not math.isfinite(s + sp):
                    raise ConvergenceError(f"Taylor step diverged (x={x}, t={t})")
                return s, sp / t
            bm2 = bm1
            bm1 = b0
            b0 = b1
            b1 = b2
            a1 = a2
        if terms is not _TAYLOR_TABLE:
            raise ConvergenceError(f"Taylor step did not converge (x={x}, t={t})")
        terms = map(_taylor_coefficients, range(_TAYLOR_TABLE_TERMS, _MAX_TAYLOR_TERMS))


def _wronskian_F(l, eta, xs, G, Gp):
    """``(F, F')`` at the points ``xs`` from ``G``, ``G'`` there: ``f = F'/F``
    comes from ``_cf1`` and ``F`` from the Wronskian ``F (f G - G') = 1``.
    ``_cf1`` counts the sign of ``F`` too; a point where the two signs differ
    raises ConvergenceError."""
    f, sign = np.array([_cf1(l, eta, float(x)) for x in xs]).reshape(-1, 2).T
    # f G - G' passes the double range where F is subnormal
    F = 1.0 / G / (f - Gp / G)
    if np.any(F * sign < 0.0):
        raise ConvergenceError(
            f"F'/F and the Wronskian disagree on the sign of F (l={l}, eta={eta})")
    return F, f * F


def _riccati_bessel(l, xs):
    """F, F', G, G' at ``eta = 0``, all points at once.

    A solution of the radial equation at ``eta = 0`` recurs upward in ``l``
    as ``u_k = (k/x) u_{k-1} - u'_{k-1}``, ``u_k' = u_{k-1} - (k/x) u_k``
    (DLMF 33.4 with ``eta = 0``).  ``G`` grows with ``l``, so its recurrence
    from ``(cos x, -sin x)`` is stable at every ``x``; so is ``F``'s from
    ``(sin x, cos x)`` where ``x >= l + 1``.  Below that, the recurrence's
    ``F`` is replaced by ``_wronskian_F``'s.
    """
    sin, cos = np.sin(xs), np.cos(xs)
    # rows: G and F
    u, up = np.array([cos, sin]), np.array([-sin, cos])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            for k in range(1, l + 1):
                kx = k / xs
                prev = u
                u = kx * u - up
                up = prev - kx * u
            (G, F), (Gp, Fp) = u, up
            if l:
                below = xs < l + 1.0
                F[below], Fp[below] = _wronskian_F(l, 0.0, xs[below], G[below], Gp[below])
        except FloatingPointError:
            raise ConvergenceError(
                f"x underflows the l recurrence (l={l}, x={xs.min()})") from None
    return F, Fp, G, Gp


def _coulomb_many(l, eta, xs):
    """Evaluate F, F', G, G' at an array of points: at ``eta = 0`` by
    recurrence in ``l``; otherwise the Hankel series where it settles, Steed
    at the other points above the gate, and at the other points below it
    ``G`` from one Taylor sweep inward from Steed at the gate and ``F`` from
    ``_wronskian_F``."""
    if eta == 0.0:
        return _riccati_bessel(l, xs)
    gate = max(_turning_point(l, eta), _STEED_MIN_X)
    # rows F, F', G, G'
    out = np.empty((4, xs.size))
    sigma = None
    done, rows, below = [], [], []
    for i, x in enumerate(xs.tolist()):
        if x >= _HANKEL_MIN_X:
            if sigma is None:
                sigma = _coulomb_phase(l, eta)
            pair = _hankel(l, eta, x, sigma)
            if pair is not None:
                done.append(i)
                rows.append(pair)
                continue
        if x >= gate:
            done.append(i)
            rows.append(_steed(l, eta, x))
        else:
            below.append(i)
    if done:
        out[:, done] = np.transpose(rows)

    if below:
        pts = xs[below]
        _, _, g0, gp0 = _steed(l, eta, gate)
        g, gp = _taylor_sweep(l, eta, gate, g0, gp0, pts)
        f, fp = _wronskian_F(l, eta, pts, g, gp)
        out[:, below] = f, fp, g, gp

    return tuple(out)


def _coulomb_domain(l, eta):
    """``l`` as an int and ``eta`` as a float, if inside the Coulomb
    functions' domain: 0 <= l <= _MAX_L and |eta| <= _MAX_ETA."""
    if not 0 <= (l := _integer("l", l)) <= _MAX_L:
        raise ValueError(f"l must be an integer in [0, {_MAX_L}] (got {l})")
    if not abs(eta := _real("eta", eta)) <= _MAX_ETA:
        raise ValueError(f"eta must satisfy |eta| <= {_MAX_ETA:g} (got {eta!r})")
    return l, eta


def coulomb_wave(l, eta, x):
    """Regular and irregular Coulomb wave functions with derivatives.

    At ``eta = 0`` every point takes the upward recurrence in ``l`` from
    ``(sin x, cos x)`` and ``(cos x, -sin x)``, as one array operation per
    step; below ``x = l + 1``, ``F`` comes from ``F'/F`` and the Wronskian
    instead.  Otherwise each point takes the Hankel expansion where it
    settles, tried at ``x >= 25``.  The points left above the gate
    ``max(turning point, 5)`` take Steed's continued fractions.  At those
    left below it, ``G`` is reached by a Taylor sweep inward from the gate
    and ``F`` comes from ``F'/F`` and the Wronskian.  The phase ``sigma_l``
    of the expansion is formed once per call.  Every result is held to the
    Wronskian ``F'G - FG' = 1``.

    Parameters
    ----------
    l : int
        Orbital angular momentum, ``0 <= l <= 20``.
    eta : float
        Sommerfeld parameter, ``|eta| <= 50``.
    x : float or 1-D array_like
        Radial argument(s), ``x > 0``.

    Returns
    -------
    (F, Fprime, G, Gprime) : tuple of 1-D ndarray
        The regular and irregular solutions and their derivatives with
        respect to ``x``, one entry per point (one for a scalar ``x``).

    Raises
    ------
    ValueError
        If an argument lies outside the supported domain.
    ConvergenceError
        If a continued fraction or a Taylor step fails to converge, ``F'/F``
        and the Wronskian disagree on the sign of ``F``, the recurrence in
        ``l`` or the Taylor sweep leaves the double range (at tiny ``x``),
        or the Wronskian check ``F'G - FG' = 1`` is violated beyond 1e-10.
    """
    l, eta = _coulomb_domain(l, eta)
    xs = np.atleast_1d(_reals("x", x))
    if xs.ndim != 1:
        raise ValueError(f"x must be a scalar or a 1-D array (got shape {xs.shape})")
    if xs.size == 0:
        raise ValueError("x must contain at least one point")
    if not np.all(np.isfinite(xs)) or np.any(xs <= 0.0):
        raise ValueError("x must be positive and finite")

    F, Fp, G, Gp = _coulomb_many(l, eta, xs)

    err = np.max(np.abs(Fp * G - F * Gp - 1.0))
    if not err <= _WRONSKIAN_TOL:
        raise ConvergenceError(
            f"Wronskian check failed (l={l}, eta={eta}): |F'G - FG' - 1| = {err:.3e}"
        )
    return F, Fp, G, Gp
