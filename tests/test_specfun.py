"""Tests for the weighted Laguerre recurrence and Coulomb wave functions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre, spherical_jn, spherical_yn

from lagmesh import specfun
from lagmesh.matelem import hamiltonian_3d, scheme_mesh
from lagmesh.potentials import builtin, evaluate
from lagmesh.scattering import _ratios
from lagmesh.solver import pseudostates, solve_bound_states
from lagmesh.specfun import (
    _HANKEL_MIN_X,
    _STEED_MIN_X,
    ConvergenceError,
    _coulomb_phase,
    _hankel,
    _steed,
    _turning_point,
    _weighted_laguerre_pair,
    coulomb_wave,
)

from cli_refusals import attach
from test_domain import CASES, refused

# Frozen reference values (l, eta, x) -> (F, F', G, G'), computed with an
# independent multiprecision implementation at 40 digits.
COULOMB_REFERENCE = {
    (0, 1.0, 5.0): (0.684937412005943968, -0.723642386255606396,
                    -0.898414359092020549, -0.510804758519035011),
    (2, 8.73, 0.35): (2.63634630992827145e-12, 2.92664558122904369e-11,
                      18941529235.7095416, -169040224316.366183),
    (0, 0.66, 1.0): (0.407930203325457542, 0.522436368397125069,
                     1.41454465083618036, -0.639791875065797805),
    (5, -3.0, 2.0): (0.0930982897120873437, 0.211157812087028934,
                     2.94344890348443132, -4.06524943391226463),
    (0, 0.0, 7.5): (0.937999976774738858, 0.346635317835025811,
                    0.346635317835025811, -0.937999976774738858),
    (2, -50.0, 4.0): (0.384584663262629484, -1.10536418822034619,
                      -0.22290208096737667, -1.95954777766120847),
    (10, 2.0, 3.0): (6.52435836606412821e-7, 2.42551668993778262e-6,
                     216092.336058591164, -729365.871129044169),
    (0, 8.73, 0.0015): (1.38152043093740255e-14, 9.33021305172796216e-12,
                        99769154578.3141318, -5004090438723.40316),
    (2, 8.73, 17.0): (0.778841885848939467, 0.280375056833680072,
                      2.14710422342054538, -0.511022247984009128),
    (0, 50.0, 30.0): (2.89557810309137322e-24, 4.45762361187051418e-24,
                      1.13041631690575707e+23, -1.71331228441764623e+23),
    (1, -0.5, 12.0): (-0.614701861124700638, 0.793080223158347737,
                      0.767585423610203381, 0.636476324041511271),
    (20, 5.0, 8.0): (4.71174084342084682e-10, 1.26108329667140353e-9,
                     406502520.961070969, -1034366016.63205131),
}


# Frozen mpmath values (40 digits) (l, eta, x) -> (F, G) at and above
# _HANKEL_MIN_X = 25, where the Hankel series is tried: 40 seeded points with
# x log-uniform on [40, 80) or [80, 3000], l <= 20 and |eta| <= 50; 24 seeded
# points with x log-uniform on [25, 80), l <= 20, and eta uniform on
# [-50, 50] (every other point) or [-5, 5], half of which the series takes
# and half of which fall back to Steed or, below the gate, the Taylor sweeps;
# plus the corners (20, +-50, 80) and (20, 50, 300), where the series
# diverges.
LARGE_X_REFERENCE = {
    (0, -25.6, 46.9): (-0.502523783854466269, -0.662509581460936684),
    (0, 0.84, 39.1): (-0.556852438170814976, -0.843865365688325392),
    (1, -2.77, 56.5): (-0.100132479829641576, -0.971884237406395164),
    (1, 41.68, 37.7): (3.29958375762203716e-13, 1376187651033.31146),
    (2, -4.23, 73.5): (-0.965359132241628714, 0.124665595028810902),
    (3, -1.32, 25.1): (-0.822165707055591268, 0.532530309302979239),
    (3, 2.67, 25.5): (1.05876189530173812, -0.129713184954433677),
    (4, -3.79, 32.5): (-0.901096097650678779, 0.309079367590893596),
    (5, 43.76, 43.4): (3.45733839613311281e-12, 142332899226.287574),
    (6, -36.21, 54.9): (0.510309099078019024, -0.631055287100705711),
    (6, 10.53, 27.2): (1.4239565974141499, -0.579210895593705353),
    (7, 0.57, 45.0): (0.986218219870744025, -0.234421002089622353),
    (10, -49.97, 32.2): (0.689305909296382582, 0.158165698069999419),
    (11, -2.21, 40.4): (-0.713326931122868289, -0.690780677147528601),
    (12, 13.21, 60.7): (-1.06023778876074719, -0.509065762751135405),
    (12, 49.09, 62.4): (1.30080831841112283e-8, 49084506.1946675476),
    (13, -2.0, 40.0): (0.284105951400915698, 0.96238766913840749),
    (14, 9.69, 62.7): (-1.00219607719354911, -0.49793091444008323),
    (15, -41.54, 40.3): (-0.0683916949507845106, 0.762341356916223097),
    (16, 2.86, 29.7): (-0.276960281904376156, 1.1558106185189325),
    (17, -20.47, 31.0): (-0.828516349267249747, -0.142422598495126504),
    (18, -1.7, 71.0): (-1.00065826591140046, -0.0938334936549032042),
    (18, 0.51, 28.9): (-0.0329106521022243116, 1.15688052240946285),
    (18, 22.08, 54.8): (1.81604681786173955, 0.18540295535417012),
    (0, 7.72, 361.7): (-0.615461745351829243, 0.802034276669303942),
    (1, 4.61, 2222.8): (0.500072021527904695, 0.867184300974249227),
    (3, -12.95, 289.6): (0.106134003883294111, -0.973074454563846831),
    (3, 41.99, 801.6): (-0.877065235579367813, 0.536341230628883397),
    (4, 10.67, 279.4): (0.406624327301380835, 0.935588844313122717),
    (5, -40.71, 40.4): (0.605709809322963626, 0.459096212439017952),
    (6, -31.17, 76.9): (-0.0650547247315707897, 0.860461045008852664),
    (7, -8.34, 1323.5): (0.139411304237067589, -0.987085431207352292),
    (7, -6.47, 237.3): (0.96186127468260931, 0.221549593556863355),
    (8, -18.62, 206.4): (0.857129117955665877, -0.431738649380758667),
    (9, -44.13, 293.1): (-0.593571014540389279, 0.724365555022180933),
    (9, -12.79, 366.8): (-0.597190056813576487, -0.781358639006460368),
    (9, 6.34, 383.9): (-0.0744051779717075062, -1.00584317105715856),
    (10, -40.66, 2123.8): (-0.975535793304237198, -0.172421960172804665),
    (10, 23.12, 584.0): (-0.927450790712873159, -0.426760094203147556),
    (11, -48.72, 54.6): (-0.165305009590680303, 0.759451039044121123),
    (11, 8.0, 45.6): (0.958526691058300531, -0.622571041764616163),
    (11, 45.85, 2001.9): (-0.933177101301228981, -0.391049273061037766),
    (12, 6.4, 2017.0): (0.908187075408736006, 0.422378745435049136),
    (13, -47.64, 235.3): (-0.807086215411114448, 0.439626361175405428),
    (13, -26.67, 60.6): (0.810553165897970072, 0.28653750707216347),
    (13, -5.16, 50.6): (-0.969174143985063763, 0.0151549393707797763),
    (13, -0.52, 55.4): (0.0203602100805743052, 1.01018391399525326),
    (14, -49.82, 1422.1): (-0.908962530346969023, -0.374887958095790633),
    (14, 20.08, 182.7): (1.06579691380432993, 0.0284153725825541175),
    (16, 15.28, 49.2): (-1.35481884625963284, 0.307766268843043437),
    (17, -22.21, 181.7): (0.257546838972435403, 0.912929370415453514),
    (17, -6.91, 885.0): (-0.91035176679788318, -0.404639271366448806),
    (17, -0.85, 707.4): (-0.218958480312283961, 0.975275627342051983),
    (17, 13.99, 55.3): (-3.10077364672001974e-3, -1.26169399976821121),
    (17, 40.51, 152.1): (-0.0123788252509744484, -1.21808895442417848),
    (18, -17.35, 56.6): (-0.118301207716687748, 0.894870735594997181),
    (19, 28.77, 810.8): (1.01403243279355827, -0.0977358156562086796),
    (19, 40.04, 49.9): (1.00639664744705342e-8, 5.70959223213435302e+7),
    (20, -50.0, 80.0): (-0.817624622633470691, 0.0900038509891502281),
    (20, -33.97, 77.1): (0.137114607885977366, 0.85110970802284806),
    (20, -30.46, 690.9): (0.772787476239804804, -0.601511895195666843),
    (20, 17.18, 468.0): (0.438953278817861091, -0.92046700740711641),
    (20, 23.01, 49.7): (0.366998177522717048, 4.55787948987306547),
    (20, 25.27, 517.6): (-0.0642493924866144854, -1.02445229122220468),
    (20, 37.46, 69.5): (0.0467723862217834742, 26.6114037950317604),
    (20, 50.0, 80.0): (1.34421545495253383e-4, 6.62707884381569033e+3),
    (20, 50.0, 300.0): (0.940551124617821734, -0.586868067109308266),
}
HANKEL_CORNERS = [(20, 50.0, 80.0), (20, -50.0, 80.0), (20, 50.0, 300.0)]

# Frozen mpmath values (40 digits) (l, 0, x) -> (F, G) at eta = 0, where every
# point takes the recurrence in l: l in {0, 1, 2, 5, 10, 20}, x log-spaced on
# [0.03, 40].  F comes from the recurrence at x >= l + 1 and from F'/F and the
# Wronskian below it.
NEUTRAL_REFERENCE = {
    (0, 0.0, 0.03): (0.0299955002024956597, 0.999550033748987516),
    (0, 0.0, 0.1265): (0.1261628890689118, 0.9920095389772144),
    (0, 0.0, 0.5335): (0.508550063397622874, 0.861032422745086735),
    (0, 0.0, 2.249): (0.778700981369382289, -0.627395235568744926),
    (0, 0.0, 9.486): (-0.0611838016211434401, -0.998126516238890713),
    (0, 0.0, 40.0): (0.745113160479348787, -0.666938061652261844),
    (1, 0.0, 0.03): (0.000299973000867842657, 33.3483299585020808),
    (1, 0.0, 0.1265): (0.00532555247663381125, 7.96813552920499393),
    (1, 0.0, 0.5335): (0.092201060661891519, 2.12248150246995048),
    (1, 0.0, 2.249): (0.97363844649332574, 0.499734669422408125),
    (1, 0.0, 9.486): (0.991676610944652526, -0.1664048132423632),
    (1, 0.0, 40.0): (0.685565890664245564, 0.728439708938042241),
    (2, 0.0, 0.03): (1.79988428860710321e-6, 3333.83344581645921),
    (2, 0.0, 0.1265): (0.00013479812398490822, 187.975631469836869),
    (2, 0.0, 0.5335): (0.00991888128030509299, 11.0741962696820018),
    (2, 0.0, 2.249): (0.520060841431852516, 1.29400439887120126),
    (2, 0.0, 9.486): (0.374807018238680587, 0.945500073088238218),
    (2, 0.0, 40.0): (-0.69369571867953037, 0.721571039822615012),
    (5, 0.0, 0.03): (7.0127442593855807e-14, 38890833395.8352156),
    (5, 0.0, 0.1265): (3.9395929600893239e-10, 29198821.546150517),
    (5, 0.0, 0.5335): (2.19393798500448108e-6, 22214.8073150364057),
    (5, 0.0, 2.249): (0.0102210307248076798, 22.0526882563207374),
    (5, 0.0, 9.486): (-0.117466425490444369, -1.09640842433850847),
    (5, 0.0, 40.0): (0.897950951641800711, 0.450759013922318507),
    (10, 0.0, 0.03): (1.28838121115485686e-27, 1.10881569873577635e+24),
    (10, 0.0, 0.1265): (9.65081023760142767e-21, 624222276691762472.0),
    (10, 0.0, 0.5335): (7.20294174981375892e-14, 353160169225.180106),
    (10, 0.0, 2.249): (4.84883293279096108e-7, 226171.413041087383),
    (10, 0.0, 9.486): (0.47426487250057832, 2.06717206308298694),
    (10, 0.0, 40.0): (0.524992127309933035, 0.872122745475522879),
    (20, 0.0, 0.03): (7.97695991071417371e-58, 9.17276895758543214e+53),
    (20, 0.0, 0.1265): (1.06197875900101952e-44, 2.90535447294957474e+41),
    (20, 0.0, 0.5335): (1.41475446880922092e-31, 9.20061718337603601e+28),
    (20, 0.0, 2.249): (1.77214026542371038e-18, 31141775142018962.8),
    (20, 0.0, 9.486): (8.61742574908266296e-6, 30303.1485450455671),
    (20, 0.0, 40.0): (1.06141567350161124, 0.193659243947042996),
}
HANKEL_REFERENCE = LARGE_X_REFERENCE | NEUTRAL_REFERENCE

# Frozen mpmath values (40 digits) (l, eta, x) -> (F, G) far out, where the
# Hankel phase must hold at any x and Steed's F'/F fraction would need about x
# iterations: x = 1.01 * 2**22, 1e8 and 1e12, with the corners l = 20,
# eta = +-50 among them.
FAR_REFERENCE = {
    (0, 1.0, 1e8): (0.981238345673346265, 0.192798648802928011),
    (20, -50.0, 4236247.04): (-0.283257511938489248, 0.959037736093382904),
    (13, 27.4, 4236247.04): (-0.9794763404402846, 0.201575213195241981),
    (5, -7.3, 1e8): (0.290711243708580957, 0.956810796229546911),
    (20, 50.0, 1e12): (0.793055537375967691, 0.60914933693415042),
    (2, -0.4, 1e12): (0.768515963025274699, 0.639830613971334301),
}


def _allocating_laguerre_pair(n, alpha, x, christoffel):
    """Reference: the recurrence of ``_weighted_laguerre_pair`` with a fresh
    array at every step and a rescale check after every step."""
    far = x >= specfun._NORMAL_X
    m = np.where(far, np.floor(np.minimum(0.5 * x, specfun._MAX_SHIFT * specfun._LN2_HI)
                               / specfun._LN2_HI), 0.0)
    cur = np.where(far, np.exp(m * specfun._LN2_HI - 0.5 * x + m * specfun._LN2_LO),
                   np.exp(-0.5 * x))
    shift = -m.astype(int)
    prev = np.zeros_like(cur)
    csum = np.zeros_like(cur) if christoffel else None
    h = 1.0 / math.gamma(alpha + 1.0)
    for k in range(n):
        if christoffel:
            csum += h * cur * cur
            h *= (k + 1.0) / (k + 1.0 + alpha)
        prev, cur = cur, ((2.0 * k + alpha + 1.0 - x) * cur - (k + alpha) * prev) / (k + 1.0)
        if np.any(far) and np.abs(cur).max() > 2.0**specfun._BIG_EXP:
            e = np.frexp(cur)[1]
            s = np.where(e > specfun._BIG_EXP, e, 0)
            prev, cur = np.ldexp(prev, -s), np.ldexp(cur, -s)
            if christoffel:
                csum = np.ldexp(csum, -2 * s)
            shift += s
    if christoffel:
        csum = np.ldexp(csum, 2 * shift)
    return np.ldexp(prev, shift), np.ldexp(cur, shift), csum


def _loop_taylor_step(ll1, eta, x, t, u, up):
    """Reference: ``_taylor_step`` with every factor of term n formed in the
    loop instead of read from a table."""
    p = t / x
    c0 = (ll1 + (2.0 * eta - x) * x) * p * p
    c1 = 2.0 * (eta - x) * x * p ** 3
    c2 = (x * p * p) ** 2
    bm2, bm1, b0, b1 = 0.0, 0.0, u, t * up
    s, sp = b0 + b1, b1
    for n in range(specfun._MAX_TAYLOR_TERMS):
        b2 = ((c0 - n * (n - 1.0) * p * p) * b0 - 2.0 * n * (n + 1.0) * p * b1
              + c1 * bm1 - c2 * bm2) / ((n + 1.0) * (n + 2.0))
        s += b2
        sp += (n + 2.0) * b2
        if (n + 2.0) * (abs(b1) + abs(b2)) <= 1e-17 * (abs(s) + abs(sp)):
            return s, sp / t
        bm2, bm1, b0, b1 = bm1, b0, b1, b2
    raise ConvergenceError("Taylor step did not converge")


# References for the Coulomb kernels: the straightforward loops (builtin
# abs, max/min clamps, per-point NumPy stores) that the kernels must match
# bit for bit.


def _loop_cf1(l, eta, x):
    small = 1e-300
    pk = l + 1.0
    f = eta / pk + pk / x
    if math.isinf(f):
        raise ConvergenceError("x underflows the continued fraction for F'/F")
    if f == 0.0:
        f = small
    c, d = f, 0.0
    sign = 1.0
    inv_x = 1.0 / x
    for _ in range(specfun._MAX_CF_ITER):
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
        if abs(delta - 1.0) < 1e-16:
            return f, sign
    raise ConvergenceError("continued fraction for F'/F did not converge")


def _loop_cf2(l, eta, x):
    small = 1e-300
    f = complex(0.0, 1.0 - eta / x)
    if f == 0.0:
        f = complex(small, 0.0)
    c, d = f, complex(0.0, 0.0)
    k = 1
    ak = (1j * eta - l) * (1j * eta + l + 1.0) * (1j / x)
    while k < specfun._MAX_CF_ITER:
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
            return f
        k += 1
        ak = (1j * eta - l + k - 1.0) * (1j * eta + l + k)
    raise ConvergenceError("continued fraction for (G+iF)'/(G+iF) did not converge")


def _loop_hankel(l, eta, x, sigma):
    a = complex(l + 1.0, eta)
    b = complex(-l, eta)
    t = s = complex(1.0, 0.0)
    sk = complex(0.0, 0.0)
    for k in range(specfun._HANKEL_MAX_TERMS):
        t *= (a + k) * (b + k) * -0.5j / ((k + 1.0) * x)
        s += t
        sk += (k + 1.0) * t
        at = abs(t)
        if at > specfun._HANKEL_MAX_TERM:
            return None
        if at <= 1e-17 * abs(s):
            break
    else:
        return None
    phi = eta * math.log(2.0 * x) - sigma + (l % 4) * (0.5 * math.pi)
    e = complex(math.cos(x), math.sin(x)) * complex(math.cos(phi), -math.sin(phi))
    h = e * s
    hp = e * (complex(0.0, 1.0 - eta / x) * s - sk / x)
    return h.imag, hp.imag, h.real, hp.real


def _loop_taylor_sweep(l, eta, x0, u0, up0, targets):
    ll1 = l * (l + 1.0)
    vals = np.empty(len(targets))
    ders = np.empty(len(targets))
    x, u, up = float(x0), u0, up0
    for i in np.argsort(np.abs(targets - x0)):
        xt = float(targets[i])
        while x != xt:
            qx2 = abs(ll1 + (2.0 * eta - x) * x)
            step = x * qx2 ** -0.5 if qx2 > 4.0 else 0.5 * x
            t = max(-step, min(step, xt - x))
            if t == 0.0:
                raise ConvergenceError("Taylor step underflows")
            u, up = _loop_taylor_step(ll1, eta, x, t, u, up)
            x += t
        vals[i], ders[i] = u, up
    return vals, ders


def _loop_coulomb_many(l, eta, xs):
    """Reference for ``_coulomb_many``: per-point routes and stores, with
    the loop kernels above; ``_steed`` and ``_wronskian_F`` are looked up in
    ``specfun``, so a caller patches its ``_cf1`` and ``_cf2``."""
    if eta == 0.0:
        return specfun._riccati_bessel(l, xs)
    gate = max(_turning_point(l, eta), _STEED_MIN_X)
    F, Fp, G, Gp = (np.empty_like(xs) for _ in range(4))
    left = np.ones(xs.shape, dtype=bool)
    tried = xs >= _HANKEL_MIN_X
    if np.any(tried):
        sigma = _coulomb_phase(l, eta)
        for i in np.nonzero(tried)[0]:
            pair = _loop_hankel(l, eta, float(xs[i]), sigma)
            if pair is not None:
                F[i], Fp[i], G[i], Gp[i] = pair
                left[i] = False
    above = left & (xs >= gate)
    for i in np.nonzero(above)[0]:
        F[i], Fp[i], G[i], Gp[i] = specfun._steed(l, eta, float(xs[i]))
    below = left & ~above
    if np.any(below):
        pts = xs[below]
        _, _, g0, gp0 = specfun._steed(l, eta, gate)
        g, gp = _loop_taylor_sweep(l, eta, gate, g0, gp0, pts)
        F[below], Fp[below] = specfun._wronskian_F(l, eta, pts, g, gp)
        G[below], Gp[below] = g, gp
    return F, Fp, G, Gp


def _bits(values):
    """The bit patterns of floats (complex ones as two), for exact equality
    that also tells -0.0 from 0.0 and compares NaNs by payload."""
    return np.array(values, ndmin=1).view(np.uint64).tolist()


class TestLaguerre:
    """``_weighted_laguerre_pair`` returns B_k = L_k^{(a)}(x) exp(-x/2)."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 1000])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 0.5])
    def test_matches_scipy(self, n, alpha):
        if n < 1000:
            x = np.linspace(0.0, 40.0, 97)
            want = eval_genlaguerre(n, alpha, x) * np.exp(-x / 2)
        else:
            # past x = 1416 exp(-x/2) is no longer a normal double, so the
            # reference is mpmath
            mp = pytest.importorskip("mpmath")
            x = np.linspace(0.0, 4000.0, 41)
            with mp.workdps(30):
                want = [float(mp.laguerre(n, alpha, t) * mp.exp(-t / 2)) for t in x]
        _, value, _ = _weighted_laguerre_pair(n, alpha, x)
        assert_allclose(value, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_derivative_matches_scipy(self, n):
        # the basis forms x L_n' = n L_n - (n+a) L_{n-1} from the pair;
        # d/dx L_n^{(a)} = -L_{n-1}^{(a+1)}
        x = np.linspace(0.0, 25.0, 53)[1:]
        b_prev, b, _ = _weighted_laguerre_pair(n, 1.0, x)
        deriv = (n * b - (n + 1.0) * b_prev) / x
        want = -eval_genlaguerre(n - 1, 2.0, x) * np.exp(-x / 2)
        assert_allclose(deriv, want, rtol=1e-12, atol=1e-12)

    def test_value_at_origin(self):
        # L_n^{(a)}(0) = binom(n + a, n)
        _, value, _ = _weighted_laguerre_pair(4, 2.0, np.array([0.0]))
        assert value[0] == pytest.approx(15.0, rel=1e-14)

    @pytest.mark.parametrize("n, alpha", [(5, 0.0), (50, 1.0), (400, 2.0), (1000, 0.0)])
    def test_christoffel_sum_matches_mpmath(self, n, alpha):
        # C_n = sum_{k<n} h_k B_k**2 run through the same recurrence at 40
        # digits; points past x = 1416 take the rescaled path, and a true
        # value below the double range must come back as zero
        mp = pytest.importorskip("mpmath")
        x = np.array([0.003, 0.5, 7.3, 120.0, 1000.0, 1500.0, 2600.0, 3900.0])
        want = []
        with mp.workdps(40):
            a = mp.mpf(alpha)
            for t in map(mp.mpf, x):
                prev, cur, h, csum = 0, mp.exp(-t / 2), 1 / mp.gamma(a + 1), 0
                for k in range(n):
                    csum += h * cur * cur
                    h *= (k + 1) / (k + 1 + a)
                    prev, cur = cur, ((2 * k + a + 1 - t) * cur - (k + a) * prev) / (k + 1)
                want.append(float(csum))
        _, _, got = _weighted_laguerre_pair(n, alpha, x, christoffel=True)
        assert_allclose(got, want, rtol=1e-11, atol=0.0)

    def test_christoffel_sum_only_on_request(self):
        x = np.linspace(0.0, 50.0, 11)
        b_prev, b, csum = _weighted_laguerre_pair(30, 1.0, x)
        assert csum is None
        w_prev, w, _ = _weighted_laguerre_pair(30, 1.0, x, christoffel=True)
        assert np.array_equal(b_prev, w_prev) and np.array_equal(b, w)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 150, 1000])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("christoffel", [False, True])
    def test_in_place_loop_is_bit_identical(self, n, alpha, christoffel):
        # against the allocating loop that rescales at every step; points
        # past x = 1416 take the rescaled path, and past about 1.5e6 start
        # from zero
        x = np.concatenate([[0.0], np.geomspace(1e-6, 3e6, 400),
                            np.linspace(1400.0, 4100.0, 61)])
        got = _weighted_laguerre_pair(n, alpha, x, christoffel=christoffel)
        want = _allocating_laguerre_pair(n, alpha, x, christoffel)
        for g, w in zip(got, want):
            assert (g is None and w is None) or np.array_equal(g, w)

    def test_scalar_in_scalar_out(self):
        b_prev, b, _ = _weighted_laguerre_pair(3, 0.0, 1.5)
        assert np.ndim(b_prev) == 0 and np.ndim(b) == 0
        assert float(b) == pytest.approx(
            eval_genlaguerre(3, 0.0, 1.5) * np.exp(-0.75), rel=1e-14)


class TestCoulombWave:
    @pytest.mark.parametrize("key", sorted(COULOMB_REFERENCE))
    def test_reference_values(self, key):
        l, eta, x = key
        ref = COULOMB_REFERENCE[key]
        got = np.concatenate(coulomb_wave(l, eta, x))
        assert_allclose(got, ref, rtol=1e-10)

    def test_neutral_reduction(self):
        # at eta = 0, l = 0 the pair reduces to (sin, cos)
        x = np.linspace(0.01, 30.0, 211)
        F, Fp, G, Gp = coulomb_wave(0, 0.0, x)
        assert_allclose(F, np.sin(x), atol=1e-12)
        assert_allclose(Fp, np.cos(x), atol=1e-12)
        assert_allclose(G, np.cos(x), atol=1e-12)
        assert_allclose(Gp, -np.sin(x), atol=1e-12)

    @pytest.mark.parametrize("l", [1, 5])
    def test_neutral_riccati_bessel(self, l):
        x = np.geomspace(0.05, 30.0, 120)
        F, _, G, _ = coulomb_wave(l, 0.0, x)
        assert_allclose(F, x * spherical_jn(l, x), rtol=1e-11, atol=1e-13)
        assert_allclose(G, -x * spherical_yn(l, x), rtol=1e-11)

    @pytest.mark.parametrize("eta", [-12.0, -1.7, 0.0, 0.3, 3.1, 8.73])
    @pytest.mark.parametrize("l", [0, 2, 7])
    def test_wronskian_grid(self, eta, l):
        x = np.geomspace(1.5e-3, 40.0, 80)
        F, Fp, G, Gp = coulomb_wave(l, eta, x)
        wron = Fp * G - F * Gp
        assert np.max(np.abs(wron - 1.0)) <= 1e-10

    def test_array_matches_scalar(self):
        x = np.array([0.02, 0.9, 4.0, 9.0, 25.0])
        pair = np.array(coulomb_wave(2, 1.4, x))
        for i, xi in enumerate(x):
            single = np.concatenate(coulomb_wave(2, 1.4, xi))
            assert_allclose(pair[:, i], single, rtol=1e-12)

    def test_norm_at_zero_eta(self):
        # F_l(0, x) = C_l(0) x^{l+1} sum_k (-x^2/2)^k / (k! (2l+3)...(2l+2k+1))
        # with C_l(0) = 2^l l! / (2l+1)!; at x = 0.1 the terms fall fast and
        # do not cancel
        x = 0.1
        for l in range(21):
            c = 2**l * math.factorial(l) / math.factorial(2 * l + 1)
            term = total = 1.0
            for k in range(1, 10):
                term *= -0.5 * x * x / (k * (2.0 * (l + k) + 1.0))
                total += term
            want = c * x ** (l + 1) * total
            got = coulomb_wave(l, 0.0, x)[0][0]
            assert got == pytest.approx(want, rel=1e-13), l

    @pytest.mark.parametrize("eta", [-50.0, -1.0, 0.0, 1.0, 50.0])
    @pytest.mark.parametrize("l", [0, 1, 5, 20])
    def test_tiny_x_returns_or_raises_convergence_error(self, l, eta):
        # the Taylor step came from l(l+1)/x^2, which overflows (and x*x
        # underflows) at tiny x; a zero step then divided by zero.  Each point
        # now passes the Wronskian check or raises ConvergenceError
        mp = pytest.importorskip("mpmath")
        for x in (1e-300, 1e-200, 1e-160, 1e-100, 1e-20):
            try:
                (got_F,), (got_Fp,), (got_G,), (got_Gp,) = coulomb_wave(l, eta, x)
            except ConvergenceError:
                assert not (l == 0 and abs(eta) <= 1.0)
                continue
            assert abs(got_Fp * got_G - got_F * got_Gp - 1.0) <= 1e-10
            if l == 0 and abs(eta) <= 1.0:
                with mp.workdps(30):
                    F = float(mp.coulombf(l, eta, x))
                    G = float(mp.coulombg(l, eta, x))
                assert got_F == pytest.approx(F, rel=1e-12)
                assert got_G == pytest.approx(G, rel=1e-12)

    def test_subnormal_step_raises_convergence_error(self):
        # x/2 rounds to zero at the smallest subnormal, so the sweep from it
        # cannot move; at eta = 0, 1/x overflows the recurrence in l (the s
        # wave at eta = 0 needs no recurrence step; see below)
        for l, eta in [(1, 0.0), (0, 0.5)]:
            with pytest.raises(ConvergenceError, match="underflows"):
                coulomb_wave(l, eta, [5e-324, 1e-300])
        # alone, the point is reached and F'/F is taken there, where 1/x
        # overflows
        for x in (5e-324, 1e-323):
            with pytest.raises(ConvergenceError, match="x underflows the continued fraction"):
                coulomb_wave(0, 0.5, x)

    def test_table_driven_taylor_step_is_bit_identical(self):
        # against the loop that forms each term's factors; steps of up to
        # 0.97 x (the sweeps take at most x/2) need up to several hundred
        # terms, past the end of the table
        rng = np.random.default_rng(11)
        for _ in range(200):
            l = int(rng.integers(0, 21))
            eta = float(rng.uniform(-50.0, 50.0))
            x = float(np.exp(rng.uniform(math.log(1e-3), math.log(30.0))))
            t = x * float(rng.uniform(-0.97, 0.97))
            args = (l * (l + 1.0), eta, x, t, *rng.normal(size=2))
            assert specfun._taylor_step(*args) == _loop_taylor_step(*args)
        # 0.999**5000 is far above 1e-17: the term bound still holds
        with pytest.raises(ConvergenceError, match="Taylor step did not converge"):
            specfun._taylor_step(6.0, 0.0, 1.0, 0.999, 1.0, 1.0)

    @pytest.mark.parametrize("l, eta, x", [(5, 1.0, 1e-60), (20, 34.378, 1.1e-12)])
    def test_overflow_below_the_gate_is_named(self, monkeypatch, l, eta, x):
        # G' leaves the double range on the sweep inward; no series is
        # summed from a value that is not finite
        step = specfun._taylor_step

        def finite_step(ll1, eta, x, t, u, up):
            assert math.isfinite(u) and math.isfinite(up)
            return step(ll1, eta, x, t, u, up)

        monkeypatch.setattr(specfun, "_taylor_step", finite_step)
        with pytest.raises(ConvergenceError,
                           match=rf"^Taylor sweep leaves the double range \(l={l}, eta={eta}, x="):
            coulomb_wave(l, eta, x)

    def test_diverging_taylor_step_raises(self):
        # a step longer than x: the terms overflow, and an infinite sum would
        # pass the stop test as inf <= inf
        with pytest.raises(ConvergenceError, match="Taylor step diverged"):
            specfun._taylor_step(2.0, 1.0, 1.0, 1.5, 1.0, 0.0)

    def test_subnormal_s_wave_at_zero_eta(self):
        # at l = 0, eta = 0 the pair is (sin, cos), with no recurrence step
        x = np.array([5e-324, 1e-300])
        F, Fp, G, Gp = coulomb_wave(0, 0.0, x)
        assert np.array_equal(F, x) and np.array_equal(Fp, [1.0, 1.0])
        assert np.array_equal(G, [1.0, 1.0]) and np.array_equal(Gp, -x)

    def test_zero_eta_takes_the_l_recurrence(self, monkeypatch):
        # no Hankel series, Steed or Taylor step, and F'/F only where the
        # recurrence for F would be unstable
        def refuse(*args):
            raise AssertionError("an eta != 0 route was taken")

        for name in ("_hankel", "_cf2", "_taylor_step"):
            monkeypatch.setattr(specfun, name, refuse)
        calls = []
        cf1 = specfun._cf1

        def spy(l, eta, x):
            calls.append((l, x))
            return cf1(l, eta, x)

        monkeypatch.setattr(specfun, "_cf1", spy)
        x = np.array([1e-3, 0.5, 1.0, 2.0, 2.5, 3.0, 7.9, 21.0, 25.0, 300.0,
                      2.0**22, 1e8])
        for l in (0, 1, 2, 5, 20):
            calls.clear()
            coulomb_wave(l, 0.0, x)
            assert calls == [(l, xi) for xi in x if l >= 1 and xi < l + 1]

    def test_below_gate_takes_f_from_the_wronskian(self, monkeypatch):
        # G is swept inward from Steed at the gate, and F comes from F'/F
        # and the Wronskian at every point below it, so _cf1 runs at the
        # gate and at each of those points; F is never swept
        sweeps = []
        sweep = specfun._taylor_sweep

        def sweep_spy(l, eta, x0, u0, up0, targets):
            sweeps.append(x0)
            return sweep(l, eta, x0, u0, up0, targets)

        monkeypatch.setattr(specfun, "_taylor_sweep", sweep_spy)
        calls = []
        cf1 = specfun._cf1

        def spy(l, eta, x):
            calls.append(x)
            return cf1(l, eta, x)

        monkeypatch.setattr(specfun, "_cf1", spy)
        x = np.array([3.0, 0.02, 1.7, 0.4])
        for l, eta in [(0, 1.3), (4, -7.0), (20, 50.0)]:
            calls.clear()
            sweeps.clear()
            coulomb_wave(l, eta, x)
            gate = max(_turning_point(l, eta), _STEED_MIN_X)
            assert calls == [gate, *x]
            assert sweeps == [gate]

    @pytest.mark.parametrize("l, eta", [(0, 1.3), (4, -7.0), (20, 50.0), (5, 0.0)])
    def test_flipped_cf1_sign_raises(self, monkeypatch, l, eta):
        # a sign of F from _cf1 that the Wronskian contradicts is an error,
        # below the gate and below x = l + 1 at eta = 0 alike
        cf1 = specfun._cf1

        def flip(l, eta, x):
            f, sign = cf1(l, eta, x)
            return f, (-sign if x == 0.02 else sign)

        monkeypatch.setattr(specfun, "_cf1", flip)
        with pytest.raises(ConvergenceError, match="sign of F"):
            coulomb_wave(l, eta, [3.0, 0.02, 1.7])

    def test_neutral_near_turning_point(self):
        # F's power series cancelled here when it was the eta = 0 route
        mp = pytest.importorskip("mpmath")
        x = 19.819789287689495
        (got,), _, _, _ = coulomb_wave(20, 0.0, x)
        with mp.workdps(30):
            F, G = float(mp.coulombf(20, 0, x)), float(mp.coulombg(20, 0, x))
        assert abs(got - F) <= 2e-15 * math.hypot(F, G)


@pytest.mark.slow
class TestCoulombAgainstMultiprecision:
    mpmath = pytest.importorskip("mpmath")

    @staticmethod
    def check(l, eta, x):
        import mpmath as mp

        got_F, _, got_G, _ = coulomb_wave(l, eta, x)
        with mp.workdps(30):
            F = float(mp.coulombf(l, eta, x))
            G = float(mp.coulombg(l, eta, x))
        assert_allclose(got_F, F, rtol=1e-10, atol=1e-280)
        assert_allclose(got_G, G, rtol=1e-10)

    # attractive points where F is tiny at the series anchor, and repulsive
    # points near a distant turning point, where the power series cancels
    @pytest.mark.parametrize("l, eta, x", [
        (10, -50.0, 3.0), (15, -40.0, 2.0), (10, -30.0, 1.0), (8, -20.0, 0.5),
        (0, 50.0, 99.0), (10, 50.0, 96.0), (20, 40.0, 84.1),
    ])
    def test_named_points(self, l, eta, x):
        self.check(l, eta, x)

    def test_dense_cross_check(self):
        # the whole advertised domain: l <= 20, |eta| <= 50
        rng = np.random.default_rng(42)
        for _ in range(60):
            l = int(rng.integers(0, 21))
            eta = float(rng.uniform(-50.0, 50.0))
            x = float(np.exp(rng.uniform(math.log(0.05), math.log(40.0))))
            self.check(l, eta, x)

    def test_normalization(self):
        # F near the origin, where it is C_l(eta) x^{l+1} (1 + O(eta x, x^2))
        # with C_l(eta) = 2^l e^{-pi eta/2} |Gamma(l+1+i eta)| / (2l+1)!: F
        # from F'/F and the Wronskian carries this normalization
        import mpmath as mp

        etas = [*np.linspace(-50.0, 50.0, 61), 0.0, 1e-8, -1e-8]
        for l in range(21):
            for eta in etas:
                x = min(0.1, 1.0 / (1.0 + abs(eta)))
                with mp.workdps(30):
                    want = float(mp.coulombf(l, float(eta), x))
                got = coulomb_wave(l, float(eta), x)[0][0]
                assert got == pytest.approx(want, rel=1e-13), (l, eta)

    def test_taylor_sweep_below_gate(self):
        # G below the Steed gate comes only from the Taylor sweep, so it is
        # held to far less than the 1e-10 contract; this catches a step
        # length that lets the series terms grow
        import mpmath as mp

        rng = np.random.default_rng(7)
        for _ in range(200):
            l = int(rng.integers(0, 21))
            eta = float(rng.uniform(-50.0, 50.0))
            gate = max(_turning_point(l, eta), _STEED_MIN_X)
            x = float(np.exp(rng.uniform(math.log(0.05), math.log(gate))))
            with mp.workdps(30):
                G = float(mp.coulombg(l, eta, x))
            assert_allclose(coulomb_wave(l, eta, x)[2], G, rtol=1e-12)

    def test_wronskian_f_below_gate(self):
        # F below the Steed gate comes from F'/F and the Wronskian at every
        # point of a call; held to far less than the 1e-10 contract.  Below
        # the turning point F has no zeros and is held relative to itself;
        # above it, where F oscillates at eta < 0, relative to hypot(F, G).
        # Over 2880 such points the worst error was 4.8e-14.
        import mpmath as mp

        rng = np.random.default_rng(11)
        for _ in range(60):
            l = int(rng.integers(0, 21))
            eta = float(rng.uniform(-50.0, 50.0))
            turn = _turning_point(l, eta)
            gate = max(turn, _STEED_MIN_X)
            x = np.exp(rng.uniform(math.log(0.05), math.log(gate), size=4))
            got_F, _, got_G, _ = coulomb_wave(l, eta, x)
            for xi, f, g in zip(x.tolist(), got_F, got_G):
                with mp.workdps(30):
                    F = float(mp.coulombf(l, eta, xi))
                scale = math.hypot(F, g) if xi >= turn else abs(F)
                assert abs(f - F) <= 1e-13 * scale, (l, eta, xi)

    def test_neutral_grid(self):
        # H+ = G + iF = (-i)^l e^{ix} sum_k (l+k)!/(k! (l-k)!) (i/(2x))^k
        # (DLMF 10.49.1), a finite sum, summed with digits to spare for the
        # cancellation in F; it matches mpmath's coulombf and coulombg
        import mpmath as mp

        def exact(l, x):
            with mp.workdps(40 + int(2 * l * max(0.0, math.log10((2 * l + 2) / x)))):
                t = mp.mpf(x)
                h = hp = 0
                for k in range(l + 1):
                    c = mp.factorial(l + k) / (mp.factorial(k) * mp.factorial(l - k))
                    c *= (1j / (2 * t)) ** k
                    h += c
                    hp += c * (1j - k / t)
                e = mp.expj(t) * (-1j) ** l
                return [float(v) for v in (
                    (e * h).imag, (e * hp).imag, (e * h).real, (e * hp).real)]

        with mp.workdps(30):
            for l, x in [(0, 0.3), (5, 2.0), (20, 19.8), (20, 300.0)]:
                want = [float(mp.coulombf(l, 0, x)), float(mp.coulombg(l, 0, x))]
                assert_allclose(exact(l, x)[::2], want, rtol=1e-15)
        # 2**22 and 1e8: the recurrence's sin and cos are exact at any x
        x = np.concatenate([np.geomspace(1e-3, 300.0, 80), [2.0**22, 1e8]])
        for l in (0, 1, 2, 5, 10, 20):
            got_F, got_Fp, got_G, got_Gp = coulomb_wave(l, 0.0, x)
            wron = got_Fp * got_G - got_F * got_Gp
            assert np.max(np.abs(wron - 1.0)) <= 2e-15, l
            for i, xi in enumerate(x):
                F, Fp, G, Gp = exact(l, float(xi))
                scale, dscale = math.hypot(F, G), math.hypot(Fp, Gp)
                assert abs(got_F[i] - F) <= 4e-15 * scale, (l, xi)
                assert abs(got_G[i] - G) <= 4e-15 * scale, (l, xi)
                assert abs(got_Fp[i] - Fp) <= 4e-15 * dscale, (l, xi)
                assert abs(got_Gp[i] - Gp) <= 4e-15 * dscale, (l, xi)


def _hankel_region(l, eta, x):
    """Where the Hankel series is tried at eta != 0 and Steed's fractions
    hold too."""
    return x >= max(_turning_point(l, eta), _STEED_MIN_X, _HANKEL_MIN_X)


class TestLargeX:
    """At eta != 0 and x >= _HANKEL_MIN_X the asymptotic series of
    H+ = G + iF is tried first, with Steed and the Taylor sweeps as its
    fallback.  At eta = 0 every x takes the recurrence in l, held to the
    same bound on NEUTRAL_REFERENCE."""

    @pytest.mark.parametrize("key", sorted(HANKEL_REFERENCE) + sorted(FAR_REFERENCE))
    def test_reference_values(self, key):
        l, eta, x = key
        F, G = (HANKEL_REFERENCE | FAR_REFERENCE)[key]
        (got_F,), _, (got_G,), _ = coulomb_wave(l, eta, x)
        scale = math.hypot(F, G)
        assert abs(got_F - F) <= 1e-12 * scale
        assert abs(got_G - G) <= 1e-12 * scale

    def test_hankel_matches_steed(self):
        used = 0
        for l, eta, x in HANKEL_REFERENCE:
            fast = _hankel(l, eta, x, _coulomb_phase(l, eta))
            if not _hankel_region(l, eta, x) or fast is None:
                continue
            used += 1
            F, Fp, G, Gp = _steed(l, eta, x)
            scale, dscale = math.hypot(F, G), math.hypot(Fp, Gp)
            assert abs(fast[0] - F) <= 1e-12 * scale
            assert abs(fast[1] - Fp) <= 1e-12 * dscale
            assert abs(fast[2] - G) <= 1e-12 * scale
            assert abs(fast[3] - Gp) <= 1e-12 * dscale
        assert used >= 20

    def test_no_hankel_between_25_and_the_gate(self):
        # at eta < 0 the gate is below 25, and at eta > 0 the series has not
        # settled by the gate: so G below the gate needs no Hankel anchor
        checked = 0
        for l in range(21):
            for eta in np.linspace(0.5, 50.0, 45):
                eta = float(eta)
                gate = max(_turning_point(l, eta), _STEED_MIN_X)
                sigma = _coulomb_phase(l, eta)
                for x in np.linspace(_HANKEL_MIN_X, gate, 60) if gate > _HANKEL_MIN_X else ():
                    assert _hankel(l, eta, float(x), sigma) is None, (l, eta, x)
                    checked += 1
        assert checked >= 30_000
        # the turning point falls as eta falls, so at eta < 0 it lies below
        # its eta = 0 value sqrt(l (l+1)) <= sqrt(420)
        assert max(_turning_point(20, 0.0), _STEED_MIN_X) < _HANKEL_MIN_X

    @pytest.mark.parametrize("l, eta, x", HANKEL_CORNERS)
    def test_corners_fall_back(self, l, eta, x):
        # the series peaks far above its term limit here; these points are
        # also in LARGE_X_REFERENCE, so the fallback is held to mpmath too
        assert _hankel(l, eta, x, _coulomb_phase(l, eta)) is None

    def test_coulomb_phase_matches_loggamma(self):
        mp = pytest.importorskip("mpmath")
        etas = [*np.linspace(-50.0, 50.0, 41), 0.3, -0.3, 1e-8, -1e-8]
        for l in range(21):
            for eta in etas:
                got = _coulomb_phase(l, float(eta))
                with mp.workdps(30):
                    want = mp.im(mp.loggamma(mp.mpc(l + 1, float(eta))))
                    diff = float((got - want + mp.pi) % (2 * mp.pi) - mp.pi)
                assert abs(diff) <= 1e-13, (l, eta)

    def test_large_x_skips_steed(self, monkeypatch):
        def refuse(name):
            def evaluate(*args):
                raise AssertionError(f"{name} was evaluated")
            return evaluate

        monkeypatch.setattr(specfun, "_cf1", refuse("Steed's fraction for F'/F"))
        coulomb_wave(0, -1.0, [30.0, 80.0, 500.0])
        coulomb_wave(10, 10.0, 80.0)
        # below the gate at eta = 0, which takes the recurrence in l
        monkeypatch.setattr(specfun, "_taylor_step", refuse("a Taylor step"))
        coulomb_wave(0, 0.0, [0.01, 0.7, 3.0])


# (potential, parameters, l values, schemes, h) of the benchmark's phase scan
# at its nominal h, N = 30
PHASE_SCAN_SYSTEMS = (
    ("buck_alpha_alpha", {}, (0, 2, 4), ("RegSqrtMesh", "RegRMesh"), 0.23),
    ("eckart", {}, (0, 1, 2), ("RegSqrtMesh", "RegRMesh"), 0.1),
    ("coulomb", {"Z": -1.0}, (0, 4, 8, 10), ("RegSqrtMesh",), 1.1),
)


def _phase_scan_points():
    """``(l, eta, k h r_i)`` of every pseudostate of ``PHASE_SCAN_SYSTEMS``
    inside the domain ``|eta| <= 50``."""
    cases = []
    for name, params, ls, schemes, h in PHASE_SCAN_SYSTEMS:
        V = builtin(name, **params)
        for l, scheme in itertools.product(ls, schemes):
            mesh = scheme_mesh(scheme, 30, h)
            states = pseudostates(solve_bound_states(*hamiltonian_3d(mesh, l, V, scheme)))
            cases += [(l, V.tail_Z / st.k, st.k * h * mesh.nodes) for st in states
                      if abs(V.tail_Z) <= specfun._MAX_ETA * st.k]
    return cases


class TestKernelsMatchLoops:
    """The Coulomb kernels against the straightforward loops, bit for bit."""

    @staticmethod
    def _cases(seed, count):
        """``(rng, l, eta, gate)`` with l in 0..20 and |eta| <= 50."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            l = int(rng.integers(0, 21))
            eta = float(rng.uniform(-50.0, 50.0))
            yield rng, l, eta, max(_turning_point(l, eta), _STEED_MIN_X)

    def test_continued_fractions(self):
        for rng, l, eta, gate in self._cases(23, 300):
            # F'/F below the gate too, where _wronskian_F takes it
            x = float(np.exp(rng.uniform(math.log(1e-3), math.log(gate))))
            assert _bits(specfun._cf1(l, eta, x)) == _bits(_loop_cf1(l, eta, x))
            x = gate * float(np.exp(rng.uniform(0.0, math.log(30.0))))
            assert _bits(specfun._cf1(l, eta, x)) == _bits(_loop_cf1(l, eta, x))
            assert _bits(specfun._cf2(l, eta, x)) == _bits(_loop_cf2(l, eta, x))

    def test_hankel(self):
        settled = 0
        for rng, l, eta, _ in self._cases(29, 400):
            x = float(np.exp(rng.uniform(math.log(_HANKEL_MIN_X), math.log(1e4))))
            sigma = _coulomb_phase(l, eta)
            got, want = _hankel(l, eta, x, sigma), _loop_hankel(l, eta, x, sigma)
            assert (got is None) == (want is None)
            if got is not None:
                settled += 1
                assert _bits(got) == _bits(want)
        assert 100 <= settled < 400

    def test_taylor_sweeps(self):
        # inward from the gate and outward from the lowest target, which is
        # also a target; two targets repeat
        for rng, l, eta, gate in self._cases(31, 60):
            u0, up0 = rng.normal(size=2).tolist()
            low = gate * float(np.exp(rng.uniform(math.log(1e-3), math.log(0.5))))
            pts = np.exp(rng.uniform(math.log(low), math.log(gate), size=6))
            pts = rng.permutation(np.concatenate([pts, pts[:2], [low]]))
            for x0 in (gate, low):
                want = _loop_taylor_sweep(l, eta, x0, u0, up0, pts)
                assert _bits(specfun._taylor_sweep(l, eta, x0, u0, up0, pts)) == _bits(want)

    def test_coulomb_many(self, monkeypatch):
        cases = [(l, eta, np.exp(rng.uniform(math.log(1e-2), math.log(3e3), size=12)))
                 for rng, l, eta, _ in self._cases(37, 80)]
        cases += _phase_scan_points()
        assert len(cases) >= 400
        got = [specfun._coulomb_many(l, eta, xs) for l, eta, xs in cases]
        monkeypatch.setattr(specfun, "_cf1", _loop_cf1)
        monkeypatch.setattr(specfun, "_cf2", _loop_cf2)
        for (l, eta, xs), values in zip(cases, got):
            assert _bits(values) == _bits(_loop_coulomb_many(l, eta, xs)), (l, eta)


@settings(max_examples=400, deadline=None)
# F's power series cancelled near the turning point on the old eta = 0 route
@example(l=20, eta=0.0, log_x=[math.log(19.819789287689495)])
@given(
    l=st.integers(0, 20),
    eta=st.floats(-50.0, 50.0),
    log_x=st.lists(st.floats(math.log(1e-3), math.log(1e12)), min_size=1, max_size=4),
)
def test_whole_domain_is_finite_with_unit_wronskian(l, eta, log_x):
    F, Fp, G, Gp = values = coulomb_wave(l, eta, np.exp(log_x))
    assert np.all(np.isfinite(values))
    wron = Fp * G - F * Gp
    assert np.max(np.abs(wron - 1.0)) <= 1e-12


class TestRegularizedG:
    def test_matches_plain_product_at_moderate_r(self):
        # the tan(delta) denominator integrates G (1 - e^{-gamma r})^{l+1};
        # a one-point table with no compensating weight isolates that factor
        r = 0.8
        k, gamma, eta, l = 0.5, 2.0, 1.3, 2
        F, _, G, Gp = coulomb_wave(l, eta, k * r)
        direct = G[0] * (1.0 - np.exp(-gamma * r)) ** (l + 1)
        table = (np.array([r]), np.array([1.0]), np.array([0.0]), F, G, Gp)
        _, (den,) = _ratios(table, l, k, [gamma])
        assert den == pytest.approx(direct, rel=1e-12)


def test_erf_is_vectorized():
    # alpha-alpha: a Gaussian well plus a screened Coulomb term q erf(mu r)/r
    V = builtin("buck_alpha_alpha")
    (c, _, a, _), = V.terms
    q, mu = V.coulomb_erf
    r = np.array([0.1, 0.5, 2.0, 7.0])
    want = [c * math.exp(-a * t * t) + q * math.erf(mu * t) / t for t in r]
    assert_allclose(evaluate(V, r), want, rtol=1e-15)


# each refusal that this module checked is a row of test_domain.CASES, run
# here under the id of the check it took over
attach(globals(), CASES, refused)
