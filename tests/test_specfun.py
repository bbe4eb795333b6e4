"""Tests for the weighted Laguerre recurrence and Coulomb wave functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre, spherical_jn, spherical_yn

from lagmesh import specfun
from lagmesh.potentials import builtin, evaluate
from lagmesh.scattering import _ratios
from lagmesh.specfun import (
    _HANKEL_MIN_X,
    _STEED_MIN_X,
    ConvergenceError,
    _coulomb_phase,
    _hankel,
    _log_coulomb_norm,
    _steed,
    _turning_point,
    _weighted_laguerre_pair,
    coulomb_wave,
)

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


# Frozen mpmath values (40 digits) (l, eta, x) -> (F, G) on both sides of
# _HANKEL_MIN_X: 40 seeded points with x log-uniform on [40, 80) or
# [80, 3000], l <= 20 and |eta| <= 50, plus the corners (20, +-50, 80) and
# (20, 50, 300), where the Hankel series diverges.
LARGE_X_REFERENCE = {
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
        pair = coulomb_wave(l, eta, x)
        got = (pair.F, pair.Fprime, pair.G, pair.Gprime)
        assert_allclose(got, ref, rtol=1e-10)

    def test_neutral_reduction(self):
        # at eta = 0, l = 0 the pair reduces to (sin, cos)
        x = np.linspace(0.01, 30.0, 211)
        pair = coulomb_wave(0, 0.0, x)
        assert_allclose(pair.F, np.sin(x), atol=1e-12)
        assert_allclose(pair.Fprime, np.cos(x), atol=1e-12)
        assert_allclose(pair.G, np.cos(x), atol=1e-12)
        assert_allclose(pair.Gprime, -np.sin(x), atol=1e-12)

    @pytest.mark.parametrize("l", [1, 5])
    def test_neutral_riccati_bessel(self, l):
        x = np.geomspace(0.05, 30.0, 120)
        pair = coulomb_wave(l, 0.0, x)
        assert_allclose(pair.F, x * spherical_jn(l, x), rtol=1e-11, atol=1e-13)
        assert_allclose(pair.G, -x * spherical_yn(l, x), rtol=1e-11)

    @pytest.mark.parametrize("eta", [-12.0, -1.7, 0.0, 0.3, 3.1, 8.73])
    @pytest.mark.parametrize("l", [0, 2, 7])
    def test_wronskian_grid(self, eta, l):
        x = np.geomspace(1.5e-3, 40.0, 80)
        pair = coulomb_wave(l, eta, x)
        wron = pair.Fprime * pair.G - pair.F * pair.Gprime
        assert np.max(np.abs(wron - 1.0)) <= 1e-10

    def test_array_matches_scalar(self):
        x = np.array([0.02, 0.9, 4.0, 9.0, 25.0])
        pair = coulomb_wave(2, 1.4, x)
        for i, xi in enumerate(x):
            single = coulomb_wave(2, 1.4, xi)
            assert_allclose(
                [pair.F[i], pair.Fprime[i], pair.G[i], pair.Gprime[i]],
                [single.F, single.Fprime, single.G, single.Gprime],
                rtol=1e-12,
            )

    def test_norm_at_zero_eta(self):
        # C_l(0) = 2^l l! / (2l+1)!
        assert math.exp(_log_coulomb_norm(0, 0.0)) == pytest.approx(1.0, rel=1e-15)
        assert math.exp(_log_coulomb_norm(1, 0.0)) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert math.exp(_log_coulomb_norm(2, 0.0)) == pytest.approx(1.0 / 15.0, rel=1e-14)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="positive"):
            coulomb_wave(0, 1.0, -2.0)
        with pytest.raises(ValueError, match="eta"):
            coulomb_wave(0, 51.0, 1.0)
        with pytest.raises(ValueError, match="integer"):
            coulomb_wave(0.5, 1.0, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("l", [1.5, math.nan, math.inf])
    def test_non_integer_l_named(self, l):
        with pytest.raises(ValueError, match=r"^l must be an integer \(got "):
            coulomb_wave(l, 1.0, 1.0)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eta", [-50.0, -1.0, 0.0, 1.0, 50.0])
    @pytest.mark.parametrize("l", [0, 1, 5, 20])
    def test_tiny_x_returns_or_raises_convergence_error(self, l, eta):
        # the Taylor step came from l(l+1)/x^2, which overflows (and x*x
        # underflows) at tiny x; a zero step then divided by zero.  Each point
        # now passes the Wronskian check or raises ConvergenceError
        mp = pytest.importorskip("mpmath")
        for x in (1e-300, 1e-200, 1e-160, 1e-100, 1e-20):
            try:
                pair = coulomb_wave(l, eta, x)
            except ConvergenceError:
                assert not (l == 0 and abs(eta) <= 1.0)
                continue
            assert abs(pair.Fprime * pair.G - pair.F * pair.Gprime - 1.0) <= 1e-10
            if l == 0 and abs(eta) <= 1.0:
                with mp.workdps(30):
                    F = float(mp.coulombf(l, eta, x))
                    G = float(mp.coulombg(l, eta, x))
                assert pair.F == pytest.approx(F, rel=1e-12)
                assert pair.G == pytest.approx(G, rel=1e-12)

    def test_subnormal_step_raises_convergence_error(self):
        # x/2 rounds to zero at the smallest subnormal, so the sweep from it
        # cannot move
        with pytest.raises(ConvergenceError, match="underflows"):
            coulomb_wave(0, 0.0, [5e-324, 1e-300])


@pytest.mark.slow
class TestCoulombAgainstMultiprecision:
    mpmath = pytest.importorskip("mpmath")

    @staticmethod
    def check(l, eta, x):
        import mpmath as mp

        pair = coulomb_wave(l, eta, x)
        with mp.workdps(30):
            F = float(mp.coulombf(l, eta, x))
            G = float(mp.coulombg(l, eta, x))
        assert_allclose(pair.F, F, rtol=1e-10, atol=1e-280)
        assert_allclose(pair.G, G, rtol=1e-10)

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
        # C_l(eta) = 2^l e^{-pi eta/2} |Gamma(l+1+i eta)| / (2l+1)!
        import mpmath as mp

        etas = [*np.linspace(-50.0, 50.0, 61), 0.0, 1e-8, -1e-8]
        for l in range(21):
            for eta in etas:
                with mp.workdps(30):
                    c = 2**l * mp.exp(-mp.pi * eta / 2) * abs(mp.gamma(l + 1 + 1j * eta))
                    want = float(c / mp.factorial(2 * l + 1))
                got = math.exp(_log_coulomb_norm(l, float(eta)))
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
            assert_allclose(coulomb_wave(l, eta, x).G, G, rtol=1e-12)


def _hankel_region(l, eta, x):
    return x >= max(_turning_point(l, eta), _STEED_MIN_X, _HANKEL_MIN_X)


class TestLargeX:
    """Above the gate and at x >= _HANKEL_MIN_X the asymptotic series of
    H+ = G + iF is tried first, with Steed as its fallback."""

    @pytest.mark.parametrize("key", sorted(LARGE_X_REFERENCE))
    def test_reference_values(self, key):
        l, eta, x = key
        F, G = LARGE_X_REFERENCE[key]
        pair = coulomb_wave(l, eta, x)
        scale = math.hypot(F, G)
        assert abs(pair.F - F) <= 1e-12 * scale
        assert abs(pair.G - G) <= 1e-12 * scale

    def test_hankel_matches_steed(self):
        used = 0
        for l, eta, x in LARGE_X_REFERENCE:
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
        def refuse(*args):
            raise AssertionError("Steed's fraction for F'/F was evaluated")

        monkeypatch.setattr(specfun, "_cf1", refuse)
        coulomb_wave(0, -1.0, [80.0, 500.0])
        coulomb_wave(10, 10.0, 80.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(
    l=st.integers(0, 20),
    eta=st.floats(-50.0, 50.0),
    log_x=st.lists(st.floats(math.log(1e-3), math.log(1e4)), min_size=1, max_size=4),
)
def test_whole_domain_is_finite_with_unit_wronskian(l, eta, log_x):
    pair = coulomb_wave(l, eta, np.exp(log_x))
    values = np.array([pair.F, pair.Fprime, pair.G, pair.Gprime])
    assert np.all(np.isfinite(values))
    wron = pair.Fprime * pair.G - pair.F * pair.Gprime
    assert np.max(np.abs(wron - 1.0)) <= 1e-12


class TestRegularizedG:
    def test_matches_plain_product_at_moderate_r(self):
        # the tan(delta) denominator integrates G (1 - e^{-gamma r})^{l+1};
        # a one-point table with no compensating weight isolates that factor
        r = 0.8
        k, gamma, eta, l = 0.5, 2.0, 1.3, 2
        pair = coulomb_wave(l, eta, k * r)
        direct = pair.G * (1.0 - np.exp(-gamma * r)) ** (l + 1)
        table = (np.array([r]), np.array([1.0]), np.array([0.0]),
                 np.array([pair.F]), np.array([pair.G]), np.array([pair.Gprime]))
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
