"""Tests for the weighted Laguerre recurrence and Coulomb wave functions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre, spherical_jn, spherical_yn

from lagmesh.potentials import builtin, evaluate
from lagmesh.scattering import _ratio
from lagmesh.specfun import (
    _STEED_MIN_X,
    ConvergenceError,
    _turning_point,
    _weighted_laguerre_pair,
    coulomb_norm,
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
        assert coulomb_norm(0, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert coulomb_norm(1, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert coulomb_norm(2, 0.0) == pytest.approx(1.0 / 15.0, rel=1e-14)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="positive"):
            coulomb_wave(0, 1.0, -2.0)
        with pytest.raises(ValueError, match="eta"):
            coulomb_wave(0, 51.0, 1.0)
        with pytest.raises(ValueError, match="integer"):
            coulomb_wave(0.5, 1.0, 1.0)


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
        _, den = _ratio(table, l, k, gamma)
        assert den == pytest.approx(direct, rel=1e-12)


def test_erf_is_vectorized():
    # alpha-alpha: a Gaussian well plus a screened Coulomb term q erf(mu r)/r
    V = builtin("buck_alpha_alpha")
    (c, _, a, _), = V.terms
    q, mu = V.coulomb_erf
    r = np.array([0.1, 0.5, 2.0, 7.0])
    want = [c * math.exp(-a * t * t) + q * math.erf(mu * t) / t for t in r]
    assert_allclose(evaluate(V, r), want, rtol=1e-15)
