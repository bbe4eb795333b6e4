"""Tests for the Gauss-Laguerre rules with modified weights."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln, roots_genlaguerre

from lagmesh.quadrature import generate_rule
from lagmesh.specfun import _weighted_laguerre_pair


def _three_diag_rule(N, alpha):
    """The rule from the Jacobi matrix summed out of three ``np.diag``, with
    the same one-pass Newton step and moved Christoffel weights as
    ``generate_rule``."""
    diag = 2.0 * np.arange(N) + alpha + 1.0
    off = np.sqrt(np.arange(1, N) * (np.arange(1, N) + alpha))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    b_prev, b, csum = _weighted_laguerre_pair(N, alpha, x, christoffel=True)
    nodes = x - x * b / (N * b - (N + alpha) * b_prev)
    return nodes, 1.0 / (x**alpha * csum) * (nodes / x)


class TestGenerateRule:
    def test_one_point_rule(self):
        nodes, weights = generate_rule(1, 0.0)
        assert_allclose(nodes, [1.0], rtol=1e-14)
        assert_allclose(weights, [math.e], rtol=1e-14)

    def test_two_point_nodes(self):
        nodes, weights = generate_rule(2, 0.0)
        assert_allclose(nodes, [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rtol=1e-14)

    @pytest.mark.parametrize("N", [5, 20, 60, 120])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 3.5])
    def test_against_scipy(self, N, alpha):
        # agreement is limited by the reference's own accuracy at large N
        nodes, weights = generate_rule(N, alpha)
        x_ref, w_ref = roots_genlaguerre(N, alpha)
        assert_allclose(nodes, x_ref, rtol=1e-13)
        keep = w_ref > 1e-250
        classical = weights * nodes**alpha * np.exp(-nodes)
        assert_allclose(classical[keep], w_ref[keep], rtol=5e-11)

    @pytest.mark.parametrize("N", [5, 20, 50])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_moment_exactness(self, N, alpha):
        # sum_k lambda_k r^(m+alpha) e^(-r) = Gamma(m+alpha+1) for m <= 2N-1;
        # every term is scaled by Gamma on the fly so each sum should be one
        nodes, weights = generate_rule(N, alpha)
        terms = weights * nodes**alpha * np.exp(-nodes) / math.gamma(alpha + 1.0)
        assert abs(terms.sum() - 1.0) <= 1e-13
        for m in range(1, 2 * N):
            terms = terms * (nodes / (m + alpha))
            assert abs(terms.sum() - 1.0) <= 1e-13

    def test_moment_beyond_degree_fails(self):
        # degree 2N is the first one a Gauss rule misses; the error is large
        # enough to prove the exactness checks above have teeth
        N = 5
        nodes, weights = generate_rule(N, 0.0)
        m = 2 * N
        terms = weights * np.exp(m * np.log(nodes) - nodes - gammaln(m + 1.0))
        assert abs(terms.sum() - 1.0) > 1e-6

    def test_nodes_positive_ascending(self):
        nodes, weights = generate_rule(80, 2.0)
        assert np.all(nodes > 0.0)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.all(weights > 0.0)

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(min_value=1, max_value=40), alpha=st.sampled_from([0.0, 1.0, 2.0]))
    def test_nodes_interlace(self, N, alpha):
        inner = generate_rule(N, alpha)[0]
        outer = generate_rule(N + 1, alpha)[0]
        assert np.all(outer[:-1] < inner) and np.all(inner < outer[1:])

    def test_arrays_are_read_only(self):
        # rules are cached and shared between meshes, so no caller may write
        for array in generate_rule(6, 1.0):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="positive integer"):
            generate_rule(0, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            generate_rule(4, -1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("N,alpha", [(100, 1.0), (375, 1.0), (385, 2.0), (390, 1.0),
                                         (400, 0.0), (1000, 0.0), (1000, 2.0)])
    def test_matches_mpmath_up_to_n_1000(self, N, alpha):
        # from N of about 370 the largest nodes pass x = 1416, where exp(-x/2)
        # is no longer a normal double.  Reference: Newton on mpmath's L_N from
        # each node, and the classical weight Gamma(N+a+1)/(N! x L_N'(x)^2)
        # times exp(x) x^-a, with L_N' = -L_{N-1}^{(a+1)}.  The forward
        # recurrence costs the smallest nodes most: at N = 1000 nodes 0 and 1
        # are off by up to 2.9e-12 (weights 5.7e-12), while from N/4 up every
        # node is within 1.6e-16 and every weight within 8.3e-15
        mp = pytest.importorskip("mpmath")
        nodes, weights = generate_rule(N, alpha)
        with mp.workdps(40):
            a = mp.mpf(alpha)
            for i in sorted({0, 1, N // 4, N // 2, 3 * N // 4, N - 1}):
                x = mp.mpf(nodes[i])
                for _ in range(3):
                    x += mp.laguerre(N, a, x) / mp.laguerre(N - 1, a + 1, x)
                d = mp.laguerre(N - 1, a + 1, x)
                weight = mp.gamma(N + a + 1) / (mp.factorial(N) * x * d**2) * mp.exp(x) / x**a
                rel = 1e-11 if i < N // 4 else 1e-13
                assert nodes[i] == pytest.approx(float(x), rel=rel)
                assert weights[i] == pytest.approx(float(weight), rel=rel)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_equals_three_diag_jacobi_bit_for_bit(self, alpha):
        for N in [*range(1, 61), 150, 400, 1000]:
            nodes, weights = generate_rule(N, alpha)
            ref_nodes, ref_weights = _three_diag_rule(N, alpha)
            assert np.array_equal(nodes, ref_nodes), N
            assert np.array_equal(weights, ref_weights), N

    def test_holds_one_dense_array(self):
        # the Jacobi matrix is the rule's only N x N array
        N = 400
        tracemalloc.start()
        try:
            generate_rule(N, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * N * N * 8

    def test_weights_out_of_double_range_raise_typed_error(self):
        # x**alpha overflows at the largest nodes
        with pytest.raises(FloatingPointError, match=r"^alpha=140.0: a weight"):
            generate_rule(10, 140.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [200.0, 1e300])
    def test_gamma_out_of_double_range_names_alpha(self, alpha):
        with pytest.raises(FloatingPointError) as err:
            generate_rule(5, alpha)
        assert str(err.value) == f"alpha={alpha!r}: Gamma(alpha + 1) is out of double range"


class TestIntegrate:
    """The modified weights integrate g over (0, inf) as ``weights @ g(nodes)``."""

    def test_plain_exponential(self):
        nodes, weights = generate_rule(10, 0.0)
        assert weights @ np.exp(-nodes) == pytest.approx(1.0, rel=1e-14)

    def test_polynomial_times_exponential(self):
        r, weights = generate_rule(10, 0.0)
        assert weights @ (r**2 * np.exp(-r)) == pytest.approx(2.0, rel=1e-13)
