"""Tests for the Lagrange-Laguerre basis families."""

import math

import numpy as np
import pytest

from lagmesh import basis
from lagmesh.basis import (
    Family,
    MeshSpec,
    reconstruct_wavefunction,
    _family_power,
    _prefactors,
)
from lagmesh.quadrature import generate_rule

from cli_refusals import attach
from test_domain import CASES, refused
from reference import (
    near_window,
    node_derivatives,
    taylor_series,
    wavefunction,
    wavefunction_mpmath,
    weighted_cardinal_all,
)

PAIRINGS = [("NonReg", 2.0), ("RegSqrt", 1.0), ("RegR", 0.0)]
# the meshes of all seven schemes, and RegSqrt at alpha = 2, the Var2D basis at m > 0
SCHEME_MESHES = [("RegSqrt", 0.0), ("RegSqrt", 1.0), ("RegSqrt", 2.0), ("RegR", 0.0),
                 ("NonReg", 2.0)]


def _eval_all(mesh, x, derivatives=False):
    """Reference: unscaled values (and, with ``derivatives``, first and second
    derivatives) of all basis functions at ``x``, as ``(N, len(x))`` arrays
    formed row by row from the weighted cardinal ratios ``psi`` by the chain
    rule for ``pref * x**p * psi``."""
    p = _family_power(mesh.family, mesh.alpha)
    pref = _prefactors(mesh)[:, None]
    pw0, pw1, pw2 = weighted_cardinal_all(mesh, x, derivatives)
    xp = x[None, :] ** p
    values = pref * pw0 * xp
    if not derivatives:
        return values
    with np.errstate(divide="ignore", invalid="ignore"):
        g = p / x[None, :] - 0.5
        gp = -p / x[None, :] ** 2
    return (values, pref * (pw1 + pw0 * g) * xp,
            pref * (pw2 + 2.0 * pw1 * g + pw0 * (g * g + gp)) * xp)


def _node_derivatives(mesh):
    """First and second derivatives of all basis functions at the nodes,
    ``[i, j] = f_j^{(k)}(r_i)``, from the reference ``_eval_all``."""
    _, d1, d2 = _eval_all(mesh, mesh.nodes, derivatives=True)
    return d1.T, d2.T


def check_lagrange_property(N, family, alpha):
    """``u(h r_i) (h lambda_i)^{1/2} = c_i`` at every node, to 1e-10 of the
    largest ``|c|``; h = 0.5 scales every node exactly."""
    mesh = MeshSpec(N, alpha, family, 0.5)
    c = np.random.default_rng(N).standard_normal(N)
    u = reconstruct_wavefunction(mesh, c, mesh.h * mesh.nodes)
    assert np.max(np.abs(u * np.sqrt(mesh.h * mesh.weights) - c)) <= 1e-10 * np.max(np.abs(c))


def check_near_nodes_against_mpmath(N, family, alpha):
    """``u`` about the first three, the middle and the last three nodes, at
    offsets out to half a gap (five windows), against 40 digits: 1e-10 of
    the largest ``|u|`` there."""
    mesh = MeshSpec(N, alpha, family, 0.5)
    nodes = mesh.nodes
    picked = sorted({0, 1, 2, N // 2, N - 3, N - 2, N - 1})
    offsets = np.array([0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 5.0, -5.0])
    x = (nodes[picked, None] + offsets * near_window(nodes)[picked, None]).ravel()
    polish = sorted({k for j in picked for k in range(j - 2, j + 3) if 0 <= k < N})
    c = np.random.default_rng(N).standard_normal(N)
    want = wavefunction_mpmath(mesh, c, x, polish)
    got = reconstruct_wavefunction(mesh, c, mesh.h * x)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def basis_function(mesh, j, r):
    """Scaled basis function ``j`` (1-based): the expansion with unit coefficient j."""
    return reconstruct_wavefunction(mesh, np.eye(mesh.N)[j - 1], r)


class TestMeshSpec:
    def test_fields_and_coercion(self):
        mesh = MeshSpec(10, 1, "RegSqrt", 0.4)
        assert mesh.N == 10
        assert mesh.alpha == 1.0
        assert mesh.family is Family.RegSqrt
        assert mesh.h == 0.4

    def test_nodes_are_rule_nodes(self):
        mesh = MeshSpec(6, 2.0, Family.NonReg, 0.3)
        nodes, weights = generate_rule(6, 2.0)
        assert np.array_equal(mesh.nodes, nodes)
        assert np.array_equal(mesh.weights, weights)

    def test_nodes_and_weights_are_read_only(self):
        # they are the cached rule's arrays, shared by every (N, alpha) mesh
        mesh = MeshSpec(6, 2.0, Family.NonReg, 0.3)
        for array in (mesh.nodes, mesh.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_normalization_value(self):
        # Gamma(N+alpha+1)/N! at N=2, alpha=1 is 3!/2! = 3
        assert basis._normalization(2, 1.0) == pytest.approx(3.0, rel=1e-15)
        assert basis._normalization(4, 0.0) == pytest.approx(1.0, rel=1e-14)
        # integer alpha is an exact product; a difference of log-gammas over
        # the whole of alpha would leave a bias of about 3e-13 here
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for N, alpha in [(300, 1.0), (300, 2.0)]:
                want = float(mp.gamma(N + alpha + 1) / mp.factorial(N))
                assert basis._normalization(N, alpha) == pytest.approx(want, rel=1e-15)
            for N, alpha in [(300, 0.5), (50, 3.7)]:
                want = float(mp.rf(N + 1, mp.mpf(alpha)))
                assert basis._normalization(N, alpha) == pytest.approx(want, rel=1e-13)


class TestCardinality:
    @pytest.mark.parametrize("family,alpha", PAIRINGS)
    @pytest.mark.parametrize("N", [4, 15, 40])
    def test_scaled_values_at_nodes(self, family, alpha, N):
        mesh = MeshSpec(N, alpha, family, 0.37)
        scale = 1.0 / np.sqrt(mesh.h * mesh.weights)
        for j in (1, N // 2 + 1, N):
            vals = basis_function(mesh, j, mesh.h * mesh.nodes)
            expect = np.zeros(N)
            expect[j - 1] = scale[j - 1]
            assert np.all(np.abs(vals - expect) <= 1e-10 * scale[j - 1])

    @pytest.mark.parametrize("family,alpha", PAIRINGS)
    def test_last_node_value_at_n_1000(self, family, alpha):
        # the last node lies near x = 3950, where exp(-x/2) underflows
        mesh = MeshSpec(1000, alpha, family, 1.0)
        value = basis_function(mesh, 1000, mesh.nodes[-1])
        assert value * math.sqrt(mesh.weights[-1]) == pytest.approx(1.0, abs=1e-10)

    def test_node_value_within_tight_tolerance(self):
        mesh = MeshSpec(12, 1.0, "RegSqrt", 0.5)
        for i in range(1, 13):
            got = basis_function(mesh, i, mesh.h * mesh.nodes[i - 1])
            want = 1.0 / math.sqrt(mesh.h * mesh.weights[i - 1])
            assert got == pytest.approx(want, rel=1e-12)


class TestEvaluateBasis:
    def test_scalar_and_array_agree(self):
        mesh = MeshSpec(8, 1.0, "RegSqrt", 0.6)
        rr = np.array([0.0, 0.1, 1.7, 4.2])
        arr = basis_function(mesh, 3, rr)
        for k, r in enumerate(rr):
            assert basis_function(mesh, 3, float(r)) == arr[k]

    def test_continuity_across_near_node_switch(self):
        # values on either side of the evaluation-branch boundary must agree
        mesh = MeshSpec(20, 1.0, "RegSqrt", 1.0)
        rj = mesh.nodes[7]
        eps = near_window(mesh.nodes)[7]
        for j in (3, 8, 15):
            lo = basis_function(mesh, j, rj + 0.999 * eps)
            hi = basis_function(mesh, j, rj + 1.001 * eps)
            mid = basis_function(mesh, j, rj + eps)
            assert abs(hi - lo) < 0.01 * max(abs(lo), 1e-10) + abs(hi - mid) * 5
            # tight check: compare against a high-order finite-difference model
            assert mid == pytest.approx((lo + hi) / 2, abs=1e-6 * max(1.0, abs(mid)))

    def test_derivatives_match_finite_differences(self):
        mesh = MeshSpec(10, 1.0, "RegSqrt", 1.0)
        xs = np.array([0.7, 3.33, mesh.nodes[4] + 1e-5, 17.0])
        v, d1, d2 = _eval_all(mesh, xs, derivatives=True)
        step = 1e-6
        for j in (0, 4, 9):
            vp = _eval_all(mesh, xs + step)[j]
            vm = _eval_all(mesh, xs - step)[j]
            num1 = (vp - vm) / (2 * step)
            num2 = (vp - 2 * v[j] + vm) / step**2
            assert np.allclose(num1, d1[j], rtol=1e-8, atol=1e-8)
            assert np.allclose(num2, d2[j], rtol=1e-3, atol=1e-3)

    def test_family_relations(self):
        # sqrt(r/r_j) and (r/r_j) regularizations relative to the plain family
        N, alpha, h = 9, 1.0, 0.5
        plain = MeshSpec(N, alpha, "NonReg", h)
        sqrt_reg = MeshSpec(N, alpha, "RegSqrt", h)
        r_reg = MeshSpec(N, alpha, "RegR", h)
        rr = np.linspace(0.05, 12.0, 40)
        for j in range(1, N + 1):
            rj = h * plain.nodes[j - 1]
            f = basis_function(plain, j, rr)
            ft = basis_function(sqrt_reg, j, rr)
            fh = basis_function(r_reg, j, rr)
            top = np.max(np.abs(f))
            assert np.max(np.abs(ft * np.sqrt(rj / rr) - f)) <= 1e-12 * top
            assert np.max(np.abs(fh * (rj / rr) - f)) <= 1e-12 * top

    @pytest.mark.parametrize("family,alpha", PAIRINGS)
    def test_near_origin_slope_is_one(self, family, alpha):
        # all three families behave like r near the origin at these alpha
        mesh = MeshSpec(10, alpha, family, 0.8)
        r1, r2 = 1e-6 * mesh.h, 1e-4 * mesh.h
        for j in (1, 5, 10):
            v1 = basis_function(mesh, j, r1)[0]
            v2 = basis_function(mesh, j, r2)[0]
            slope = (math.log(abs(v2)) - math.log(abs(v1))) / math.log(r2 / r1)
            assert slope == pytest.approx(1.0, abs=1e-3)

    def test_value_at_zero(self):
        for family, alpha in PAIRINGS:
            mesh = MeshSpec(7, alpha, family, 0.8)
            assert basis_function(mesh, 2, 0.0) == 0.0
        # NonReg with alpha = 0 tends to a finite nonzero limit
        mesh = MeshSpec(7, 0.0, "NonReg", 0.8)
        v0 = basis_function(mesh, 2, 0.0)[0]
        v1 = basis_function(mesh, 2, 1e-9)[0]
        assert v0 != 0.0
        assert math.isfinite(v0)
        assert v1 == pytest.approx(v0, rel=1e-6)


class TestBatchedKernels:
    @staticmethod
    def _near_node_batch(mesh):
        # around several nodes (the last lies past x = 1416 at N = 400): the
        # node itself (s = 0), |s| = 1e-9, and points just inside and just
        # outside the near-node window
        idx = np.unique(np.linspace(0, mesh.N - 1, 6).astype(int))
        r, w = mesh.nodes[idx], near_window(mesh.nodes)[idx]
        offsets = [0.0, 1e-9, -1e-9, 0.999, -0.999, 1.001, -1.001, 0.3]
        return np.concatenate([r + f * (w if abs(f) > 1e-6 else 1.0) for f in offsets])

    @pytest.mark.parametrize("N", [20, 150, 400])
    def test_near_node_batch_matches_single_points(self, N):
        # a point's node, offset and series do not depend on the other
        # points of the call
        mesh = MeshSpec(N, 1.0, "RegSqrt", 1.0)
        x = self._near_node_batch(mesh)

        def near(x):
            i, j, s = basis._near_node(mesh.nodes, x)
            return i, j, basis._cardinal_series(N, 1.0, mesh.nodes[j], s)

        i, j, batch = near(x)
        assert i.size == 6 * 6  # six nodes: s = 0, +-1e-9, +-0.999 and 0.3 windows
        for k in range(x.size):
            _, j_single, single = near(x[k:k + 1])
            assert np.array_equal(j_single, j[i == k]) and np.array_equal(single, batch[i == k])

    @pytest.mark.parametrize("N", [1, 2, 20, 150, 400])
    def test_near_pairs_match_the_full_window_test(self, N):
        # the binary search finds exactly the pairs of the window test on
        # every (node, point) offset, and no point is near two nodes
        mesh = MeshSpec(N, 1.0, "RegSqrt", 1.0)
        nodes = mesh.nodes
        x = np.concatenate([[0.0], self._near_node_batch(mesh),
                            np.linspace(0.0, 1.1 * nodes[-1], 1001)])
        x = np.random.default_rng(N).permutation(x[x >= 0.0])
        s = x[None, :] - nodes[:, None]
        want_j, want_i = np.nonzero(np.abs(s) < near_window(nodes)[:, None])
        assert np.unique(want_i).size == want_i.size
        i, j, s_near = basis._near_node(nodes, x)
        order = np.argsort(want_i)
        assert np.array_equal(i, want_i[order]) and np.array_equal(j, want_j[order])
        assert np.array_equal(s_near, s[want_j[order], want_i[order]])

    @pytest.mark.parametrize("family, alpha", PAIRINGS)
    def test_values_only_path_is_bit_identical(self, family, alpha):
        # the reference's values agree with or without derivatives, and the
        # package's short series agrees with the reference's 60-term value
        # series inside the window
        mesh = MeshSpec(150, alpha, family, 1.0)
        x = np.concatenate([self._near_node_batch(mesh), np.linspace(0.01, 600.0, 97)])
        assert np.array_equal(_eval_all(mesh, x), _eval_all(mesh, x, derivatives=True)[0])
        assert weighted_cardinal_all(mesh, x)[1:] == (None, None)
        _, j, s = basis._near_node(mesh.nodes, x)
        got = basis._cardinal_series(150, alpha, mesh.nodes[j], s)
        t = [t[j] for t in node_derivatives(150, alpha)]
        want = taylor_series(150, alpha, mesh.nodes[j], t, s)[0] / t[0]
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


    @pytest.mark.parametrize("family, alpha", PAIRINGS)
    def test_values_only_reference_matches_the_package_at_n_400(self, family, alpha):
        # between the package's window and the next node both take the pole
        # form; a window wider than half the gap took the 60-term series there
        mesh = MeshSpec(400, alpha, family, 1.0)
        nodes = mesh.nodes
        gap = near_window(nodes) / basis._NEAR_GAP_FRACTION
        offsets = np.array([0.15, 0.4, 0.65, 0.9, -0.15, -0.4, -0.65, -0.9])
        x = (nodes[:, None] + offsets * gap[:, None]).ravel()
        picked = np.r_[0:mesh.N:8, mesh.N - 1]  # every eighth function, to keep it short
        want = _eval_all(mesh, x)[picked]
        got = np.stack([reconstruct_wavefunction(mesh, e, x) for e in np.eye(mesh.N)[picked]])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=1, keepdims=True))


class TestDerivativeValuesAtNodes:
    def test_two_point_first_derivative(self):
        # N=2, alpha=1 mesh points are 3 -/+ sqrt(3)
        mesh = MeshSpec(2, 1.0, "RegSqrt", 1.0)
        r = mesh.nodes
        lam = mesh.weights
        assert r[0] == pytest.approx(3.0 - math.sqrt(3.0), rel=1e-14)
        d1, _ = _node_derivatives(mesh)
        got = math.sqrt(lam[0]) * d1[0, 1]
        assert got == pytest.approx(-1.0 / (r[0] - r[1]), rel=1e-13)
        assert got == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), rel=1e-13)

    @pytest.mark.parametrize("N", [2, 7, 23])
    def test_first_derivative_closed_form(self, N):
        # lambda_i^(1/2) ftilde_j'(r_i) = (-1)^(i-j)/(r_i - r_j), zero diagonal
        mesh = MeshSpec(N, 1.0, "RegSqrt", 1.0)
        r = mesh.nodes
        lam = mesh.weights
        d1, _ = _node_derivatives(mesh)
        got = np.sqrt(lam)[:, None] * d1
        ii, jj = np.indices((N, N))
        with np.errstate(divide="ignore"):
            expect = (-1.0) ** (ii - jj) / (r[:, None] - r[None, :])
        np.fill_diagonal(expect, 0.0)
        mask = ~np.eye(N, dtype=bool)
        assert np.allclose(got[mask], expect[mask], rtol=5e-13)
        assert np.max(np.abs(np.diag(got))) < 1e-13 * np.max(np.abs(got))

    @pytest.mark.parametrize("N", [2, 7, 23])
    def test_second_derivative_diagonal_closed_form(self, N):
        # alpha = 1: lambda_i^(1/2) ftilde_i''(r_i) = -[2(2N+2) - r_i]/(12 r_i)
        mesh = MeshSpec(N, 1.0, "RegSqrt", 1.0)
        r = mesh.nodes
        lam = mesh.weights
        _, d2 = _node_derivatives(mesh)
        got = np.sqrt(lam) * np.diag(d2)
        expect = -(2.0 * (2.0 * N + 2.0) - r) / (12.0 * r)
        assert np.allclose(got, expect, rtol=5e-13)

    @pytest.mark.parametrize("family,alpha", PAIRINGS)
    def test_internal_matrices_match_generic_evaluation(self, family, alpha):
        # structural node formulas against the general evaluation path.  With
        # f_j = (r/r_j)^e g_j, g_j the RegSqrt function and e the family's
        # extra power, lambda_i^(1/2) f_j'(r_i) is (-1)^(i-j) (r_i/r_j)^e /
        # (r_i - r_j) off the diagonal and e/r_i on it; -lambda_i^(1/2)
        # f_i''(r_i) is the diagonal of the Gauss kinetic matrix,
        # (2(2N+alpha+1) - r_i - c/r_i)/(12 r_i) (Baye, Phys. Rep. 565 (2015) 1)
        N = 8
        mesh = MeshSpec(N, alpha, family, 1.0)
        r, sqrt_lam = mesh.nodes, np.sqrt(mesh.weights)
        e = _family_power(mesh.family, alpha) - 0.5 * (alpha + 1.0)
        c = alpha**2 + {"RegSqrt": -1.0, "RegR": -4.0, "NonReg": 8.0}[family]
        d1, d2 = _node_derivatives(mesh)
        ii, jj = np.indices((N, N))
        with np.errstate(divide="ignore"):
            want1 = ((-1.0) ** (ii - jj) * (r[:, None] / r[None, :]) ** e
                     / (r[:, None] - r[None, :]))
        np.fill_diagonal(want1, e / r)
        got1 = sqrt_lam[:, None] * d1
        assert np.allclose(got1, want1, rtol=0.0, atol=1e-13 * np.max(np.abs(want1)))
        want2 = -(2.0 * (2.0 * N + alpha + 1.0) - r - c / r) / (12.0 * r)
        got2 = sqrt_lam * np.diag(d2)
        assert np.allclose(got2, want2, rtol=0.0, atol=1e-13 * np.max(np.abs(want2)))


class TestSpanEquivalence:
    @pytest.mark.parametrize(
        "pair",
        [
            (("NonReg", 2.0), ("RegSqrt", 1.0)),
            (("NonReg", 2.0), ("RegR", 0.0)),
            (("RegSqrt", 1.0), ("RegR", 0.0)),
        ],
    )
    def test_cross_family_gram_has_full_rank(self, pair):
        # with these pairings every family spans r * P_{N-1} * e^{-r/2},
        # so any cross Gram matrix must be nonsingular; products are
        # polynomials times r^2 e^{-r} and integrate exactly on a larger rule
        N = 6
        (fam_a, al_a), (fam_b, al_b) = pair
        mesh_a = MeshSpec(N, al_a, fam_a, 1.0)
        mesh_b = MeshSpec(N, al_b, fam_b, 1.0)
        x, w = generate_rule(N + 10, 2.0)
        va = _eval_all(mesh_a, x)
        vb = _eval_all(mesh_b, x)
        gram = np.einsum("k,ik,jk->ij", w, va, vb)
        sing = np.linalg.svd(gram, compute_uv=False)
        assert sing[-1] > 1e-8 * sing[0]
        assert np.linalg.matrix_rank(gram, tol=1e-8 * sing[0]) == N


class TestReconstruct:
    def test_cardinal_reconstruction(self):
        mesh = MeshSpec(6, 1.0, "RegSqrt", 0.4)
        c = np.zeros(6)
        c[2] = 1.0
        got = reconstruct_wavefunction(mesh, c, mesh.h * mesh.nodes[2])
        assert got == pytest.approx(1.0 / math.sqrt(mesh.h * mesh.weights[2]), rel=1e-12)

    def test_matches_sum_of_basis_functions(self):
        mesh = MeshSpec(7, 2.0, "NonReg", 0.9)
        rng = np.random.default_rng(7)
        c = rng.standard_normal(7)
        rr = np.linspace(0.0, 9.0, 25)
        direct = sum(c[j] * basis_function(mesh, j + 1, rr) for j in range(7))
        assert np.allclose(reconstruct_wavefunction(mesh, c, rr), direct, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("family,alpha", PAIRINGS)
    @pytest.mark.parametrize("N", [1, 2, 7, 150, 400])
    def test_pole_sum_matches_basis_matrix_sum(self, family, alpha, N):
        # the reference contracts the N x len(r) basis matrix; h = 0.5 scales
        # every node exactly, so r / h hits each node (s = 0), and radii just
        # inside and just outside the near-node window, the origin, repeats
        # and an unsorted order are all in one call
        h = 0.5
        mesh = MeshSpec(N, alpha, family, h)
        rng = np.random.default_rng(N)
        c = rng.standard_normal(N)
        nodes = mesh.nodes
        window = near_window(nodes)
        x = np.concatenate([[0.0], nodes, nodes + 0.999 * window, nodes - 0.999 * window,
                            nodes + 1.001 * window, nodes - 1.001 * window,
                            np.linspace(0.0, 1.2 * nodes[-1], 211)])
        x = rng.permutation(np.concatenate([x, x[:N + 1]]))
        x = x[x >= 0.0]
        want = wavefunction(mesh, c, x)
        got = reconstruct_wavefunction(mesh, c, h * x)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for k in (0, 1, x.size - 1):
            scalar = reconstruct_wavefunction(mesh, c, float(h * x[k]))[0]
            assert abs(scalar - want[k]) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("family,alpha", SCHEME_MESHES)
    def test_lagrange_property_at_every_node(self, family, alpha):
        check_lagrange_property(400, family, alpha)

    @pytest.mark.parametrize("family,alpha", PAIRINGS)
    def test_near_nodes_against_mpmath(self, family, alpha):
        pytest.importorskip("mpmath")
        check_near_nodes_against_mpmath(150, family, alpha)

    @pytest.mark.parametrize("family", ["NonReg", "RegSqrt", "RegR"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_huge_radii_give_zero(self, family, alpha, h):
        # x**p overflows out there while B_N underflows, which gave nan; at
        # h < 1 the largest double over h overflows as well.  A RuntimeWarning
        # fails the test (pyproject filterwarnings)
        mesh = MeshSpec(10, alpha, family, h)
        r = [1e200, 1e300, 1.7e308, np.finfo(float).max]
        got = reconstruct_wavefunction(mesh, np.ones(10), r)
        assert np.array_equal(got, np.zeros(4))


# each refusal that this module checked is a row of test_domain.CASES, run
# here under the id of the check it took over
attach(globals(), CASES, refused)
