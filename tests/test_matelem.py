"""Tests for operator matrices and Hamiltonian assembly."""

import collections
import concurrent.futures
import dataclasses
import gc
import itertools
import math
import re
import sys
import weakref

import numpy as np
import pytest

from lagmesh import basis, cli, matelem
from lagmesh.basis import Family, MeshSpec, _family_power
from lagmesh.matelem import (
    HamiltonianVariant,
    Mode,
    SCHEMES,
    _potential_matrix,
    classify_singularity,
    hamiltonian_2d,
    hamiltonian_3d,
    operator_matrix,
    scheme_mesh,
)
from lagmesh.potentials import PotentialSpec, builtin, evaluate
from lagmesh.quadrature import generate_rule

from scipy.linalg import eigh

from cli_refusals import attach
from reference import OPERATORS as OPERATOR_TAGS
from reference import exact_mpmath, oracle_matrix
from test_basis import _eval_all
from test_domain import CASES, from_text, refused


def mesh_regsqrt(N, alpha=1.0, h=1.0):
    return MeshSpec(N, alpha, Family.RegSqrt, h)


# The (family, operator) cells whose Exact matrix some scheme reads: every
# operator on RegSqrt (Var and Var2D), -d^2/dr^2 and 1/r^2 on NonReg (NonReg
# and NonRegVG), none on RegR, whose scheme is Gauss throughout.
EXACT_READ = ({("RegSqrt", op) for op in matelem._OPERATORS}
              | {("NonReg", "kinetic"), ("NonReg", "1/r^2")})


def unread_exact(mesh, op):
    """Whether no scheme reads the Exact ``op`` matrix on ``mesh``'s family,
    after checking that ``operator_matrix`` raises for it exactly then."""
    family = mesh.family.name
    if (family, op) in EXACT_READ:
        return False
    with pytest.raises(ValueError, match=f"^no Exact {re.escape(op)} matrix on family {family}: "
                                         "no scheme reads it$"):
        operator_matrix(mesh, op, Mode.Exact)
    return True


class TestWorkedExamples:
    """Closed-form entries at N=2, alpha=1, where the nodes are 3 -+ sqrt(3)."""

    mesh = MeshSpec(2, 1.0, Family.RegSqrt, 1.0)

    def test_nodes_are_three_plus_minus_sqrt3(self):
        assert self.mesh.nodes == pytest.approx([3 - math.sqrt(3), 3 + math.sqrt(3)])

    def test_r_offdiagonal(self):
        M = operator_matrix(self.mesh, "r", Mode.Exact)
        assert M[0, 1] == pytest.approx(-1.0, rel=1e-14)

    def test_r_diagonal(self):
        M = operator_matrix(self.mesh, "r", Mode.Exact)
        assert M[0, 0] == pytest.approx(4 - math.sqrt(3), rel=1e-14)

    def test_inverse_square_offdiagonal(self):
        # product of the nodes is 6
        M = operator_matrix(self.mesh, "1/r^2", Mode.Exact)
        assert M[0, 1] == pytest.approx(-1.0 / 6.0, rel=1e-14)

    def test_r_squared_offdiagonal(self):
        M = operator_matrix(self.mesh, "r^2", Mode.Exact)
        assert M[0, 1] == pytest.approx(-12.0, rel=1e-14)

    def test_kinetic_offdiagonal(self):
        # (r_1 - r_2)^2 = 12
        M = operator_matrix(self.mesh, "kinetic", Mode.Exact)
        assert M[0, 1] == pytest.approx(-1.0 / 6.0, rel=1e-14)

    def test_kinetic_reference_element(self):
        # 40-digit quadrature of the defining integral, alpha=2, N=12
        mesh = mesh_regsqrt(12, alpha=2.0)
        M = operator_matrix(mesh, "kinetic", Mode.Exact)
        assert M[6, 6] == pytest.approx(0.29393774276835610665, rel=1e-12)


class TestClosedFormsAgainstOracle:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("N", [2, 5, 12, 30])
    def test_power_forms(self, N, alpha):
        mesh = mesh_regsqrt(N, alpha)
        for op, tag in [("1/r^2", "InvR2"), ("1/r", "InvR"), ("r", "R"), ("r^2", "R2")]:
            closed = operator_matrix(mesh, op, Mode.Exact)
            oracle = oracle_matrix(mesh, tag)
            scale = np.abs(oracle).max()
            assert np.abs(closed - oracle).max() <= 1e-11 * scale, (op, N, alpha)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("N", [2, 5, 12, 30])
    def test_kinetic_and_ddr(self, N, alpha):
        mesh = mesh_regsqrt(N, alpha)
        closed = operator_matrix(mesh, "kinetic", Mode.Exact)
        oracle = oracle_matrix(mesh, "Kinetic")
        assert np.abs(closed - oracle).max() <= 1e-11 * np.abs(oracle).max()

    @pytest.mark.parametrize("N", [3, 10, 25])
    def test_combined_2d_form(self, N):
        mesh = mesh_regsqrt(N, 0.0)
        closed = operator_matrix(mesh, "kinetic2d")
        oracle = oracle_matrix(mesh, "Kinetic2D")
        assert np.abs(closed - oracle).max() <= 1e-11 * np.abs(oracle).max()

    @pytest.mark.parametrize("N", [3, 10, 25])
    def test_combined_2d_form_on_the_var2d_basis(self, N):
        # alpha = 2: the Exact value is the closed -d^2/dr^2 minus a quarter
        # of the closed 1/r^2
        mesh = mesh_regsqrt(N, 2.0)
        closed = operator_matrix(mesh, "kinetic2d", Mode.Exact)
        oracle = oracle_matrix(mesh, "Kinetic2D")
        assert np.abs(closed - oracle).max() <= 1e-11 * np.abs(oracle).max()

    def test_oracle_invr_is_diagonal_of_inverse_nodes(self):
        mesh = mesh_regsqrt(8, 2.0)
        oracle = oracle_matrix(mesh, "InvR")
        assert np.allclose(oracle, np.diag(1.0 / mesh.nodes), atol=1e-14)

    @pytest.mark.parametrize("family,alpha", [("NonReg", 0.0), ("NonReg", 1.0), ("NonReg", 2.0),
                                              ("RegR", 0.0), ("RegR", 2.0),
                                              ("RegSqrt", 0.0), ("RegSqrt", 1.0), ("RegSqrt", 2.0),
                                              ("NonReg", 0.5), ("NonReg", 1.5),
                                              ("RegR", 0.5), ("RegR", 1.5),
                                              ("RegSqrt", 0.5), ("RegSqrt", 1.5)])
    @pytest.mark.parametrize("N", [2, 5, 12, 30, 40])
    def test_gauss_plus_correction_forms(self, N, family, alpha):
        # the Gauss matrix plus its low-rank correction on every cell a scheme
        # reads, every operator the oracle can integrate; both raise on the
        # same divergent elements, and the cells no scheme reads raise
        mesh = MeshSpec(N, alpha, family, 1.0)
        for tag in OPERATOR_TAGS:
            if unread_exact(mesh, _TAG_OPS[tag]):
                continue
            try:
                want = oracle_matrix(mesh, tag)
            except ValueError:
                with pytest.raises(ValueError, match="divergent"):
                    _exact_matrix(mesh, tag)
                continue
            if N >= 30 and tag in ("Kinetic", "Kinetic2D"):
                # the oracle's second derivatives are divided differences,
                # where a node's rounding enters as a pole: at N = 40 the
                # nodes' last bits move it by up to 2e-11
                want = exact_mpmath(mesh, tag, dps=120)
            closed = _exact_matrix(mesh, tag)
            assert np.abs(closed - want).max() <= 1e-11 * np.abs(want).max(), tag


_TAG_OPS = {"InvR2": "1/r^2", "InvR": "1/r", "R": "r", "R2": "r^2", "Kinetic": "kinetic",
            "Kinetic2D": "kinetic2d"}


def _exact_matrix(mesh, tag):
    """The package's Exact matrix of the operator a reference tag names."""
    return operator_matrix(mesh, _TAG_OPS[tag], Mode.Exact)


class TestGaussError:
    """Every Exact matrix is its Gauss matrix plus a correction of rank at
    most 3, on every cell a scheme reads."""

    @pytest.mark.parametrize("family,alpha", [
        ("NonReg", 0.0), ("NonReg", 2.0), ("NonReg", 3.0),
        ("RegSqrt", 0.0), ("RegSqrt", 1.0), ("RegSqrt", 2.0),
        ("RegR", 0.0), ("RegR", 2.0),
    ])
    def test_exact_minus_gauss_has_rank_at_most_3(self, family, alpha):
        mesh = MeshSpec(20, alpha, family, 1.0)
        for op in matelem._OPERATORS:
            if unread_exact(mesh, op):
                continue
            try:
                exact = operator_matrix(mesh, op, Mode.Exact)
            except ValueError as e:
                assert str(e).startswith(f"divergent integral: {op} on family {family}")
                continue
            s = np.linalg.svd(exact - operator_matrix(mesh, op, Mode.Gauss), compute_uv=False)
            assert np.all(s[3:] <= 1e-12 * s[0]), (op, s[3] / s[0])

    # the cells whose correction is 0: RegSqrt 1/r and 1 at any alpha, the
    # kinetic operator at alpha = 1 (Var's default) and the 2D one at alpha = 0,
    # and NonReg's kinetic operator at alpha = 0
    @pytest.mark.parametrize("family, op, alpha", [
        ("RegSqrt", "1/r", 0.0), ("RegSqrt", "1/r", 1.0), ("RegSqrt", "1/r", 2.0),
        ("RegSqrt", "1", 0.0), ("RegSqrt", "1", 1.0), ("RegSqrt", "1", 2.5),
        ("RegSqrt", "kinetic", 1.0), ("RegSqrt", "kinetic2d", 0.0), ("NonReg", "kinetic", 0.0),
    ])
    def test_exact_cell_the_rule_integrates_is_the_gauss_cell(self, family, op, alpha):
        for N in (5, 30, 150, 400):
            mesh = MeshSpec(N, alpha, family, 1.0)
            assert matelem._gauss_error(mesh, op) is None
            # bit for bit, signed zeros included
            exact, gauss = (operator_matrix(mesh, op, mode).tobytes() for mode in Mode)
            assert exact == gauss, (N, op)


class TestExactAgainstMpmath:
    """Every Exact matrix a scheme reads within a few ulps of the largest
    entry of a 40-digit reference."""

    @pytest.mark.slow
    @pytest.mark.parametrize("family,alpha", [
        ("NonReg", 1.0), ("NonReg", 2.0), ("NonReg", 3.0),
        ("RegSqrt", 0.0), ("RegSqrt", 1.0), ("RegSqrt", 2.0),
        ("RegR", 0.0), ("RegR", 2.0),
    ])
    @pytest.mark.parametrize("N", [6, 12])
    def test_every_operator(self, family, alpha, N):
        pytest.importorskip("mpmath")
        mesh = MeshSpec(N, alpha, family, 1.0)
        for tag in OPERATOR_TAGS:
            if unread_exact(mesh, _TAG_OPS[tag]):
                continue
            try:
                got = _exact_matrix(mesh, tag)
            except ValueError:
                # divergent: the oracle's power count agrees
                with pytest.raises(ValueError):
                    oracle_matrix(mesh, tag)
                continue
            want = exact_mpmath(mesh, tag)
            assert np.abs(got - want).max() <= 5e-15 * np.abs(want).max(), tag


class TestExactElementOracle:
    def test_single_element_matches_matrix(self):
        # RegSqrt closed form: <f_i|r|f_j> = (-1)^(i-j) off the diagonal
        M = oracle_matrix(mesh_regsqrt(6), "R")
        assert M[1, 4] == pytest.approx(-1.0, abs=1e-11)

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="operator tag"):
            oracle_matrix(mesh_regsqrt(4), "Cubic")

    def test_centrifugal_integrand_finite_for_plain_family(self):
        # leading basis power r^1 at alpha=2 gives integrand r^0 at origin
        mesh = MeshSpec(6, 2.0, Family.NonReg, 1.0)
        val = operator_matrix(mesh, "1/r^2", Mode.Exact)[0, 0]
        assert np.isfinite(val) and val > 0.0
        assert val == pytest.approx(oracle_matrix(mesh, "InvR2")[0, 0], rel=1e-12)


def _exact_overlap(mesh):
    """Gram matrix of the basis by a rule that integrates it exactly: after
    the weight x**e e**-x is factored out, f_i f_j is a polynomial of degree
    2N - 2, which an (N + 60)-point rule with exponent e integrates exactly."""
    e = mesh.alpha + {Family.RegSqrt: 1.0, Family.RegR: 2.0, Family.NonReg: 0.0}[mesh.family]
    x, w = generate_rule(mesh.N + 60, e)
    F = np.array([basis.reconstruct_wavefunction(mesh, c, x) for c in np.eye(mesh.N)])
    return (F * w) @ F.T


class TestOverlap:
    """The paper's claim: the sqrt(r)-regularized and non-regularized
    functions are exactly orthonormal, the r-regularized ones are not."""

    @pytest.mark.parametrize("family,alpha", [("NonReg", 2.0), ("RegSqrt", 1.0), ("RegR", 0.0)])
    def test_gauss_overlap_is_identity(self, family, alpha):
        # the rule applied to f_i f_j is the identity on every family (the
        # Lagrange conditions), so a scheme that takes the Gauss overlap, as
        # RegRMesh does, solves H c = E c like the others
        mesh = MeshSpec(9, alpha, family, 0.4)
        r = mesh.h * mesh.nodes
        F = np.array([basis.reconstruct_wavefunction(mesh, c, r) for c in np.eye(9)])
        assert np.abs((F * (mesh.h * mesh.weights)) @ F.T - np.eye(9)).max() <= 1e-13

    @pytest.mark.parametrize(
        "family,alpha",
        [("NonReg", 2.0), ("RegSqrt", 0.0), ("RegSqrt", 1.0), ("RegSqrt", 3.0)],
    )
    def test_exact_overlap_identity_for_orthonormal_families(self, family, alpha):
        S = _exact_overlap(MeshSpec(10, alpha, family, 1.0))
        assert np.abs(S - np.eye(10)).max() <= 1e-13

    def test_exact_overlap_r_regularized_family(self):
        # frozen 40-digit quadrature references; these functions are far
        # from orthonormal at small N
        S = _exact_overlap(MeshSpec(5, 0.0, Family.RegR, 1.0))
        assert abs(S[0, 1]) > 1e-3
        assert S[0, 1] == pytest.approx(-1.638426537792149, rel=1e-12)
        assert S[0, 0] == pytest.approx(4.794197855995278, rel=1e-12)

    # every alpha the scheme accepts among 0, 0.5, 1, 2, 3
    ALPHAS = {
        "Var": (0.5, 1.0, 2.0, 3.0),
        "RegSqrtMesh": (0.0, 0.5, 1.0, 2.0, 3.0),
        "RegRMesh": (0.0, 0.5, 1.0, 2.0, 3.0),
        "NonReg": (2.0, 3.0),
        "NonRegVG": (2.0, 3.0),
    }

    @pytest.mark.parametrize("variant", ALPHAS)
    def test_every_3d_scheme_returns_its_basis(self, variant):
        # H is written in the given mesh, and the builder hands back that object
        for N in (5, 40, 150):
            for alpha in self.ALPHAS[variant]:
                mesh = scheme_mesh(HamiltonianVariant[variant], N, 0.6, alpha)
                H, basis = hamiltonian_3d(mesh, 1, builtin("coulomb"), variant)
                assert basis is mesh and H.shape == (N, N)

    @pytest.mark.parametrize("variant,m", [("RegSqrtMesh2D", 0), ("RegSqrtMesh2D", 1),
                                           ("Var2D", 0), ("Var2D", 1), ("Var2D", 2)])
    def test_both_2d_schemes_return_their_basis(self, variant, m):
        mesh = mesh_regsqrt(12, 0.0, h=0.6)
        H, basis = hamiltonian_2d(mesh, m, builtin("coulomb"), variant)
        if variant == "Var2D" and m > 0:
            # the exact 1/rho^2 element diverges at alpha = 0
            assert basis == MeshSpec(11, 2.0, Family.RegSqrt, 0.6)
        else:
            assert basis is mesh
        assert H.shape == (basis.N, basis.N)


    @pytest.mark.parametrize("variant", list(SCHEMES), ids=[v.name for v in SCHEMES])
    @pytest.mark.parametrize("angular", [0, 1, 3])
    def test_the_builder_takes_the_rules_basis(self, variant, angular):
        # the one rule of the basis, which the CLI's config check reads too
        build = hamiltonian_2d if SCHEMES[variant][3] == 2 else hamiltonian_3d
        for N, h in ((6, 0.5), (40, 0.06)):
            mesh = scheme_mesh(variant, N, h)
            H, basis = build(mesh, angular, builtin("coulomb"), variant)
            rule, _ = matelem._exact_reads(variant, angular, mesh)
            assert basis == rule and H.shape == (rule.N, rule.N)


class TestExactSymmetry:
    """Every operator matrix and every Hamiltonian equals its transpose bit
    for bit, so an eigensolver reads the same H from either triangle."""

    @pytest.mark.parametrize("family, op", sorted((f.name, op) for f, op in matelem._EXACT_READ))
    def test_every_exact_cell(self, family, op):
        for N, alpha in ((8, 3.0), (40, 2.0), (150, 2.5)):
            M = operator_matrix(MeshSpec(N, alpha, family, 1.0), op, Mode.Exact)
            assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("family", [f.name for f in Family])
    def test_every_gauss_kinetic_family(self, family):
        for N, alpha in ((8, 0.0), (40, 2.0), (150, 1.0), (300, 2.5)):
            for op in ("kinetic", "kinetic2d"):
                M = operator_matrix(MeshSpec(N, alpha, family, 1.0), op)
                assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("variant", list(SCHEMES), ids=[v.name for v in SCHEMES])
    def test_every_scheme_hamiltonian(self, variant):
        build = hamiltonian_2d if SCHEMES[variant][3] == 2 else hamiltonian_3d
        for N, h, angular, V in itertools.product(
                (30, 150), (1e-3, 0.06, 1.0), (0, 1, 3), (builtin("harmonic"), builtin("coulomb"))):
            H, _ = build(scheme_mesh(variant, N, h), angular, V, variant)
            assert np.array_equal(H, H.T), (N, h, angular, V.label)


class TestKinetic:
    def test_alpha_one_exact_equals_gauss(self):
        for N in (3, 12, 24):
            mesh = mesh_regsqrt(N, 1.0)
            exact = operator_matrix(mesh, "kinetic", Mode.Exact)
            gauss = operator_matrix(mesh, "kinetic", Mode.Gauss)
            assert np.abs(exact - gauss).max() <= 1e-14

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_gauss_closed_form_matches_node_derivative_quadrature(self, alpha):
        # the closed Gauss form and the quadrature sum lambda_i^(1/2) f_j''(r_i)
        # are the same object computed two ways, on every family
        for family in Family:
            mesh = MeshSpec(15, alpha, family, 1.0)
            closed = operator_matrix(mesh, "kinetic", Mode.Gauss)
            d2 = _eval_all(mesh, mesh.nodes, derivatives=True)[2].T
            raw = -np.sqrt(mesh.weights)[:, None] * d2
            assert np.abs(closed - 0.5 * (raw + raw.T)).max() <= 1e-13 * np.abs(closed).max()

    @staticmethod
    def _gauss_kinetic_mpmath(mesh):
        """The Gauss matrix -(lambda_i^(1/2) f_j''(r_i) + (i <-> j))/2 at 40
        digits: nodes by Newton on L_N, f_j = (-1)^j r_j^-e x^p e^(-x/2)
        L_N(x)/(x - r_j) with the quotient polynomial formed by synthetic
        division (e = p - (alpha+1)/2), and lambda_i^(1/2) = 1/f_i(r_i)."""
        mp = pytest.importorskip("mpmath")
        N = mesh.N
        with mp.workdps(40):
            a = mp.mpf(mesh.alpha)
            p = mp.mpf(_family_power(mesh.family, mesh.alpha))
            e = p - (a + 1) / 2
            r = []
            for x in mesh.nodes:
                x = mp.mpf(x)
                for _ in range(4):
                    x += mp.laguerre(N, a, x) / mp.laguerre(N - 1, a + 1, x)
                r.append(x)
            # L_N^(alpha), highest power first
            lag = [(-1) ** k * mp.binomial(N + a, N - k) / mp.factorial(k)
                   for k in range(N, -1, -1)]
            quotients = []
            for rj in r:
                q = [lag[0]]
                for c in lag[1:-1]:
                    q.append(c + rj * q[-1])
                quotients.append(q)

            def f(j, x):
                return ((-1) ** j * r[j] ** -e * x**p * mp.exp(-x / 2)
                        * mp.polyval(quotients[j], x))

            raw = [[mp.diff(lambda x, j=j: f(j, x), r[i], 2) / f(i, r[i]) for j in range(N)]
                   for i in range(N)]
            return np.array([[float(-(raw[i][j] + raw[j][i]) / 2) for j in range(N)]
                             for i in range(N)])

    @pytest.mark.slow
    @pytest.mark.parametrize("family", ["RegR", "NonReg"])
    @pytest.mark.parametrize("N", [6, 12])
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_gauss_matches_mpmath(self, family, N, alpha):
        # the closed form stays within a few ulps of the largest entry, where
        # the chain rule on node derivatives lost up to 1.5e-14
        mesh = MeshSpec(N, alpha, family, 1.0)
        want = self._gauss_kinetic_mpmath(mesh)
        got = operator_matrix(mesh, "kinetic", Mode.Gauss)
        assert np.abs(got - want).max() <= 5e-15 * np.abs(want).max()

    @pytest.mark.parametrize(
        "family,alpha,variant_mode",
        [("NonReg", 2.0, Mode.Exact), ("RegR", 0.0, Mode.Gauss), ("RegR", 0.0, Mode.Exact)],
    )
    def test_symmetric_for_other_families(self, family, alpha, variant_mode):
        mesh = MeshSpec(11, alpha, family, 1.0)
        if variant_mode is Mode.Exact and unread_exact(mesh, "kinetic"):
            return
        K = operator_matrix(mesh, "kinetic", variant_mode)
        assert np.abs(K - K.T).max() <= 1e-13 * max(1.0, np.abs(K).max())


class TestKinetic2D:
    def test_combined_diagonal_small_case(self):
        # diagonal -(1/12 r_i)[2(2N+1) - r_i - 2/r_i] with the stored sign
        mesh = mesh_regsqrt(3, 0.0)
        K = operator_matrix(mesh, "kinetic2d")
        r = mesh.nodes
        want = (2.0 * 7.0 - r - 2.0 / r) / (12.0 * r)
        assert np.diag(K) == pytest.approx(want, rel=1e-14)

    def test_combined_equals_gauss_kinetic_minus_quarter_inverse_square(self):
        mesh = mesh_regsqrt(9, 0.0)
        k2d = operator_matrix(mesh, "kinetic2d")
        k3d = operator_matrix(mesh, "kinetic", Mode.Gauss)
        assert np.allclose(k2d, k3d - np.diag(0.25 / mesh.nodes**2), atol=1e-13)


class TestPotentialMatrix:
    def test_gauss_is_diagonal_at_scaled_nodes(self):
        # a Gauss potential goes onto H's diagonal alone, as V(h r_i)
        V = builtin("harmonic")
        mesh = MeshSpec(6, 2.0, Family.NonReg, 0.3)
        H, _ = hamiltonian_3d(mesh, 0, V, "NonReg")
        M = H - operator_matrix(mesh, "kinetic", Mode.Exact) / (2.0 * 0.3**2)
        assert np.allclose(M, np.diag(0.5 * (0.3 * mesh.nodes) ** 2),
                           rtol=1e-12, atol=1e-13 * np.abs(H).max())

    def test_exact_power_potential_uses_closed_forms(self):
        V = builtin("harmonic")
        mesh = mesh_regsqrt(5, 1.0, h=0.2)
        M = _potential_matrix(mesh, V)
        want = 0.5 * 0.2**2 * operator_matrix(mesh, "r^2", Mode.Exact)
        assert np.array_equal(M, want)

    def test_exact_constant_term(self):
        # a constant is the operator "1": the identity on the sqrt(r) family,
        # the one whose Exact potential a scheme reads
        one = PotentialSpec(label="one", terms=((1.0, 0.0, 0.0, 0.0),))
        for alpha in (0.0, 1.0):
            mesh = MeshSpec(8, alpha, Family.RegSqrt, 0.3)
            assert np.array_equal(_potential_matrix(mesh, one), np.eye(8))
        for family, alpha in (("NonReg", 2.0), ("RegR", 0.0), ("RegR", 2.0)):
            with pytest.raises(ValueError, match=f"^no Exact 1 matrix on family {family}"):
                _potential_matrix(MeshSpec(8, alpha, family, 0.3), one)

    # the ids keep the names these cases had when the 2D schemes were an enum
    # of their own
    @pytest.mark.parametrize("variant", [HamiltonianVariant.Var, HamiltonianVariant.Var2D],
                             ids=["HamiltonianVariant.Var", "Variant2D.Var2D"])
    @pytest.mark.parametrize("angular", [0, 1, 2])
    def test_constant_shifts_variational_levels(self, variant, angular):
        build = hamiltonian_2d if SCHEMES[variant][3] == 2 else hamiltonian_3d
        mesh = scheme_mesh(variant, 30, 0.1)
        shifted = PotentialSpec(label="shifted", terms=((0.5, 2.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)))
        E = np.linalg.eigvalsh(build(mesh, angular, builtin("harmonic"), variant)[0])[:5]
        E_shifted = np.linalg.eigvalsh(build(mesh, angular, shifted, variant)[0])[:5]
        assert np.abs(E_shifted - (E + 1.0)).max() <= 1e-12

    @pytest.mark.parametrize("term", [(1.0, 0.0, 0.1, 0.0), (1.0, -1.0, 0.0, 0.5),
                                      (1.0, 1.5, 0.0, 0.0), (1.0, -0.5, 0.0, 0.0)],
                             ids=["gaussian", "yukawa", "p=1.5", "p=-0.5"])
    @pytest.mark.parametrize("variant", ["Var", "Var2D"])
    def test_var_rejects_damped_and_unlisted_powers_before_any_matrix(self, variant, term):
        # a valid power ahead of the bad term requests no matrix either: the
        # whole spec is checked first, so the second-request cache is untouched
        V = PotentialSpec(label="mixed", terms=((0.5, 2.0, 0.0, 0.0), term))
        build = hamiltonian_2d if SCHEMES[HamiltonianVariant[variant]][3] == 2 else hamiltonian_3d
        mesh = scheme_mesh(variant, 12, 0.4)
        _clear_matrix_caches()
        with pytest.raises(ValueError, match="^potential 'mixed' has no exact matrix elements$"):
            _potential_matrix(mesh, V)
        assert matelem._slot.cache_info().currsize == 0
        with pytest.raises(ValueError, match="^potential 'mixed' has no exact matrix elements$"):
            build(mesh, 0, V, variant)

    def test_exact_potential_is_the_sum_of_its_terms_in_order(self):
        # a spec of several pure powers sums their scaled Exact matrices in
        # term order; an empty spec is the zero matrix
        mesh = mesh_regsqrt(9, h=0.7)
        V = PotentialSpec(label="sum", terms=((0.5, 2.0, 0.0, 0.0), (-1.5, -1.0, 0.0, 0.0),
                                              (3.0, 0.0, 0.0, 0.0), (0.25, 1.0, 0.0, 0.0)))
        want = 0.5 * 0.7**2 * operator_matrix(mesh, "r^2", Mode.Exact)
        for c, p, op in ((-1.5, -1.0, "1/r"), (3.0, 0.0, "1"), (0.25, 1.0, "r")):
            want = want + c * 0.7**p * operator_matrix(mesh, op, Mode.Exact)
        assert np.array_equal(_potential_matrix(mesh, V), want)
        assert np.array_equal(_potential_matrix(mesh, PotentialSpec(label="free")),
                              np.zeros((9, 9)))


class TestHamiltonian3D:
    def test_oscillator_variational_ground_state(self):
        mesh = mesh_regsqrt(20, 1.0, h=0.09)
        H, basis = hamiltonian_3d(mesh, 0, builtin("harmonic"), HamiltonianVariant.Var)
        E = eigh(H, eigvals_only=True)
        assert abs(E[0] - 1.5) / 1.5 <= 1e-10
        assert basis is mesh

    def test_coulomb_mesh_ground_state_machine_accurate(self):
        mesh = mesh_regsqrt(10, 1.0, h=0.5)
        H, _ = hamiltonian_3d(mesh, 0, builtin("coulomb"), "RegSqrtMesh")
        E = eigh(H, eigvals_only=True)
        assert abs(E[0] + 0.5) <= 5e-15

    def test_coulomb_plain_family_loses_accuracy(self):
        mesh = MeshSpec(10, 2.0, Family.NonReg, 0.9)
        H, _ = hamiltonian_3d(mesh, 0, builtin("coulomb"), "NonReg")
        E = eigh(H, eigvals_only=True)
        eps = (E[0] + 0.5) / 0.5
        assert eps == pytest.approx(6.9e-2, abs=5e-4)

    @pytest.mark.parametrize(
        "variant", ["Var", "RegSqrtMesh", "RegRMesh", "NonReg", "NonRegVG"]
    )
    def test_symmetric_for_all_variants(self, variant):
        mesh = scheme_mesh(HamiltonianVariant[variant], 8, 0.2)
        H, _ = hamiltonian_3d(mesh, 1, builtin("harmonic"), variant)
        assert np.abs(H - H.T).max() <= 1e-13 * np.abs(H).max()


class TestSchemeNames:
    @pytest.mark.parametrize("variant", list(SCHEMES), ids=[v.name for v in SCHEMES])
    def test_scheme_mesh_takes_names(self, variant):
        assert scheme_mesh(variant.name, 10, 1.0) == scheme_mesh(variant, 10, 1.0)
        with pytest.raises(ValueError, match="unknown HamiltonianVariant"):
            scheme_mesh("Exotic", 10, 1.0)


class TestHamiltonian2D:
    def test_oscillator_mesh_scheme(self):
        mesh = mesh_regsqrt(20, 0.0, h=0.09)
        H, basis = hamiltonian_2d(mesh, 1, builtin("harmonic"), HamiltonianVariant.RegSqrtMesh2D)
        E = eigh(H, eigvals_only=True)
        assert abs(E[0] - 2.0) / 2.0 <= 1e-10
        assert basis is mesh

    def test_coulomb_mesh_scheme(self):
        mesh = mesh_regsqrt(10, 0.0, h=0.9)
        H, _ = hamiltonian_2d(mesh, 1, builtin("coulomb"), "RegSqrtMesh2D")
        E = eigh(H, eigvals_only=True)
        exact = -2.0 / 9.0
        assert abs(E[0] - exact) / abs(exact) <= 1e-12

    def test_variational_scheme_uses_reduced_basis(self):
        mesh = mesh_regsqrt(10, 0.0, h=0.9)
        V = builtin("coulomb")
        H, basis = hamiltonian_2d(mesh, 1, V, "Var2D")
        # N-1 functions with alpha=2, every element exact
        assert H.shape == (9, 9) and basis == MeshSpec(9, 2.0, Family.RegSqrt, 0.9)
        want = (operator_matrix(basis, "kinetic2d", Mode.Exact) / (2 * 0.9**2)
                + 0.5 * operator_matrix(basis, "1/r^2", Mode.Exact) / 0.9**2
                + _potential_matrix(basis, V))
        assert np.abs(H - want).max() <= 1e-13 * np.abs(want).max()
        E = eigh(H, eigvals_only=True)
        exact = -2.0 / 9.0
        assert abs(E[0] - exact) / abs(exact) <= 1e-12

    @pytest.mark.parametrize("name,N,h,exact", [("harmonic", 20, 0.1, 1.0),
                                                 ("harmonic", 400, 0.1, 1.0),
                                                 ("coulomb", 100, 0.3, -2.0)])
    def test_variational_scheme_at_m_zero_keeps_the_mesh(self, name, N, h, exact):
        # no 1/rho^2 element at m = 0: the N functions of the alpha = 0 mesh
        # go like rho^(1/2), as the solution does, and every element is exact
        # (the N-1 functions with alpha = 2 were 16 % high at N = 20)
        mesh = mesh_regsqrt(N, 0.0, h=h)
        V = builtin(name)
        H, basis = hamiltonian_2d(mesh, 0, V, "Var2D")
        assert H.shape == (N, N) and basis is mesh
        want = (operator_matrix(mesh, "kinetic2d", Mode.Exact) / (2 * h * h)
                + _potential_matrix(mesh, V))
        assert np.array_equal(H, want)
        E = np.linalg.eigvalsh(H)
        assert abs(E[0] - exact) / abs(exact) <= 1e-10

    def test_variational_oscillator_at_large_n(self):
        # the closed-form kinetic matrix keeps Var2D accurate to 1e-12 at
        # N = 400, where the exactifying quadrature loses a digit
        mesh = mesh_regsqrt(400, 0.0, h=0.06)
        H, _ = hamiltonian_2d(mesh, 1, builtin("harmonic"), "Var2D")
        E = np.linalg.eigvalsh(H)
        assert abs(E[0] - 2.0) / 2.0 <= 2e-12


@pytest.mark.parametrize("variant", list(SCHEMES), ids=[v.name for v in SCHEMES])
@pytest.mark.parametrize("name,n,h", [("coulomb", 1, 0.7), ("coulomb", 1, 1e152),
                                      ("harmonic", 0, 0.06), ("harmonic", 2, 0.06)])
def test_assembly_is_the_sum_of_whole_term_matrices(variant, name, n, h):
    # the Gauss terms go onto the diagonal alone, and H is still the sum of
    # the dense term matrices to the bit, signed zeros included; at h = 1e152
    # the smallest kinetic entries are subnormal
    _, _, (t_mode, c_mode, v_mode), dim = SCHEMES[variant]
    V = builtin(name)
    mesh = scheme_mesh(variant, 40, h)
    if dim == 3:
        H, basis = hamiltonian_3d(mesh, n, V, variant)
        op, strength = "kinetic", n * (n + 1.0)
    else:
        H, basis = hamiltonian_2d(mesh, n, V, variant)
        op, strength = "kinetic2d", float(n * n)
    two_h2 = 2.0 * (h * h)
    want = operator_matrix(basis, op, t_mode) / two_h2
    if strength > 0:
        want += strength * operator_matrix(basis, "1/r^2", c_mode) / two_h2
    if v_mode is Mode.Exact:
        want += _potential_matrix(basis, V)
    else:
        want += np.diag(evaluate(V, basis.h * basis.nodes))
    assert np.array_equal(H.view(np.uint64), want.view(np.uint64))


class TestExtremeH:
    """1/(2 h^2) out of double range raises OverflowError naming h, no warning."""

    @pytest.mark.parametrize("h", [1e-170, 1e-160, 1e200])
    @pytest.mark.parametrize("variant", ["Var", "RegSqrtMesh"])
    def test_three_dimensional(self, h, variant):
        with pytest.raises(OverflowError, match=re.escape(f"h={h!r}:")):
            hamiltonian_3d(mesh_regsqrt(10, 1.0, h), 1, builtin("coulomb"), variant)

    @pytest.mark.parametrize("h", [1e-170, 1e-160, 1e200])
    @pytest.mark.parametrize("variant", ["Var2D", "RegSqrtMesh2D"])
    def test_two_dimensional(self, h, variant):
        with pytest.raises(OverflowError, match=re.escape(f"h={h!r}:")):
            hamiltonian_2d(mesh_regsqrt(10, 0.0, h), 1, builtin("coulomb"), variant)

    @pytest.mark.parametrize("h,name", [(1e-154, "harmonic"), (1e-154, "coulomb"),
                                        (1e152, "harmonic")])
    def test_entries_out_of_range_near_the_limit(self, h, name):
        # the scale is finite here, but kinetic entries (small h) or the
        # potential at h r_i (large h) are not
        with pytest.raises(OverflowError, match=re.escape(f"h={h!r}:")):
            hamiltonian_3d(mesh_regsqrt(150, 1.0, h), 1, builtin(name), "RegSqrtMesh")
        with pytest.raises(OverflowError, match=re.escape(f"h={h!r}:")):
            hamiltonian_2d(mesh_regsqrt(150, 0.0, h), 1, builtin(name), "RegSqrtMesh2D")

    @pytest.mark.parametrize("h", [1e-150, 1e152])
    def test_coulomb_finite_at_wide_h(self, h):
        H, _ = hamiltonian_3d(mesh_regsqrt(150, 1.0, h), 1, builtin("coulomb"), "RegSqrtMesh")
        assert np.all(np.isfinite(H))
        H, _ = hamiltonian_2d(mesh_regsqrt(150, 0.0, h), 1, builtin("coulomb"), "RegSqrtMesh2D")
        assert np.all(np.isfinite(H))


class TestCentrifugal:
    """The l(l+1)/(2 r^2) and m^2/(2 rho^2) terms of the assembled H."""

    def test_zero_for_s_wave(self):
        V = builtin("coulomb")
        mesh = mesh_regsqrt(5, h=0.7)
        H, _ = hamiltonian_3d(mesh, 0, V, "RegSqrtMesh")
        T = operator_matrix(mesh, "kinetic", Mode.Gauss)
        assert np.array_equal(H, T / (2.0 * (0.7 * 0.7)) + np.diag(evaluate(V, 0.7 * mesh.nodes)))
        mesh = mesh_regsqrt(5, 0.0, h=0.7)
        H, _ = hamiltonian_2d(mesh, 0, V, "RegSqrtMesh2D")
        T = operator_matrix(mesh, "kinetic2d")
        assert np.array_equal(H, T / (2.0 * (0.7 * 0.7)) + np.diag(evaluate(V, 0.7 * mesh.nodes)))

    def test_gauss_is_diagonal(self):
        V = builtin("harmonic")
        mesh = mesh_regsqrt(5)
        added = (hamiltonian_3d(mesh, 2, V, "RegSqrtMesh")[0]
                 - hamiltonian_3d(mesh, 0, V, "RegSqrtMesh")[0])
        assert np.allclose(added, np.diag(3.0 / mesh.nodes**2), atol=0.0)
        mesh = mesh_regsqrt(5, 0.0)
        added = (hamiltonian_2d(mesh, 2, V, "RegSqrtMesh2D")[0]
                 - hamiltonian_2d(mesh, 0, V, "RegSqrtMesh2D")[0])
        assert np.allclose(added, np.diag(2.0 / mesh.nodes**2), atol=0.0)


# (scheme, angular number, potential, lossy terms): the loss cells of
# tables 1 and 2 and safe cells of every family, in 3D and 2D
_KNOWN_CELLS = [
    (HamiltonianVariant.NonReg, 1, "harmonic", ("centrifugal",)),
    (HamiltonianVariant.NonReg, 0, "coulomb", ("potential",)),
    (HamiltonianVariant.NonRegVG, 0, "coulomb", ("potential",)),
    (HamiltonianVariant.NonRegVG, 1, "coulomb", ()),
    (HamiltonianVariant.RegSqrtMesh, 1, "coulomb", ()),
    (HamiltonianVariant.RegSqrtMesh2D, 1, "harmonic", ()),
    (HamiltonianVariant.RegRMesh, 1, "coulomb", ()),
    (HamiltonianVariant.Var, 0, "coulomb", ()),
]


class TestClassifier:
    @pytest.mark.parametrize("variant,angular,potential,want", _KNOWN_CELLS,
                             ids=["-".join(map(str, (c[0].name, *c[1:3], "+".join(c[3]) or "safe")))
                                  for c in _KNOWN_CELLS])
    def test_known_cells(self, variant, angular, potential, want):
        mesh = scheme_mesh(variant, 10, 0.9)
        assert classify_singularity(mesh, angular, builtin(potential), variant) == want

    def test_potential_power_is_its_most_singular_term(self):
        # a damping is 1 at the origin, so a damped c/r counts as 1/r; the
        # screened Coulomb term is regular; any p > -2 is a valid power
        mesh = scheme_mesh(HamiltonianVariant.NonReg, 10, 0.9)
        damped = PotentialSpec("damped", terms=((1.0, 0.0, 0.0, 0.0), (-1.0, -1.0, 0.0, 0.5)))
        assert classify_singularity(mesh, 0, damped, "NonReg") == ("potential",)
        assert classify_singularity(mesh, 0, builtin("buck_alpha_alpha"), "NonReg") == ()
        steep = PotentialSpec("steep", terms=((-1.0, -1.5, 0.0, 0.0),))
        assert classify_singularity(mesh, 0, steep, "NonReg") == ("potential",)
        sqrt_mesh = scheme_mesh("RegSqrtMesh", 10, 0.9)
        assert classify_singularity(sqrt_mesh, 0, steep, "RegSqrtMesh") == ("potential",)
        assert classify_singularity(sqrt_mesh, 1, steep, "RegSqrtMesh") == ()


class TestDivergenceRejections:
    def test_gauss_mode_still_fine_where_exact_diverges(self):
        M = operator_matrix(mesh_regsqrt(5, 0.0), "1/r^2", Mode.Gauss)
        assert np.allclose(M, np.diag(mesh_regsqrt(5, 0.0).nodes ** -2.0))


class TestExactGate:
    """operator_matrix builds an Exact matrix only on a cell some scheme
    reads, and every scheme builds without meeting the gate."""

    @pytest.mark.parametrize("family", [f.name for f in Family])
    @pytest.mark.parametrize("op", matelem._OPERATORS)
    def test_raises_exactly_outside_the_read_set(self, family, op):
        # alpha = 3 converges for every operator on every family
        mesh = MeshSpec(6, 3.0, family, 1.0)
        if not unread_exact(mesh, op):
            assert np.all(np.isfinite(operator_matrix(mesh, op, Mode.Exact)))

    def test_gate_raises_before_the_key_is_recorded(self):
        _clear_matrix_caches()
        with pytest.raises(ValueError, match="no scheme reads it"):
            operator_matrix(MeshSpec(6, 0.0, "RegR", 1.0), "kinetic", Mode.Exact)
        assert matelem._slot.cache_info().currsize == 0

    @pytest.mark.parametrize("variant", list(SCHEMES), ids=[v.name for v in SCHEMES])
    @pytest.mark.parametrize("angular", [0, 1, 2])
    def test_no_scheme_meets_the_gate(self, variant, angular):
        powers = from_text('{"terms": [{"c": -1, "p": -1}, {"c": 0.5, "p": 0}, '
                           '{"c": 0.1, "p": 1}, {"c": 0.2, "p": 2}]}')
        build = hamiltonian_2d if SCHEMES[variant][3] == 2 else hamiltonian_3d
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            mesh = scheme_mesh(variant, 8, 0.5, alpha)
            for V in (builtin("harmonic"), builtin("coulomb"), powers):
                try:
                    build(mesh, angular, V, variant)
                except ValueError as e:
                    # a 2D scheme's fixed alpha, or an integral that diverges
                    assert re.match(r"two-dimensional schemes fix alpha|divergent integral",
                                    str(e))


def _clear_matrix_caches():
    matelem._slot.cache_clear()


def _count_builds(monkeypatch):
    """A Counter of ``_dense_matrix`` calls per key, from now on."""
    builder = matelem._dense_matrix
    builds = collections.Counter()

    def counting_builder(*key):
        builds[key] += 1
        return builder(*key)

    monkeypatch.setattr(matelem, "_dense_matrix", counting_builder)
    return builds


# every family with a regular and a singular-at-the-origin alpha
CACHE_MESHES = [
    ("NonReg", 0.0), ("NonReg", 2.0),
    ("RegSqrt", 0.0), ("RegSqrt", 1.0),
    ("RegR", 0.0), ("RegR", 2.0),
]

# every operator operator_matrix accepts, in both modes
OPERATORS = [
    (f"{name}-{m.name}", lambda mesh, op=op, m=m: operator_matrix(mesh, op, m))
    for name, op in (("kinetic", "kinetic"), ("kinetic2d", "kinetic2d"), ("power-2", "1/r^2"),
                     ("power-1", "1/r"), ("power0", "1"), ("power1", "r"), ("power2", "r^2"))
    for m in Mode
]


class TestMatrixCache:
    """The unscaled matrices are cached per (N, alpha, family), not per h."""

    @pytest.mark.parametrize("family,alpha", CACHE_MESHES)
    @pytest.mark.parametrize("name,build", OPERATORS, ids=[n for n, _ in OPERATORS])
    def test_matrices_do_not_depend_on_h(self, family, alpha, name, build):
        _clear_matrix_caches()
        try:
            first = build(MeshSpec(9, alpha, family, 0.3)).copy()
        except ValueError:
            _clear_matrix_caches()
            with pytest.raises(ValueError):
                build(MeshSpec(9, alpha, family, 2.7))
            return
        _clear_matrix_caches()
        assert np.array_equal(build(MeshSpec(9, alpha, family, 2.7)), first)

    @pytest.mark.parametrize("family,alpha", CACHE_MESHES)
    def test_cached_builders_ignore_h(self, family, alpha):
        # the cache keys drop h; building at another h must not change a bit
        # of the Gauss matrix or of the Gauss matrix plus its correction
        at_h = MeshSpec(9, alpha, family, 2.7)
        for op in matelem._OPERATORS:
            if op in matelem._POWERS:
                gauss = np.diag(at_h.nodes ** matelem._POWERS[op])
            else:
                gauss = matelem._gauss_kinetic(at_h, 3.0 if op == "kinetic2d" else 0.0)
            assert np.array_equal(operator_matrix(at_h, op, Mode.Gauss), gauss)
            if unread_exact(at_h, op):
                continue
            try:
                correction = matelem._gauss_error(at_h, op)
            except ValueError:
                continue
            if correction is not None:  # None where the rule is exact
                gauss = gauss + correction
            assert np.array_equal(operator_matrix(at_h, op, Mode.Exact), gauss)

    def test_warm_cache_spectrum_equals_cold(self, monkeypatch):
        from lagmesh.solver import solve_bound_states

        V = builtin("coulomb")
        mesh = MeshSpec(30, 2.0, Family.NonReg, 0.7)

        def spectrum():
            return solve_bound_states(*hamiltonian_3d(mesh, 1, V, "NonRegVG"))

        _clear_matrix_caches()
        for h in (0.2, 0.4):
            hamiltonian_3d(MeshSpec(30, 2.0, Family.NonReg, h), 1, V, "NonRegVG")
        builds = _count_builds(monkeypatch)
        warm = spectrum()
        assert not builds  # both matrices were cached
        _clear_matrix_caches()
        cold = spectrum()
        assert np.array_equal(warm.energies, cold.energies)
        assert np.array_equal(warm.coefficients, cold.coefficients)

    @pytest.mark.parametrize(
        "build",
        [
            lambda mesh: operator_matrix(mesh, "kinetic", Mode.Exact),
            lambda mesh: operator_matrix(mesh, "kinetic", Mode.Gauss),
            lambda mesh: operator_matrix(mesh, "1/r^2", Mode.Exact),
            # the 2D operator's Exact matrix is read on the sqrt(r) family only
            lambda mesh: operator_matrix(dataclasses.replace(mesh, family=Family.RegSqrt),
                                         "kinetic2d", Mode.Exact),
        ],
        ids=["kinetic-Exact", "kinetic-Gauss", "power-2-Exact", "kinetic2d-Exact"],
    )
    def test_cached_matrices_are_read_only(self, build):
        values = build(MeshSpec(20, 2, "NonReg", 0.5))
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] += 1.0
        assert np.array_equal(build(MeshSpec(20, 2, "NonReg", 0.9)), values)

    @pytest.mark.parametrize(
        "family,alpha,variant",
        [
            ("RegSqrt", 1.0, "Var"),
            ("RegSqrt", 1.0, "RegSqrtMesh"),
            ("RegR", 0.0, "RegRMesh"),
            ("NonReg", 2.0, "NonReg"),
            ("NonReg", 2.0, "NonRegVG"),
            ("RegSqrt", 0.0, "Var2D"),
            ("RegSqrt", 0.0, "RegSqrtMesh2D"),
        ],
    )
    @pytest.mark.parametrize("angular", [0, 1])
    def test_hamiltonians_are_fresh_arrays(self, family, alpha, variant, angular):
        mesh = MeshSpec(10, alpha, family, 0.4)
        build = hamiltonian_2d if SCHEMES[HamiltonianVariant[variant]][3] == 2 else hamiltonian_3d
        H, _ = build(mesh, angular, builtin("harmonic"), variant)
        before = H.copy()
        H[0, 0] += 1.0
        again, _ = build(mesh, angular, builtin("harmonic"), variant)
        assert np.array_equal(again, before)

    @pytest.mark.parametrize(
        "variant,keys",
        [
            ("non-reg-vg", 2),
            ("non-reg", 1),
            ("reg-r", 1),
            ("reg-sqrt", 1),
            ("var", 3),
        ],
    )
    def test_h_sweep_builds_each_matrix_twice(self, variant, keys, monkeypatch):
        # a matrix is built uncached on its first request and cached on its
        # second; every later point hits the cache
        builds = _count_builds(monkeypatch)
        config = cli.ExperimentConfig(mode="bound", potential=builtin("coulomb"),
                                      angular=1, variant=variant, N=40, h=0.5)
        _clear_matrix_caches()
        cli.sweep(config, "h", np.linspace(0.2, 1.2, 20))
        assert len(builds) == keys
        assert set(builds.values()) == {2}

    def test_interleaved_schemes_build_each_matrix_twice(self, monkeypatch):
        # the benchmark's h scan: every scheme at one h, then the next h;
        # the 11 keys of the seven schemes fit the cache together
        builds = _count_builds(monkeypatch)
        V = builtin("coulomb")
        _clear_matrix_caches()
        for h in (0.3, 0.5, 0.7):
            for variant, (*_, dim) in SCHEMES.items():
                build = hamiltonian_3d if dim == 3 else hamiltonian_2d
                build(scheme_mesh(variant, 40, h), 1, V, variant)
        assert len(builds) == 11
        assert set(builds.values()) == {2}

    def test_caches_stay_bounded(self, monkeypatch):
        # every N is requested once, so every request builds its matrix
        builds = _count_builds(monkeypatch)
        config = cli.ExperimentConfig(mode="bound", potential=builtin("coulomb"),
                                      angular=1, variant="non-reg-vg", N=10, h=0.5)
        _clear_matrix_caches()
        for N in range(10, 30):
            cli.run(dataclasses.replace(config, N=N))
            assert matelem._slot.cache_info().currsize <= basis._CACHE_SIZE
            assert basis._cached_rule.cache_info().currsize <= basis._CACHE_SIZE
        assert len(builds) == 2 * 20 and set(builds.values()) == {1}

    def test_cache_stays_bounded_over_many_meshes(self):
        # each mesh is requested three times: built on the first two, a hit
        # on the third; the oldest mesh leaves the cache and is built again
        meshes = [MeshSpec(8, alpha, "RegSqrt", 0.5)
                  for alpha in np.linspace(0.5, 3.0, 2 * basis._CACHE_SIZE)]
        _clear_matrix_caches()
        cached = []
        for mesh in meshes:
            first, second, third = (operator_matrix(mesh, "kinetic", Mode.Exact)
                                    for _ in range(3))
            assert second is not first and third is second
            assert matelem._slot.cache_info().currsize <= basis._CACHE_SIZE
            cached.append(third)
        assert operator_matrix(meshes[-1], "kinetic", Mode.Exact) is cached[-1]
        assert operator_matrix(meshes[0], "kinetic", Mode.Exact) is not cached[0]

    def test_n_sweep_caches_no_matrix(self, monkeypatch):
        # no matrix outlives its Hamiltonian: none is held by the cache
        builder = matelem._dense_matrix
        built = []

        def recording_builder(*key):
            values = builder(*key)
            built.append(weakref.ref(values))
            return values

        monkeypatch.setattr(matelem, "_dense_matrix", recording_builder)
        config = cli.ExperimentConfig(mode="bound", potential=builtin("coulomb"),
                                      angular=1, variant="var", N=20, h=0.5)
        _clear_matrix_caches()
        cli.sweep(config, "N", range(20, 41))
        gc.collect()
        assert len(built) == 3 * 21
        assert all(ref() is None for ref in built)
        assert matelem._slot.cache_info().currsize <= basis._CACHE_SIZE

    def test_threads_get_the_matrices_of_a_cold_build(self):
        # four threads request the same keys over an h sweep at once, with
        # frequent thread switches; a race may build a matrix once more,
        # never give a wrong one nor leave a key uncached
        keys = [(1.0, Family.RegSqrt, "kinetic", Mode.Exact),
                (1.0, Family.RegSqrt, "1/r^2", Mode.Exact),
                (1.0, Family.RegSqrt, "kinetic", Mode.Gauss),
                (2.0, Family.NonReg, "kinetic", Mode.Exact),
                (0.0, Family.RegSqrt, "kinetic2d", Mode.Exact)]

        def sweep(_):
            return [(key, operator_matrix(MeshSpec(30, alpha, family, h), op, mode))
                    for h in np.linspace(0.2, 1.2, 12)
                    for key in keys for alpha, family, op, mode in [key]]

        _clear_matrix_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                results = [pair for pairs in pool.map(sweep, range(4), timeout=120)
                           for pair in pairs]
        finally:
            sys.setswitchinterval(interval)
        cold = {key: matelem._dense_matrix(30, *key) for key in keys}
        assert len(results) == 4 * 12 * len(keys)
        for key, values in results:
            assert np.array_equal(values, cold[key])
        for alpha, family, op, mode in keys:
            mesh = MeshSpec(30, alpha, family, 0.5)
            assert operator_matrix(mesh, op, mode) is operator_matrix(mesh, op, mode)


# each refusal that this module checked is a row of test_domain.CASES, run
# here under the id of the check it took over
attach(globals(), CASES, refused)
