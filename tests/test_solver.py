"""Tests for the eigensolver layer: spectra, pseudostates, relative errors."""

import itertools
import math

import numpy as np
import pytest

from lagmesh import cli
from lagmesh.basis import Family, MeshSpec
from lagmesh.matelem import HamiltonianVariant, hamiltonian_3d
from lagmesh.potentials import builtin
from lagmesh.solver import bound_energies, pseudostates, relative_error, solve_bound_states

# both solves validate their input the same way
SOLVES = (solve_bound_states, bound_energies)

_MALFORMED_H = [np.array(1.0), np.zeros((0, 0)), np.zeros(3), np.zeros((2, 3)),
                np.array([[1.0, np.inf], [np.inf, 1.0]]),
                np.array([[np.nan, 0.0], [0.0, 1.0]])]
_MALFORMED_IDS = ["0-d", "0x0", "1-d", "2x3", "inf", "nan"]


def _basis(n):
    """A mesh of n functions: the basis a hand-made n x n H stands on."""
    return MeshSpec(n, 1.0, Family.RegSqrt, 1.0)


def _trivial_pair(values):
    return values, _basis(values.shape[0])


class TestSolveBoundStates:
    def test_diagonal_matrix(self):
        H, basis = _trivial_pair(np.diag([1.0, 2.0, 3.0]))
        spec = solve_bound_states(H, basis)
        assert np.allclose(spec.energies, [1.0, 2.0, 3.0], atol=1e-15)
        assert np.allclose(spec.coefficients, np.eye(3), atol=1e-15)

    def test_oscillator_p_wave_variational(self):
        mesh = MeshSpec(20, 1.0, Family.RegSqrt, 0.09)
        H, basis = hamiltonian_3d(mesh, 1, builtin("harmonic"), HamiltonianVariant.Var)
        spec = solve_bound_states(H, basis)
        assert abs(spec.energies[0] - 2.5) / 2.5 <= 1e-10

    def test_coulomb_d_wave_on_r_regularized_mesh(self):
        mesh = MeshSpec(10, 0.0, Family.RegR, 0.9)
        H, basis = hamiltonian_3d(mesh, 2, builtin("coulomb"), "RegRMesh")
        spec = solve_bound_states(H, basis)
        eps = relative_error(spec.energies[0], -1.0 / 18.0)
        assert 2.3e-6 / 2 <= abs(eps) <= 2.3e-6 * 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_asymmetric_hamiltonian_rejected(self):
        # with its basis right, the symmetry is the check that fails; H - H^T
        # overflows in the second H, silently
        for values in (np.array([[1.0, 2.0], [0.0, 1.0]]),
                       np.array([[1.0, 1e308], [-1e308, 1.0]])):
            H, basis = _trivial_pair(values)
            for solve in SOLVES:
                with pytest.raises(ValueError, match="symmetric"):
                    solve(H, basis)

    @pytest.mark.parametrize("skew, accepted", [(1e-12, True), (5e-11, True), (1e-9, False)])
    def test_symmetry_tolerance_is_relative_to_the_largest_entry(self, skew, accepted):
        # the tolerance is 1e-10 of the largest |H| (at least 1); an H whose
        # largest entry is -250 is skewed by skew times that, in one entry.
        # At 5e-11 a tolerance taken from the largest value, 40, would reject.
        values = np.full((3, 3), 7.0)
        np.fill_diagonal(values, [-250.0, 3.0, 40.0])
        values[0, 2] += skew * 250.0
        assert values[0, 2] != values[2, 0]
        H, basis = _trivial_pair(values)
        for solve in SOLVES:
            if accepted:
                solve(H, basis)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    solve(H, basis)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("H, S, message", [
        # a caller still on the old contract passes an overlap matrix S where
        # the basis goes: a non-finite entry is named first, whatever S and
        # the symmetry
        (np.array([[1.0, np.inf], [0.0, 1.0]]), 2.0 * np.eye(2), "non-finite"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(3), "non-finite"),
        (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), np.eye(2), "non-finite"),
        # then the basis, before the symmetry; H - H^T overflows here, silently
        (np.array([[1.0, 1e308], [-1e308, 1.0]]), 2.0 * np.eye(2), "basis must be"),
        (np.array([[1.0, 1e308], [-1e308, 1.0]]), np.eye(2), "basis must be"),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(3), "basis must be"),
        (np.array([[1.0, 1e-10], [0.0, 1.0]]), 2.0 * np.eye(2), "basis must be"),
    ])
    def test_first_failing_check_names_the_fault(self, H, S, message):
        for solve in SOLVES:
            with pytest.raises(ValueError, match=message):
                solve(H, S)

    def test_non_identity_overlap_rejected(self):
        # no overlap matrix is taken in the basis's place, the identity of
        # the old contract included, whatever its type
        H = np.diag([1.0, 2.0, 3.0])
        nan_off_diagonal = np.eye(3)
        nan_off_diagonal[2, 0] = np.nan
        for solve in SOLVES:
            for S in (2.0 * np.eye(3), np.eye(4), np.eye(3, 4), np.eye(3)[:2],
                      nan_off_diagonal, np.diag([1.0, np.nan, 1.0]),
                      np.eye(3), np.eye(3, dtype=int), np.eye(3).tolist()):
                with pytest.raises(ValueError, match="^basis must be the MeshSpec"):
                    solve(H, S)

    @pytest.mark.parametrize("basis, got", [
        (np.eye(3), "ndarray"),  # the identity overlap S of the old contract
        (MeshSpec(4, 1.0, Family.RegSqrt, 1.0), "N=4"),
        (None, "NoneType"),
    ], ids=["identity-overlap", "other-N", "None"])
    def test_basis_other_than_the_mesh_of_h_rejected(self, basis, got):
        # an H is solved only with the mesh of its functions, as built
        H = np.diag([1.0, 2.0, 3.0])
        for solve in SOLVES:
            with pytest.raises(ValueError, match=rf"^basis must be the MeshSpec of H's 3 "
                                                 rf"functions, .*\(got {got}\)$"):
                solve(H, basis)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "solve,H",  # the full solve keeps the ids these cases had before
        [pytest.param(solve, H, id=("" if solve is solve_bound_states else "energies-") + i)
         for solve, (H, i) in itertools.product(SOLVES, zip(_MALFORMED_H, _MALFORMED_IDS))],
    )
    def test_malformed_hamiltonian_rejected(self, solve, H):
        with pytest.raises(ValueError, match="H must be a nonempty square|non-finite"):
            solve(H, _basis(2))  # H is checked before its basis

    @pytest.mark.parametrize("solve", SOLVES)
    def test_entry_beyond_double_range_names_h(self, solve):
        # an int that no double holds, where the float conversion overflows
        with pytest.raises(ValueError, match="^H must be within double range$"):
            solve([[10**400]], MeshSpec(1, 1.0, "RegSqrt", 0.5))

    def test_deterministic_repeat(self):
        mesh = MeshSpec(12, 1.0, Family.RegSqrt, 0.2)
        H, basis = hamiltonian_3d(mesh, 0, builtin("coulomb"), "RegSqrtMesh")
        a = solve_bound_states(H, basis)
        b = solve_bound_states(H, basis)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_normalization_and_residual_invariants(self):
        mesh = MeshSpec(15, 1.0, Family.RegSqrt, 0.3)
        H, basis = hamiltonian_3d(mesh, 0, builtin("harmonic"), "Var")
        spec = solve_bound_states(H, basis)
        for j in range(15):
            c = spec.coefficients[:, j]
            assert abs(c @ c - 1.0) <= 1e-12
            res = H @ c - spec.energies[j] * c
            assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(H)

    def test_variational_bound_on_analytic_spectra(self):
        # lowest three states stay at or above the analytic energies
        mesh = MeshSpec(20, 1.0, Family.RegSqrt, 0.2)
        for V, exact in [
            (builtin("harmonic"), [1.5, 3.5, 5.5]),
            (builtin("coulomb"), [-0.5, -0.125, -1.0 / 18.0]),
        ]:
            H, basis = hamiltonian_3d(mesh, 0, V, "Var")
            spec = solve_bound_states(H, basis)
            for j, e_exact in enumerate(exact):
                assert relative_error(spec.energies[j], e_exact) >= -1e-12

    def test_eigenvalues_interlace_with_growing_basis(self):
        # variational eigenvalues are non-increasing as N grows
        prev = None
        for N in range(10, 16):
            mesh = MeshSpec(N, 1.0, Family.RegSqrt, 0.9)
            H, basis = hamiltonian_3d(mesh, 0, builtin("coulomb"), "Var")
            spec = solve_bound_states(H, basis)
            lowest = spec.energies[:3]
            if prev is not None:
                assert np.all(lowest <= prev + 1e-13)
            prev = lowest


class TestBoundEnergies:
    """The eigenvalue-only solve against the full one on the CLI's schemes."""

    @pytest.mark.parametrize("dim,variant", list(cli._VARIANTS))
    @pytest.mark.parametrize("name,N,h", [("coulomb", 150, 0.3), ("coulomb", 150, 1.2),
                                          ("harmonic", 20, 0.09)])
    def test_matches_full_solve(self, dim, variant, name, N, h):
        config = cli.ExperimentConfig(mode="bound", potential=builtin(name), angular=1,
                                      dimension=dim, variant=variant, N=N, h=h)
        basis, H = cli._resolve_problem(config)
        energies = bound_energies(H, basis)
        want = solve_bound_states(H, basis).energies
        # the two LAPACK drivers agree to a few ulps of the spectral radius,
        # which is 1e-12 relative for every level the reports read
        assert abs(energies[0] - want[0]) <= 1e-12 * abs(want[0])
        np.testing.assert_allclose(energies, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        assert np.all(np.diff(energies) >= 0.0)

    def test_diagonal_matrix(self):
        H, basis = _trivial_pair(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(bound_energies(H, basis), [1.0, 2.0, 3.0])


class TestPseudostates:
    def test_eckart_first_pseudostate_sqrt_mesh(self):
        mesh = MeshSpec(15, 1.0, Family.RegSqrt, 0.1)
        H, basis = hamiltonian_3d(mesh, 0, builtin("eckart"), "RegSqrtMesh")
        states = pseudostates(solve_bound_states(H, basis))
        assert states[0].energy == pytest.approx(0.1982139, abs=1e-6)
        assert states[0].k == pytest.approx(math.sqrt(2 * states[0].energy))

    def test_eckart_first_pseudostate_r_mesh(self):
        mesh = MeshSpec(15, 0.0, Family.RegR, 0.1)
        H, basis = hamiltonian_3d(mesh, 0, builtin("eckart"), "RegRMesh")
        states = pseudostates(solve_bound_states(H, basis))
        assert states[0].energy == pytest.approx(0.2145073, abs=1e-6)

    def test_alpha_alpha_d_wave_first_pseudostate(self):
        V = builtin("buck_alpha_alpha")
        mesh = MeshSpec(15, 1.0, Family.RegSqrt, 0.23)
        H, basis = hamiltonian_3d(mesh, 2, V, "RegSqrtMesh")
        states = pseudostates(solve_bound_states(H, basis))
        assert states[0].energy * V.energy_unit == pytest.approx(2.10795, abs=1e-4)

    def test_ascending_and_indexed(self):
        mesh = MeshSpec(12, 1.0, Family.RegSqrt, 0.1)
        H, basis = hamiltonian_3d(mesh, 0, builtin("eckart"), "RegSqrtMesh")
        spec = solve_bound_states(H, basis)
        states = pseudostates(spec)
        # the positive tail of the spectrum, in order
        energies = [s.energy for s in states]
        assert energies == [E for E in spec.energies if E > 0.0]
        assert energies == sorted(energies) and len(energies) > 1

    def test_may_be_empty(self):
        H, basis = _trivial_pair(np.diag([-3.0, -1.0]))
        assert pseudostates(solve_bound_states(H, basis)) == ()


class TestRelativeError:
    def test_small_positive(self):
        assert relative_error(1.5 + 1e-10, 1.5) == pytest.approx(6.7e-11, rel=0.01)

    def test_accuracy_loss_case(self):
        assert relative_error(-0.4655, -0.5) == pytest.approx(0.069, rel=1e-10)

    def test_exact_match(self):
        assert relative_error(2.5, 2.5) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            relative_error(1.0, 0.0)
