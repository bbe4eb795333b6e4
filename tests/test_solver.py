"""Tests for the eigensolver layer: spectra, pseudostates, relative errors."""

import math

import numpy as np
import pytest

from lagmesh import cli
from lagmesh.basis import Family, MeshSpec
from lagmesh.matelem import HamiltonianVariant, hamiltonian_3d
from lagmesh.potentials import builtin
from lagmesh.solver import bound_energies, pseudostates, relative_error, solve_bound_states

from cli_refusals import attach
from test_domain import CASES, refused

# both solves check H the same way; only the full one takes a basis, in
# which its vectors are coefficients
SOLVES = (solve_bound_states, bound_energies)


def _basis(n):
    """A mesh of n functions: the basis a hand-made n x n H stands on."""
    return MeshSpec(n, 1.0, Family.RegSqrt, 1.0)


def _trivial_pair(values):
    return values, _basis(values.shape[0])


def _solve(solve, H, basis):
    """Either solve of H; the eigenvalues alone do not read the basis."""
    return solve(H, basis) if solve is solve_bound_states else solve(H)


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
                _solve(solve, H, basis)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    _solve(solve, H, basis)

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
        with pytest.raises(ValueError, match=message):
            solve_bound_states(H, S)
        if message == "non-finite":  # the eigenvalues alone read H only
            with pytest.raises(ValueError, match=message):
                bound_energies(H)

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
        energies = bound_energies(H)
        want = solve_bound_states(H, basis).energies
        # the two LAPACK drivers agree to a few ulps of the spectral radius,
        # which is 1e-12 relative for every level the reports read
        assert abs(energies[0] - want[0]) <= 1e-12 * abs(want[0])
        np.testing.assert_allclose(energies, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        assert np.all(np.diff(energies) >= 0.0)

    def test_diagonal_matrix(self):
        assert np.array_equal(bound_energies(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])


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


# each refusal that this module checked is a row of test_domain.CASES, run
# here under the id of the check it took over
attach(globals(), CASES, refused)
