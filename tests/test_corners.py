"""Every scheme at the valid corners of the advertised domain.

The lowest level of each of the seven schemes, at N in {300, 1000} (and
the plain schemes at N = 990) and l or m in {0, 20}, for the harmonic and
Coulomb potentials, is checked against its exact value.  A cell meets
1e-10 where the singularity classifier names no lossy term of the scheme,
and the bound tabulated below where it names one.  The Exact kinetic
matrices that the schemes read are positive at the same sizes.  The wave
functions of every scheme's mesh at N = 1000 keep the
Lagrange property at every node and agree with 40 digits about the first,
middle and last nodes.  Every pseudostate of the pure Coulomb potential,
attractive and repulsive, at l in {0, 10, 20} and N in {30, 100}, gives a
finite phase with tan(delta) = 0 or raises a typed error.  The three lowest
Coulomb levels of Var and Var2D are Rayleigh-Ritz bounds over N = 5..200,
and so are Var's on a potential with no closed-form level over N = 5..120.
"""

import math

import numpy as np
import pytest

from lagmesh.basis import Family, MeshSpec
from lagmesh.matelem import (
    SCHEMES,
    HamiltonianVariant,
    Mode,
    classify_singularity,
    hamiltonian_2d,
    hamiltonian_3d,
    operator_matrix,
    scheme_mesh,
)
from lagmesh.potentials import PotentialSpec, builtin, exact_level
from lagmesh.scattering import IndeterminatePhaseError, gamma_scan
from lagmesh.solver import bound_energies, pseudostates, relative_error, solve_bound_states
from lagmesh.specfun import ConvergenceError

from test_basis import (
    SCHEME_MESHES,
    check_lagrange_property,
    check_near_nodes_against_mpmath,
)
from test_matelem import unread_exact

GRID_H = {"harmonic": 0.04, "coulomb": 1.0}
# The loss cells of the grid are non-reg and non-reg V_G for
# Coulomb at l = 0, whose 1/r element is taken at the Gauss approximation.
# Their errors are 1.7e-4 at N = 300 and 1.6e-5 at N = 990 and 1000
# (h = 1); the bounds leave a factor of 2.
LOSS_BOUND = {300: 3.5e-4, 990: 3.5e-5, 1000: 3.5e-5}
SAFE_TOL = 1e-10


@pytest.mark.parametrize("variant", list(SCHEMES), ids=[v.name for v in SCHEMES])
@pytest.mark.parametrize("n", [0, 20])
@pytest.mark.parametrize("potential", ["harmonic", "coulomb"])
@pytest.mark.parametrize("N", [300, 1000])
def test_lowest_level(N, potential, n, variant):
    _check_lowest_level(N, potential, n, variant)


@pytest.mark.parametrize("variant", [HamiltonianVariant.NonReg, HamiltonianVariant.NonRegVG],
                         ids=["NonReg", "NonRegVG"])
@pytest.mark.parametrize("n", [0, 20])
@pytest.mark.parametrize("potential", ["harmonic", "coulomb"])
def test_plain_schemes_below_n1000(potential, n, variant):
    # the plain schemes' Exact matrices once went wrong from about N = 985
    _check_lowest_level(990, potential, n, variant)


def _check_lowest_level(N, potential, n, variant):
    dim = SCHEMES[variant][3]
    build = hamiltonian_2d if dim == 2 else hamiltonian_3d
    V = builtin(potential)
    mesh = scheme_mesh(variant, N, GRID_H[potential])
    H, _ = build(mesh, n, V, variant)
    eps = abs(relative_error(bound_energies(H)[0], exact_level(V, n, dimension=dim)))
    if classify_singularity(mesh, n, V, variant):
        # the loss the classifier predicts is real, and stays within its bound
        assert SAFE_TOL < eps <= LOSS_BOUND[N]
    else:
        assert eps <= SAFE_TOL


# Var and Var2D take every element exactly, and at fixed h and alpha the
# basis of N functions (x^p e^(-x/2) times the polynomials of degree below N)
# lies inside the basis of N + 5, so each level is a Rayleigh-Ritz bound: it
# is never below its exact value and never rises with N.  Rounding moves the
# Coulomb levels at h = 0.9 by at most 2.1e-13 (Var) and 2.4e-12 (Var2D at
# m = 0) of |E| below it, and by at most 3.2e-13 and 2.2e-12 up from one N to
# the next, with one BLAS thread and with two.  The spec -1/r + 0.2 r +
# 0.05 r^2 has no closed-form level: Var at N = 300, h = 0.15 stands in for
# it (within 4.0e-12 of |E| of N = 250, h = 0.2 at l = 0, 2.1e-13 at l = 1, 2).
# Over N = 5..120 at h = 0.5 its levels fall below that reference by at most
# 2.4e-12 (l = 0), 3.0e-13 and 1.2e-13, and rise by at most 8.7e-13; past
# N = 150 the l = 0 level's rounding nears the floor (6.2e-12 at N = 200).
RITZ_FLOOR = 1e-11
RITZ_SPEC = PotentialSpec("spec", terms=((-1.0, -1.0, 0.0, 0.0), (0.2, 1.0, 0.0, 0.0),
                                         (0.05, 2.0, 0.0, 0.0)))


@pytest.mark.parametrize("variant, potential", [
    (HamiltonianVariant.Var, "coulomb"),
    (HamiltonianVariant.Var2D, "coulomb"),
    (HamiltonianVariant.Var, "spec"),
], ids=["Var", "Var2D", "Var-spec"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_exact_schemes_are_rayleigh_ritz(variant, potential, n):
    dim = SCHEMES[variant][3]
    build = hamiltonian_2d if dim == 2 else hamiltonian_3d
    if potential == "coulomb":
        V, h, sizes = builtin("coulomb"), 0.9, range(5, 201, 5)
        lowest = np.array([exact_level(V, n, k, dim) for k in range(3)])
    else:
        V, h, sizes = RITZ_SPEC, 0.5, range(5, 121, 5)
        lowest = bound_energies(build(scheme_mesh(variant, 300, 0.15), n, V, variant)[0])[:3]
    previous = None
    for N in sizes:
        if N < n + 4:
            continue
        H, _ = build(scheme_mesh(variant, N, h), n, V, variant)
        E = bound_energies(H)[:3]
        assert np.all(lowest - E <= RITZ_FLOOR * np.abs(lowest)), (N, E, lowest)
        if previous is not None:
            assert np.all(E - previous <= RITZ_FLOOR * np.abs(lowest)), (N, E, previous)
        previous = E


def test_loss_cells_are_the_plain_coulomb_s_waves():
    loss = {(v.name, n, pot) for v in SCHEMES for n in (0, 20)
            for pot in ("harmonic", "coulomb")
            if classify_singularity(scheme_mesh(v, 300, GRID_H[pot]), n, builtin(pot), v)}
    assert loss == {("NonReg", 0, "coulomb"), ("NonRegVG", 0, "coulomb")}


@pytest.mark.parametrize("family,alpha,N,op", [
    (Family.RegSqrt, 1.0, 1000, "kinetic"),
    (Family.NonReg, 2.0, 1000, "kinetic"),
    (Family.RegR, 0.0, 1000, "kinetic"),
    (Family.RegSqrt, 2.0, 999, "kinetic2d"),  # Var2D at m > 0
    (Family.RegSqrt, 0.0, 1000, "kinetic2d"),  # Var2D at m = 0
], ids=lambda v: f"{v}_matrix" if isinstance(v, str) else None)
def test_exact_kinetic_matrices_are_positive(family, alpha, N, op):
    # no scheme reads an Exact matrix on the r-regularized family
    mesh = MeshSpec(N, alpha, family, 1.0)
    if unread_exact(mesh, op):
        return
    K = operator_matrix(mesh, op, Mode.Exact)
    assert np.linalg.eigvalsh(K)[0] >= 0.0


@pytest.mark.parametrize("family,alpha", SCHEME_MESHES)
def test_wavefunction_lagrange_property(family, alpha):
    check_lagrange_property(1000, family, alpha)


@pytest.mark.slow
@pytest.mark.parametrize("family,alpha", SCHEME_MESHES)
def test_wavefunction_near_nodes_against_mpmath(family, alpha):
    pytest.importorskip("mpmath")
    check_near_nodes_against_mpmath(1000, family, alpha)


@pytest.mark.parametrize("N", [30, 100])
@pytest.mark.parametrize("l", [0, 10, 20])
@pytest.mark.parametrize("Z", [-1.0, 1.0])
def test_coulomb_scattering_grid(Z, l, N):
    # pure Coulomb has no short-range part, so the integral relation gives
    # tan(delta) = 0 exactly; this runs the Coulomb functions over l <= 20
    # and both signs of eta at every x the pseudostates reach
    V = builtin("coulomb", Z=Z)
    variant = HamiltonianVariant.RegSqrtMesh
    mesh = scheme_mesh(variant, N, 1.1)
    H, basis = hamiltonian_3d(mesh, l, V, variant)
    states = pseudostates(solve_bound_states(H, basis))
    assert states
    for state in states:
        if abs(V.tail_Z / state.k) > 50.0:  # outside the advertised domain
            with pytest.raises(ValueError, match="eta"):
                gamma_scan(state, l, V, V.tail_Z, mesh)
            continue
        try:
            rec, _ = gamma_scan(state, l, V, V.tail_Z, mesh)
        except (ConvergenceError, IndeterminatePhaseError):
            continue
        assert rec.tan_delta == 0.0 and math.isfinite(rec.delta_deg), (state.energy, rec)
        # a zero phase is +0 in either window, never -0
        assert math.copysign(1.0, rec.tan_delta) == 1.0, (state.energy, rec)
        assert math.copysign(1.0, rec.delta_deg) == 1.0, (state.energy, rec)
