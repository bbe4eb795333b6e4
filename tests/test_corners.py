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
and so are theirs on a potential with no closed-form level over N = 5..120,
where both regularized meshes agree with Var's level and the plain schemes
do or lose it at the rate the classifier's verdict predicts.  The Eckart
well's one level meets 1e-10 on the four Gauss schemes at N = 300 and 1000.
"""

import functools
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
from lagmesh.scattering import gamma_scan
from lagmesh.solver import bound_energies, pseudostates, relative_error, solve_bound_states

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


PLAIN = [HamiltonianVariant.NonReg, HamiltonianVariant.NonRegVG]
GAUSS = [HamiltonianVariant.RegSqrtMesh, HamiltonianVariant.RegRMesh, *PLAIN]


@pytest.mark.parametrize("variant", PLAIN, ids=lambda v: v.name)
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


# The Eckart well (b = 2, c = -1) has one level, -c^2/2, and no lossy term
# on any Gauss scheme, since V is finite at the origin.  Its relative errors
# are at most 1.4e-12 at N = 300, h = 0.02 and 2.2e-11 at N = 1000, h = 0.01
# (NonReg and NonRegVG), with one BLAS thread and with two.
ECKART_H = {300: 0.02, 1000: 0.01}


@pytest.mark.parametrize("variant", GAUSS, ids=lambda v: v.name)
@pytest.mark.parametrize("N", [300, 1000])
def test_eckart_level(N, variant):
    V = builtin("eckart")
    mesh = scheme_mesh(variant, N, ECKART_H[N])
    assert not classify_singularity(mesh, 0, V, variant)
    E = bound_energies(hamiltonian_3d(mesh, 0, V, variant)[0])[0]
    assert abs(relative_error(E, exact_level(V, 0))) <= SAFE_TOL


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
# Var2D at N = 300, h = 0.15 is within 6.0e-12 (m = 0), 1.2e-12 and
# 2.8e-13 of N = 250, h = 0.2; over N = 5..120 at h = 0.5 its levels fall
# below it by at most 1.0e-13, 9.3e-14 and 3.3e-13 and rise by at most
# 9.9e-13 (m = 0), 6.3e-13 and 3.8e-13.
RITZ_FLOOR = 1e-11
RITZ_SPEC = PotentialSpec("spec", terms=((-1.0, -1.0, 0.0, 0.0), (0.2, 1.0, 0.0, 0.0),
                                         (0.05, 2.0, 0.0, 0.0)))


@pytest.mark.parametrize("variant, potential", [
    (HamiltonianVariant.Var, "coulomb"),
    (HamiltonianVariant.Var2D, "coulomb"),
    (HamiltonianVariant.Var, "spec"),
    (HamiltonianVariant.Var2D, "spec"),
], ids=["Var", "Var2D", "Var-spec", "Var2D-spec"])
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


# Where the classifier names no lossy term, the regularized meshes converge
# on the same spec to Var's N = 300, h = 0.15 level: at h = 0.5 and N = 40
# and 80 their lowest level is within 5.5e-12 (l = 0), 8.3e-13 (l = 1) and
# 1.3e-13 (l = 2) of it, with one BLAS thread and with two; at l = 0 that is
# the reference's own rounding (4.0e-12 from N = 250, h = 0.2).
AGREEMENT_BOUND = {0: 1e-11, 1: 2e-12, 2: 5e-13}


@functools.lru_cache(maxsize=None)
def _var_level(l):
    """Var's lowest level on RITZ_SPEC at N = 300, h = 0.15."""
    var = HamiltonianVariant.Var
    return bound_energies(hamiltonian_3d(scheme_mesh(var, 300, 0.15), l, RITZ_SPEC, var)[0])[0]


def _off_var(variant, l):
    """The lowest level's relative distance from Var's at h = 0.5, N = 40 and
    80, and the classifier's verdict, the same at both."""
    reference = _var_level(l)
    off, verdicts = [], set()
    for N in (40, 80):
        mesh = scheme_mesh(variant, N, 0.5)
        verdicts.add(classify_singularity(mesh, l, RITZ_SPEC, variant))
        E = bound_energies(hamiltonian_3d(mesh, l, RITZ_SPEC, variant)[0])[0]
        off.append((E - reference) / abs(reference))
    (loss,) = verdicts
    return off, loss


@pytest.mark.parametrize("variant", [HamiltonianVariant.RegSqrtMesh,
                                     HamiltonianVariant.RegRMesh],
                         ids=["RegSqrtMesh", "RegRMesh"])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_regularized_meshes_agree_with_var(variant, l):
    off, loss = _off_var(variant, l)
    assert not loss
    assert max(map(abs, off)) <= AGREEMENT_BOUND[l], off


# The plain schemes on the same spec: where the classifier names no lossy
# term (NonRegVG at l = 1, both at l = 2) they are within 6.7e-13 (l = 1) and
# 2.0e-13 (l = 2) of Var's level at N = 40 and 80.  Where it names one, the
# error falls from N = 40 to 80 by a factor of 3.76 (1.2e-2 to 3.3e-3: the
# Coulomb s-wave loss of both, a rate near 2) and 7.37 (1.4e-5 to 1.9e-6:
# NonReg's centrifugal loss at l = 1, a rate near 3), with one BLAS thread
# and with two.
LOSS_RATIO = {("potential",): (3.5, 4.0), ("centrifugal",): (7.0, 7.8)}


@pytest.mark.parametrize("variant", PLAIN, ids=lambda v: v.name)
@pytest.mark.parametrize("l", [0, 1, 2])
def test_plain_schemes_against_var(variant, l):
    (first, second), loss = _off_var(variant, l)
    if loss:
        low, high = LOSS_RATIO[loss]
        assert low <= first / second <= high, (loss, first, second)
    else:
        assert max(abs(first), abs(second)) <= AGREEMENT_BOUND[l], (first, second)


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
        rec, _ = gamma_scan(state, l, V, V.tail_Z, mesh)
        assert rec.tan_delta == 0.0 and math.isfinite(rec.delta_deg), (state.energy, rec)
        # a zero phase is +0 in either window, never -0
        assert math.copysign(1.0, rec.tan_delta) == 1.0, (state.energy, rec)
        assert math.copysign(1.0, rec.delta_deg) == 1.0, (state.energy, rec)
