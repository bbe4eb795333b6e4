"""Every scheme at the valid corners of the advertised domain.

The lowest level of each of the seven schemes, at N in {300, 1000} (and
the plain schemes at N = 990) and l or m in {0, 20}, for the harmonic and
Coulomb potentials, is checked against its exact value.  A cell meets 1e-10 where the singularity
classifier calls every Gauss-approximated term of the scheme ``Safe``, and
the bound tabulated below where it predicts ``AccuracyLoss``.  The Exact
matrices behind the variational terms are checked at the same sizes:
-d^2/dr^2 is a positive operator, the trace of x on the plain family is
known, and the r-regularized family's Exact matrices give the oscillator
levels.
"""

import numpy as np
import pytest
from scipy.linalg import eigh

from lagmesh.basis import Family, MeshSpec
from lagmesh.benchmarks import coulomb_level, coulomb_level_2d, ho_level, ho_level_2d
from lagmesh.matelem import (
    SCHEMES,
    Classification,
    HamiltonianVariant,
    Mode,
    Variant2D,
    classify_singularity,
    hamiltonian_2d,
    hamiltonian_3d,
    kinetic2d_matrix,
    kinetic_matrix,
    power_matrix,
    scheme_mesh,
)
from lagmesh.potentials import builtin
from lagmesh.quadrature import generate_rule
from lagmesh.solver import bound_energies, relative_error

from test_basis import _eval_all

GRID_H = {"harmonic": 0.04, "coulomb": 1.0}
LEVELS = {("harmonic", "3D"): ho_level, ("coulomb", "3D"): coulomb_level,
          ("harmonic", "2D"): ho_level_2d, ("coulomb", "2D"): coulomb_level_2d}
# The AccuracyLoss cells of the grid are non-reg and non-reg V_G for
# Coulomb at l = 0, whose 1/r element is taken at the Gauss approximation.
# Their errors are 1.7e-4 at N = 300 and 1.6e-5 at N = 990 and 1000
# (h = 1); the bounds leave a factor of 2.
LOSS_BOUND = {300: 3.5e-4, 990: 3.5e-5, 1000: 3.5e-5}
SAFE_TOL = 1e-10


def _predicts_loss(variant, n, potential):
    """Whether the classifier marks a Gauss-approximated term of the scheme
    ``AccuracyLoss``: the potential (inverse power 1 for Coulomb, 0 for the
    oscillator) and, for n > 0, the centrifugal term (inverse power 2)."""
    family, alpha, (_, c_mode, v_mode) = SCHEMES[variant]
    dim = "2D" if isinstance(variant, Variant2D) else "3D"
    powers = [1 if potential == "coulomb" else 0] if v_mode is Mode.Gauss else []
    if c_mode is Mode.Gauss and n > 0:
        powers.append(2)
    return any(classify_singularity(family, alpha, n, s, dim) is Classification.AccuracyLoss
               for s in powers)


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
    dim = "2D" if isinstance(variant, Variant2D) else "3D"
    build = hamiltonian_2d if dim == "2D" else hamiltonian_3d
    H, S = build(scheme_mesh(variant, N, GRID_H[potential]), n, builtin(potential), variant)
    eps = abs(relative_error(bound_energies(H, S)[0], LEVELS[potential, dim](n)))
    if _predicts_loss(variant, n, potential):
        # the loss the classifier predicts is real, and stays within its bound
        assert SAFE_TOL < eps <= LOSS_BOUND[N]
    else:
        assert eps <= SAFE_TOL


def test_loss_cells_are_the_plain_coulomb_s_waves():
    loss = {(v.name, n, pot) for v in SCHEMES for n in (0, 20)
            for pot in ("harmonic", "coulomb") if _predicts_loss(v, n, pot)}
    assert loss == {("NonReg", 0, "coulomb"), ("NonRegVG", 0, "coulomb")}


@pytest.mark.parametrize("family,alpha,N,build", [
    (Family.RegSqrt, 1.0, 1000, kinetic_matrix),
    (Family.NonReg, 2.0, 1000, kinetic_matrix),
    (Family.RegR, 0.0, 1000, kinetic_matrix),
    (Family.RegSqrt, 2.0, 999, kinetic2d_matrix),  # Var2D at m > 0
    (Family.RegSqrt, 0.0, 1000, kinetic2d_matrix),  # Var2D at m = 0
])
def test_exact_kinetic_matrices_are_positive(family, alpha, N, build):
    K = build(MeshSpec(N, alpha, family, 1.0), Mode.Exact)
    assert np.linalg.eigvalsh(K)[0] >= 0.0


@pytest.mark.parametrize("N", [300, 1000])
def test_plain_family_trace_of_x(N):
    # the Exact matrix of x on the plain family is diag(r_i), whose trace is
    # the sum of the zeros of L_N^(alpha)
    X = power_matrix(MeshSpec(N, 2.0, Family.NonReg, 1.0), 1, Mode.Exact)
    assert np.trace(X) == pytest.approx(N * (N + 2.0), rel=1e-14)


def test_r_regularized_exact_oscillator_levels():
    # the r-regularized functions are not orthonormal: their Gram matrix is
    # integrated exactly by the rule of weight x^2 e^-x, since f_i f_j is
    # x^2 e^-x times a polynomial of degree 2N - 2
    N, h = 400, 0.06
    mesh = MeshSpec(N, 0.0, Family.RegR, h)
    x, w = generate_rule(N, 2.0)
    F = _eval_all(mesh, x)
    S = (F * w) @ F.T
    H = (kinetic_matrix(mesh, Mode.Exact) / (2.0 * h * h)
         + 0.5 * h * h * power_matrix(mesh, 2, Mode.Exact))
    E = eigh(H, S, eigvals_only=True)[:3]
    assert np.abs(E / ho_level(0, np.arange(3)) - 1.0).max() <= 1e-10
