"""The library's refusals, each stated once: ``CASES`` holds every refusal
of every entry point, a bad value of a parameter (NaN, +-inf, out of
domain or malformed) and the ValueError it raises, whose whole message is
stated (``re.fullmatch``), with no RuntimeWarning on the way.  Valid but
extreme values give a number that is not NaN, or the typed error.

A case's value is fixed, and its message is then one message, or is
drawn, 20 values a run, from a hypothesis strategy, and its message is any
of the parameter's (``parameter``).  Its id is the tier-1 test id that runs it (``attach``): a test
of this module, or the test of another module whose check it took over.
The command line's refusals are the rows of ``tests/cli_refusals.py``,
and its accepted runs those of ``tests/cli_runs.py``.
"""

import dataclasses
import functools
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmesh import (
    Family,
    HamiltonianVariant,
    IndeterminatePhaseError,
    MeshSpec,
    PotentialSpec,
    Pseudostate,
    bound_energies,
    builtin,
    classify_singularity,
    coulomb_wave,
    eckart_reference_delta0,
    exact_level,
    gamma_scan,
    generate_rule,
    hamiltonian_2d,
    hamiltonian_3d,
    pseudostates,
    reconstruct_wavefunction,
    relative_error,
    scheme_mesh,
    solve_bound_states,
    tan_delta,
)
from lagmesh.benchmarks import run_table
from lagmesh.matelem import SCHEMES, Mode, operator_matrix
from lagmesh.potentials import _json_object, _spec
from lagmesh.potentials import evaluate as evaluate_potential

import cli_refusals
from cli_refusals import attach


def from_text(text):
    """The spec of a JSON text, read as the CLI reads a spec, with the
    document named ``spec``."""
    return _spec(_json_object(text, "spec"))


class Case(NamedTuple):
    id: str  # module::[Class::]test[case], the tier-1 test that runs it
    call: object  # of the bad value
    values: object  # the bad value, or a strategy that draws them
    message: str  # a pattern that the whole message matches


def either(*messages):
    """The pattern of a message that is one of ``messages``, each literal
    but for ``{}``, a value that the message echoes."""
    return "|".join(".*".join(map(re.escape, m.split("{}"))) for m in messages)


def refused(cases):
    """Assert that each case's call raises, at its value or at each of 20
    values drawn, a ValueError whose whole message matches its pattern."""
    for case in cases:
        if isinstance(case.values, st.SearchStrategy):
            _drawn(case)
        else:
            _refuses(case, case.values)


# one body for every case, so no example database: it would replay one
# case's failing value through the others
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def _drawn(case, data):
    _refuses(case, data.draw(case.values))


def _refuses(case, value):
    with pytest.raises(ValueError) as err:
        case.call(value)
    assert re.fullmatch(case.message, str(err.value)), str(err.value)


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FRACTIONAL = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())
# ints that no double holds
BEYOND_DOUBLE = {"+10**400": 10**400, "-10**400": -10**400}


def at_most(bound):
    """Finite floats up to ``bound``, -0.0 and 0.0 included."""
    return st.floats(max_value=bound, allow_nan=False, allow_infinity=False)


NEGATIVE = at_most(-1e-300)
# shapes of point arrays with more than one dimension
MULTI_DIMENSIONAL = st.sampled_from([(2, 3), (1, 1), (3, 1, 2)])


def angular(limit):
    """Bad angular numbers: non-integers, negatives, and ``limit`` or more."""
    return (NONFINITE | FRACTIONAL | st.integers(max_value=-1)
            | st.integers(min_value=limit, max_value=10**6))


def parameter(name, call, values, messages, held=(), double=None):
    """The cases of parameter ``name`` of an entry point.  Its own case
    draws from ``values`` and from ``held``'s values, and takes any of
    ``messages`` and of ``held``'s.  Each ``(id, value, message)`` of
    ``held`` also runs alone, where only its one message passes, under
    ``id``, the check it took over, or the parameter's own for None.
    ``double`` is the one message of the ints that no double holds, which
    are held the same way."""
    own = f"test_domain::test_entry_point_names_the_bad_parameter[{name}]"
    if double:
        held = [*held, *((f"test_domain::test_int_beyond_double_range_names_the_parameter"
                          f"[{name}-{label}]", value, double)
                         for label, value in BEYOND_DOUBLE.items())]
    if held:
        values |= st.sampled_from([value for _, value, _ in held])
    return (Case(own, call, values, either(*messages, *(message for *_, message in held))),
            *(Case(id or own, call, value, either(message)) for id, value, message in held))


def each(test, message, *values):
    """``(id, value, message)`` of the cases of a parametrized ``test``,
    each named by its value, whose message is ``message`` with the value."""
    return [(f"{test}[{value}]", value, message.format(value)) for value in values]


def _integer(name):
    """The messages of a bad whole number ``name``."""
    return f"{name} must be an integer (got {{}})", f"{name} must be nonnegative"


def _finite(name):
    """The message of a parameter ``name`` that must be finite."""
    return (f"{name} must be finite (got {{}})",)


MESH = scheme_mesh(HamiltonianVariant.RegSqrtMesh, 15, 0.1)
ECKART = builtin("eckart")
HARMONIC = builtin("harmonic")


@functools.lru_cache(maxsize=None)
def _state(l=0):
    return pseudostates(solve_bound_states(
        *hamiltonian_3d(MESH, l, ECKART, HamiltonianVariant.RegSqrtMesh)))[0]


def _with_entry(base, value, index=2):
    values = np.array(base, dtype=float)
    values.flat[index] = value
    return values


def _symmetric_with_entry(value):
    H = np.diag([1.0, 2.0, 3.0])
    H[1, 2] = H[2, 1] = value
    return H


def _pairs(entries):
    """A list of a good value and each of ``entries``."""
    return entries.map(lambda v: [0.5, v])


def _build(dimension, n, variant, N=10):
    """The builder of ``dimension`` on ``variant``'s mesh of N functions, at
    angular number ``n``, for the harmonic well."""
    build = hamiltonian_3d if dimension == 3 else hamiltonian_2d
    return build(scheme_mesh(variant, N, 1.0), n, HARMONIC, variant)


def _tan_delta_of(state):
    return tan_delta(state, 0, ECKART, 4.0, MESH)


# the basis of a 3 x 3 H, and what is not: the old overlap matrices (the
# identity among them, with a bad entry or not), a mesh of another size,
# and no mesh at all
BASIS3 = MeshSpec(3, 1.0, Family.RegSqrt, 0.5)
NOT_BASIS3 = (st.sampled_from([np.eye(3), None, 3, "RegSqrt"])
              | NONFINITE.map(lambda v: _with_entry(np.eye(3), v))
              | st.integers(1, 50).filter(lambda n: n != 3).map(
                  lambda n: MeshSpec(n, 1.0, Family.RegSqrt, 0.5)))
# H is checked before its basis
_MALFORMED_H = {"0-d": (np.array(1.0), "H must be a nonempty square matrix (got shape ())"),
                "0x0": (np.zeros((0, 0)), "H must be a nonempty square matrix (got shape (0, 0))"),
                "1-d": (np.zeros(3), "H must be a nonempty square matrix (got shape (3,))"),
                "2x3": (np.zeros((2, 3)), "H must be a nonempty square matrix (got shape (2, 3))"),
                "inf": (np.array([[1.0, np.inf], [np.inf, 1.0]]),
                        "Hamiltonian matrix has non-finite entries"),
                "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]),
                        "Hamiltonian matrix has non-finite entries")}
_H = ("Hamiltonian matrix has non-finite entries",)
_BASIS3 = ("basis must be the MeshSpec of H's 3 functions, as the Hamiltonian builders "
           "return it ")

_GRID = np.geomspace(0.1, 10.0, 16)
# a string is refused by name before int() could parse it
_NOT_INTEGER_N = [(f"test_basis::TestMeshSpec::test_non_integer_N_named[{i}]", v,
                   f"N must be an integer (got {v!r})")
                  for i, v in (("10.5", 10.5), ("nan", math.nan), ("inf", math.inf),
                               ("str-5", "5"), ("str-5.0", "5.0"), ("bytes-5.0", b"5.0"))]
_N = "N must be an integer (got {})", "N must be a positive integer (got {})"
_ENERGY = ("pseudostate energy and k must be positive and finite",)
_OPERATORS = "1/r^2, 1/r, 1, r, r^2, kinetic, kinetic2d"


def _no_numbers(name, *values):
    """Held values of array parameter ``name`` that hold no number or form
    no array."""
    return [(None, v, f"{name} must be a number or an array of numbers") for v in values]


def _spec_field(field):
    """The checks of PotentialSpec's ``field`` at NaN and +-inf."""
    return [(f"test_potentials::TestNonFiniteParameters::test_spec_names_the_field"
             f"[{field}-<lambda>-{v}]", v, f"{field} must be finite (got {v})")
            for v in (math.nan, math.inf, -math.inf)]


def _classifier(name, case):
    """The checks of the classifier's angular number ``name`` in 3D
    (``3D-l``) or 2D (``2D-m``)."""
    return [(f"test_matelem::TestClassifier::test_invalid_angular_number_rejected"
             f"[{v}-{text}-{case}]", v, f"{name} {text}{got}")
            for v, text, got in ((math.nan, "must be an integer", " (got nan)"),
                                 (math.inf, "must be an integer", " (got inf)"),
                                 (1.5, "must be an integer", " (got 1.5)"),
                                 (-3, "must be nonnegative", ""))]


CASES = (
    # basis and quadrature
    *parameter("MeshSpec.N", lambda v: MeshSpec(v, 1.0, Family.RegSqrt, 0.5),
               NONFINITE | FRACTIONAL | st.integers(max_value=0), _N,
               [("test_basis::TestMeshSpec::test_bad_arguments", 0,
                 "N must be a positive integer (got 0)"), *_NOT_INTEGER_N],
               double="N must be within double range"),
    *parameter("MeshSpec.alpha", lambda v: MeshSpec(5, v, Family.RegSqrt, 0.5),
               NONFINITE | NEGATIVE, ("alpha must be finite and nonnegative (got {})",),
               [("test_basis::TestMeshSpec::test_bad_arguments", -0.5,
                 "alpha must be finite and nonnegative (got -0.5)"),
                *each("test_basis::TestMeshSpec::test_non_finite_alpha_named",
                      "alpha must be finite and nonnegative (got {})",
                      math.nan, math.inf, -math.inf)],
               double="alpha must be within double range"),
    *parameter("MeshSpec.h", lambda v: MeshSpec(5, 1.0, Family.RegSqrt, v),
               NONFINITE | at_most(0.0), ("h must be positive and finite (got {})",),
               [("test_basis::TestMeshSpec::test_bad_arguments", 0.0,
                 "h must be positive and finite (got 0.0)")],
               double="h must be within double range"),
    *parameter("MeshSpec.family", lambda v: MeshSpec(5, 1.0, v, 0.5),
               st.sampled_from(["Bad", "regsqrt", "", 3, None]), ("unknown Family: {}",),
               [("test_basis::TestMeshSpec::test_bad_arguments", "Reg", "unknown Family: 'Reg'")],
               double="unknown Family: {}"),
    *parameter("generate_rule.N", lambda v: generate_rule(v, 0.0),
               NONFINITE | FRACTIONAL | st.integers(max_value=0), _N,
               [("test_quadrature::TestGenerateRule::test_rejects_bad_arguments", 0,
                 "N must be a positive integer (got 0)"), *_NOT_INTEGER_N],
               double="N must be within double range"),
    *parameter("generate_rule.alpha", lambda v: generate_rule(5, v), NONFINITE | at_most(-1.0),
               ("alpha must be finite and exceed -1",),
               [("test_quadrature::TestGenerateRule::test_rejects_bad_arguments", -1.0,
                 "alpha must be finite and exceed -1")],
               double="alpha must be within double range"),
    *parameter("reconstruct_wavefunction.coeffs",
               lambda v: reconstruct_wavefunction(MESH, v, 1.0),
               NONFINITE.map(lambda v: _with_entry(np.ones(MESH.N), v)), ("coeffs must be finite",),
               [("test_basis::TestReconstruct::test_length_mismatch", np.ones(4),
                 "coeffs must have length 15"), *_no_numbers("coeffs", ["a", 1, 2])]),
    *parameter("reconstruct_wavefunction.r",
               lambda v: reconstruct_wavefunction(MESH, np.ones(MESH.N), v),
               _pairs(NONFINITE | NEGATIVE), ("r must be nonnegative and finite",),
               [*((test, v, "r must be nonnegative and finite")
                  for test in ("test_basis::TestEvaluateBasis::test_bad_arguments",
                               "test_basis::TestReconstruct::test_bad_radius")
                  for v in (-0.1, math.nan, math.inf)),
                ("test_basis::TestEvaluateBasis::test_bad_arguments", [1.0, math.nan],
                 "r must be nonnegative and finite"),
                ("test_basis::TestReconstruct::test_bad_radius", [1.0, math.inf],
                 "r must be nonnegative and finite"), *_no_numbers("r", [[1.0, 2.0], [3.0]])],
               double="r must be within double range"),
    *parameter("reconstruct_wavefunction.r.shape",
               lambda v: reconstruct_wavefunction(MESH, np.ones(MESH.N), v),
               MULTI_DIMENSIONAL.map(np.ones), ("r must be a scalar or a 1-D array (got shape {})",)),
    # the Hamiltonian builders and the classifier
    *parameter("hamiltonian_3d.l", lambda v: hamiltonian_3d(MESH, v, ECKART, "RegSqrtMesh"),
               angular(MESH.N), (*_integer("l"), "N must exceed l (got N=15, l={})"),
               [("test_matelem::TestHamiltonian3D::test_l_at_least_n_rejected", MESH.N,
                 "N must exceed l (got N=15, l=15)"),
                ("test_matelem::TestCentrifugal::test_negative_l_rejected", -1,
                 "l must be nonnegative")],
               double="l must be within double range"),
    *parameter("hamiltonian_2d.m", lambda v: hamiltonian_2d(
        scheme_mesh(HamiltonianVariant.RegSqrtMesh2D, 6, 0.5), v, ECKART, "RegSqrtMesh2D"),
        angular(6), (*_integer("m"), "N must exceed m (got N=6, m={})"),
        [("test_matelem::TestHamiltonian2D::test_m_at_least_n_rejected", 6,
          "N must exceed m (got N=6, m=6)"),
         ("test_matelem::TestCentrifugal::test_negative_l_rejected", -1, "m must be nonnegative")],
        double="m must be within double range"),
    *(Case(f"test_matelem::TestCentrifugal::test_non_integer_{name}_named[{variant}-{value}]",
           functools.partial(_build, dimension, variant=variant), value,
           either(f"{name} must be an integer (got {value})"))
      for variant, (*_, dimension) in SCHEMES.items() for name in ["l" if dimension == 3 else "m"]
      for value in (1.5, math.nan, math.inf)),
    *(Case(f"test_matelem::TestSchemeNames::test_builder_rejects_the_other_dimension"
           f"[{variant.name}]", functools.partial(_build, 5 - dimension, 1), form,
           either(f"{variant.name} is a {dimension}D scheme, not a {5 - dimension}D one"))
      for variant, (*_, dimension) in SCHEMES.items() for form in (variant, variant.name)),
    Case("test_matelem::TestHamiltonian3D::test_unknown_variant_rejected",
         lambda v: hamiltonian_3d(MESH, 0, HARMONIC, v), "Exotic",
         either("unknown HamiltonianVariant: 'Exotic'")),
    # a mesh that is not the scheme's
    *(Case(test, call, MeshSpec(8, alpha, family, 1.0), either(message))
      for test, call, alpha, family, message in (
          ("test_matelem::TestHamiltonian3D::test_family_mismatch_rejected",
           lambda mesh: hamiltonian_3d(mesh, 0, HARMONIC, "NonReg"), 1.0, "RegSqrt",
           "variant NonReg requires family NonReg"),
          ("test_matelem::TestHamiltonian2D::test_requires_sqrt_regularized_alpha_zero_mesh",
           lambda mesh: hamiltonian_2d(mesh, 1, HARMONIC, "Var2D"), 1.0, "RegSqrt",
           "two-dimensional schemes fix alpha = 0 (got 1.0)"),
          ("test_matelem::TestHamiltonian2D::test_requires_sqrt_regularized_alpha_zero_mesh",
           lambda mesh: hamiltonian_2d(mesh, 1, HARMONIC, "Var2D"), 0.0, "RegR",
           "variant Var2D requires family RegSqrt"),
          ("test_matelem::TestClassifier::test_mesh_of_another_family_rejected",
           lambda mesh: classify_singularity(mesh, 0, builtin("coulomb"), "NonReg"), 1.0,
           "RegSqrt", "variant NonReg requires family NonReg"))),
    *(Case("test_matelem::TestPotentialMatrix::test_exact_rejects_non_power_shapes",
           lambda V: hamiltonian_3d(scheme_mesh("Var", 5, 1.0), 0, V, "Var"), V,
           either(f"potential {V.label!r} has no exact matrix elements"))
      for V in (ECKART, builtin("buck_alpha_alpha"))),
    *(Case(test, lambda args: operator_matrix(*args), (MeshSpec(5, alpha, family, 1.0), op, mode),
           either(message))
      for test, family, alpha, op, mode, message in (
          ("test_matelem::TestKinetic::test_exact_alpha_zero_diverges", "RegSqrt", 0.0,
           "kinetic", Mode.Exact, "divergent integral: kinetic on family RegSqrt with alpha=0.0"),
          ("test_matelem::TestKinetic::test_exact_plain_family_alpha_one_diverges", "NonReg",
           1.0, "kinetic", Mode.Exact,
           "divergent integral: kinetic on family NonReg with alpha=1.0"),
          ("test_matelem::TestDivergenceRejections::test_inverse_square_sqrt_family_alpha_zero",
           "RegSqrt", 0.0, "1/r^2", Mode.Exact,
           "divergent integral: 1/r^2 on family RegSqrt with alpha=0.0"),
          ("test_matelem::TestDivergenceRejections::test_unknown_mode_rejected", "RegSqrt", 1.0,
           "kinetic", "Approximate", "unknown Mode: 'Approximate'"),
          # a silent zero correction, were the operator not checked
          *(("test_matelem::TestDivergenceRejections::test_invalid_power_rejected", family,
             alpha, op, mode, f"unknown operator: {op!r} (expected one of {_OPERATORS})")
            for family, alpha in (("RegSqrt", 1.0), ("NonReg", 2.0), ("RegR", 0.0))
            for op in ("r^3", "kinetic3d", "R") for mode in Mode))),
    *parameter("classify_singularity.l", lambda v: classify_singularity(
        scheme_mesh("NonReg", 10, 0.9), v, HARMONIC, "NonReg"),
        NONFINITE | FRACTIONAL | st.integers(max_value=-1), _integer("l"),
        _classifier("l", "3D-l"), double="l must be within double range"),
    *parameter("classify_singularity.m", lambda v: classify_singularity(
        scheme_mesh("RegSqrtMesh2D", 10, 0.9), v, HARMONIC, "RegSqrtMesh2D"),
        NONFINITE | FRACTIONAL | st.integers(max_value=-1), _integer("m"),
        _classifier("m", "2D-m"), double="m must be within double range"),
    # the eigensolver
    *parameter("bound_energies.H", bound_energies, NONFINITE.map(_symmetric_with_entry), _H,
               [*((f"test_solver::TestSolveBoundStates::test_malformed_hamiltonian_rejected"
                   f"[energies-{i}]", H, message) for i, (H, message) in _MALFORMED_H.items()),
                ("test_solver::TestSolveBoundStates::test_entry_beyond_double_range_names_h"
                 "[bound_energies]", [[10**400]], "H must be within double range"),
                *_no_numbers("H", [[1, "z"], ["z", 1]])]),
    *parameter("solve_bound_states.H", lambda H: solve_bound_states(H, BASIS3),
               NONFINITE.map(_symmetric_with_entry), _H,
               [*((f"test_solver::TestSolveBoundStates::test_malformed_hamiltonian_rejected[{i}]",
                   H, message) for i, (H, message) in _MALFORMED_H.items()),
                ("test_solver::TestSolveBoundStates::test_entry_beyond_double_range_names_h"
                 "[solve_bound_states]", [[10**400]], "H must be within double range"),
                *_no_numbers("H", [[1, "z"], ["z", 1]])]),
    # H - H^T overflows in the second H, silently
    *(Case("test_solver::TestSolveBoundStates::test_asymmetric_hamiltonian_rejected", solve,
           np.array(H), either("Hamiltonian matrix is not symmetric"))
      for H in ([[1.0, 2.0], [0.0, 1.0]], [[1.0, 1e308], [-1e308, 1.0]])
      for solve in (bound_energies, lambda H: solve_bound_states(
          H, MeshSpec(2, 1.0, Family.RegSqrt, 0.5)))),
    *parameter("solve_bound_states.basis",
               lambda v: solve_bound_states(np.diag([1.0, 2.0, 3.0]), v), NOT_BASIS3,
               (_BASIS3 + "(got {})",),
               [*(("test_solver::TestSolveBoundStates::test_non_identity_overlap_rejected", S,
                   _BASIS3 + f"(got {type(S).__name__})")
                  for S in (2.0 * np.eye(3), np.eye(4), np.eye(3, 4), np.eye(3)[:2],
                            _with_entry(np.eye(3), math.nan, index=6),
                            np.diag([1.0, np.nan, 1.0]), np.eye(3),
                            np.eye(3, dtype=int), np.eye(3).tolist())),
                *((f"test_solver::TestSolveBoundStates::test_basis_other_than_the_mesh_of_h"
                   f"_rejected[{i}]", basis, _BASIS3 + f"(got {got})")
                  for i, basis, got in (("identity-overlap", np.eye(3), "ndarray"),
                                        ("other-N", MeshSpec(4, 1.0, Family.RegSqrt, 1.0), "N=4"),
                                        ("None", None, "NoneType")))],
               double=_BASIS3 + "(got int)"),
    *parameter("relative_error.e_app", lambda v: relative_error(v, 1.0), NONFINITE,
               _finite("e_app"), double="e_app must be within double range"),
    *parameter("relative_error.e_exact", lambda v: relative_error(1.0, v), NONFINITE,
               _finite("e_exact"),
               [("test_solver::TestRelativeError::test_zero_reference_rejected", 0.0,
                 "relative error is undefined for a zero reference energy")],
               double="e_exact must be within double range"),
    # phases
    *parameter("tan_delta.l", lambda v: tan_delta(_state(), v, ECKART, 4.0, MESH), angular(21),
               (*_integer("l"), "l must be an integer in [0, 20] (got {})"),
               each("test_scattering::TestValidation::test_rejects_non_integer_l",
                    "l must be an integer (got {})", 1.5, math.inf, math.nan),
               double="l must be within double range"),
    *parameter("gamma_scan.l", lambda v: gamma_scan(_state(), v, ECKART, 0.0, MESH), angular(21),
               (*_integer("l"), "l must be an integer in [0, 20] (got {})"),
               each("test_scattering::TestValidation::test_rejects_non_integer_l",
                    "l must be an integer (got {})", 1.5, math.inf, math.nan),
               double="l must be within double range"),
    *parameter("tan_delta.gamma", lambda v: tan_delta(_state(), 0, ECKART, v, MESH),
               NONFINITE | at_most(0.0), ("gamma must be positive and finite (got {})",),
               [("test_scattering::TestValidation::test_rejects_nonpositive_gamma", 0.0,
                 "gamma must be positive and finite (got 0.0)"),
                *each("test_scattering::TestValidation::test_rejects_non_finite_gamma",
                      "gamma must be positive and finite (got {})", math.inf, math.nan)],
               double="gamma must be within double range"),
    *parameter("tan_delta.state.energy",
               lambda v: _tan_delta_of(dataclasses.replace(_state(), energy=v)),
               NONFINITE | at_most(0.0), _ENERGY,
               [("test_scattering::TestValidation::test_rejects_nonpositive_energy", -0.5,
                 *_ENERGY),
                ("test_scattering::TestValidation::test_rejects_non_finite_state", math.inf,
                 *_ENERGY)],
               double="pseudostate energy and k must be within double range"),
    # k = sqrt(2E) is derived: it is infinite where 2E overflows
    *parameter("tan_delta.state.k",
               lambda v: _tan_delta_of(dataclasses.replace(_state(), energy=v)),
               st.floats(9e307, allow_infinity=False), _ENERGY,
               [("test_scattering::TestValidation::test_rejects_non_finite_state", 1e308,
                 *_ENERGY)],
               double="pseudostate energy and k must be within double range"),
    *parameter("tan_delta.state.coefficients", lambda v: _tan_delta_of(dataclasses.replace(
        _state(), coefficients=_with_entry(_state().coefficients, v))), NONFINITE,
        ("pseudostate coefficients must be finite",),
        [("test_scattering::TestValidation::test_rejects_non_finite_state", math.nan,
          "pseudostate coefficients must be finite")]),
    Case("test_scattering::TestValidation::test_rejects_coefficient_length_mismatch",
         lambda v: _tan_delta_of(Pseudostate(1.0, v)), np.ones(7),
         either("coefficient vector length does not match the mesh")),
    *parameter("gamma_scan.Z", lambda v: gamma_scan(_state(), 0, ECKART, v, MESH),
               NONFINITE | st.floats(1e-11, 1e300) | st.floats(-1e300, -1e-11),
               (*_finite("Z"), "potential 'eckart(b=2,c=-1)' has Coulomb tail 0.0, not Z={}"),
               [("test_scattering::TestValidation::test_rejects_tail_mismatch", 0.5,
                 "potential 'eckart(b=2,c=-1)' has Coulomb tail 0.0, not Z=0.5"),
                *((f"test_scattering::TestValidation::test_rejects_non_finite_Z[eckart-{v}]", v,
                   f"Z must be finite (got {v})") for v in (math.nan, math.inf, -math.inf))],
               double="Z must be within double range"),
    *(Case(f"test_scattering::TestValidation::test_rejects_non_finite_Z[buck_alpha_alpha-{v}]",
           lambda Z: gamma_scan(_state(), 0, builtin("buck_alpha_alpha"), Z, MESH), v,
           either(f"Z must be finite (got {v})")) for v in (math.nan, math.inf, -math.inf)),
    # each rate by the rate's rule, then the grid's size and order
    *parameter("gamma_scan.gammas", lambda v: gamma_scan(_state(), 0, ECKART, 0.0, MESH, gammas=v),
               (NONFINITE | at_most(0.0)).map(lambda v: _with_entry(_GRID, v, index=5))
               | st.lists(st.floats(0.1, 10.0), max_size=7)
               | st.floats(1e-300, _GRID[4]).map(lambda v: _with_entry(_GRID, v, index=5)),
               ("gamma must be positive and finite (got {})",
                "gamma grid too small: at least 8 points are required",
                "gamma grid must be strictly increasing"),
               [*(("test_scattering::TestGammaScan::test_grid_validation", grid, message)
                  for grid, message in (
                      ([1, 2, 3, 4, 5, 6, 7],
                       "gamma grid too small: at least 8 points are required"),
                      ([-1, 1, 2, 3, 4, 5, 6, 7], "gamma must be positive and finite (got -1.0)"),
                      ([1, 2, 3, 4, 4, 5, 6, 7], "gamma grid must be strictly increasing"))),
                *_no_numbers("gamma grid", ["fast"] * 8)]),
    *parameter("gamma_scan.window",
               lambda v: gamma_scan(_state(), 0, ECKART, 0.0, MESH, window=v),
               st.text().filter(lambda w: w not in ("principal", "positive")),
               ("unknown window: {}",),
               [("test_scattering::TestWindows::test_unknown_window_rejected", "folded",
                 "unknown window: 'folded'")]),
    *parameter("eckart_reference_delta0.E", lambda v: eckart_reference_delta0(v, 2.0, -1.0),
               NONFINITE | at_most(0.0), ("E must be positive and finite (got {})",),
               [("test_scattering::TestEckartReference::test_rejects_nonpositive_energy", 0.0,
                 "E must be positive and finite (got 0.0)"),
                *((f"test_scattering::TestEckartReference::test_rejects_non_finite_parameter"
                   f"[E-args{i}]", v, f"E must be positive and finite (got {v})")
                  for i, v in enumerate((math.inf, math.nan)))],
               double="E must be within double range"),
    *parameter("eckart_reference_delta0.b", lambda v: eckart_reference_delta0(1.0, v, -1.0),
               NONFINITE, _finite("b"),
               [(f"test_scattering::TestEckartReference::test_rejects_non_finite_parameter"
                 f"[b-args{i}]", v, f"b must be finite (got {v})")
                for i, v in ((2, math.nan), (3, math.inf))],
               double="b must be within double range"),
    *parameter("eckart_reference_delta0.c", lambda v: eckart_reference_delta0(1.0, 2.0, v),
               NONFINITE, _finite("c"),
               [(f"test_scattering::TestEckartReference::test_rejects_non_finite_parameter"
                 f"[c-args{i}]", v, f"c must be finite (got {v})")
                for i, v in ((4, math.nan), (5, -math.inf))],
               double="c must be within double range"),
    *parameter("coulomb_wave.l", lambda v: coulomb_wave(v, 0.5, 1.0), angular(21),
               (*_integer("l"), "l must be an integer in [0, 20] (got {})"),
               [("test_specfun::TestCoulombWave::test_domain_validation", 0.5,
                 "l must be an integer (got 0.5)"),
                *each("test_specfun::TestCoulombWave::test_non_integer_l_named",
                      "l must be an integer (got {})", 1.5, math.inf, math.nan)],
               double="l must be within double range"),
    *parameter("coulomb_wave.eta", lambda v: coulomb_wave(0, v, 1.0),
               NONFINITE | st.floats(50.0, 1e300, exclude_min=True)
               | st.floats(-1e300, -50.0, exclude_max=True),
               ("eta must satisfy |eta| <= 50 (got {})",),
               [("test_specfun::TestCoulombWave::test_domain_validation", 51.0,
                 "eta must satisfy |eta| <= 50 (got 51.0)")],
               double="eta must be within double range"),
    *parameter("coulomb_wave.x", lambda v: coulomb_wave(0, 0.5, v),
               _pairs(NONFINITE | at_most(0.0)), ("x must be positive and finite",),
               [("test_specfun::TestCoulombWave::test_domain_validation", -2.0,
                 "x must be positive and finite"), *_no_numbers("x", ["1", "y"])],
               double="x must be within double range"),
    *parameter("coulomb_wave.x.shape", lambda v: coulomb_wave(0, 0.5, v),
               MULTI_DIMENSIONAL.map(np.ones), ("x must be a scalar or a 1-D array (got shape {})",),
               [("test_specfun::TestCoulombWave::test_domain_validation", [],
                 "x must contain at least one point")]),
    # potentials; the Python constructor keeps its own names, which a JSON
    # spec's messages do not take
    *parameter("PotentialSpec.term_c", lambda v: PotentialSpec("v", terms=((v, -1.0, 0.0, 0.0),)),
               NONFINITE, _finite("term c"), _spec_field("term c"),
               double="term c must be within double range"),
    *parameter("PotentialSpec.term_p", lambda v: PotentialSpec("v", terms=((1.0, v, 0.0, 0.0),)),
               NONFINITE | at_most(-2.0),
               (*_finite("term p"), "term p must exceed -2 (less singular than 1/r^2)"),
               [*_spec_field("term p"),
                ("test_potentials::TestValidation::test_too_singular_term_rejected", -2.0,
                 "term p must exceed -2 (less singular than 1/r^2)"),
                (None, -3.0, "term p must exceed -2 (less singular than 1/r^2)")],
               double="term p must be within double range"),
    *parameter("PotentialSpec.term_a", lambda v: PotentialSpec("v", terms=((1.0, 0.0, v, 0.0),)),
               NONFINITE | NEGATIVE, (*_finite("term a"), "term must not grow exponentially"),
               [*_spec_field("term a"),
                ("test_potentials::TestValidation::test_growing_exponential_rejected", -0.1,
                 "term must not grow exponentially")],
               double="term a must be within double range"),
    *parameter("PotentialSpec.term_b", lambda v: PotentialSpec("v", terms=((1.0, 0.0, 0.0, v),)),
               NONFINITE | NEGATIVE, (*_finite("term b"), "term must not grow exponentially"),
               [*_spec_field("term b"),
                ("test_potentials::TestValidation::test_growing_exponential_rejected", -1.0,
                 "term must not grow exponentially")],
               double="term b must be within double range"),
    *parameter("PotentialSpec.coulomb_erf_q", lambda v: PotentialSpec("v", coulomb_erf=(v, 0.75)),
               NONFINITE, _finite("coulomb_erf q"), _spec_field("coulomb_erf q"),
               double="coulomb_erf q must be within double range"),
    *parameter("PotentialSpec.coulomb_erf_mu",
               lambda v: PotentialSpec("v", coulomb_erf=(1.0, v)), NONFINITE | at_most(0.0),
               (*_finite("coulomb_erf mu"), "coulomb_erf mu must be positive"),
               [*_spec_field("coulomb_erf mu"),
                ("test_potentials::TestValidation::test_erf_range_parameter_positive", 0.0,
                 "coulomb_erf mu must be positive"),
                (None, -1.0, "coulomb_erf mu must be positive")],
               double="coulomb_erf mu must be within double range"),
    *parameter("PotentialSpec.eckart_b", lambda v: PotentialSpec("v", eckart=(v, -1.0)),
               NONFINITE | at_most(1.0), (*_finite("eckart b"), "Eckart well requires b > |c|"),
               [*_spec_field("eckart b"),
                ("test_potentials::TestValidation::test_eckart_parameters_ordered", 1.0,
                 "Eckart well requires b > |c|")],
               double="eckart b must be within double range"),
    *parameter("PotentialSpec.eckart_c", lambda v: PotentialSpec("v", eckart=(2.0, v)),
               NONFINITE | st.floats(2.0, 1e300) | st.floats(-1e300, -2.0),
               (*_finite("eckart c"), "Eckart well requires b > |c|"),
               [*_spec_field("eckart c"), (None, 2.0, "Eckart well requires b > |c|")],
               double="eckart c must be within double range"),
    *parameter("PotentialSpec.energy_unit", lambda v: PotentialSpec("v", energy_unit=v),
               NONFINITE | at_most(0.0),
               (*_finite("energy_unit"), "energy_unit must be positive (got {})"),
               [*_spec_field("energy_unit"), (None, 0.0, "energy_unit must be positive (got 0.0)")],
               double="energy_unit must be within double range"),
    *parameter("evaluate.r", lambda v: evaluate_potential(HARMONIC, v),
               NONFINITE | at_most(0.0) | _pairs(NONFINITE | at_most(0.0)),
               ("r must be positive and finite",),
               [*(("test_potentials::TestEvaluate::test_nonpositive_radius_rejected", r,
                   "r must be positive and finite") for r in (0.0, [1.0, -2.0])),
                (None, [1.0, 10**400], "r must be within double range"),
                *_no_numbers("r", "x", [[1.0, 2.0], [3.0]])],
               double="r must be within double range"),
    *(Case(f"test_potentials::TestBuiltins::{test}", builtin, name,
           either(f"unknown name {name!r}; builtins are harmonic, coulomb, eckart, "
                  "buck_alpha_alpha"))
      for test, name in (("test_unknown_name_rejected", "yukawa"),
                         *((f"test_name_that_is_no_string_is_unknown[{i}]", name)
                           for i, name in (("3", 3), ("None", None), ("name2", ["harmonic"]),
                                           ("harmonic", b"harmonic"))))),
    # a builtin's parameters are named as given
    *(Case(f"test_potentials::{test}", lambda args: builtin(args[0], **args[1]),
           (name, params), either(message))
      for test, name, params, message in (
          ("TestBuiltins::test_unknown_parameter_rejected", "harmonic", {"omega": 2.0},
           "unknown parameters: ['omega']"),
          ("TestValidation::test_eckart_parameters_ordered", "eckart", {"b": 1.0, "c": -1.5},
           "Eckart well requires b > |c|"),
          *((f"TestNonFiniteParameters::test_builtin_names_the_field[{name}-params{i}-{key}]",
             name, {key: value}, f"{key} must be finite (got {value})")
            for i, (name, key, value) in enumerate((("coulomb", "Z", math.nan),
                                                     ("coulomb", "Z", math.inf),
                                                     ("eckart", "b", math.inf),
                                                     ("eckart", "c", math.nan)))),
          *((f"TestNonFiniteParameters::test_builtin_names_a_parameter_no_double_holds"
             f"[{name}-params{i}-{message}]", name, {key: value}, message)
            for i, (name, key, value, message) in enumerate((
                ("coulomb", "Z", 10**400, "Z must be within double range"),
                ("coulomb", "Z", "x", "Z must be a number (got 'x')"),
                ("eckart", "b", -10**400, "b must be within double range"),
                ("eckart", "c", None, "c must be a number (got None)")))))),
    # a JSON spec's fields are named as in JSON
    *(Case(f"test_potentials::{test}[{text}-{case}]", from_text, text, either(message))
      for test, text, case, message in (
          *(("TestNonFiniteParameters::test_json_names_the_field", text, field,
             f"{field}: must be finite (got {got})") for text, field, got in (
              ('{"terms": [{"c": NaN, "p": -1}]}', "terms[0].c", "nan"),
              ('{"terms": [{"c": 1, "p": Infinity}]}', "terms[0].p", "inf"),
              ('{"terms": [{"c": 1, "p": 0, "a": NaN}]}', "terms[0].a", "nan"),
              ('{"terms": [{"c": 1, "p": 0, "a": 1, "b": -Infinity}]}', "terms[0].b", "-inf"),
              ('{"coulombErf": {"q": NaN, "mu": 1}}', "coulombErf.q", "nan"),
              ('{"coulombErf": {"q": 1, "mu": Infinity}}', "coulombErf.mu", "inf"),
              ('{"tailZ": Infinity}', "tailZ", "inf"),
              ('{"eckart": {"b": Infinity, "c": -1}}', "eckart.b", "inf"),
              ('{"eckart": {"b": 2, "c": NaN}}', "eckart.c", "nan"))),
          *(("TestNonFiniteParameters::test_json_value_errors_name_the_json_field", text,
             message, message) for text, message in (
              ('{"terms": [{"c": 0.5, "p": 2}], "energyUnit": 0}',
               "energyUnit: must be positive (got 0.0)"),
              ('{"terms": [{"c": 0.5, "p": 2}], "energyUnit": -2}',
               "energyUnit: must be positive (got -2.0)"),
              ('{"coulombErf": {"q": 1, "mu": -1}}', "coulombErf.mu: must be positive (got -1.0)"),
              ('{"coulombErf": {"q": 1, "mu": 0.0}}', "coulombErf.mu: must be positive (got 0.0)"),
              ('{"terms": [{"c": 1, "p": -3}]}',
               "terms[0].p: must exceed -2 (less singular than 1/r^2)"),
              ('{"terms": [{"c": 1, "p": 0}, {"c": 1, "p": 0, "b": -1}]}',
               "terms[1]: must not grow exponentially"),
              ('{"eckart": {"b": 1, "c": 2}}', "eckart: requires b > |c|"))),
          *(("TestSerialization::test_malformed_spec_names_the_field", text, field,
             f"{field}: {reason}") for text, field, reason in (
              ('{"terms": [1]}', "terms[0]", "must be a JSON object"),
              ('{"terms": [{"c": 1.0}]}', "terms[0].p", "missing"),
              ('{"terms": [{"c": "deep", "p": 0}]}', "terms[0].c", "must be a number"),
              ('{"terms": [{"c": -1.0, "p": true}]}', "terms[0].p", "must be a number"),
              ('{"terms": {"c": 1.0, "p": 0}}', "terms", "must be a list"),
              ('{"coulombErf": {"q": 1}}', "coulombErf.mu", "missing"),
              ('{"eckart": [2, -1]}', "eckart", "must be a JSON object"),
              ('{"tailZ": "one"}', "tailZ", "must be a number"),
              ('{"label": 7}', "label", "must be a string"),
              ('{"energyUnit": "MeV"}', "energyUnit", "must be a number"),
              ('[1]', "spec", "must be a JSON object"))),
          # json.loads alone keeps the last value
          *(("TestSerialization::test_repeated_key_is_named_at_every_level", text, key,
             f"spec: invalid JSON (repeated key '{key}')") for text, key in (
              ('{"label": "a", "label": "b"}', "label"),
              ('{"terms": [{"c": -1, "c": 2, "p": -1}]}', "c"),
              ('{"eckart": {"b": 2, "c": -1, "b": 3}}', "b"))),
          # "alpha" for "a" would otherwise run an undamped constant
          *(("TestSerialization::test_unknown_field_is_named_at_every_level", text, field,
             f"{field}: unknown field") for text, field in (
              ('{"terms": [{"c": -1, "p": -1}, {"c": 0.2, "p": 0, "alpha": 0.5}]}',
               "terms[1].alpha"),
              ('{"terms": [{"c": -1, "p": -1, "ab": 1}]}', "terms[0].ab"),
              ('{"coulombErf": {"q": 1, "mu": 1, "x": 2}}', "coulombErf.x"),
              ('{"eckart": {"b": 2, "c": -1, "d": 0}}', "eckart.d"),
              ('{"terms": [], "tail": -1}', "tail"),
              ('{"energyUnit": 2, "Label": "x"}', "Label"))))),
    *parameter("exact_level.angular", lambda v: exact_level(HARMONIC, v),
               NONFINITE | FRACTIONAL | st.integers(max_value=-1), _integer("angular"),
               double="angular must be within double range"),
    *parameter("exact_level.n", lambda v: exact_level(HARMONIC, 0, v),
               NONFINITE | FRACTIONAL | st.integers(max_value=-1), _integer("n"),
               double="n must be within double range"),
    *parameter("exact_level.dimension", lambda v: exact_level(HARMONIC, 0, 0, v),
               NONFINITE | FRACTIONAL | st.integers(max_value=1) | st.integers(min_value=4),
               ("dimension must be 2 or 3 (got {})",), double="dimension must be 2 or 3 (got {})"),
    # the tables
    *parameter("run_table.table", run_table,
               st.integers().filter(lambda t: t not in range(1, 6))
               | st.sampled_from(["1", 2.5, None]),
               ("table must be one of (1, 2, 3, 4, 5), got {}",),
               [("test_cli::TestReports::test_unknown_table_is_named", 6,
                 "table must be one of (1, 2, 3, 4, 5), got 6")]),
)


@pytest.mark.parametrize("gamma", [5e-324, 1e-320, 1e300, 1.7e308])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_phase_at_extreme_rates_is_finite_or_indeterminate(l, gamma):
    try:
        res = tan_delta(_state(l), l, ECKART, gamma, MESH)
    except IndeterminatePhaseError:
        assert gamma < 1.0  # e^(-gamma r) underflows at the large rates: a limit
        return
    assert math.isfinite(res.tan_delta) and math.isfinite(res.delta_deg)
    if gamma > 1.0:
        limit = tan_delta(_state(l), l, ECKART, 1e300, MESH)
        assert (res.tan_delta, res.delta_deg) == (limit.tan_delta, limit.delta_deg)


_Q_ALPHA = 4.0 * 1.44 / 20.736  # the screened-Coulomb charge of buck_alpha_alpha
# its r -> 0 limit: the Gaussian term's strength plus q mu 2/sqrt(pi)
_BUCK_AT_ZERO = -122.6225 / 20.736 + _Q_ALPHA * 0.75 * 2.0 / math.sqrt(math.pi)

# (potential, r, its value): an undamped power that overflows is +-inf, a
# term whose damping underflows is 0
EXTREME_RADII = [
    (HARMONIC, 5e-324, 0.0), (HARMONIC, 1e300, math.inf), (HARMONIC, 1e308, math.inf),
    (builtin("coulomb"), 5e-324, -math.inf), (builtin("coulomb"), 1e300, -1e-300),
    (builtin("coulomb"), 1e308, -1e-308),
    (ECKART, 5e-324, -3.0), (ECKART, 1e300, 0.0), (ECKART, 1e308, 0.0),
    (builtin("buck_alpha_alpha"), 5e-324, _BUCK_AT_ZERO),
    (builtin("buck_alpha_alpha"), 1e-310, _BUCK_AT_ZERO),
    (builtin("buck_alpha_alpha"), 1e300, _Q_ALPHA / 1e300),
    (builtin("buck_alpha_alpha"), 1e308, _Q_ALPHA / 1e308),
    (PotentialSpec("x", ((1.0, 2.0, 1.0, 0.0),)), 5e-324, 0.0),
    (PotentialSpec("x", ((1.0, 2.0, 1.0, 0.0),)), 1e300, 0.0),
    (PotentialSpec("x", ((1.0, 2.0, 1.0, 0.0),)), 1e308, 0.0),
    # r**2 overflows but the damped term does not: 1e400 exp(-1000)
    (PotentialSpec("x", ((1.0, 2.0, 0.0, 1e-197),)), 1e200, math.exp(2 * math.log(1e200) - 1000)),
]


@pytest.mark.parametrize("V,r,value", EXTREME_RADII, ids=lambda v: getattr(v, "label", repr(v)))
def test_potential_at_extreme_radii(V, r, value):
    assert evaluate_potential(V, r) == pytest.approx(value, rel=1e-15)


# tan(delta) = k (b - c)/(k^2 + b c) with k = sqrt(2E): (b - c)/k when E
# dominates and k (b - c)/(b c) when b and c do
@pytest.mark.parametrize("E,b,c,delta", [
    (1e308, 2.0, -1.0, math.degrees(3.0 / (math.sqrt(2.0) * 1e154))),
    (1.0, 1e308, -1e308, math.degrees(-2.0 * math.sqrt(2.0) / 1e308)),
])
def test_eckart_phase_at_extreme_inputs(E, b, c, delta):
    assert eckart_reference_delta0(E, b, c) == pytest.approx(delta, rel=1e-14, abs=1e-300)


attach(globals(), CASES, refused)
attach(globals(), cli_refusals.ROWS, cli_refusals.in_process)
