"""Every numeric parameter of every public entry point rejects NaN, +-inf
and out-of-domain values with a ValueError that names it (exit 1 from the
CLI, naming the flag), and no RuntimeWarning fires on the way.  Valid but
extreme values give a number that is not NaN or the typed error."""

import contextlib
import dataclasses
import functools
import io
import math
import re

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
    bound_energies,
    builtin,
    classify_singularity,
    cli,
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
from lagmesh.potentials import evaluate as evaluate_potential

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FRACTIONAL = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())


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
    H = np.diag([1.0, 2.0, 3.0, 4.0])
    H[1, 2] = H[2, 1] = value
    return H


# the basis of a 4 x 4 H, and what is not: the old identity overlap (with a
# bad entry or not), a mesh of another size, and no mesh at all
BASIS4 = MeshSpec(4, 1.0, Family.RegSqrt, 0.5)
NOT_BASIS4 = (st.sampled_from([np.eye(4), None, 4, "RegSqrt"])
              | NONFINITE.map(lambda v: _with_entry(np.eye(4), v))
              | st.integers(1, 50).filter(lambda n: n != 4).map(
                  lambda n: MeshSpec(n, 1.0, Family.RegSqrt, 0.5)))


def _grid_with_entry(value):
    return _with_entry(np.geomspace(0.1, 10.0, 16), value, index=5)


# (call of the bad value, strategy of bad values, pattern naming the parameter)
CASES = {
    "MeshSpec.N": (lambda v: MeshSpec(v, 1.0, Family.RegSqrt, 0.5),
                   NONFINITE | FRACTIONAL | st.integers(max_value=0), r"\bN\b"),
    "MeshSpec.alpha": (lambda v: MeshSpec(5, v, Family.RegSqrt, 0.5),
                       NONFINITE | NEGATIVE, r"\balpha\b"),
    "MeshSpec.h": (lambda v: MeshSpec(5, 1.0, Family.RegSqrt, v),
                   NONFINITE | at_most(0.0), r"\bh\b"),
    "MeshSpec.family": (lambda v: MeshSpec(5, 1.0, v, 0.5),
                        st.sampled_from(["Bad", "regsqrt", "", 3, None]), r"\bFamily\b"),
    "generate_rule.N": (lambda v: generate_rule(v, 0.0),
                        NONFINITE | FRACTIONAL | st.integers(max_value=0), r"\bN\b"),
    "generate_rule.alpha": (lambda v: generate_rule(5, v),
                            NONFINITE | at_most(-1.0), r"\balpha\b"),
    "hamiltonian_3d.l": (lambda v: hamiltonian_3d(MESH, v, ECKART, "RegSqrtMesh"),
                         angular(MESH.N), r"\bl\b"),
    "hamiltonian_2d.m": (lambda v: hamiltonian_2d(
        scheme_mesh(HamiltonianVariant.RegSqrtMesh2D, 6, 0.5), v, ECKART, "RegSqrtMesh2D"),
        angular(6), r"\bm\b"),
    "bound_energies.H": (lambda v: bound_energies(_symmetric_with_entry(v)),
                         NONFINITE, r"Hamiltonian"),
    "solve_bound_states.H": (lambda v: solve_bound_states(_symmetric_with_entry(v), BASIS4),
                             NONFINITE, r"Hamiltonian"),
    "solve_bound_states.basis": (lambda v: solve_bound_states(np.eye(4), v),
                                 NOT_BASIS4, r"\bbasis\b"),
    "tan_delta.l": (lambda v: tan_delta(_state(), v, ECKART, 4.0, MESH),
                    angular(21), r"\bl\b"),
    "tan_delta.gamma": (lambda v: tan_delta(_state(), 0, ECKART, v, MESH),
                        NONFINITE | at_most(0.0), r"\bgamma\b"),
    "tan_delta.state.energy": (lambda v: tan_delta(
        dataclasses.replace(_state(), energy=v), 0, ECKART, 4.0, MESH),
        NONFINITE | at_most(0.0), r"energy"),
    # k = sqrt(2E) is derived: it is infinite where 2E overflows
    "tan_delta.state.k": (lambda v: tan_delta(
        dataclasses.replace(_state(), energy=v), 0, ECKART, 4.0, MESH),
        st.floats(9e307, allow_infinity=False), r"\bk\b"),
    "tan_delta.state.coefficients": (lambda v: tan_delta(
        dataclasses.replace(_state(), coefficients=_with_entry(_state().coefficients, v)),
        0, ECKART, 4.0, MESH), NONFINITE, r"coefficients"),
    "gamma_scan.Z": (lambda v: gamma_scan(_state(), 0, ECKART, v, MESH),
                     NONFINITE | st.floats(1e-11, 1e300) | st.floats(-1e300, -1e-11),
                     r"\bZ\b"),
    "gamma_scan.gammas": (lambda v: gamma_scan(
        _state(), 0, ECKART, 0.0, MESH, gammas=_grid_with_entry(v)),
        NONFINITE | at_most(0.0), r"\bgamma\b"),  # each rate by the rate's rule
    "coulomb_wave.l": (lambda v: coulomb_wave(v, 0.5, 1.0), angular(21), r"\bl\b"),
    "coulomb_wave.eta": (lambda v: coulomb_wave(0, v, 1.0),
                         NONFINITE | st.floats(50.0, 1e300, exclude_min=True)
                         | st.floats(-1e300, -50.0, exclude_max=True), r"\beta\b"),
    "coulomb_wave.x": (lambda v: coulomb_wave(0, 0.5, [1.0, v]),
                       NONFINITE | at_most(0.0), r"\bx\b"),
    "coulomb_wave.x.shape": (lambda v: coulomb_wave(0, 0.5, np.ones(v)),
                             MULTI_DIMENSIONAL, r"^x must be a scalar or a 1-D array"),
    "reconstruct_wavefunction.coeffs": (lambda v: reconstruct_wavefunction(
        MESH, _with_entry(np.ones(MESH.N), v), 1.0), NONFINITE, r"\bcoeffs\b"),
    "reconstruct_wavefunction.r": (lambda v: reconstruct_wavefunction(
        MESH, np.ones(MESH.N), [0.5, v]), NONFINITE | NEGATIVE, r"\br\b"),
    "reconstruct_wavefunction.r.shape": (lambda v: reconstruct_wavefunction(
        MESH, np.ones(MESH.N), np.ones(v)), MULTI_DIMENSIONAL,
        r"^r must be a scalar or a 1-D array"),
    "relative_error.e_app": (lambda v: relative_error(v, 1.0), NONFINITE, r"\be_app\b"),
    "relative_error.e_exact": (lambda v: relative_error(1.0, v), NONFINITE, r"\be_exact\b"),
    "PotentialSpec.term_c": (lambda v: PotentialSpec("v", terms=((v, -1.0, 0.0, 0.0),)),
                             NONFINITE, r"\bterm c\b"),
    "PotentialSpec.term_p": (lambda v: PotentialSpec("v", terms=((1.0, v, 0.0, 0.0),)),
                             NONFINITE | at_most(-2.0), r"\bterm p\b"),
    "PotentialSpec.term_a": (lambda v: PotentialSpec("v", terms=((1.0, 0.0, v, 0.0),)),
                             NONFINITE | NEGATIVE, r"\bterm\b"),
    "PotentialSpec.term_b": (lambda v: PotentialSpec("v", terms=((1.0, 0.0, 0.0, v),)),
                             NONFINITE | NEGATIVE, r"\bterm\b"),
    "PotentialSpec.coulomb_erf_q": (lambda v: PotentialSpec("v", coulomb_erf=(v, 0.75)),
                                    NONFINITE, r"\bcoulomb_erf q\b"),
    "PotentialSpec.coulomb_erf_mu": (lambda v: PotentialSpec("v", coulomb_erf=(1.0, v)),
                                     NONFINITE | at_most(0.0), r"\bcoulomb_erf mu\b"),
    "PotentialSpec.eckart_b": (lambda v: PotentialSpec("v", eckart=(v, -1.0)),
                               NONFINITE | at_most(1.0), r"(?i)\beckart\b"),
    "PotentialSpec.eckart_c": (lambda v: PotentialSpec("v", eckart=(2.0, v)),
                               NONFINITE | st.floats(2.0, 1e300) | st.floats(-1e300, -2.0),
                               r"(?i)\beckart\b"),
    "PotentialSpec.energy_unit": (lambda v: PotentialSpec("v", energy_unit=v),
                                  NONFINITE | at_most(0.0), r"\benergy_unit\b"),
    "exact_level.angular": (lambda v: exact_level(HARMONIC, v),
                            NONFINITE | FRACTIONAL | st.integers(max_value=-1), r"\bangular\b"),
    "exact_level.n": (lambda v: exact_level(HARMONIC, 0, v),
                      NONFINITE | FRACTIONAL | st.integers(max_value=-1), r"\bn\b"),
    "exact_level.dimension": (lambda v: exact_level(HARMONIC, 0, 0, v),
                              NONFINITE | FRACTIONAL | st.integers(max_value=1)
                              | st.integers(min_value=4), r"\bdimension\b"),
    "classify_singularity.l": (lambda v: classify_singularity(
        scheme_mesh("NonReg", 10, 0.9), v, HARMONIC, "NonReg"),
        NONFINITE | FRACTIONAL | st.integers(max_value=-1), r"\bl\b"),
    "classify_singularity.m": (lambda v: classify_singularity(
        scheme_mesh("RegSqrtMesh2D", 10, 0.9), v, HARMONIC, "RegSqrtMesh2D"),
        NONFINITE | FRACTIONAL | st.integers(max_value=-1), r"\bm\b"),
    "eckart_reference_delta0.E": (lambda v: eckart_reference_delta0(v, 2.0, -1.0),
                                  NONFINITE | at_most(0.0), r"\bE\b"),
    "eckart_reference_delta0.b": (lambda v: eckart_reference_delta0(1.0, v, -1.0),
                                  NONFINITE, r"\bb\b"),
    "eckart_reference_delta0.c": (lambda v: eckart_reference_delta0(1.0, 2.0, v),
                                  NONFINITE, r"\bc\b"),
}

# ints that no double holds, a bad value of every case that passes its value
# as a scalar or a list entry; the others build a float array from it
BEYOND_DOUBLE = [10**400, -10**400]
ARRAY_CASES = {"bound_energies.H", "solve_bound_states.H", "tan_delta.state.coefficients",
               "gamma_scan.gammas", "coulomb_wave.x.shape", "reconstruct_wavefunction.coeffs",
               "reconstruct_wavefunction.r.shape"}
SCALAR_CASES = [case for case in CASES if case not in ARRAY_CASES]
for case in SCALAR_CASES:
    call, values, name = CASES[case]
    CASES[case] = (call, values | st.sampled_from(BEYOND_DOUBLE), name)


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_entry_point_names_the_bad_parameter(case, data):
    call, values, name = CASES[case]
    value = data.draw(values, label="value")
    with pytest.raises(ValueError, match=name):
        call(value)


@pytest.mark.parametrize("value", BEYOND_DOUBLE, ids=["+10**400", "-10**400"])
@pytest.mark.parametrize("case", SCALAR_CASES)
def test_int_beyond_double_range_names_the_parameter(case, value):
    call, _, name = CASES[case]
    with pytest.raises(ValueError, match=name):
        call(value)


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


BOUND = "bound --potential harmonic --N 20 --h 0.09"
BOUND_2D = "bound --dim 2 --variant reg-sqrt --potential harmonic --N 20 --h 0.09"
SCATTER = "scatter --potential eckart --variant reg-sqrt --N 15 --h 0.1"
GAMMA_SCAN = "gamma-scan --potential eckart --variant reg-sqrt --N 15 --h 0.1"
BAD = ["nan", "inf", "-inf"]

# (command without the flag, flag, bad values, pattern naming the flag)
CLI_CASES = {
    "N": (BOUND.replace(" --N 20", ""), "--N", BAD + ["1.5", "0", "-3"], r"\bN\b"),
    "h": (BOUND.replace(" --h 0.09", ""), "--h", BAD + ["0", "-1"], r"\bh\b"),
    "alpha": (BOUND, "--alpha", BAD + ["-0.5"], r"\balpha\b"),
    "l": (BOUND, "--l", BAD + ["1.5", "-1", "20", "25"], r"\bl\b"),
    "m": (BOUND_2D, "--m", BAD + ["1.5", "-1", "20"], r"\bm\b"),
    "dim": (BOUND, "--dim", BAD + ["0", "1", "4", "2.5"], r"\bdim\b"),
    "gamma (scatter)": (SCATTER, "--gamma", BAD + ["0", "-2"], r"\bgamma\b"),
    "gamma (gamma-scan)": (GAMMA_SCAN, "--gamma",
                           ["nan:1:16", "0.1:inf:16", "-1:1:16", "0:1:16",
                            "0.1,0.2,nan,0.4,0.5,0.6,0.7,0.8",
                            "0.1,0.2,0.3,0.4,0.5,0.6,0.7,-inf"], r"\bgamma\b"),
    "table": ("reproduce", "--table", BAD + ["0", "6", "-1", "2.5"], r"\btable\b"),
    "values (h)": ("sweep" + BOUND[5:] + " --parameter h", "--values",
                   BAD + ["0", "-1", "0.1,nan"], r"\b(h|values)\b"),
    "values (N)": ("sweep" + BOUND[5:] + " --parameter N", "--values",
                   BAD + ["1.5", "0", "-2", "20,nan"], r"\b(N|values)\b"),
    "values (gamma)": ("sweep" + SCATTER[7:] + " --parameter gamma", "--values",
                       BAD + ["0", "-1", "4,inf"], r"\b(gamma|values)\b"),
    "potential": (BOUND.replace(" --potential harmonic", ""), "--potential",
                  ["coulomb:Z=nan", "coulomb:Z=inf", "eckart:b=nan", "eckart:c=-inf",
                   "eckart:b=1,c=2"], r"\bpotential\b"),
}


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CLI_CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_flag_exits_1_naming_the_flag(case, data):
    command, flag, values, name = CLI_CASES[case]
    value = data.draw(st.sampled_from(values), label="value")
    code, out, err = _main([*command.split(), f"{flag}={value}"])
    assert code == 1 and out == ""
    assert err.startswith("lagmesh: ")
    assert re.search(name, err)
