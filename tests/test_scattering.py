"""Tests for phase-shift extraction: integral relations, scans, references."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn, spherical_yn

from lagmesh.basis import Family, MeshSpec
from lagmesh.matelem import HamiltonianVariant, hamiltonian_3d, scheme_mesh
from lagmesh.potentials import builtin
from lagmesh.scattering import (
    _DEFAULT_GAMMAS,
    IndeterminatePhaseError,
    PhaseShiftResult,
    _interior_table,
    _ratios,
    _result,
    eckart_reference_delta0,
    gamma_scan,
    tan_delta,
)
from lagmesh.solver import Pseudostate, pseudostates, solve_bound_states

ECKART = builtin("eckart")
BUCK = builtin("buck_alpha_alpha")

_FAMILIES = {"sqrt": HamiltonianVariant.RegSqrtMesh, "r": HamiltonianVariant.RegRMesh}


@functools.lru_cache(maxsize=None)
def eckart_states(famkey):
    variant = _FAMILIES[famkey]
    mesh = scheme_mesh(variant, 15, 0.1)
    H, S = hamiltonian_3d(mesh, 0, ECKART, variant)
    return mesh, pseudostates(solve_bound_states(H, S))


@functools.lru_cache(maxsize=None)
def buck_states(famkey, l):
    variant = _FAMILIES[famkey]
    mesh = scheme_mesh(variant, 15, 0.23)
    H, S = hamiltonian_3d(mesh, l, BUCK, variant)
    return mesh, pseudostates(solve_bound_states(H, S))


class TestEckartReference:
    def test_pinned_values(self):
        # tan d0 = sqrt(2E)(b-c)/(2E+bc), checked against the tabulated
        # benchmark energies
        assert abs(eckart_reference_delta0(0.1982139, 2.0, -1.0) - (-49.67021)) < 5e-6
        assert abs(eckart_reference_delta0(4.95146, 2.0, -1.0) - 50.06682) < 5e-6

    def test_formula_arithmetic(self):
        # 2E = 1: tan d0 = 1*3/(1-2) = -3
        assert abs(eckart_reference_delta0(0.5, 2.0, -1.0) - (-71.56505)) < 5e-6

    def test_branch_continuous_from_threshold(self):
        # delta -> 0 as E -> 0+ and crosses +-90 only where 2E + bc = 0
        assert abs(eckart_reference_delta0(1e-12, 2.0, -1.0)) < 1e-3
        assert eckart_reference_delta0(1.0, 2.0, -1.0) == 90.0
        lo = eckart_reference_delta0(1.0 - 1e-9, 2.0, -1.0)
        hi = eckart_reference_delta0(1.0 + 1e-9, 2.0, -1.0)
        assert lo < -89.99 and hi > 89.99

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError, match="positive"):
            eckart_reference_delta0(0.0, 2.0, -1.0)

    # inf / inf gave a silent NaN phase before
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, args", [
        ("E", (math.inf, 2.0, -1.0)), ("E", (math.nan, 2.0, -1.0)),
        ("b", (1.0, math.nan, -1.0)), ("b", (1.0, math.inf, -1.0)),
        ("c", (1.0, 2.0, math.nan)), ("c", (1.0, 2.0, -math.inf)),
    ])
    def test_rejects_non_finite_parameter(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            eckart_reference_delta0(*args)

    @given(
        E=st.floats(1e-3, 50.0),
        b=st.floats(0.5, 10.0),
        ratio=st.floats(-0.9, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_tangent_identity(self, E, b, ratio):
        c = b * ratio
        delta = eckart_reference_delta0(E, b, c)
        assert -90.0 <= delta <= 90.0
        den = 2.0 * E + b * c
        if abs(den) > 1e-6:
            expect = math.sqrt(2.0 * E) * (b - c) / den
            assert math.tan(math.radians(delta)) == pytest.approx(expect, rel=1e-9)


# Tabulated benchmark values: pseudostate energies and phases at gamma=4
# (phases in the principal window), plus the analytic reference.
_ECKART_TABLE = {
    "sqrt": {
        "E": (0.1982139, 4.95146, 41.7),
        "delta": (-49.67024, 50.0666, 18.7),
        "E_tol": (5e-8, 5e-6, 0.05),
    },
    "r": {
        "E": (0.2145073, 5.38561, 49.6),
        "delta": (-51.35794, 48.3033, 17.4),
        "E_tol": (5e-8, 5e-6, 0.05),
    },
}


class TestEckartBenchmark:
    @pytest.mark.parametrize("famkey", ["sqrt", "r"])
    def test_pseudostate_energies_match_printed_digits(self, famkey):
        mesh, ps = eckart_states(famkey)
        tab = _ECKART_TABLE[famkey]
        for pos, expect, tol in zip((0, 4, 9), tab["E"], tab["E_tol"]):
            assert abs(ps[pos].energy - expect) < tol

    @pytest.mark.parametrize("famkey", ["sqrt", "r"])
    def test_low_state_phases_match_analytic_to_1e3_degree(self, famkey):
        mesh, ps = eckart_states(famkey)
        for pos in (0, 4):
            st_ = ps[pos]
            res = tan_delta(st_, 0, ECKART, 0.0, 4.0, mesh)
            exact = eckart_reference_delta0(st_.energy, 2.0, -1.0)
            assert abs(res.delta_deg - exact) <= 1e-3

    @pytest.mark.parametrize("famkey", ["sqrt", "r"])
    def test_phases_match_tabulated_values(self, famkey):
        mesh, ps = eckart_states(famkey)
        tab = _ECKART_TABLE[famkey]
        for pos, expect in zip((0, 4, 9), tab["delta"]):
            res = tan_delta(ps[pos], 0, ECKART, 0.0, 4.0, mesh)
            assert abs(res.delta_deg - expect) <= 0.2
        # the two fully-printed entries reproduce every digit
        assert abs(tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh).delta_deg
                   - tab["delta"][0]) < 5e-6

    def test_tenth_state_within_basis_reach_on_sqrt_mesh(self):
        # at E10 ~ 42 the N=15 basis still holds the phase to 0.2 degrees
        # of the analytic value on the sqrt(r)-regularized mesh (the
        # r-regularized one is ~0.28 degrees off there, as tabulated)
        mesh, ps = eckart_states("sqrt")
        res = tan_delta(ps[9], 0, ECKART, 0.0, 4.0, mesh)
        exact = eckart_reference_delta0(ps[9].energy, 2.0, -1.0)
        assert abs(res.delta_deg - exact) <= 0.2

    @pytest.mark.parametrize("famkey", ["sqrt", "r"])
    def test_plateau_robust_for_gamma_in_3_to_5(self, famkey):
        mesh, ps = eckart_states(famkey)
        base = tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh).delta_deg
        for gamma in np.linspace(3.0, 5.0, 9):
            moved = tan_delta(ps[0], 0, ECKART, 0.0, gamma, mesh).delta_deg
            assert abs(moved - base) <= 1e-3

    def test_default_grid_scan_finds_plateau_near_4(self):
        mesh, ps = eckart_states("sqrt")
        rec, table = gamma_scan(ps[0], 0, ECKART, 0.0, mesh)
        assert not rec.no_plateau
        assert 2.0 <= rec.gamma <= 6.0
        assert len(table) == 16
        assert rec.sensitivity <= 1e-3
        assert abs(rec.delta_deg - (-49.67024)) < 1e-3


# Tabulated benchmark phases (window [0, 180)) and energies in MeV.  The
# printed E1 energies drop a zero (0.0105/0.0107); the corrected values
# 0.105/0.107 carry the same digits and match every other entry's pattern.
_BUCK_TABLE = {
    ("sqrt", 0): {"E": (0.105, 1.8474), "delta": (179.97, 116.67)},
    ("sqrt", 2): {"E": (2.10795, 3.4183), "delta": (12.471, 94.460)},
    ("r", 0): {"E": (0.107, 1.9797), "delta": (179.96, 112.64)},
    ("r", 2): {"E": (2.19462, 3.5442), "delta": (15.123, 99.596)},
}
_BUCK_GRID = np.geomspace(0.3, 1.3, 16)


def _last_place(x):
    digits = len(str(x).split(".")[1])
    return 10.0 ** (-digits)


class TestAlphaAlphaBenchmark:
    @pytest.mark.parametrize("famkey,l", [("sqrt", 0), ("sqrt", 2), ("r", 0), ("r", 2)])
    def test_energies_match_printed_digits(self, famkey, l):
        mesh, ps = buck_states(famkey, l)
        for pos, expect in enumerate(_BUCK_TABLE[famkey, l]["E"]):
            e_mev = ps[pos].energy * BUCK.energy_unit
            assert abs(e_mev - expect) <= _last_place(expect)

    @pytest.mark.parametrize("famkey,l", [("sqrt", 2), ("r", 2)])
    def test_d_wave_phases_at_plateau(self, famkey, l):
        mesh, ps = buck_states(famkey, l)
        for pos, expect in enumerate(_BUCK_TABLE[famkey, l]["delta"]):
            rec, _ = gamma_scan(
                ps[pos], l, BUCK, BUCK.tail_Z, mesh,
                gammas=_BUCK_GRID, window="positive",
            )
            assert not rec.no_plateau
            assert 0.3 < rec.gamma < 1.3
            assert abs(rec.delta_deg - expect) <= 0.02

    @pytest.mark.parametrize("famkey", ["sqrt", "r"])
    def test_s_wave_phases_with_fallback_rule(self, famkey):
        mesh, ps = buck_states(famkey, 0)
        expect1, expect2 = _BUCK_TABLE[famkey, 0]["delta"]
        rec2, _ = gamma_scan(
            ps[1], 0, BUCK, BUCK.tail_Z, mesh, gammas=_BUCK_GRID, window="positive"
        )
        rec1, _ = gamma_scan(
            ps[0], 0, BUCK, BUCK.tail_Z, mesh, gammas=_BUCK_GRID,
            fallback_gamma=rec2.gamma, window="positive",
        )
        assert abs(rec2.delta_deg - expect2) <= 0.05
        assert abs(rec1.delta_deg - expect1) <= 0.05

    def test_first_s_state_has_no_plateau_and_inherits_gamma(self):
        mesh, ps = buck_states("sqrt", 0)
        rec2, _ = gamma_scan(
            ps[1], 0, BUCK, BUCK.tail_Z, mesh, gammas=_BUCK_GRID, window="positive"
        )
        rec1, _ = gamma_scan(
            ps[0], 0, BUCK, BUCK.tail_Z, mesh, gammas=_BUCK_GRID,
            fallback_gamma=rec2.gamma, window="positive",
        )
        assert rec1.no_plateau
        assert rec1.gamma == rec2.gamma

    def test_energy_reported_in_problem_units(self):
        mesh, ps = buck_states("sqrt", 2)
        res = tan_delta(ps[0], 2, BUCK, BUCK.tail_Z, 1.0, mesh)
        assert res.energy == pytest.approx(ps[0].energy * 20.736, rel=1e-15)
        assert res.k == pytest.approx(math.sqrt(2.0 * ps[0].energy), rel=1e-15)


class TestWindows:
    def test_positive_window_shifts_negative_principal(self):
        mesh, ps = eckart_states("sqrt")
        principal = tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh)
        positive = tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh, window="positive")
        assert principal.branch == 0
        assert positive.branch == 1
        assert positive.delta_deg == pytest.approx(principal.delta_deg + 180.0)
        assert positive.tan_delta == principal.tan_delta
        assert 0.0 <= positive.delta_deg < 180.0

    def test_positive_window_keeps_positive_principal(self):
        mesh, ps = eckart_states("sqrt")
        res = tan_delta(ps[4], 0, ECKART, 0.0, 4.0, mesh, window="positive")
        assert res.branch == 0
        assert res.delta_deg == pytest.approx(50.0666, abs=5e-4)

    def test_branch_offset_identity(self):
        mesh, ps = eckart_states("sqrt")
        for window in ("principal", "positive"):
            res = tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh, window=window)
            principal = math.degrees(math.atan(res.tan_delta))
            assert res.delta_deg == pytest.approx(principal + 180.0 * res.branch)

    def test_unknown_window_rejected(self):
        mesh, ps = eckart_states("sqrt")
        with pytest.raises(ValueError, match="window"):
            tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh, window="folded")


class TestInvariances:
    @given(scale=st.floats(-1e6, 1e6).filter(lambda s: abs(s) > 1e-8))
    @settings(max_examples=40, deadline=None)
    def test_tan_delta_invariant_under_coefficient_rescaling(self, scale):
        mesh, ps = eckart_states("sqrt")
        base = tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh)
        scaled_state = dataclasses.replace(
            ps[0], coefficients=ps[0].coefficients * scale
        )
        scaled = tan_delta(scaled_state, 0, ECKART, 0.0, 4.0, mesh)
        assert scaled.tan_delta == pytest.approx(base.tan_delta, rel=1e-13)
        assert scaled.delta_deg == pytest.approx(base.delta_deg, rel=1e-12)

    @pytest.mark.parametrize("famkey", ["sqrt", "r"])
    def test_neutral_system_identical_through_both_engines(self, famkey):
        # at Z = 0 the Coulomb pair is the Riccati-Bessel pair F = x j_0(x),
        # G = -x y_0(x) (sin and cos); the ratio built from it must agree
        mesh, ps = eckart_states(famkey)
        for pos in (0, 4):
            state = ps[pos]
            r, wWu, wu, _, _, _ = _interior_table(state, 0, ECKART, 0.0, mesh)
            x = state.k * r
            j, y = spherical_jn(0, x), spherical_yn(0, x)
            yp = spherical_yn(0, x, derivative=True)
            trig = (r, wWu, wu, x * j, -x * y, -(y + x * yp))
            for gamma in (1.0, 4.0, 8.0):
                via_coulomb = tan_delta(state, 0, ECKART, 0.0, gamma, mesh)
                num, (den,) = _ratios(trig, 0, state.k, [gamma])
                assert num / den == pytest.approx(via_coulomb.tan_delta, rel=1e-12)

    def test_sensitivity_nonnegative_and_zero_for_single_evaluation(self):
        mesh, ps = eckart_states("sqrt")
        res = tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh)
        assert res.sensitivity == 0.0
        rec, table = gamma_scan(ps[0], 0, ECKART, 0.0, mesh)
        assert rec.sensitivity >= 0.0
        assert all(entry.sensitivity == 0.0 for entry in table)


class TestGammaScan:
    def test_table_preserves_grid_order(self):
        mesh, ps = eckart_states("sqrt")
        grid = np.linspace(2.0, 6.0, 9)
        rec, table = gamma_scan(ps[0], 0, ECKART, 0.0, mesh, gammas=grid)
        assert [entry.gamma for entry in table] == list(grid)
        assert rec.gamma in grid
        # the recommendation is an interior point of the grid
        assert grid[0] < rec.gamma < grid[-1]

    def test_deterministic(self):
        mesh, ps = eckart_states("r")
        a, _ = gamma_scan(ps[0], 0, ECKART, 0.0, mesh)
        b, _ = gamma_scan(ps[0], 0, ECKART, 0.0, mesh)
        assert a == b

    def test_grid_validation(self):
        mesh, ps = eckart_states("sqrt")
        with pytest.raises(ValueError, match="at least 8"):
            gamma_scan(ps[0], 0, ECKART, 0.0, mesh, gammas=[1, 2, 3, 4, 5, 6, 7])
        with pytest.raises(ValueError, match="positive"):
            gamma_scan(ps[0], 0, ECKART, 0.0, mesh, gammas=[-1, 1, 2, 3, 4, 5, 6, 7])
        with pytest.raises(ValueError, match="increasing"):
            gamma_scan(
                ps[0], 0, ECKART, 0.0, mesh, gammas=[1, 2, 3, 4, 4, 5, 6, 7]
            )
        with pytest.raises(ValueError, match="fallback"):
            gamma_scan(ps[0], 0, ECKART, 0.0, mesh, fallback_gamma=-2.0)

    def test_fallback_ignored_when_plateau_exists(self):
        mesh, ps = eckart_states("sqrt")
        rec, _ = gamma_scan(ps[0], 0, ECKART, 0.0, mesh, fallback_gamma=0.77)
        assert not rec.no_plateau
        assert rec.gamma != 0.77


class TestBatchedRatio:
    # the three systems of the phase-scan benchmark: (potential, l, family
    # key, h, window); every gamma of a scan must reproduce a single
    # evaluation bit for bit
    SYSTEMS = [
        (BUCK, 2, "sqrt", 0.23, "positive"),
        (ECKART, 0, "sqrt", 0.1, "principal"),
        (builtin("coulomb", Z=-1.0), 4, "sqrt", 1.1, "principal"),
    ]

    @pytest.mark.parametrize("V, l, famkey, h, window", SYSTEMS,
                             ids=["alpha-alpha", "eckart", "coulomb"])
    def test_scan_entries_equal_single_evaluations(self, V, l, famkey, h, window):
        variant = _FAMILIES[famkey]
        mesh = scheme_mesh(variant, 30, h)
        H, S = hamiltonian_3d(mesh, l, V, variant)
        states = [s for s in pseudostates(solve_bound_states(H, S))
                  if abs(V.tail_Z) <= 50.0 * s.k]
        for state in states[::5]:
            _, table = gamma_scan(state, l, V, V.tail_Z, mesh, window=window)
            assert [res.gamma for res in table] == list(_DEFAULT_GAMMAS)
            for res in table:
                single = tan_delta(state, l, V, V.tail_Z, res.gamma, mesh, window)
                assert res.tan_delta == single.tan_delta
                assert res.delta_deg == single.delta_deg
            # the Coulomb numerator is exactly 0, so compare denominators too
            factors = _interior_table(state, l, V, V.tail_Z, mesh)
            _, dens = _ratios(factors, l, state.k, _DEFAULT_GAMMAS)
            assert dens == [_ratios(factors, l, state.k, [g])[1][0] for g in _DEFAULT_GAMMAS]

    def test_default_grid_is_read_only(self):
        assert np.array_equal(_DEFAULT_GAMMAS, np.geomspace(0.1, 10.0, 16))
        with pytest.raises(ValueError, match="read-only"):
            _DEFAULT_GAMMAS[0] = 1.0


class TestAttractiveCoulomb:
    def test_pure_coulomb_phase_vanishes_at_l_10(self):
        # V - Z/r is zero, so every pseudostate has tan(delta) = 0; at l = 10
        # the nodes lie far below the turning point for |eta| up to 50
        V = builtin("coulomb", Z=-1.0)
        mesh = MeshSpec(30, 1.0, Family.RegSqrt, 1.1)
        H, S = hamiltonian_3d(mesh, 10, V, HamiltonianVariant.RegSqrtMesh)
        states = [s for s in pseudostates(solve_bound_states(H, S))
                  if abs(V.tail_Z) <= 50.0 * s.k]
        assert len(states) > 10
        for state in states:
            rec, _ = gamma_scan(state, 10, V, V.tail_Z, mesh)
            assert rec.tan_delta == 0.0


class TestValidation:
    def test_rejects_nonpositive_energy(self):
        mesh, ps = eckart_states("sqrt")
        bad = Pseudostate(-0.5, 1.0, 0, ps[0].coefficients)
        with pytest.raises(ValueError, match="positive"):
            tan_delta(bad, 0, ECKART, 0.0, 4.0, mesh)

    def test_rejects_nonpositive_gamma(self):
        mesh, ps = eckart_states("sqrt")
        with pytest.raises(ValueError, match="gamma"):
            tan_delta(ps[0], 0, ECKART, 0.0, 0.0, mesh)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_rejects_non_finite_gamma(self, gamma):
        mesh, ps = eckart_states("sqrt")
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            tan_delta(ps[0], 0, ECKART, 0.0, gamma, mesh)
        with pytest.raises(ValueError, match="fallback gamma must be positive and finite"):
            gamma_scan(ps[0], 0, ECKART, 0.0, mesh, fallback_gamma=gamma)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("l", [1.5, math.nan, math.inf])
    def test_rejects_non_integer_l(self, l):
        mesh, ps = eckart_states("sqrt")
        with pytest.raises(ValueError, match=r"^l must be an integer \(got "):
            tan_delta(ps[0], l, ECKART, 0.0, 4.0, mesh)
        with pytest.raises(ValueError, match=r"^l must be an integer \(got "):
            gamma_scan(ps[0], l, ECKART, 0.0, mesh)

    # NaN or inf passed the tail test and was blamed on eta by coulomb_wave
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("Z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["eckart", "buck_alpha_alpha"])
    def test_rejects_non_finite_Z(self, name, Z):
        mesh, ps = eckart_states("sqrt") if name == "eckart" else buck_states("sqrt", 0)
        V = builtin(name)
        with pytest.raises(ValueError, match=r"^Z must be finite \(got "):
            tan_delta(ps[0], 0, V, Z, 1.0, mesh)
        with pytest.raises(ValueError, match=r"^Z must be finite \(got "):
            gamma_scan(ps[0], 0, V, Z, mesh)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_finite_state(self):
        mesh, ps = eckart_states("sqrt")
        for field in ("energy", "k"):
            with pytest.raises(ValueError, match="energy and k must be positive and finite"):
                tan_delta(dataclasses.replace(ps[0], **{field: math.inf}), 0, ECKART, 0.0, 4.0,
                          mesh)
        coefficients = ps[0].coefficients.copy()
        coefficients[3] = math.nan
        with pytest.raises(ValueError, match="coefficients must be finite"):
            tan_delta(dataclasses.replace(ps[0], coefficients=coefficients),
                      0, ECKART, 0.0, 4.0, mesh)

    def test_rejects_tail_mismatch(self):
        mesh, ps = eckart_states("sqrt")
        with pytest.raises(ValueError, match="tail"):
            tan_delta(ps[0], 0, ECKART, 0.5, 4.0, mesh)

    def test_rejects_coefficient_length_mismatch(self):
        mesh, ps = eckart_states("sqrt")
        bad = Pseudostate(1.0, math.sqrt(2.0), 1, np.ones(7))
        with pytest.raises(ValueError, match="mesh"):
            tan_delta(bad, 0, ECKART, 0.0, 4.0, mesh)

    def test_indeterminate_phase_reported_not_guessed(self):
        state = Pseudostate(1.0, math.sqrt(2.0), 1, np.ones(3))
        with pytest.raises(IndeterminatePhaseError):
            _result(state, ECKART, 4.0, 1.0, 0.0, "principal")
        with pytest.raises(IndeterminatePhaseError):
            _result(state, ECKART, 4.0, 1.0, 5e-15, "principal")
        res = _result(state, ECKART, 4.0, 1.0, 2e-14, "principal")
        assert isinstance(res, PhaseShiftResult)
