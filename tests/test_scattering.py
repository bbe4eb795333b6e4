"""Tests for phase-shift extraction: integral relations, scans, references."""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn, spherical_yn

from lagmesh import scattering
from lagmesh.benchmarks import run_table
from lagmesh.basis import Family, MeshSpec
from lagmesh.cli import ExperimentConfig, run
from lagmesh.matelem import HamiltonianVariant, hamiltonian_3d, scheme_mesh
from lagmesh.potentials import PotentialSpec, builtin
from lagmesh.scattering import (
    _DEFAULT_GAMMAS,
    IndeterminatePhaseError,
    PhaseShiftResult,
    _interior_table,
    _phases,
    _ratios,
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
    H, basis = hamiltonian_3d(scheme_mesh(variant, 15, 0.1), 0, ECKART, variant)
    return basis, pseudostates(solve_bound_states(H, basis))


@functools.lru_cache(maxsize=None)
def system_states(V, l, famkey, h):
    """An N = 30 mesh and its pseudostates inside the Coulomb domain."""
    variant = _FAMILIES[famkey]
    H, basis = hamiltonian_3d(scheme_mesh(variant, 30, h), l, V, variant)
    return basis, [s for s in pseudostates(solve_bound_states(H, basis))
                  if abs(V.tail_Z) <= 50.0 * s.k]


def _loop_ratios(table, l, k, grid):
    """Reference: ``_ratios`` with its two dot products per rate formed as
    1-D products in a loop over the grid."""
    r, wWu, wu, F, G, Gp = table
    g = np.asarray(grid, dtype=float)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        reg = -np.expm1(-g * r)
        damp = np.exp(-g * r)
        bracket = g * (1.0 - (l + 1) * damp) * G - 2.0 * reg * k * Gp
        plain = G * reg ** (l + 1)
        comp = np.where(damp == 0.0, 0.0, damp * reg ** (l - 1) * bracket)
    dens = []
    for i in range(g.shape[0]):
        c = float(wu @ comp[i])
        dens.append(float(wWu @ plain[i]) + (0.5 * (l + 1) * g[i, 0] * c if c else 0.0))
    return -float(wWu @ F), dens


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@functools.lru_cache(maxsize=None)
def buck_states(famkey, l):
    variant = _FAMILIES[famkey]
    H, basis = hamiltonian_3d(scheme_mesh(variant, 15, 0.23), l, BUCK, variant)
    return basis, pseudostates(solve_bound_states(H, basis))


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


class TestEckartBenchmark:
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


_BUCK_GRID = np.geomspace(0.3, 1.3, 16)


class TestAlphaAlphaBenchmark:
    def test_first_s_state_has_no_plateau_and_inherits_gamma(self):
        # table 4 applies the paper's rule itself: where the lowest s-wave
        # state's scan finds no plateau, its phase is taken at the second
        # state's gamma and flagged no_plateau
        rows = {(row["l"], row["mesh"], row["state"]): row for row in run_table(4)}
        first, second = rows[0, "reg sqrt(r)", 1], rows[0, "reg sqrt(r)", 2]
        mesh, ps = buck_states("sqrt", 0)
        rec1, _ = gamma_scan(ps[0], 0, BUCK, BUCK.tail_Z, mesh, gammas=_BUCK_GRID,
                             window="positive")
        assert rec1.no_plateau
        assert first["no_plateau"] and first["gamma"] == second["gamma"] != rec1.gamma
        res = tan_delta(ps[0], 0, BUCK, BUCK.tail_Z, second["gamma"], mesh, "positive")
        assert first["delta"] == res.delta_deg
        assert 0.0 < first["sensitivity"] < 1e-2
        # on the r-regularized mesh the lowest state's own scan finds a
        # plateau, so its row is the scan's
        mesh, ps = buck_states("r", 0)
        rec1, _ = gamma_scan(ps[0], 0, BUCK, BUCK.tail_Z, mesh, gammas=_BUCK_GRID,
                             window="positive")
        own = rows[0, "reg r", 1]
        assert not rec1.no_plateau and not own["no_plateau"]
        assert (own["gamma"], own["delta"], own["sensitivity"]) == (
            rec1.gamma, rec1.delta_deg, rec1.sensitivity)
        # no d-wave row borrows a gamma
        assert not any(row["no_plateau"] for (l, _, _), row in rows.items() if l == 2)

    def test_energy_reported_in_problem_units(self):
        # a result holds phases only; the report converts the state's energy
        _, ps = buck_states("sqrt", 2)
        report = run(ExperimentConfig(mode="scatter", potential=BUCK, angular=2,
                                      variant="reg-sqrt", N=15, h=0.23, gamma=1.0))
        assert [row["state"] for row in report["rows"]] == list(range(1, len(ps) + 1))
        for row, state in zip(report["rows"], ps):
            assert row["energy"] == pytest.approx(state.energy * 20.736, rel=1e-15)
            assert row["k"] == pytest.approx(math.sqrt(2.0 * state.energy), rel=1e-15)


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

    def test_window_checked_before_any_coulomb_function(self, monkeypatch):
        mesh, ps = eckart_states("sqrt")

        def no_coulomb(*args):
            raise RuntimeError("coulomb_wave ran")

        monkeypatch.setattr(scattering, "coulomb_wave", no_coulomb)
        with pytest.raises(ValueError, match=r"^unknown window: 'bogus'$"):
            tan_delta(ps[0], 0, ECKART, 0.0, 4.0, mesh, window="bogus")
        with pytest.raises(ValueError, match=r"^unknown window: 'bogus'$"):
            gamma_scan(ps[0], 0, ECKART, 0.0, mesh, window="bogus")


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
        # the phases of this state do not wrap, so the sensitivity is read
        # off the table at the recommendation's neighbors
        i = list(_DEFAULT_GAMMAS).index(rec.gamma)
        assert rec.sensitivity == max(abs(table[i - 1] - table[i]),
                                      abs(table[i + 1] - table[i]))


class TestGammaScan:
    def test_table_preserves_grid_order(self):
        mesh, ps = eckart_states("sqrt")
        grid = np.linspace(2.0, 6.0, 9)
        rec, table = gamma_scan(ps[0], 0, ECKART, 0.0, mesh, gammas=grid)
        assert isinstance(table, np.ndarray)
        assert table.dtype == np.float64 and table.shape == grid.shape
        assert [tan_delta(ps[0], 0, ECKART, 0.0, g, mesh).delta_deg
                for g in grid] == table.tolist()
        assert rec.gamma in grid
        assert rec.delta_deg == table[list(grid).index(rec.gamma)]
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

    def test_no_plateau_recommendation_is_a_grid_point(self):
        # the lowest alpha+alpha s-wave state has no plateau: the scan still
        # recommends its grid point of least slope, with that point's phase
        mesh, ps = buck_states("sqrt", 0)
        rec, table = gamma_scan(ps[0], 0, BUCK, BUCK.tail_Z, mesh, gammas=_BUCK_GRID,
                                window="positive")
        assert rec.no_plateau
        assert rec.gamma in _BUCK_GRID.tolist()
        i = _BUCK_GRID.tolist().index(rec.gamma)
        assert rec.delta_deg == table[i]
        single = tan_delta(ps[0], 0, BUCK, BUCK.tail_Z, rec.gamma, mesh, "positive")
        assert (rec.tan_delta, rec.branch) == (single.tan_delta, single.branch)


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
        mesh, states = system_states(V, l, famkey, h)
        for state in states[::5]:
            rec, table = gamma_scan(state, l, V, V.tail_Z, mesh, window=window)
            assert table.shape == _DEFAULT_GAMMAS.shape
            # the recommendation is a grid point, plateau or not
            assert rec.gamma in _DEFAULT_GAMMAS.tolist()
            singles = [tan_delta(state, l, V, V.tail_Z, g, mesh, window)
                       for g in _DEFAULT_GAMMAS]
            assert table.tolist() == [single.delta_deg for single in singles]
            # the scan's tan(delta) is not returned: form it from the batched
            # ratio, as the scan does
            factors = _interior_table(state, l, V, V.tail_Z, mesh)
            num, dens = _ratios(factors, l, state.k, _DEFAULT_GAMMAS)
            tan, _, _ = _phases(_DEFAULT_GAMMAS, num, dens, window)
            assert tan.tolist() == [single.tan_delta for single in singles]
            # the Coulomb numerator is exactly 0, so compare denominators too
            assert dens == [_ratios(factors, l, state.k, [g])[1][0] for g in _DEFAULT_GAMMAS]

    @pytest.mark.parametrize("size", [1, 3, 16])
    @pytest.mark.parametrize("V, l, famkey, h, window", SYSTEMS,
                             ids=["alpha-alpha", "eckart", "coulomb"])
    def test_ratios_equal_a_loop_of_dot_products(self, V, l, famkey, h, window, size):
        mesh, states = system_states(V, l, famkey, h)
        grid = _DEFAULT_GAMMAS[::5][:size] if size < 16 else _DEFAULT_GAMMAS
        for state in states:
            table = _interior_table(state, l, V, V.tail_Z, mesh)
            num, dens = _ratios(table, l, state.k, grid)
            want_num, want_dens = _loop_ratios(table, l, state.k, grid)
            assert _bits([num, *dens]) == _bits([want_num, *want_dens])

    def test_default_grid_is_read_only(self):
        assert np.array_equal(_DEFAULT_GAMMAS, np.geomspace(0.1, 10.0, 16))
        with pytest.raises(ValueError, match="read-only"):
            _DEFAULT_GAMMAS[0] = 1.0


# phases in either window, with exact +-90 jumps and the window edges 0 and 180
_PHASE = st.one_of(
    st.floats(-90.0, 180.0),
    st.sampled_from([-90.0, -45.0, -0.0, 0.0, 45.0, 90.0, 135.0, 180.0,
                     math.nextafter(-90.0, 0.0), math.nextafter(90.0, 0.0),
                     math.nextafter(180.0, 0.0)]),
)


class TestPlateauArithmetic:
    """The scan's unwrap and median on lists reproduce numpy's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_PHASE, min_size=1, max_size=20))
    @example([0.0, 90.0, 0.0, -90.0, 90.0])  # exact jumps of +90 and -90
    @example([-45.0, 45.0, 135.0, -45.0])
    @example([179.0, 0.0, 180.0, 0.0, 1.0])  # across the 0/180 window edge
    @example([90.0, -90.0, 90.0])  # exact jumps of 180
    def test_unwrap_equals_numpy(self, phases):
        want = np.unwrap(phases, period=180.0)
        assert _bits(scattering._unwrap_180(phases)) == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300).map(abs), min_size=1, max_size=17))
    @example([3.0])
    @example([2.0, 1.0])
    @example([5.0, 1.0, 3.0])
    @example([1.0, 1.0, 4.0, 2.0])
    def test_median_equals_numpy(self, slopes):
        # odd and even lengths, as the scan's grids give both
        assert _bits([scattering._median(slopes)]) == _bits([np.median(slopes)])


class TestAttractiveCoulomb:
    def test_pure_coulomb_phase_vanishes_at_l_10(self):
        # V - Z/r is zero, so every pseudostate has tan(delta) = 0; at l = 10
        # the nodes lie far below the turning point for |eta| up to 50
        V = builtin("coulomb", Z=-1.0)
        mesh = MeshSpec(30, 1.0, Family.RegSqrt, 1.1)
        H, basis = hamiltonian_3d(mesh, 10, V, HamiltonianVariant.RegSqrtMesh)
        states = [s for s in pseudostates(solve_bound_states(H, basis))
                  if abs(V.tail_Z) <= 50.0 * s.k]
        assert len(states) > 10
        for state in states:
            rec, _ = gamma_scan(state, 10, V, V.tail_Z, mesh)
            assert rec.tan_delta == 0.0


class TestValidation:
    @pytest.mark.parametrize("V, term", [
        (builtin("harmonic"), "0.5 r**2"),
        (PotentialSpec(label="shifted", terms=((-1.0, -1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))),
         "1 r**0"),
        (PotentialSpec(label="slow", terms=((3.0, -0.5, 0.0, 0.0),)), "3 r**-0.5"),
    ], ids=["harmonic", "constant", "r^-1/2"])
    def test_rejects_a_potential_that_is_not_short_range(self, monkeypatch, V, term):
        # V - Z/r must vanish faster than 1/r; the potential is named before
        # any Coulomb function is evaluated
        def no_coulomb(*args):
            raise AssertionError("Coulomb functions evaluated")

        monkeypatch.setattr(scattering, "coulomb_wave", no_coulomb)
        mesh, ps = eckart_states("sqrt")
        message = re.escape(f"potential {V.label!r} is not short-range: its term {term} "
                            "does not vanish faster than 1/r")
        with pytest.raises(ValueError, match=message):
            tan_delta(ps[0], 0, V, V.tail_Z, 4.0, mesh)
        with pytest.raises(ValueError, match=message):
            gamma_scan(ps[0], 0, V, V.tail_Z, mesh)

    @pytest.mark.parametrize("term", [(1.0, 2.0, 0.1, 0.0), (1.0, 0.0, 0.0, 0.5),
                                      (0.0, 1.0, 0.0, 0.0), (1.0, -1.5, 0.0, 0.0)],
                             ids=["gaussian", "exponential", "zero", "r^-3/2"])
    def test_accepts_short_range_terms(self, term):
        mesh, ps = eckart_states("sqrt")
        V = PotentialSpec(label="short", terms=(term,))
        assert math.isfinite(tan_delta(ps[0], 0, V, 0.0, 4.0, mesh).delta_deg)

    def test_rejects_nonpositive_energy(self):
        mesh, ps = eckart_states("sqrt")
        bad = Pseudostate(-0.5, ps[0].coefficients)
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
        # k = sqrt(2E) is infinite where 2E overflows, past E = 8.99e307
        for energy in (math.inf, 1e308):
            with pytest.raises(ValueError, match="energy and k must be positive and finite"):
                tan_delta(dataclasses.replace(ps[0], energy=energy), 0, ECKART, 0.0, 4.0, mesh)
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
        bad = Pseudostate(1.0, np.ones(7))
        with pytest.raises(ValueError, match="mesh"):
            tan_delta(bad, 0, ECKART, 0.0, 4.0, mesh)

    def test_indeterminate_phase_reported_not_guessed(self):
        with pytest.raises(IndeterminatePhaseError):
            _phases([4.0], 1.0, [0.0], "principal")
        with pytest.raises(IndeterminatePhaseError):
            _phases([4.0], 1.0, [5e-15], "principal")
        tan, delta, branch = _phases([4.0], 1.0, [2e-14], "principal")
        assert tan.tolist() == [1.0 / 2e-14] and branch.tolist() == [0]
        # the first rate in grid order that determines no phase is named
        with pytest.raises(IndeterminatePhaseError, match=r"gamma=2: denominator 0\.000e\+00"):
            _phases([1.0, 2.0, 3.0], 1.0, [1.0, 0.0, math.nan], "principal")
        with pytest.raises(IndeterminatePhaseError, match="gamma=2: .* is not finite"):
            _phases([1.0, 2.0, 3.0], 1.0, [1.0, math.inf, 0.0], "principal")

    def test_result_holds_phases_only(self):
        assert [f.name for f in dataclasses.fields(PhaseShiftResult)] == [
            "tan_delta", "delta_deg", "branch", "gamma", "sensitivity", "no_plateau"]
