"""Tests for the command-line runner: config handling, modes, reports."""

import functools
import itertools
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagmesh
from lagmesh import cli
from lagmesh.cli import ConfigError, ExperimentConfig, main, run, sweep
from lagmesh.matelem import hamiltonian_2d, hamiltonian_3d, scheme_mesh
from lagmesh.potentials import builtin
from lagmesh.scattering import IndeterminatePhaseError, tan_delta
from lagmesh.solver import pseudostates, solve_bound_states
from lagmesh.basis import _CACHE_SIZE
from lagmesh.specfun import _MAX_ETA, coulomb_wave
import cli_refusals
from test_demos import CLI_EXAMPLES
from test_potentials import from_text


def _config(**kw):
    base = dict(mode="bound", potential=builtin("harmonic"), angular=0,
                variant="var", N=20, h=0.09)
    base.update(kw)
    return ExperimentConfig(**base)


# the config keys of the ExperimentConfig attributes that differ from them
_KEYS = {"angular": "l/m", "dimension": "dim"}


class TestValidation:
    def test_collects_field_level_messages(self):
        with pytest.raises(ConfigError) as err:
            run(ExperimentConfig(mode="bound"))
        text = str(err.value)
        for field in ("potential:", "N:", "h:"):
            assert field in text

    # a config built in Python is not parsed, so any field may hold any object
    @pytest.mark.parametrize("field, value", [
        ("potential", "harmonic"), ("N", "20"), ("N", True), ("h", "0.5"),
        ("alpha", "1"), ("gamma", "4"), ("angular", "1"), ("angular", None),
        ("N", np.int64(20)),  # the config echo is JSON: no NumPy integers
    ])
    def test_mistyped_field_names_the_field(self, field, value):
        # by its key, as every other check names it
        with pytest.raises(ConfigError, match=rf"^{_KEYS.get(field, field)}: must be a"):
            run(_config(**{field: value}))

    @pytest.mark.parametrize("field, value, message", [
        ("variant", ["var"], "must be one of"),
        ("gammas", ("a",) * 9, "must be a sequence of ints or floats"),
        ("gammas", 4.0, "must be a sequence of ints or floats"),
        ("N", 1.5, "must be a whole number"),
        ("N", math.inf, "must be a whole number"),
        ("angular", 1.5, "must be a whole number"),
    ])
    def test_malformed_field_raises_config_error(self, field, value, message):
        scan = dict(mode="gamma-scan", potential=builtin("eckart"), variant="reg-sqrt",
                    N=15, h=0.1)
        config = _config(**{**scan, field: value})
        with pytest.raises(ConfigError, match=rf"^{_KEYS.get(field, field)}: {message}"):
            run(config)

    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan, 0.0])
    def test_h_must_be_positive_and_finite(self, h):
        # the library's rule, named by the key, as flags, a config file and a
        # sweep value are (cli_refusals)
        with pytest.raises(ConfigError) as err:
            run(_config(h=h))
        assert err.value.errors == (f"h: h must be positive and finite (got {h!r})",)

    def test_numpy_float_is_a_float(self):
        assert run(_config(h=np.float64(0.09))) == run(_config(h=0.09))

    def test_unknown_mode_is_named(self):
        with pytest.raises(ConfigError) as err:
            run(ExperimentConfig(mode="fit"))
        assert err.value.errors == ("mode: must be one of bound, scatter, gamma-scan, reproduce",)

    def test_reproduce_requires_table(self):
        with pytest.raises(ConfigError) as err:
            run(ExperimentConfig(mode="reproduce"))
        assert err.value.errors == ("table: reproduce requires --table 1..5",)
        with pytest.raises(ConfigError, match="^table: table must be one of "):
            run(ExperimentConfig(mode="reproduce", table=7))

    def test_bool_table_is_no_table(self):
        with pytest.raises(ConfigError, match="^table: must be a whole number"):
            run(ExperimentConfig(mode="reproduce", table=True))

    @pytest.mark.parametrize("config, message", [
        (dict(mode="reproduce", table=2, N=5), "N: only applies to bound, scatter, gamma-scan"),
        (dict(mode="reproduce", table=2, angular=1),
         "l/m: only applies to bound, scatter, gamma-scan"),
        (dict(mode="gamma-scan", potential=builtin("eckart"), variant="reg-sqrt", N=15,
              h=0.1, gamma=4.0), "gamma: only applies to scatter"),
        (dict(mode="scatter", potential=builtin("eckart"), variant="reg-sqrt", N=15,
              h=0.1, gamma=4.0, gammas=(1.0, 2.0)), "gammas: only applies to gamma-scan"),
    ])
    def test_field_the_mode_does_not_read_is_rejected(self, config, message):
        # such a field would be echoed, or dropped from the echo, unread
        with pytest.raises(ConfigError) as err:
            run(ExperimentConfig(**config))
        assert err.value.errors == (message,)

    def test_table_outside_reproduce_rejected(self):
        with pytest.raises(ConfigError, match="table"):
            run(_config(table=2))

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            run(_config(variant="cubic"))

    def test_scatter_requires_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            run(_config(mode="scatter", potential=builtin("eckart"),
                        variant="reg-sqrt", N=15, h=0.1))

    def test_gamma_rejected_for_bound(self):
        with pytest.raises(ConfigError, match="gamma"):
            run(_config(gamma=4.0))

    def test_two_dimensional_variants(self):
        with pytest.raises(ConfigError, match="variant"):
            run(_config(dimension=2, angular=1, variant="non-reg"))
        with pytest.raises(ConfigError, match="alpha"):
            run(_config(dimension=2, angular=1, variant="var", alpha=2.0))

    @pytest.mark.parametrize("dimension,aliases", [
        (3, "var, reg-sqrt, reg-r, non-reg, non-reg-vg"), (2, "var, reg-sqrt")])
    def test_wrong_variant_names_the_aliases_of_its_dimension(self, dimension, aliases):
        with pytest.raises(ConfigError) as err:
            run(_config(dimension=dimension, variant="cubic"))
        assert err.value.errors == (f"variant: must be one of {aliases}",)

    @pytest.mark.parametrize("variant", ["reg-sqrt", "var"])
    def test_scattering_modes_are_three_dimensional(self, variant):
        # the integral relations are built from 3D Coulomb/Riccati functions
        config = _config(mode="scatter", potential=builtin("eckart"), dimension=2,
                         angular=1, variant=variant, N=12, h=0.1, gamma=2.0)
        with pytest.raises(ConfigError, match="dim: scatter"):
            run(config)
        with pytest.raises(ConfigError, match="dim: gamma-scan"):
            run(_config(mode="gamma-scan", potential=builtin("eckart"), dimension=2,
                        angular=1, variant=variant, N=12, h=0.1))
        with pytest.raises(ConfigError, match="dim: scatter"):
            sweep(config, "gamma", [1.0, 2.0])

    def test_check_is_the_librarys_rules_on_every_edge(self):
        # a config is admitted exactly when the library raises no ValueError
        # from the build or, in a phase mode, from the Coulomb functions' l
        # and the rate, and the CLI's own rules pass; the library's first
        # message is the refusal's, under a key
        V, eckart = builtin("coulomb"), builtin("eckart")
        mesh = scheme_mesh("RegSqrtMesh", 15, 0.1)
        state = pseudostates(solve_bound_states(
            *hamiltonian_3d(mesh, 0, eckart, "RegSqrtMesh")))[0]

        def message(call, *args):
            try:
                call(*args)
            except ValueError as e:
                return str(e)
            return None

        @functools.lru_cache(maxsize=None)
        def build(N, h, alpha, n, dim, alias):
            scheme = cli._VARIANTS[dim, alias]
            builder = hamiltonian_2d if dim == 2 else hamiltonian_3d
            return message(lambda: builder(scheme_mesh(scheme, N, h, alpha), n, V, scheme))

        coulomb_l = functools.lru_cache(lambda n: message(coulomb_wave, n, 0.5, 1.0))
        rate = functools.lru_cache(lambda g: message(tan_delta, state, 0, eckart, g, mesh))
        for N, h, alpha, n, (dim, alias), mode, gamma in itertools.product(
                (0, 1, 5), (0, 1e-3, 1, math.inf, math.nan),
                (None, -1, 0, 1, 2, math.inf, math.nan), (-1, 0, 1, 5, 21), cli._VARIANTS,
                ("bound", "scatter", "gamma-scan"), (None, 0, 1, math.inf)):
            phase = mode != "bound"
            library = [build(N, h, alpha, n, dim, alias)]
            if phase:
                library.append(coulomb_l(n))
            if mode == "scatter" and gamma is not None:
                library.append(rate(gamma))
            library = [m for m in library if m is not None]
            # the CLI's own rules: scatter needs a gamma that no other mode
            # reads, and phases are three-dimensional
            own = (gamma is None) == (mode == "scatter") or phase and dim == 2
            config = ExperimentConfig(mode=mode, potential=V, N=N, h=h, alpha=alpha,
                                      angular=n, dimension=dim, variant=alias, gamma=gamma)
            try:
                cli._checked(config)
            except ConfigError as e:
                assert library or own, (config, e.errors)
                if library:
                    assert library[0] in [err.split(": ", 1)[1] for err in e.errors], (
                        config, library[0], e.errors)
            else:
                assert not (library or own), (config, library)


class TestBoundMode:
    def test_oscillator_ground_state(self):
        report = run(_config())
        first = report["rows"][0]
        assert abs(first["energy"] - 1.5) <= 1e-10
        assert abs(first["eps_rel"]) <= 1e-10

    def test_coulomb_exact_only_for_bound_levels(self):
        report = run(_config(potential=builtin("coulomb"), N=10, h=0.9))
        assert abs(report["rows"][0]["energy"] - (-0.5)) < 1e-8
        assert "eps_rel" in report["rows"][0]
        assert all("eps_rel" not in row
                   for row in report["rows"] if row["energy"] > 0.0)

    @pytest.mark.parametrize("dimension, angular, lam", [(3, 0, 0.0), (3, 1, 1.0), (2, 1, 0.5)])
    def test_exact_levels_follow_the_coulomb_charge(self, dimension, angular, lam):
        # the 2D radial equation is the 3D one at l = m - 1/2
        report = run(_config(potential=builtin("coulomb", Z=-2.0), dimension=dimension,
                             angular=angular, N=20, h=0.3))
        rows = [row for row in report["rows"] if "exact" in row]
        assert [row["exact"] for row in rows] == [
            -2.0 / (n + lam + 1.0) ** 2 for n in range(len(rows))]
        assert abs(rows[0]["eps_rel"]) <= 1e-10

    def test_exact_levels_follow_the_oscillator_strength(self):
        V = from_text('{"label": "harmonic", "terms": [{"c": 2, "p": 2}]}')
        report = run(_config(potential=V, angular=1))
        assert [row["exact"] for row in report["rows"]] == [
            2.0 * (2 * n + 1 + 1.5) for n in range(len(report["rows"]))]
        assert abs(report["rows"][0]["eps_rel"]) <= 1e-10

    def test_repulsive_coulomb_has_no_exact_levels(self):
        report = run(_config(potential=builtin("coulomb", Z=1.0), N=20, h=0.3))
        assert all("exact" not in row for row in report["rows"])

    def test_exact_levels_whatever_the_label(self):
        V = from_text('{"label": "user", "terms": [{"c": 0.5, "p": 2}]}')
        report = run(_config(potential=V))
        assert report["rows"][0]["exact"] == 1.5
        assert abs(report["rows"][0]["eps_rel"]) <= 1e-10

    def test_two_dimensional_oscillator(self):
        report = run(_config(dimension=2, angular=1))
        assert abs(report["rows"][0]["energy"] - 2.0) <= 1e-10

    def test_problem_units_conversion(self):
        report = run(_config(potential=builtin("buck_alpha_alpha"),
                             variant="reg-sqrt", N=15, h=0.23))
        # the deepest level of the alpha+alpha well sits near -75 MeV
        assert -90.0 < report["rows"][0]["energy"] < -50.0


class TestScatterMode:
    def test_phases_at_fixed_gamma(self):
        report = run(_config(mode="scatter", potential=builtin("eckart"),
                             variant="reg-sqrt", N=15, h=0.1, gamma=4.0))
        assert abs(report["rows"][0]["delta_deg"] - (-49.67024)) < 5e-5
        assert report["rows"][0]["branch"] == 0

    def test_coulomb_tail_is_read_from_the_terms(self):
        # a pure Coulomb potential has no phase shift against the Coulomb
        # functions of its own tail, whether or not the spec states it
        kw = dict(mode="scatter", variant="reg-sqrt", N=30, h=1.1, gamma=2.0)
        spec = run(_config(potential=from_text('{"terms": [{"c": -1, "p": -1}]}'), **kw))
        assert spec["rows"] == run(_config(potential=builtin("coulomb"), **kw))["rows"]
        assert all(abs(row["tan_delta"]) <= 1e-12 for row in spec["rows"])

    def test_charged_system_reported_in_positive_window(self):
        report = run(_config(mode="scatter",
                             potential=builtin("buck_alpha_alpha"),
                             variant="reg-sqrt", angular=2, N=15, h=0.23,
                             gamma=1.1))
        assert all(0.0 <= row["delta_deg"] < 180.0 for row in report["rows"])


@pytest.mark.parametrize("mode", ["scatter", "gamma-scan"])
@pytest.mark.parametrize("N", [30, 100, 200])
def test_states_beyond_the_eta_domain_are_skipped(mode, N):
    # near threshold a Coulomb pseudostate can have |eta| = |Z/k| > 50,
    # where the Coulomb functions are not defined: at h = 1.1 one of 174
    # at N = 200, none at N = 30 or 100
    config = _config(mode=mode, potential=builtin("coulomb"), variant="reg-sqrt",
                     N=N, h=1.1, gamma=1.0 if mode == "scatter" else None)
    basis, H = cli._resolve_problem(config)
    states = pseudostates(solve_bound_states(H, basis))
    inside = [n for n, s in enumerate(states, 1) if abs(1.0 / s.k) <= _MAX_ETA]
    assert [row["state"] for row in run(config)["rows"]] == inside
    assert len(inside) == len(states) - (N == 200)


class TestGammaScanMode:
    def test_recommends_plateau(self):
        report = run(_config(mode="gamma-scan", potential=builtin("eckart"),
                             variant="reg-sqrt", N=15, h=0.1))
        first = report["rows"][0]
        assert 2.0 <= first["gamma"] <= 6.0
        assert not first["no_plateau"]

    def test_explicit_grid(self):
        report = run(_config(mode="gamma-scan",
                             potential=builtin("buck_alpha_alpha"),
                             variant="reg-sqrt", angular=2, N=15, h=0.23,
                             gammas=tuple(cli.np.geomspace(0.3, 1.3, 16))))
        assert 0.3 < report["rows"][0]["gamma"] < 1.3
        assert abs(report["rows"][0]["delta_deg"] - 12.471) <= 0.02


class TestGammaGrid:
    """A scan grid is checked with the config, under ``gamma:``, before any
    solve, by the rule ``gamma_scan`` applies."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def resolve(config):
            raise AssertionError("solved")

        monkeypatch.setattr(cli, "_resolve_problem", resolve)

    def test_bad_grid_in_a_config_file_or_in_python(self, no_solve):
        # a config file's grid is a row of cli_refusals
        with pytest.raises(ConfigError) as err:
            run(_config(mode="gamma-scan", potential=builtin("eckart"), variant="reg-sqrt",
                        N=15, h=0.1, gammas=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, math.nan)))
        assert err.value.errors == ("gamma: gamma must be positive and finite (got nan)",)


@pytest.fixture
def no_build(monkeypatch):
    def build(*args):
        raise AssertionError("built")

    monkeypatch.setattr(cli, "hamiltonian_3d", build)
    monkeypatch.setattr(cli, "hamiltonian_2d", build)


class TestExactMatrixConfig:
    """A scheme that would read an Exact matrix that does not exist is named
    with the config, before any matrix is built, by the builders' rule."""

    def test_config_error_in_python(self, no_build):
        with pytest.raises(ConfigError) as err:
            run(_config(potential=builtin("eckart"), variant="var", alpha=0.0))
        assert err.value.errors == (
            "variant: potential 'eckart(b=2,c=-1)' has no exact matrix elements",
            "alpha: divergent integral: kinetic on family RegSqrt with alpha=0.0")

    def test_config_check_agrees_with_the_builders(self):
        # every scheme, alpha and angular number: the config is refused
        # exactly when a build raises, naming the build's message
        potentials = (builtin("harmonic"), builtin("eckart"),
                      from_text('{"terms": [{"c": -1, "p": -1}, {"c": 2, "p": 1}]}'))
        for (dim, alias), alpha, l, V in itertools.product(
                cli._VARIANTS, (None, 0.0, 0.5, 1.0, 1.5, 2.0), (0, 1, 3), potentials):
            if dim == 2 and alpha:
                continue
            config = _config(potential=V, dimension=dim, variant=alias, angular=l, N=6,
                             h=0.5, alpha=alpha)
            errors = cli._domain_errors(config)
            try:
                cli._resolve_problem(config)
            except ValueError as e:
                assert any(err.endswith(f": {e}") for err in errors), (config, errors, e)
            else:
                assert errors == [], config

    @pytest.mark.parametrize("argv", [
        ["--potential", "eckart", "--variant", "reg-sqrt"],
        ["--potential", "coulomb", "--variant", "non-reg-vg", "--alpha", "0"],
        ["--potential", "harmonic", "--dim", "2", "--m", "1"],
    ], ids=["eckart-mesh", "non-reg-vg-alpha-0-s-wave", "var-2d-m-1"])
    def test_buildable_configs_run(self, capsys, argv):
        assert main(["bound", *argv, "--N", "10", "--h", "0.5"]) == 0
        assert capsys.readouterr().err == ""


class TestShortRangeConfig:
    """Phases need ``V - Z/r`` to vanish faster than 1/r; another potential
    is refused under ``potential:`` before any build or eigensolve."""

    def test_config_error_in_python(self, no_build):
        with pytest.raises(ConfigError) as err:
            sweep(_config(mode="scatter", potential=builtin("harmonic"), variant="reg-sqrt",
                          gamma=1.0), "gamma", (1.0, 2.0))
        assert err.value.errors == ("potential: potential 'harmonic' is not short-range: "
                                    "its term 0.5 r**2 does not vanish faster than 1/r",)

    def test_bound_runs_keep_every_potential(self, capsys):
        assert main(["bound", "--potential", "harmonic", "--N", "10", "--h", "0.5"]) == 0


def test_cancelling_undamped_terms_are_short_range(capsys):
    # 1 - 1 - 1/r is the pure Coulomb potential: every phase is 0
    spec = '{"terms":[{"c":1,"p":0},{"c":-1,"p":0},{"c":-1,"p":-1}]}'
    assert main(["gamma-scan", "--potential", spec, "--N", "10", "--h", "0.5",
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]
    assert captured.err == "" and rows and all(row["delta_deg"] == 0.0 for row in rows)


class TestSweep:
    def test_mesh_size_sweep_converges(self):
        config = _config(potential=builtin("coulomb"), h=0.9)
        report = sweep(config, "N", (10, 15))
        eps = [row["eps_rel"] for row in report["rows"]]
        assert abs(eps[1]) <= max(1e-3 * abs(eps[0]), 1e-13)

    def test_scaling_sweep_hits_exact_solution(self):
        config = _config(potential=builtin("coulomb"), variant="reg-sqrt",
                         N=10, h=0.9)
        report = sweep(config, "h", (0.5, 0.9, 1.5))
        by_value = {row["value"]: row["eps_rel"] for row in report["rows"]}
        assert abs(by_value[0.5]) <= 1e-13
        assert abs(by_value[0.9]) > 1e-10

    def test_gamma_sweep_is_flat_on_plateau(self):
        config = _config(mode="scatter", potential=builtin("eckart"),
                         variant="reg-sqrt", N=15, h=0.1, gamma=4.0)
        report = sweep(config, "gamma", (3.0, 4.0, 5.0))
        deltas = [row["delta_deg"] for row in report["rows"]]
        assert max(deltas) - min(deltas) <= 1e-3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scatter_run_without_pseudostates_leaves_null_values(self, capsys, fmt):
        # an N = 1 Coulomb mesh has only its bound state
        code = main(["sweep", "--parameter", "gamma", "--values", "1,2", "--potential",
                     "coulomb", "--variant", "reg-sqrt", "--N", "1", "--h", "1",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        if fmt == "csv":
            assert captured.out == ("parameter,value,energy,tan_delta,delta_deg\n"
                                    "gamma,1,,,\ngamma,2,,,\n")
        else:
            assert json.loads(captured.out)["rows"] == [
                {"parameter": "gamma", "value": v, "energy": None, "tan_delta": None,
                 "delta_deg": None} for v in (1.0, 2.0)]

    def test_rejects_bad_requests(self):
        config = _config()
        with pytest.raises(ConfigError, match="values"):
            sweep(config, "N", ())
        with pytest.raises(ConfigError, match="parameter"):
            sweep(config, "alpha", (1.0,))
        with pytest.raises(ConfigError, match="gamma"):
            sweep(config, "gamma", (1.0,))
        scan = _config(mode="gamma-scan", potential=builtin("eckart"), variant="reg-sqrt",
                       N=15, h=0.1)
        with pytest.raises(ConfigError) as err:
            sweep(scan, "N", (15,))
        assert err.value.errors == ("mode: sweeps apply to bound or scatter runs",)

    @pytest.mark.parametrize("parameter, value, message", [
        ("h", "0.5", "h: must be an int or a float (got '0.5')"),
        ("N", True, "N: must be a whole number (got True)"),
        ("N", "12", "N: must be a whole number (got '12')"),
    ])
    def test_values_reach_their_field_as_given(self, no_build, parameter, value, message):
        # run's rule for the field, not a float() of the value
        with pytest.raises(ConfigError) as swept:
            sweep(_config(), parameter, [value])
        with pytest.raises(ConfigError) as ran:
            run(_config(**{parameter: value}))
        assert swept.value.errors == ran.value.errors == (message,)

    def test_a_scatter_point_computes_its_first_phase_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "tan_delta", lambda *args: calls.append(args) or tan_delta(*args))
        sweep(_config(**_ECKART_SCATTER), "gamma", (3.0, 4.0, 5.0))
        assert len(calls) == 3

    def test_a_later_pseudostate_does_not_fail_the_sweep(self, monkeypatch):
        config = _config(**_ECKART_SCATTER)
        expected = sweep(config, "gamma", (3.0, 4.0, 5.0))
        energies = []

        def first_state_only(state, *args):
            energies.append(state.energy)
            if state.energy != energies[0]:
                raise IndeterminatePhaseError("denominator vanished")
            return tan_delta(state, *args)

        monkeypatch.setattr(cli, "tan_delta", first_state_only)
        assert sweep(config, "gamma", (3.0, 4.0, 5.0)) == expected
        # a scatter run reads every state
        with pytest.raises(IndeterminatePhaseError):
            run(config)


class TestEigenvalueOnlySolve:
    """Runs that read energies alone never compute eigenvectors."""

    @pytest.fixture(autouse=True)
    def no_eigenvectors(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("eigenvectors computed")

        monkeypatch.setattr(cli.np.linalg, "eigh", eigh)

    @pytest.mark.parametrize("dim,variant", [(3, "var"), (3, "non-reg"), (2, "var"),
                                             (2, "reg-sqrt")])
    def test_bound(self, dim, variant):
        report = run(_config(potential=builtin("coulomb"), dimension=dim, angular=1,
                             variant=variant, N=12, h=0.9))
        assert report["rows"][0]["energy"] < 0.0

    def test_bound_sweep(self):
        report = sweep(_config(), "h", (0.09, 0.2))
        assert abs(report["rows"][0]["eps_rel"]) <= 1e-10

    @pytest.mark.parametrize("table", [1, 2, 5])
    def test_bound_state_tables(self, table):
        rows = cli.benchmarks.run_table(table)
        assert all(c["passed"] for c in cli.benchmarks.check_table(table, rows))

    def test_scatter_still_reads_eigenvectors(self):
        with pytest.raises(AssertionError, match="eigenvectors computed"):
            run(_config(mode="scatter", potential=builtin("eckart"),
                        variant="reg-sqrt", N=15, h=0.1, gamma=4.0))


@functools.lru_cache(maxsize=None)
def _table_rows(table):
    return tuple(cli.benchmarks.run_table(table))


class TestReferenceRule:
    """Every table is checked from its quoted strings alone."""

    def _failed(self, table=2, rows=None):
        checks = cli.benchmarks.check_table(table, list(rows or _table_rows(table)))
        assert len(checks) == {2: 15, 4: 20}[table]
        return [c["description"] for c in checks if not c["passed"]]

    def test_one_quoted_value_moves_one_check(self, monkeypatch):
        monkeypatch.setitem(cli.benchmarks.TABLE2_REFERENCE, 0,
                            ("2.4e-9", "2.4e-9", "-7.7e-9", "6.9e-2", "6.9e-2"))
        assert self._failed() == [
            "table 2 l=0 reg r: eps_rel = -7.7[-9] to half a unit in the last place"]

    def test_value_above_its_floor_takes_two_figures(self, monkeypatch):
        monkeypatch.setitem(cli.benchmarks.TABLE2_REFERENCE, 1,
                            ("1.7e-12", "1.6e-20", "2.5e-19", "-1.0e-3", "1.8e-20"))
        assert self._failed() == [
            "table 2 l=1 var: eps_rel = 1.7[-12] to half a unit in the last place"]

    @pytest.mark.parametrize("eps,passed", [(6.9e-2 + 4.9e-4, True), (6.9e-2 - 4.9e-4, True),
                                            (6.9e-2 + 5.1e-4, False), (-6.9e-2, False)])
    def test_two_figures_is_half_a_unit_of_the_second(self, eps, passed):
        rows = [dict(row) for row in _table_rows(2)]
        rows[0]["non reg"] = eps
        assert self._failed(rows=rows) == ([] if passed else [
            "table 2 l=0 non reg: eps_rel = 6.9[-2] to half a unit in the last place"])

    def test_phase_past_its_bound_fails_its_own_check(self, monkeypatch):
        # the computed delta is 15.12216: "15.125" is 2.8 units off
        ref = cli.benchmarks.TABLE4_REFERENCE[2, "reg r"]
        monkeypatch.setitem(cli.benchmarks.TABLE4_REFERENCE, (2, "reg r"),
                            {**ref, "delta": ("15.125", ref["delta"][1])})
        assert self._failed(4) == [
            "table 4 l=2 reg r E1: delta = 15.125 to one unit in the last place"]

    @pytest.mark.parametrize("delta,passed", [(94.4591, True), (94.4609, True),
                                              (94.4585, False), (94.4615, False)])
    def test_trailing_zero_holds_the_thousandths(self, delta, passed):
        # "94.460" reads as 94.46 to a float: one unit of its hundredths
        # would pass all four values
        rows = [dict(row) for row in _table_rows(4)]
        assert (rows[5]["l"], rows[5]["mesh"], rows[5]["state"]) == (2, "reg sqrt(r)", 2)
        rows[5]["delta"] = delta
        assert self._failed(4, rows) == ([] if passed else [
            "table 4 l=2 reg sqrt(r) E2: delta = 94.460 to one unit in the last place"])


class TestReports:
    def test_json_schema_and_provenance(self):
        report = run(_config())
        doc = json.loads(cli.render_json(report))
        assert doc["schema"] == 1
        assert doc["mode"] == "bound"
        assert doc["config"]["potential"]["label"] == "harmonic"
        assert len(doc["provenance"]["config_hash"]) == 16
        assert doc["provenance"]["build"] == f"lagmesh {lagmesh.__version__}"
        assert doc["rows"][0]["energy"] == pytest.approx(1.5)

    def test_reports_are_deterministic(self):
        a = cli.render_json(run(_config()))
        b = cli.render_json(run(_config()))
        assert a == b

    def test_reports_share_no_mutable_state(self):
        # a report that is changed after the run must not change the next one
        config = _config(potential=builtin("coulomb"), N=12, h=0.9)
        first = cli.render_json(run(config))
        report = run(config)
        report["config"]["potential"]["terms"][0]["c"] = 99.0
        report["config"]["potential"]["label"] = "changed"
        report["config"]["potential"]["terms"].append({"c": 1.0})
        report["rows"][0]["energy"] = 0.0
        assert cli.render_json(run(config)) == first

    def test_echo_tells_signed_zeros_apart(self):
        # -0.0 == 0.0, so two such specs are equal, but their echoes differ
        for Z in (-0.0, 0.0, -0.0):
            report = run(_config(potential=builtin("coulomb", Z=Z), N=5, h=0.5))
            c = report["config"]["potential"]["terms"][0]["c"]
            assert math.copysign(1.0, c) == math.copysign(1.0, Z)

    def test_row_template_cache_stays_bounded(self):
        for i in range(2 * _CACHE_SIZE):
            cli.render_json({"schema": 1, "rows": [{f"key{i}": 1.0, "state": i}]})
            assert cli._row_template.cache_info().currsize <= _CACHE_SIZE

    def test_csv_summary(self):
        text = cli.render_csv(run(_config()))
        lines = text.splitlines()
        assert lines[0] == "state,energy,exact,eps_rel"
        assert lines[1].startswith("1,1.5,1.5,")

    @pytest.mark.parametrize("x, text", [(0.0, "0"), (9.96e-3, "1.0[-2]"),
                                         (-9.96e-3, "-1.0[-2]"), (6.9e-2, "6.9[-2]")])
    def test_error_notation(self, x, text):
        # a mantissa that rounds up to 10 moves to the next power
        assert cli.benchmarks.eps_notation(x) == text

    def test_unknown_table_is_named(self):
        with pytest.raises(ValueError, match=r"^table must be one of \(1, 2, 3, 4, 5\), got 6$"):
            cli.benchmarks.run_table(6)

    def test_reproduce_csv_uses_error_notation(self):
        report = run(ExperimentConfig(mode="reproduce", table=2))
        text = cli.render_csv(report)
        assert "6.9[-2]" in text
        assert "l,var,reg sqrt(r),reg r,non reg,non reg V_G" in text

    def test_reproduce_checks_included_in_json(self):
        report = run(ExperimentConfig(mode="reproduce", table=5))
        doc = json.loads(cli.render_json(report))
        assert all(c["passed"] for c in doc["checks"])


def _round15(v):
    """A cell as the report's JSON holds it: a float, NumPy's included,
    rounded to 15 significant digits; a NumPy bool or integer as Python's."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(f"{float(v):.15g}")
    return v


def _rounded(report):
    """The report with its row cells and check values rounded to 15 digits."""
    doc = dict(report, rows=[{k: _round15(v) for k, v in row.items()}
                             for row in report["rows"]])
    if "checks" in report:
        doc["checks"] = [dict(c, value=_round15(c["value"])) for c in report["checks"]]
    return doc


def _reference_json(report):
    """What render_json must write: the indented pure-Python json encoding."""
    return json.dumps(_rounded(report), indent=2) + "\n"


@functools.lru_cache(maxsize=None)
def _table_report(table):
    return run(ExperimentConfig(mode="reproduce", table=table, format="json"))


_ECKART_SCATTER = dict(mode="scatter", potential=builtin("eckart"), variant="reg-sqrt",
                       N=15, h=0.1, gamma=4.0)
_REPORTS = {
    "bound-3d": lambda: run(_config(N=150, h=0.06)),
    "bound-3d-unbound-rows": lambda: run(_config(potential=builtin("coulomb"),
                                                 variant="non-reg", angular=1, N=12,
                                                 h=0.9)),
    "bound-var2d": lambda: run(_config(dimension=2, angular=1)),
    "bound-reg-sqrt-2d": lambda: run(_config(dimension=2, variant="reg-sqrt",
                                             potential=builtin("coulomb"), N=12, h=0.4)),
    "scatter": lambda: run(_config(**_ECKART_SCATTER)),
    "scatter-charged": lambda: run(_config(mode="scatter",
                                           potential=builtin("buck_alpha_alpha"),
                                           variant="reg-sqrt", angular=2, N=15, h=0.23,
                                           gamma=1.1)),
    "gamma-scan": lambda: run(_config(mode="gamma-scan", potential=builtin("eckart"),
                                      variant="reg-sqrt", N=15, h=0.1)),
    "sweep-N": lambda: sweep(_config(potential=builtin("coulomb"), h=0.9), "N", (10, 15)),
    "sweep-h": lambda: sweep(_config(), "h", (0.05, 0.09, 0.2)),
    "sweep-gamma": lambda: sweep(_config(**_ECKART_SCATTER), "gamma", (3.0, 4.0, 5.0)),
    "no-rows": lambda: {**run(_config()), "rows": []},
    **{f"table-{t}": functools.partial(_table_report, t) for t in range(1, 6)},
    **{f"table-{t}-no-checks": (lambda t=t: {k: v for k, v in _table_report(t).items()
                                             if k != "checks"})
       for t in range(1, 6)},
}

# Cells of every type a row may hold; the strings reach all of Unicode (lone
# surrogates included) and carry the fragments the writer's row templates
# and header splice are built on.
_TEXT = st.lists(
    st.one_of(st.text(st.characters(exclude_categories=())),
              st.sampled_from(["},\n      {", '"', "\\", "{", "}", "\n", '\n  "rows": []',
                               "%", "%s", "%%"])),
    max_size=4,
).map("".join)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e15, 1e16,
                     2.0, 1.5e15, 9.999999999999999e15, 123456789012345.6,
                     2.2250738585072014e-308, 1e-310]),
)
_CELLS = st.one_of(
    st.integers(), st.booleans(), st.none(), _FLOATS, _TEXT,
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
)


class TestJsonWriter:
    """render_json is byte-identical to json.dumps(doc, indent=2) + newline."""

    @pytest.mark.parametrize("name", list(_REPORTS))
    def test_every_mode_matches_reference(self, name):
        report = _REPORTS[name]()
        assert cli.render_json(report) == _reference_json(report)

    @pytest.mark.parametrize("name", list(_REPORTS))
    def test_document_is_the_report(self, name):
        # the written document is the returned dict, rounded, key order included
        report = _REPORTS[name]()
        doc = json.loads(cli.render_json(report))
        assert doc == _rounded(report)
        assert json.dumps(doc) == json.dumps(_rounded(report))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.dictionaries(_TEXT, _CELLS, max_size=5), max_size=4))
    def test_edge_cells_match_reference(self, rows):
        report = {"schema": 1, "mode": "bound", "config": {"mode": "bound"},
                  "provenance": {"build": "x"}, "rows": rows}
        assert cli.render_json(report) == _reference_json(report)

    def test_row_key_that_is_no_string_is_a_type_error(self):
        # 1 == 1.0 == True, but json writes "1", "1.0" and "true": equal keys
        # of other types would share one row template
        for key in (1, 1.0, True, None):
            report = {"schema": 1, "mode": "bound", "config": {}, "provenance": {},
                      "rows": [{"1": 2.5}, {key: 2.5, "state": 1}]}
            with pytest.raises(TypeError, match=f"^report row keys are strings, "
                                                f"not {type(key).__name__}$"):
                cli.render_json(report)

    @pytest.mark.parametrize("cell", [[1.0], {"a": 1.0}, (1,), np.zeros(2)])
    def test_container_cell_is_a_type_error(self, cell):
        report = {"schema": 1, "mode": "bound", "config": {}, "provenance": {},
                  "rows": [{"state": 1, "energy": cell}]}
        with pytest.raises(TypeError, match="report cells are scalars"):
            cli.render_json(report)

    def test_rows_skip_the_pure_python_encoder(self, monkeypatch):
        # json falls back to _make_iterencode (one generator frame per value)
        # whenever indent is set; a 150-row report must not send rows there
        seen = []
        make = json.encoder._make_iterencode

        def recording(*args, **kwargs):
            iterencode = make(*args, **kwargs)

            def wrapped(o, level):
                seen.append(o)
                return iterencode(o, level)

            return wrapped

        def dicts(o):
            if isinstance(o, dict):
                yield o
                o = list(o.values())
            if isinstance(o, list):
                for v in o:
                    yield from dicts(v)

        monkeypatch.setattr(json.encoder, "_make_iterencode", recording)
        json.dumps({"rows": [{"energy": 1.0}]}, indent=2)
        assert any("energy" in d for d in dicts(seen.pop()))  # the guard sees rows
        report = run(_config(N=150, h=0.06))
        assert len(report["rows"]) == 150
        cli.render_json(report)
        assert not any("energy" in d for o in seen for d in dicts(o))


class TestMain:
    def test_bound_example(self, capsys):
        code = main(["bound", "--potential", "harmonic", "--l", "0",
                     "--variant", "var", "--N", "20", "--h", "0.09"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1].startswith("1,1.5,")

    def test_variant_help_lists_every_alias(self, capsys):
        with pytest.raises(SystemExit):
            main(["bound", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        aliases = dict.fromkeys(alias for _, alias in cli._VARIANTS)
        assert "--variant VARIANT " + ", ".join(aliases) in help_text

    def test_reproduce_check_passes(self, capsys):
        for table, count in ((1, 15), (2, 15), (3, 18), (4, 20), (5, 4)):
            code = main(["reproduce", "--table", str(table), "--check"])
            captured = capsys.readouterr()
            assert code == 0
            assert f"{count}/{count} reference comparisons passed" in captured.err

    def test_reproduce_check_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.benchmarks, "check_table",
            lambda table, rows: [{"description": "forced mismatch", "passed": False,
                                  "value": 1.0}])
        code = main(["reproduce", "--table", "1", "--check"])
        assert code == 3
        assert "FAIL forced mismatch" in capsys.readouterr().err

    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        def boom(config):
            raise IndeterminatePhaseError("denominator vanished")

        monkeypatch.setattr(cli, "run", boom)
        code = main(["reproduce", "--table", "1"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mesh_at_n_400_solves(self, capsys):
        # the largest nodes of this mesh lie where exp(-x/2) underflows
        code = main(["bound", "--potential", "harmonic", "--N", "400", "--h", "0.06",
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        energy = json.loads(captured.out)["rows"][0]["energy"]
        assert energy == pytest.approx(1.5, rel=1e-8)

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(["reproduce", "--table", "5", "--format", "json",
                     "--out", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "potential": "eckart", "l": 0, "variant": "reg-sqrt",
            "N": 15, "h": 0.1, "gamma": 4,
        }))
        assert main(["scatter", "--config", str(cfg)]) == 0
        base = capsys.readouterr().out
        assert main(["scatter", "--config", str(cfg), "--gamma", "8"]) == 0
        overridden = capsys.readouterr().out
        assert base.splitlines()[1].split(",")[3] == "4"
        assert overridden.splitlines()[1].split(",")[3] == "8"

    def test_json_config_echo_replays_the_report(self, tmp_path, capsys):
        # the echo carries the potential's energy unit, so feeding it back
        # prints the same bytes; the spec without it is another config
        assert main(["gamma-scan", "--potential", "buck_alpha_alpha", "--variant", "reg-sqrt",
                     "--l", "2", "--N", "15", "--h", "0.23", "--gamma", "0.3:1.3:16",
                     "--format", "json"]) == 0
        original = capsys.readouterr().out
        doc = json.loads(original)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc["config"]))
        assert main(["gamma-scan", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == original
        del doc["config"]["potential"]["energyUnit"]
        cfg.write_text(json.dumps(doc["config"]))
        assert main(["gamma-scan", "--config", str(cfg)]) == 0
        internal = json.loads(capsys.readouterr().out)
        assert internal["provenance"]["config_hash"] != doc["provenance"]["config_hash"]
        assert internal["rows"][0]["energy"] * 20.736 == pytest.approx(
            doc["rows"][0]["energy"], rel=1e-14)

    def test_sweep_config_echo_replays_the_report(self, tmp_path, capsys):
        sweep_flags = ["--parameter", "h", "--values", "0.3,0.5"]
        assert main(["sweep", *sweep_flags, "--potential", "coulomb", "--l", "0",
                     "--N", "10", "--h", "0.9", "--format", "json"]) == 0
        original = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads(original)["config"]))
        assert main(["sweep", *sweep_flags, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == original
        # the echo records its sweep: other values are another sweep
        assert main(["sweep", "--parameter", "h", "--values", "0.3,0.6",
                     "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            'lagmesh: sweep: the config file\'s sweep {"parameter": "h", "values": [0.3, 0.5]} '
            "differs from --parameter/--values\n")
        # and no other command knows the field
        assert main(["bound", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "lagmesh: sweep: unknown field\n"

    @pytest.mark.parametrize("name", ["l", "m"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_config_file_angular_number_under_either_name(self, tmp_path, capsys, dim, name):
        # a config file names the angular number as the flags do: l or m,
        # whatever the dimension
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": dim, name: 3, "potential": "harmonic",
                                   "variant": "reg-sqrt", "N": 40, "h": 0.1}))
        assert main(["bound", "--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert main(["bound", "--config", str(cfg), "--l", "1"]) == 0
        overridden = capsys.readouterr().out
        level = {2: 4.0, 3: 4.5}[dim]  # lowest oscillator level at angular number 3
        assert float(from_file.splitlines()[1].split(",")[1]) == pytest.approx(level, rel=1e-9)
        assert float(overridden.splitlines()[1].split(",")[1]) == pytest.approx(level - 2.0,
                                                                                rel=1e-9)
        assert main(["bound", "--dim", str(dim), "--potential", "harmonic",
                     "--variant", "reg-sqrt", "--N", "40", "--h", "0.1", f"--{name}", "3"]) == 0
        assert capsys.readouterr().out == from_file

    def test_inline_potential_spec(self, capsys):
        spec = json.dumps({"label": "well",
                           "terms": [{"c": -5.0, "p": 0.0, "a": 1.0, "b": 0.0}],
                           "tailZ": 0.0})
        code = main(["bound", "--potential", spec, "--l", "0",
                     "--variant", "reg-sqrt", "--N", "20", "--h", "0.3"])
        assert code == 0
        first = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert first < 0.0

    def test_grid_argument_for_scan(self, capsys):
        code = main(["gamma-scan", "--potential", "buck_alpha_alpha",
                     "--l", "2", "--variant", "reg-sqrt", "--N", "15",
                     "--h", "0.23", "--gamma", "0.3:1.3:16"])
        assert code == 0
        first = capsys.readouterr().out.splitlines()[1]
        assert first.split(",")[-1] == "False"

    def test_out_into_a_missing_directory_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.csv"
        assert main(["bound", "--potential", "harmonic", "--N", "5", "--h", "1",
                     "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("lagmesh: out: ")
        assert not target.parent.exists()

    def test_run_without_pseudostates_writes_an_empty_csv(self, capsys):
        # an N = 1 Coulomb mesh has only its bound state
        assert main(["scatter", "--potential", "coulomb", "--variant", "reg-sqrt",
                     "--N", "1", "--h", "1", "--gamma", "1"]) == 0
        assert capsys.readouterr() == ("", "")


_REPLAYED = {
    **{f"readme-{i}": shlex.split(c)[1:] for i, c in enumerate(CLI_EXAMPLES, 1)},
    **{f"table-{k}": ["reproduce", "--table", str(k)] for k in range(1, 6)},
    "sweep-N": ["sweep", "--parameter", "N", "--values", "10,12", "--potential", "coulomb",
                "--l", "1", "--h", "0.9"],
    "sweep-h": ["sweep", "--parameter", "h", "--values", "0.3,0.5", "--potential",
                "harmonic", "--N", "20", "--h", "0.09"],
    "sweep-gamma": ["sweep", "--parameter", "gamma", "--values", "2,4", "--potential",
                    "eckart", "--variant", "reg-sqrt", "--N", "15", "--h", "0.1"],
}


def _replay(echo, mode, tmp_path, capsys):
    """Stdout of ``lagmesh MODE --config FILE`` with FILE holding ``echo``;
    a sweep's echo is replayed with the sweep it records."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(echo))
    argv = [mode, "--config", str(cfg)]
    if "sweep" in echo:
        argv += ["--parameter", echo["sweep"]["parameter"],
                 "--values", ",".join(map(repr, echo["sweep"]["values"]))]
    assert main(argv) == 0
    return capsys.readouterr().out


class TestReplay:
    """The config echo of a JSON report, fed back through --config, prints
    the same report."""

    @pytest.mark.parametrize("argv", _REPLAYED.values(), ids=_REPLAYED.keys())
    def test_cli_report_replays(self, argv, tmp_path, capsys):
        assert main([*argv, "--format", "json"]) == 0
        original = capsys.readouterr().out
        echo = json.loads(original)["config"]
        assert _replay(echo, argv[0], tmp_path, capsys) == original

    @pytest.mark.parametrize("field, value", [("N", 20.0), ("dimension", 3.0),
                                              ("angular", 1.0)])
    def test_python_config_with_whole_floats_replays(self, field, value, tmp_path, capsys):
        report = run(_config(format="json", **{field: value}))
        echo = report["config"]
        assert all(type(echo[key]) is int for key in ("N", "dim", "l"))
        assert _replay(echo, "bound", tmp_path, capsys) == cli.render_json(report)


def _run_python(code):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def test_cold_phase_run_leaves_numpy_ma_out():
    # np.median imports numpy.ma on its first call, some 11-14 ms of a cold
    # run; the plateau search takes its median without it
    code = ("import contextlib, io, sys; from lagmesh.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['gamma-scan', '--potential', 'eckart', '--variant', 'reg-sqrt',"
            " '--N', '15', '--h', '0.1', '--l', '0'])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    assert _run_python(code).strip() == "0 False"


def test_cli_import_leaves_scipy_out():
    # nor importlib.metadata: the build id is the package's own __version__
    code = ("import sys, lagmesh.cli; "
            "print([m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'importlib.metadata'])")
    assert _run_python(code).strip() == "[]"


def test_reproduce_checks_pass_without_scipy():
    # scipy is a test dependency only: every table reproduces with it blocked
    code = """
import os, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from lagmesh.cli import main
print([main(["reproduce", "--table", str(k), "--check", "--out", os.devnull])
       for k in range(1, 6)])
"""
    assert _run_python(code).strip() == "[0, 0, 0, 0, 0]"


def _built(config):
    raise AssertionError("built or solved")


def _refused(row, monkeypatch, capsys):
    """Run a row of cli_refusals through main.  A configuration is refused
    before anything is built or solved."""
    if row.code == 1:
        monkeypatch.setattr(cli, "_rows", _built)

    def in_process(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    assert cli_refusals.failures([row], in_process) == []


def _refusal_test(rows):
    """The test that runs these rows, one case each, or the one row whose id
    names no case."""
    if "[" not in rows[0].id:
        def test(self, monkeypatch, capsys):
            _refused(rows[0], monkeypatch, capsys)

        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id.split("[", 1)[1][:-1] for row in rows])
    def test(self, row, monkeypatch, capsys):
        _refused(row, monkeypatch, capsys)

    return test


def _attach(rows):
    """Each row runs as the test its id names, ``Class::test[case]``, so a
    row keeps the tier-1 id of the check it replaced."""
    groups = {}
    for row in rows:
        groups.setdefault(row.id.split("[", 1)[0], []).append(row)
    for name, group in groups.items():
        cls, test = name.split("::")
        assert not hasattr(globals()[cls], test), name  # a written test keeps its name
        setattr(globals()[cls], test, _refusal_test(group))


_attach(cli_refusals.ROWS)
