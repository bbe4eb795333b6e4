"""The traced benchmark wraps lagmesh functions by (module, attribute); a
refactor that renames or removes one would silently blind that layer,
since the span recorder reports a missing boundary as absent.  The
benchmark also keeps its own copy of each scheme's mesh, which must not
drift from ``matelem.SCHEMES``, and calls the library with the names,
signatures and return types that its first operations exercise here."""

import importlib
import importlib.util
import pathlib
import random

import pytest

from lagmesh import Family, HamiltonianVariant, cli, matelem

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """A module of ``bench/`` loaded from its file, without touching it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _load("spans").BOUNDARIES
WORKLOADS = _load("workloads")


def test_boundaries_are_listed():
    assert len(BOUNDARIES) >= 10


@pytest.mark.parametrize("module_name, attr", [(b[0], b[1]) for b in BOUNDARIES],
                         ids=[f"{b[0]}.{b[1]}" for b in BOUNDARIES])
def test_boundary_resolves_to_a_callable(module_name, attr):
    assert module_name.startswith("lagmesh.")
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def _check_bench_schemes(dimension, bench):
    # bench: alias -> (HamiltonianVariant name, family name, alpha)
    assert bench.keys() == {a for d, a in cli._VARIANTS if d == dimension}
    for alias, (name, family, alpha) in bench.items():
        scheme = cli._VARIANTS[dimension, alias]
        assert scheme.name == name
        assert matelem.SCHEMES[scheme][:2] == (Family[family], alpha)
        assert matelem.SCHEMES[scheme][3] == dimension


def test_bench_3d_schemes_match_the_scheme_table():
    _check_bench_schemes(3, WORKLOADS.SCHEMES_3D)


def test_bench_2d_schemes_match_the_scheme_table():
    # alias -> HamiltonianVariant name; the benchmark builds both on RegSqrt, alpha 0
    _check_bench_schemes(2, {alias: (name, "RegSqrt", 0.0)
                             for alias, name in WORKLOADS.SCHEMES_2D.items()})


def test_bench_phase_meshes_match_the_scheme_table():
    # family name -> (HamiltonianVariant name, alpha)
    for family, (name, alpha) in WORKLOADS._REG_MESHES.items():
        scheme = HamiltonianVariant[name]
        assert scheme in cli._VARIANTS.values() and matelem.SCHEMES[scheme][3] == 3
        assert matelem.SCHEMES[scheme][:2] == (Family[family], alpha)


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_first_operations_of_each_workload_run(workload):
    # seed 1, as the benchmark's child runs it; an operation raises
    # WrongResult or the library's own error when it fails
    sweep = next(WORKLOADS.WORKLOADS[workload](random.Random(1)))
    for operation in sweep[:3]:
        operation()
