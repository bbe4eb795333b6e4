"""The traced benchmark wraps lagmesh functions by (module, attribute); a
refactor that renames or removes one would silently blind that layer,
since the span recorder reports a missing boundary as absent."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


BOUNDARIES = _boundaries()


def test_boundaries_are_listed():
    assert len(BOUNDARIES) >= 10


@pytest.mark.parametrize("module_name, attr", [(b[0], b[1]) for b in BOUNDARIES],
                         ids=[f"{b[0]}.{b[1]}" for b in BOUNDARIES])
def test_boundary_resolves_to_a_callable(module_name, attr):
    assert module_name.startswith("lagmesh.")
    assert callable(getattr(importlib.import_module(module_name), attr, None))
