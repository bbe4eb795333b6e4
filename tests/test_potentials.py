"""Tests for potential definitions, evaluation, and serialization."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from lagmesh.potentials import (
    PotentialSpec,
    _json_doc,
    _json_object,
    _spec,
    builtin,
    evaluate,
    exact_level,
)


def to_text(V):
    """A spec's JSON text, as a report echoes it under ``config.potential``."""
    return json.dumps(_json_doc(V))


def from_text(text):
    """The spec of a JSON text, read as the CLI reads a spec, with the
    document named ``spec``."""
    return _spec(_json_object(text, "spec"))


class TestBuiltins:
    def test_harmonic_value(self):
        V = builtin("harmonic")
        assert evaluate(V, 2.0) == 2.0
        assert V.tail_Z == 0.0

    def test_coulomb_default_charge(self):
        V = builtin("coulomb")
        assert evaluate(V, 4.0) == -0.25
        assert V.tail_Z == -1.0

    def test_coulomb_custom_charge(self):
        V = builtin("coulomb", Z=2.0)
        assert evaluate(V, 4.0) == 0.5
        assert V.tail_Z == 2.0

    def test_eckart_origin_depth(self):
        V = builtin("eckart")
        assert evaluate(V, 1e-12) == pytest.approx(-3.0, rel=1e-9)

    def test_eckart_reference_value(self):
        # frozen 30-digit evaluation at r=1.3, b=2, c=-1
        V = builtin("eckart")
        assert evaluate(V, 1.3) == pytest.approx(-0.25624340943444156, rel=1e-14)

    def test_alpha_alpha_reference_value(self):
        # frozen 30-digit evaluation at r=2 (units of the inverse mass factor)
        V = builtin("buck_alpha_alpha")
        assert evaluate(V, 2.0) == pytest.approx(-2.31864075838280364, rel=1e-13)
        assert V.energy_unit == pytest.approx(20.736)
        assert V.tail_Z == pytest.approx(4 * 1.44 / 20.736)

    def test_alpha_alpha_tail_is_screened_coulomb(self):
        # erf saturates: beyond the nuclear interior the potential is Z/r
        V = builtin("buck_alpha_alpha")
        r = 12.0
        assert evaluate(V, r) == pytest.approx(V.tail_Z / r, rel=1e-14)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="^unknown name 'yukawa'; builtins are "):
            builtin("yukawa")

    @pytest.mark.parametrize("name", [3, None, ["harmonic"], b"harmonic"])
    def test_name_that_is_no_string_is_unknown(self, name):
        with pytest.raises(ValueError, match=f"^{re.escape(f'unknown name {name!r}; ')}"):
            builtin(name)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            builtin("harmonic", omega=2.0)

    def test_names_are_the_catalogue(self):
        # a misspelt name is refused naming every builtin, each of which builds
        names = "harmonic, coulomb, eckart, buck_alpha_alpha"
        with pytest.raises(ValueError, match=f"^unknown name 'colomb'; builtins are {names}$"):
            builtin("colomb")
        assert all(isinstance(builtin(name), PotentialSpec) for name in names.split(", "))

    @pytest.mark.parametrize("name, params, spec", [
        ("harmonic", {}, ("harmonic", ((0.5, 2.0, 0.0, 0.0),), None, None, 1.0)),
        ("coulomb", {}, ("coulomb", ((-1.0, -1.0, 0.0, 0.0),), None, None, 1.0)),
        ("coulomb", {"Z": 3}, ("coulomb", ((3.0, -1.0, 0.0, 0.0),), None, None, 1.0)),
        ("eckart", {}, ("eckart(b=2,c=-1)", (), None, (2.0, -1.0), 1.0)),
        ("eckart", {"c": 0.25}, ("eckart(b=2,c=0.25)", (), None, (2.0, 0.25), 1.0)),
        ("eckart", {"b": 3, "c": 1.5}, ("eckart(b=3,c=1.5)", (), None, (3.0, 1.5), 1.0)),
        ("buck_alpha_alpha", {}, ("buck_alpha_alpha", ((-122.6225 / 20.736, 0.0, 0.22, 0.0),),
                                  (4.0 * 1.44 / 20.736, 0.75), None, 20.736)),
    ])
    def test_spec_at_defaults_and_given_parameters(self, name, params, spec):
        V = builtin(name, **params)
        assert (V.label, V.terms, V.coulomb_erf, V.eckart, V.energy_unit) == spec

    @pytest.mark.parametrize("name, params, message", [
        ("harmonic", {"Z": 1.0}, "unknown parameters: ['Z']"),
        ("coulomb", {"Q": 1.0, "Z": 2.0}, "unknown parameters: ['Q']"),
        ("eckart", {"d": 1.0, "a": 2.0}, "unknown parameters: ['a', 'd']"),
        ("buck_alpha_alpha", {"Z": 1.0}, "unknown parameters: ['Z']"),
        # a bad value is named before an unknown key, in the catalogue's order
        ("coulomb", {"Z": "x", "Q": 1.0}, "Z must be a number (got 'x')"),
        ("eckart", {"c": "y", "b": "x", "d": 1.0}, "b must be a number (got 'x')"),
        ("eckart", {"c": "y", "d": 1.0}, "c must be a number (got 'y')"),
    ])
    def test_first_failing_check_is_reported(self, name, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            builtin(name, **params)


class TestEvaluate:
    def test_scalar_and_array_agree(self):
        V = builtin("eckart")
        rr = np.array([0.3, 1.0, 2.6])
        arr = evaluate(V, rr)
        for k, r in enumerate(rr):
            assert evaluate(V, float(r)) == arr[k]
        # elementwise at any shape
        assert np.array_equal(evaluate(V, rr[:, None]), arr[:, None])

    def test_nonpositive_radius_rejected(self):
        V = builtin("harmonic")
        with pytest.raises(ValueError):
            evaluate(V, 0.0)
        with pytest.raises(ValueError):
            evaluate(V, np.array([1.0, -2.0]))

    def test_general_term_shape(self):
        # c * r^p * exp(-a r^2 - b r)
        V = PotentialSpec("custom", terms=((1.5, 1.0, 0.25, 0.5),))
        r = 1.7
        assert evaluate(V, r) == pytest.approx(1.5 * r * math.exp(-0.25 * r**2 - 0.5 * r))

    def test_pure_power_at_large_radius(self):
        # r**2 overflows here, but a pure power term never reads it
        assert evaluate(builtin("coulomb"), 1e160) == -1e-160
        assert evaluate(PotentialSpec("cube", terms=((1.0, 1.0, 0.0, 0.0),)), 1e200) == 1e200

    @given(
        b=st.floats(0.2, 50.0),
        ratio=st.floats(-0.95, 0.95),
        r=st.floats(1e-6, 8.0),
    )
    def test_eckart_bounded_below_by_square_depth(self, b, ratio, r):
        # -4 b^2 beta x/(1+beta x)^2 with x = exp(-2 b r) has minimum -b^2
        V = builtin("eckart", b=b, c=ratio * b)
        assert evaluate(V, r) >= -(b**2) * (1 + 1e-12)

    @given(b=st.floats(0.2, 20.0), ratio=st.floats(-0.9, 0.9))
    def test_eckart_depth_at_origin(self, b, ratio):
        c = ratio * b
        beta = (b - c) / (b + c)
        V = builtin("eckart", b=b, c=c)
        want = -4 * b**2 * beta / (1 + beta) ** 2
        assert evaluate(V, 1e-13) == pytest.approx(want, rel=1e-8)


class TestCoulombTail:
    # scattering subtracts the tail as tail_Z / r
    def test_tail_values(self):
        V = builtin("coulomb", Z=-2.0)
        assert V.tail_Z / 4.0 == -0.5

    def test_tail_is_read_from_the_terms(self):
        # pure c/r terms and the erf charge count; damped 1/r and other powers do not
        V = PotentialSpec("v", terms=((-1.0, -1.0, 0.0, 0.0), (3.0, -1.0, 0.0, 0.0),
                                      (5.0, -1.0, 1.0, 0.0), (7.0, 0.0, 0.0, 0.0)),
                          coulomb_erf=(0.5, 1.0))
        assert V.tail_Z == 2.5
        assert PotentialSpec("v", eckart=(2.0, -1.0)).tail_Z == 0.0

    def test_tail_is_not_settable(self):
        with pytest.raises(TypeError):
            PotentialSpec("v", tail_Z=-1.0)
        with pytest.raises(AttributeError):
            builtin("coulomb").tail_Z = 0.0

    def test_json_tail_is_optional_and_checked(self):
        assert from_text('{"terms": [{"c": -1, "p": -1}]}').tail_Z == -1.0
        assert from_text('{"terms": [{"c": -1, "p": -1}], "tailZ": -1}').tail_Z == -1.0
        with pytest.raises(ValueError, match=r"^tailZ: 0\.0 differs"):
            from_text('{"terms": [{"c": -1, "p": -1}], "tailZ": 0}')

    @pytest.mark.parametrize("name", ["coulomb", "eckart", "buck_alpha_alpha"])
    def test_potential_approaches_tail(self, name):
        # r^2 [V(r) - Z/r] -> 0 for every non-confining builtin
        V = builtin(name)
        r = 40.0
        assert r**2 * abs(evaluate(V, r) - V.tail_Z / r) < 1e-10


class TestExactLevel:
    @pytest.mark.parametrize("n, l", [(0, 0), (2, 1), (1, 5)])
    def test_oscillator_and_coulomb_levels(self, n, l):
        oscillator = PotentialSpec("any", terms=((2.0, 2.0, 0.0, 0.0),))
        assert exact_level(oscillator, l, n) == 2.0 * (2 * n + l + 1.5)
        assert exact_level(builtin("coulomb", Z=-3.0), l, n) == -4.5 / (n + l + 1) ** 2

    def test_two_dimensions_is_three_at_half_integer_l(self):
        # E = 2n + m + 1 and -1/(2 (n + m + 1/2)^2)
        assert exact_level(builtin("harmonic"), 1, 2, dimension=2) == 6.0
        assert exact_level(builtin("coulomb"), 1, 0, dimension=2) == -2.0 / 9.0

    def test_eckart_well_has_one_level(self):
        # the pole of its s-wave S-matrix at k = -ic, for c < 0, in 3D only
        V = builtin("eckart")
        assert exact_level(V, 0) == -0.5
        assert exact_level(builtin("eckart", b=1.5, c=-1.2), 0) == -0.72
        assert exact_level(V, 0, 1) is None
        assert exact_level(V, 1) is None
        assert exact_level(V, 0, dimension=2) is None

    @pytest.mark.parametrize("V", [
        builtin("coulomb", Z=1.0),
        builtin("eckart", c=1.0),
        builtin("eckart", c=0.0),
        PotentialSpec("v", terms=((-1.0, -1.0, 0.0, 0.0),), eckart=(2.0, -1.0)),
        PotentialSpec("v", coulomb_erf=(1.0, 1.0), eckart=(2.0, -1.0)),
        builtin("buck_alpha_alpha"),
        PotentialSpec("v", terms=((-0.5, 2.0, 0.0, 0.0),)),
        PotentialSpec("v", terms=((0.5, 2.0, 0.1, 0.0),)),
        PotentialSpec("v", terms=((0.5, 2.0, 0.0, 0.0), (-1.0, -1.0, 0.0, 0.0))),
        PotentialSpec("v", terms=((-1.0, 1.0, 0.0, 0.0),)),
    ], ids=["repulsive", "eckart", "eckart-c-0", "eckart-and-coulomb", "eckart-and-erf", "buck",
            "inverted", "damped", "two-terms", "linear"])
    def test_other_potentials_have_none(self, V):
        assert exact_level(V, 0) is None


class TestValidation:
    def test_too_singular_term_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            PotentialSpec("bad", terms=((1.0, -2.0, 0.0, 0.0),))

    def test_growing_exponential_rejected(self):
        with pytest.raises(ValueError, match="grow"):
            PotentialSpec("bad", terms=((1.0, 0.0, 0.0, -1.0),))
        with pytest.raises(ValueError):
            PotentialSpec("bad", terms=((1.0, 0.0, -0.1, 0.0),))

    def test_erf_range_parameter_positive(self):
        with pytest.raises(ValueError, match="mu"):
            PotentialSpec("bad", coulomb_erf=(1.0, 0.0))

    def test_eckart_parameters_ordered(self):
        with pytest.raises(ValueError, match="b"):
            PotentialSpec("bad", eckart=(1.0, 2.0))
        with pytest.raises(ValueError):
            builtin("eckart", b=1.0, c=-1.5)


class TestNonFiniteParameters:
    """NaN or infinite numbers raise ValueError naming the field, on every
    construction path."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, make", [
        ("term c", lambda x: PotentialSpec("v", terms=((x, -1.0, 0.0, 0.0),))),
        ("term p", lambda x: PotentialSpec("v", terms=((1.0, x, 0.0, 0.0),))),
        ("term a", lambda x: PotentialSpec("v", terms=((1.0, 0.0, x, 0.0),))),
        ("term b", lambda x: PotentialSpec("v", terms=((1.0, 0.0, 1.0, x),))),
        ("coulomb_erf q", lambda x: PotentialSpec("v", coulomb_erf=(x, 0.75))),
        ("coulomb_erf mu", lambda x: PotentialSpec("v", coulomb_erf=(1.0, x))),
        ("eckart b", lambda x: PotentialSpec("v", eckart=(x, -1.0))),
        ("eckart c", lambda x: PotentialSpec("v", eckart=(2.0, x))),
        ("energy_unit", lambda x: PotentialSpec("v", energy_unit=x)),
    ])
    def test_spec_names_the_field(self, field, make, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make(bad)

    @pytest.mark.parametrize("name, params, field", [
        ("coulomb", {"Z": math.nan}, "Z"),
        ("coulomb", {"Z": math.inf}, "Z"),
        ("eckart", {"b": math.inf}, "b"),
        ("eckart", {"c": math.nan}, "c"),
    ])
    def test_builtin_names_the_field(self, name, params, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            builtin(name, **params)

    @pytest.mark.parametrize("name, params, message", [
        ("coulomb", {"Z": 10**400}, "Z must be within double range"),
        ("coulomb", {"Z": "x"}, "Z must be a number (got 'x')"),
        ("eckart", {"b": -10**400}, "b must be within double range"),
        ("eckart", {"c": None}, "c must be a number (got None)"),
    ])
    def test_builtin_names_a_parameter_no_double_holds(self, name, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            builtin(name, **params)

    @pytest.mark.parametrize("text, field", [
        ('{"terms": [{"c": NaN, "p": -1}]}', "terms[0].c"),
        ('{"terms": [{"c": 1, "p": Infinity}]}', "terms[0].p"),
        ('{"terms": [{"c": 1, "p": 0, "a": NaN}]}', "terms[0].a"),
        ('{"terms": [{"c": 1, "p": 0, "a": 1, "b": -Infinity}]}', "terms[0].b"),
        ('{"coulombErf": {"q": NaN, "mu": 1}}', "coulombErf.q"),
        ('{"coulombErf": {"q": 1, "mu": Infinity}}', "coulombErf.mu"),
        ('{"tailZ": Infinity}', "tailZ"),
        ('{"eckart": {"b": Infinity, "c": -1}}', "eckart.b"),
        ('{"eckart": {"b": 2, "c": NaN}}', "eckart.c"),
    ])
    def test_json_names_the_field(self, text, field):
        # under its JSON name, as the shape errors do
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}: must be finite"):
            from_text(text)

    @pytest.mark.parametrize("text, message", [
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
        ('{"eckart": {"b": 1, "c": 2}}', "eckart: requires b > |c|"),
    ])
    def test_json_value_errors_name_the_json_field(self, text, message):
        # as the shape errors do; the Python constructor keeps its own names
        with pytest.raises(ValueError) as err:
            from_text(text)
        assert str(err.value) == message
        with pytest.raises(ValueError, match="^energy_unit must be positive"):
            PotentialSpec("v", energy_unit=0.0)
        with pytest.raises(ValueError, match="^coulomb_erf mu must be positive"):
            PotentialSpec("v", coulomb_erf=(1.0, -1.0))
        with pytest.raises(ValueError, match=r"^term p must exceed -2 \(less"):
            PotentialSpec("v", terms=((1.0, -3.0, 0.0, 0.0),))
        with pytest.raises(ValueError, match="^term must not grow exponentially$"):
            PotentialSpec("v", terms=((1.0, 0.0, 0.0, -1.0),))
        with pytest.raises(ValueError, match=r"^Eckart well requires b > \|c\|$"):
            PotentialSpec("v", eckart=(1.0, 2.0))


class TestSerialization:
    @pytest.mark.parametrize("name", ["harmonic", "coulomb", "eckart", "buck_alpha_alpha"])
    def test_round_trip_preserves_values(self, name):
        V = builtin(name)
        W = from_text(to_text(V))
        rr = np.array([0.4, 1.1, 3.0, 9.5])
        assert np.array_equal(evaluate(V, rr), evaluate(W, rr))
        assert W.label == V.label
        assert W.tail_Z == V.tail_Z

    def test_energy_unit_serialized_when_not_one(self):
        V = builtin("buck_alpha_alpha")
        assert _json_doc(V)["energyUnit"] == V.energy_unit
        assert from_text(to_text(V)).energy_unit == V.energy_unit
        assert "energyUnit" not in _json_doc(builtin("coulomb"))

    @pytest.mark.parametrize("text, field", [
        ('{"terms": [1]}', "terms[0]"),
        ('{"terms": [{"c": 1.0}]}', "terms[0].p"),
        ('{"terms": [{"c": "deep", "p": 0}]}', "terms[0].c"),
        ('{"terms": [{"c": -1.0, "p": true}]}', "terms[0].p"),
        ('{"terms": {"c": 1.0, "p": 0}}', "terms"),
        ('{"coulombErf": {"q": 1}}', "coulombErf.mu"),
        ('{"eckart": [2, -1]}', "eckart"),
        ('{"tailZ": "one"}', "tailZ"),
        ('{"label": 7}', "label"),
        ('{"energyUnit": "MeV"}', "energyUnit"),
        ('[1]', "spec"),
    ])
    def test_malformed_spec_names_the_field(self, text, field):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}: "):
            from_text(text)

    @pytest.mark.parametrize("text, key", [
        ('{"label": "a", "label": "b"}', "label"),
        ('{"terms": [{"c": -1, "c": 2, "p": -1}]}', "c"),
        ('{"eckart": {"b": 2, "c": -1, "b": 3}}', "b"),
    ])
    def test_repeated_key_is_named_at_every_level(self, text, key):
        # json.loads alone keeps the last value
        with pytest.raises(ValueError, match=rf"^spec: invalid JSON \(repeated key '{key}'\)$"):
            from_text(text)

    @pytest.mark.parametrize("text, field", [
        # "alpha" for "a" would otherwise run an undamped constant
        ('{"terms": [{"c": -1, "p": -1}, {"c": 0.2, "p": 0, "alpha": 0.5}]}', "terms[1].alpha"),
        ('{"terms": [{"c": -1, "p": -1, "ab": 1}]}', "terms[0].ab"),
        ('{"coulombErf": {"q": 1, "mu": 1, "x": 2}}', "coulombErf.x"),
        ('{"eckart": {"b": 2, "c": -1, "d": 0}}', "eckart.d"),
        ('{"terms": [], "tail": -1}', "tail"),
        ('{"energyUnit": 2, "Label": "x"}', "Label"),
    ])
    def test_unknown_field_is_named_at_every_level(self, text, field):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}: unknown field$"):
            from_text(text)

    @pytest.mark.parametrize("V", [
        *(builtin(name) for name in ("harmonic", "coulomb", "eckart", "buck_alpha_alpha")),
        builtin("coulomb", Z=-0.0),
        PotentialSpec("mixed", terms=((-0.0, 1.0, 0.5, 0.0), (2.0, -1.0, 0.0, 0.0)),
                      coulomb_erf=(-3.0, 0.7), energy_unit=0.25),
    ])
    def test_json_doc_is_the_parsed_text_in_key_order(self, V):
        # the report echo writes this dict as it stands: its keys are in
        # sorted order at every level, and it survives its own JSON text
        doc = _json_doc(V)
        assert json.dumps(doc) == json.dumps(doc, sort_keys=True)
        assert repr(doc) == repr(json.loads(json.dumps(doc)))

    def test_json_is_plain_object(self):
        doc = json.loads(to_text(builtin("eckart")))
        assert doc["label"].startswith("eckart")
        assert "eckart" in doc
