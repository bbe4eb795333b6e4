"""Central potentials: built-in catalog and a small composable form.

A potential is a sum of terms ``c * r**p * exp(-a*r**2 - b*r)``, an optional
screened-Coulomb term ``(q/r) * erf(mu*r)``, and an optional Eckart well kept
in closed form.  The ``Z/r`` tail (``tail_Z``) and the analytic levels
(``exact_level``) are read from the terms; JSON ``tailZ`` is optional and
must match them.  All quantities are in the internal units ``hbar = M = 1``;
``energy_unit`` is the conversion factor back to the user's energy unit (MeV
for the alpha-alpha potential): it scales reported energies only, and JSON
``energyUnit`` carries it when it is not 1.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .specfun import _integer, _real

__all__ = ["PotentialSpec", "builtin", "evaluate", "exact_level"]

# hbar^2/M in MeV fm^2 for the alpha-alpha system
_ALPHA_ALPHA_UNIT = 20.736

_erf = np.vectorize(math.erf, otypes=[float])
_TINY = np.finfo(float).tiny
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


class _Invalid(ValueError):
    """A value that PotentialSpec rejects.  The message names the Python
    field (``field``); ``in_json`` is the same error under the name of the
    JSON field, which ``_spec`` reports instead."""

    def __init__(self, field, json_field, reason, json_reason=None):
        super().__init__(f"{field} {reason}")
        self.in_json = f"{json_field}: {json_reason or reason}"


def _finite(field, value, json_field=None):
    """``value`` as a float, or _Invalid naming the field if not finite."""
    value = _real(field, value)
    if not math.isfinite(value):
        raise _Invalid(field, json_field or field, f"must be finite (got {value!r})")
    return value


@dataclasses.dataclass(frozen=True)
class PotentialSpec:
    """Immutable description of a central potential.

    Attributes
    ----------
    label : str
    terms : tuple of (c, p, a, b)
        Each term contributes ``c * r**p * exp(-a*r**2 - b*r)``.
    coulomb_erf : (q, mu) or None
        Screened Coulomb term ``(q/r) * erf(mu*r)``.
    eckart : (b, c) or None
        Eckart well ``-4 b^2 beta e^{-2br} / (1 + beta e^{-2br})^2`` with
        ``beta = (b - c)/(b + c)``, kept in closed form.
    energy_unit : float
        Positive energy conversion factor for reporting.

    Every number must be finite; a NaN or infinite one raises ValueError
    naming its field.
    """

    label: str
    terms: tuple = ()
    coulomb_erf: tuple | None = None
    eckart: tuple | None = None
    energy_unit: float = 1.0

    def __post_init__(self):
        cleaned = []
        for i, term in enumerate(self.terms):
            where = f"terms[{i}]"
            c, p, a, b = (_finite(f"term {n}", v, f"{where}.{n}") for n, v in zip("cpab", term))
            if p <= -2.0:
                raise _Invalid("term p", f"{where}.p",
                               "must exceed -2 (less singular than 1/r^2)")
            if a < 0.0 or (a == 0.0 and b < 0.0):
                raise _Invalid("term", where, "must not grow exponentially")
            cleaned.append((c, p, a, b))
        object.__setattr__(self, "terms", tuple(cleaned))
        if self.coulomb_erf is not None:
            q, mu = (_finite(f"coulomb_erf {n}", v, f"coulombErf.{n}")
                     for n, v in zip(("q", "mu"), self.coulomb_erf))
            if mu <= 0.0:
                raise _Invalid("coulomb_erf mu", "coulombErf.mu", "must be positive",
                               f"must be positive (got {mu!r})")
            object.__setattr__(self, "coulomb_erf", (q, mu))
        if self.eckart is not None:
            b, c = (_finite(f"eckart {n}", v, f"eckart.{n}") for n, v in zip("bc", self.eckart))
            if b <= abs(c):
                raise _Invalid("Eckart well", "eckart", "requires b > |c|")
            object.__setattr__(self, "eckart", (b, c))
        unit = _finite("energy_unit", self.energy_unit, "energyUnit")
        if unit <= 0.0:
            raise _Invalid("energy_unit", "energyUnit", f"must be positive (got {unit!r})")
        object.__setattr__(self, "energy_unit", unit)

    @property
    def tail_Z(self):
        """Strength Z of the ``Z/r`` tail (0 for a neutral potential): the
        ``c`` of every pure ``c/r`` term plus the ``coulomb_erf`` charge."""
        q = self.coulomb_erf[0] if self.coulomb_erf is not None else 0.0
        return sum(c for c, p, a, b in self.terms if p == -1.0 and a == b == 0.0) + q


# At extreme r a power overflows to +-inf, which is its value, and a damping
# underflows to 0; a damped term whose product is not finite is formed again
# in logarithms, where it is 0 when the damping wins.
@np.errstate(over="ignore", invalid="ignore")
def evaluate(spec, r):
    """Potential values at radii ``r > 0``, elementwise: an array of the
    shape of ``r``, of length 1 for a scalar."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if (rr <= 0.0).any() or not np.isfinite(rr).all():
        raise ValueError("r must be positive and finite")
    total = np.zeros_like(rr)
    for c, p, a, b in spec.terms:
        term = c * rr**p
        if a != 0.0 or b != 0.0:
            term = term * np.exp(-a * rr**2 - b * rr)
            bad = ~np.isfinite(term)
            if bad.any():  # r**p overflowed: the damped term in logarithms
                x = rr[bad]
                term[bad] = c * np.exp(p * np.log(x) - x * (a * x + b))
        total += term
    if spec.coulomb_erf is not None:
        q, mu = spec.coulomb_erf
        x = mu * rr
        num = q * _erf(x)
        # where q erf(x) leaves the normal range x is tiny and erf(x)/x is
        # its limit 2/sqrt(pi)
        low = (np.abs(num) < _TINY) & (x < 1e-8)
        total += np.where(low, q * mu * _TWO_OVER_SQRT_PI, num / rr)
    if spec.eckart is not None:
        b, c = spec.eckart
        beta = (b - c) / (b + c)
        damp = np.exp(-2.0 * b * rr)
        total += -4.0 * b**2 * beta * damp / (1.0 + beta * damp) ** 2
    return total


def exact_level(V, angular, n=0, dimension=3):
    """Level ``n`` at angular number ``angular`` (l in 3D, m in 2D), or None:
    ``sqrt(2c) (2n + lam + 3/2)`` for a single pure ``c r^2`` term with
    c > 0 and ``-Z^2 / (2 (n + lam + 1)^2)`` for a single pure attractive
    ``Z/r`` term, whatever the label.  ``lam`` is l in 3D and m - 1/2 in 2D,
    where the radial equation is the 3D one at l = m - 1/2.
    """
    angular = _integer("angular", angular, nonnegative=True)
    n = _integer("n", n, nonnegative=True)
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3 (got {dimension!r})")
    level = _level_rule(V, angular, dimension)
    return None if level is None else level(n)


def _level_rule(V, angular, dimension):
    """``exact_level`` at a checked angular number and dimension, as a
    function of the checked level number, or None where V has no analytic
    levels: a spectrum's levels at the price of one lookup."""
    if len(V.terms) != 1 or V.coulomb_erf or V.eckart:
        return None
    c, p, a, b = V.terms[0]
    if a or b:
        return None
    lam = angular if dimension == 3 else angular - 0.5
    if p == 2.0 and c > 0.0:
        omega = math.sqrt(2.0 * c)
        return lambda n: omega * (2.0 * n + lam + 1.5)
    if p == -1.0 and c < 0.0:
        return lambda n: -0.5 * c * c / (n + lam + 1.0) ** 2
    return None


# name -> (its parameters with their defaults, in the order they are
# checked; the spec they give)
_BUILTINS = {
    "harmonic": ({}, lambda: PotentialSpec(label="harmonic", terms=((0.5, 2.0, 0.0, 0.0),))),
    "coulomb": ({"Z": -1.0},
                lambda Z: PotentialSpec(label="coulomb", terms=((Z, -1.0, 0.0, 0.0),))),
    "eckart": ({"b": 2.0, "c": -1.0},
               lambda b, c: PotentialSpec(label=f"eckart(b={b:g},c={c:g})", eckart=(b, c))),
    "buck_alpha_alpha": ({}, lambda: PotentialSpec(
        label="buck_alpha_alpha",
        terms=((-122.6225 / _ALPHA_ALPHA_UNIT, 0.0, 0.22, 0.0),),
        coulomb_erf=(4.0 * 1.44 / _ALPHA_ALPHA_UNIT, 0.75),
        energy_unit=_ALPHA_ALPHA_UNIT)),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name, **params):
    """Construct one of the catalogued potentials.

    Parameters
    ----------
    name : str
        One of ``harmonic``, ``coulomb``, ``eckart``, ``buck_alpha_alpha``.
    **params
        ``Z`` for coulomb (default -1); ``b``, ``c`` for eckart
        (default 2, -1).
    """
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ValueError(f"unknown potential: {name!r}")
    defaults, make = _BUILTINS[name]
    values = {key: _finite(key, params.pop(key, value)) for key, value in defaults.items()}
    if params:
        raise ValueError(f"unknown parameters: {sorted(params)}")
    return make(**values)


def _json_doc(spec):
    """The JSON form of a spec as a fresh dict, its keys (at every level)
    already in sorted order; ``energyUnit`` only when it is not 1."""
    doc = {}
    if spec.coulomb_erf is not None:
        doc["coulombErf"] = {"mu": spec.coulomb_erf[1], "q": spec.coulomb_erf[0]}
    if spec.eckart is not None:
        doc["eckart"] = {"b": spec.eckart[0], "c": spec.eckart[1]}
    if spec.energy_unit != 1.0:
        doc["energyUnit"] = spec.energy_unit
    doc["label"] = spec.label
    doc["tailZ"] = spec.tail_Z
    doc["terms"] = [{"a": a, "b": b, "c": c, "p": p} for c, p, a, b in spec.terms]
    return doc


def _numbers(obj, where, names, defaults=None):
    """The fields ``names`` of the JSON object ``obj`` (``where`` in the
    spec, empty at the top level) as floats; a missing field, or one that is
    not a JSON number or beyond double range, raises ValueError naming it,
    and so does a field of a nested object that is not one of ``names``.
    PotentialSpec checks their values."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: must be a JSON object")
    if where:  # the top level holds more fields: _spec checks its keys
        _known(obj, f"{where}.", names)
    defaults = defaults or {}
    values = []
    for name in names:
        field = f"{where}.{name}" if where else name
        if name not in obj and name not in defaults:
            raise ValueError(f"{field}: missing")
        value = obj.get(name, defaults.get(name))
        if type(value) not in (int, float):  # JSON true is no number
            raise ValueError(f"{field}: must be a number")
        try:
            values.append(float(value))
        except OverflowError:
            raise ValueError(f"{field}: must be within double range") from None
    return tuple(values)


def _known(obj, prefix, names):
    """ValueError naming ``prefix`` and the first key of ``obj`` that is not
    one of ``names``."""
    for key in obj:
        if key not in set(names):  # names may be a string of one-letter names
            raise ValueError(f"{prefix}{key}: unknown field")


def _json_object(text, name):
    """The JSON object that ``text`` holds: the one reader of every JSON
    document the program takes.  Malformed text and a key repeated in any
    object raise ValueError as ``name: invalid JSON (...)``, naming the key,
    and a document that is no object as ``name: must be a JSON object``."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as e:  # also an int literal past Python's digit limit
        raise ValueError(f"{name}: invalid JSON ({e})") from None
    if type(doc) is not dict:
        raise ValueError(f"{name}: must be a JSON object")
    return doc


def _unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _spec(doc):
    """The spec of the JSON object ``doc``, the form a report echoes under
    ``config.potential``; a field it does not know, or a malformed one, at
    any level, raises ValueError naming the JSON field."""
    _known(doc, "", ("label", "terms", "coulombErf", "eckart", "energyUnit", "tailZ"))
    terms = doc.get("terms", [])
    if type(terms) is not list:
        raise ValueError("terms: must be a list")
    label = doc.get("label", "user")
    if type(label) is not str:
        raise ValueError("label: must be a string")
    try:  # a rule of PotentialSpec, broken: named by the JSON field
        spec = PotentialSpec(
            label=label,
            terms=tuple(_numbers(t, f"terms[{i}]", "cpab", {"a": 0.0, "b": 0.0})
                        for i, t in enumerate(terms)),
            coulomb_erf=_numbers(doc["coulombErf"], "coulombErf", ["q", "mu"])
            if "coulombErf" in doc else None,
            eckart=_numbers(doc["eckart"], "eckart", "bc") if "eckart" in doc else None,
            energy_unit=_numbers(doc, "", ["energyUnit"], {"energyUnit": 1.0})[0],
        )
        if "tailZ" in doc:  # echoed by every report: checked, never used
            Z = _finite("tailZ", _numbers(doc, "", ["tailZ"])[0])
            if abs(Z - spec.tail_Z) > 1e-12 * max(1.0, abs(spec.tail_Z)):
                raise ValueError(
                    f"tailZ: {Z!r} differs from the tail {spec.tail_Z!r} of the terms")
    except _Invalid as e:
        raise ValueError(e.in_json) from None
    return spec
