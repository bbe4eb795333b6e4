"""Central potentials: built-in catalog and a small composable form.

A potential is a sum of terms ``c * r**p * exp(-a*r**2 - b*r)``, an optional
screened-Coulomb term ``(q/r) * erf(mu*r)``, and an optional Eckart well kept
in closed form.  ``tail_Z`` records the Coulomb strength of the ``Z/r`` tail
for scattering.  All quantities are in the internal units ``hbar = M = 1``;
``energy_unit`` is the conversion factor back to the user's energy unit (MeV
for the alpha-alpha potential) and is metadata only.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

__all__ = ["PotentialSpec", "builtin", "evaluate", "from_json", "to_json"]

# hbar^2/M in MeV fm^2 for the alpha-alpha system
_ALPHA_ALPHA_UNIT = 20.736

_erf = np.vectorize(math.erf, otypes=[float])


def _finite(field, value):
    """``value`` as a float, or ValueError naming ``field`` if not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{field} must be finite (got {value!r})")
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
    tail_Z : float
        Strength of the ``Z/r`` tail (0 for a neutral potential).
    eckart : (b, c) or None
        Eckart well ``-4 b^2 beta e^{-2br} / (1 + beta e^{-2br})^2`` with
        ``beta = (b - c)/(b + c)``, kept in closed form.
    energy_unit : float
        Energy conversion factor for reporting; not serialized.

    Every number must be finite; a NaN or infinite one raises ValueError
    naming its field.
    """

    label: str
    terms: tuple = ()
    coulomb_erf: tuple | None = None
    tail_Z: float = 0.0
    eckart: tuple | None = None
    energy_unit: float = 1.0

    def __post_init__(self):
        cleaned = []
        for term in self.terms:
            c, p, a, b = (_finite(f"term {n}", v) for n, v in zip("cpab", term))
            if p <= -2.0:
                raise ValueError("term power must exceed -2 (less singular than 1/r^2)")
            if a < 0.0 or (a == 0.0 and b < 0.0):
                raise ValueError("term must not grow exponentially")
            cleaned.append((c, p, a, b))
        object.__setattr__(self, "terms", tuple(cleaned))
        if self.coulomb_erf is not None:
            q, mu = (_finite(f"coulomb_erf {n}", v) for n, v in zip(("q", "mu"), self.coulomb_erf))
            if mu <= 0.0:
                raise ValueError("erf range parameter must be positive")
            object.__setattr__(self, "coulomb_erf", (q, mu))
        object.__setattr__(self, "tail_Z", _finite("tail_Z", self.tail_Z))
        if self.eckart is not None:
            b, c = (_finite(f"eckart {n}", v) for n, v in zip("bc", self.eckart))
            if b <= abs(c):
                raise ValueError("Eckart well requires b > |c|")
            object.__setattr__(self, "eckart", (b, c))
        object.__setattr__(self, "energy_unit", _finite("energy_unit", self.energy_unit))


def evaluate(spec, r):
    """Potential value at radius ``r > 0`` (scalar or array)."""
    rs = np.asarray(r, dtype=float)
    scalar = rs.ndim == 0
    rr = np.atleast_1d(rs)
    if np.any(rr <= 0.0) or not np.all(np.isfinite(rr)):
        raise ValueError("r must be positive and finite")
    total = np.zeros_like(rr)
    for c, p, a, b in spec.terms:
        term = c * rr**p
        if a != 0.0 or b != 0.0:
            # skipped for a pure power, where rr**2 could overflow to 0 * inf
            term = term * np.exp(-a * rr**2 - b * rr)
        total += term
    if spec.coulomb_erf is not None:
        q, mu = spec.coulomb_erf
        total += q * _erf(mu * rr) / rr
    if spec.eckart is not None:
        b, c = spec.eckart
        beta = (b - c) / (b + c)
        damp = np.exp(-2.0 * b * rr)
        total += -4.0 * b**2 * beta * damp / (1.0 + beta * damp) ** 2
    if scalar:
        return float(total[0])
    return total.reshape(rs.shape)


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
    if name == "harmonic":
        if params:
            raise ValueError(f"unknown parameters: {sorted(params)}")
        return PotentialSpec(label="harmonic", terms=((0.5, 2.0, 0.0, 0.0),))
    if name == "coulomb":
        Z = float(params.pop("Z", -1.0))
        if params:
            raise ValueError(f"unknown parameters: {sorted(params)}")
        return PotentialSpec(label="coulomb", terms=((Z, -1.0, 0.0, 0.0),), tail_Z=Z)
    if name == "eckart":
        b = float(params.pop("b", 2.0))
        c = float(params.pop("c", -1.0))
        if params:
            raise ValueError(f"unknown parameters: {sorted(params)}")
        return PotentialSpec(label=f"eckart(b={b:g},c={c:g})", eckart=(b, c))
    if name == "buck_alpha_alpha":
        if params:
            raise ValueError(f"unknown parameters: {sorted(params)}")
        u = _ALPHA_ALPHA_UNIT
        return PotentialSpec(
            label="buck_alpha_alpha",
            terms=((-122.6225 / u, 0.0, 0.22, 0.0),),
            coulomb_erf=(4.0 * 1.44 / u, 0.75),
            tail_Z=4.0 * 1.44 / u,
            energy_unit=u,
        )
    raise ValueError(f"unknown potential: {name!r}")


def to_json(spec):
    """Serialize a spec to the JSON form (energy_unit is metadata, omitted)."""
    doc = {"label": spec.label, "terms": [
        {"c": c, "p": p, "a": a, "b": b} for c, p, a, b in spec.terms
    ], "tailZ": spec.tail_Z}
    if spec.coulomb_erf is not None:
        doc["coulombErf"] = {"q": spec.coulomb_erf[0], "mu": spec.coulomb_erf[1]}
    if spec.eckart is not None:
        doc["eckart"] = {"b": spec.eckart[0], "c": spec.eckart[1]}
    return json.dumps(doc, indent=2, sort_keys=True)


def _numbers(obj, where, names, defaults=None):
    """The fields ``names`` of the JSON object ``obj`` (``where`` in the
    spec, empty at the top level) as floats; a missing field, or one that is
    not a JSON number, raises ValueError naming it."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: must be a JSON object")
    defaults = defaults or {}
    values = []
    for name in names:
        field = f"{where}.{name}" if where else name
        if name not in obj and name not in defaults:
            raise ValueError(f"{field}: missing")
        value = obj.get(name, defaults.get(name))
        if type(value) not in (int, float):  # JSON true is no number
            raise ValueError(f"{field}: must be a number")
        values.append(float(value))
    return tuple(values)


def from_json(text):
    """Parse the JSON form produced by ``to_json``.

    A malformed spec raises ValueError naming the offending field.
    """
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("spec: must be a JSON object")
    terms = doc.get("terms", [])
    if type(terms) is not list:
        raise ValueError("terms: must be a list")
    label = doc.get("label", "user")
    if type(label) is not str:
        raise ValueError("label: must be a string")
    (tail_Z,) = _numbers(doc, "", ["tailZ"], {"tailZ": 0.0})
    return PotentialSpec(
        label=label,
        terms=tuple(_numbers(t, f"terms[{i}]", "cpab", {"a": 0.0, "b": 0.0})
                    for i, t in enumerate(terms)),
        coulomb_erf=_numbers(doc["coulombErf"], "coulombErf", ["q", "mu"])
        if "coulombErf" in doc else None,
        tail_Z=tail_Z,
        eckart=_numbers(doc["eckart"], "eckart", "bc") if "eckart" in doc else None,
    )
