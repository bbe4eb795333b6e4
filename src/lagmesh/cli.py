"""Command-line runner for bound states, phase shifts, and benchmarks.

Subcommands
-----------
bound       spectrum of one mesh/scheme configuration
scatter     phase shifts of every pseudostate at a fixed gamma
gamma-scan  plateau search: recommended gamma per pseudostate
sweep       rerun a bound or scattering configuration over N, h, or gamma
reproduce   rebuild one of the bundled benchmark tables

``run`` and ``sweep`` return a report as the dict that the JSON format
writes: ``schema`` (1), ``mode``, ``config`` (the configuration echoed),
``provenance`` (the config hash and build id), ``rows`` and, in reproduce
mode, ``checks``.  It is written as CSV (floats to 6 significant digits;
relative errors of the bound-state benchmark tables in the compact a[-b]
notation) or JSON (floats to 15 significant digits).  Reports are
deterministic: rerunning the same configuration on the same build yields
identical bytes.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure,
3 failed reference comparison under ``reproduce --check``.
"""

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__, benchmarks
from .basis import _CACHE_SIZE, _alpha, _scale
from .matelem import (SCHEMES, HamiltonianVariant, Mode, _exact_ops, _exact_reads,
                      _scheme_row, hamiltonian_2d, hamiltonian_3d, scheme_mesh)
from .potentials import PotentialSpec, _json_doc, _json_object, _level_rule, _spec, builtin
from .quadrature import _size
from .scattering import _gamma_grid, _rate, _short_range, gamma_scan, tan_delta
from .solver import bound_energies, pseudostates, relative_error, solve_bound_states
from .specfun import _coulomb_domain

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "main",
    "render_csv",
    "render_json",
    "run",
    "sweep",
]

_BUILD = f"lagmesh {__version__}"

_RUNS = ("bound", "scatter", "gamma-scan")  # the modes that solve one mesh
_MODES = (*_RUNS, "reproduce")
# the consecutive ids of benchmarks.TABLE_IDS, as --table's help names them
_TABLE_RANGE = f"{benchmarks.TABLE_IDS[0]}..{benchmarks.TABLE_IDS[-1]}"

# (dimension, variant alias) -> scheme; the dimension and mesh of each
# scheme are in matelem.SCHEMES
_VARIANTS = {(SCHEMES[scheme][3], alias): scheme for alias, scheme in (
    ("var", HamiltonianVariant.Var),
    ("reg-sqrt", HamiltonianVariant.RegSqrtMesh),
    ("reg-r", HamiltonianVariant.RegRMesh),
    ("non-reg", HamiltonianVariant.NonReg),
    ("non-reg-vg", HamiltonianVariant.NonRegVG),
    ("var", HamiltonianVariant.Var2D),
    ("reg-sqrt", HamiltonianVariant.RegSqrtMesh2D),
)}

# Every config field, once, in the order of the echo: its key in a config
# file and the echo (l/m is l in 3D and m in 2D; a flag or a file may use
# either name), its ExperimentConfig attribute, its kind (see _KINDS; None
# leaves every value to the field's domain check), its default (the variant's
# depends on the mode: _assemble fills it in), the modes that read it, and
# its flag's help, or None for a field without a flag.  A number field reads
# a flag's text as the number it spells (_number), as a config file gives it.
_FIELDS = (
    ("mode", "mode", None, dataclasses.MISSING, _MODES, None),
    ("format", "format", None, "csv", _MODES, "csv or json (default csv)"),
    ("potential", "potential", None, None, _RUNS, "builtin name, name:key=value,... or JSON spec"),
    ("l/m", "angular", "int", 0, _RUNS, "angular number: l in 3D, m in 2D (default 0)"),
    ("dim", "dimension", "int", 3, _RUNS, "2 or 3 (default 3)"),
    ("variant", "variant", None, None, _RUNS, ", ".join(dict.fromkeys(a for _, a in _VARIANTS))),
    ("N", "N", "int", None, _RUNS, "mesh size"),
    ("alpha", "alpha", "float", None, _RUNS, "Laguerre parameter (default per variant)"),
    ("h", "h", "float", None, _RUNS, "scaling factor"),
    ("gamma", "gamma", "float", None, ("scatter",),
     "rate (scatter) or grid start:stop:count (gamma-scan)"),
    ("gammas", "gammas", "floats", None, ("gamma-scan",), None),
    ("table", "table", "int", None, ("reproduce",),
     f"benchmark table id {_TABLE_RANGE} (reproduce)"),
    ("out", "out", "str", None, _MODES, "output path (default stdout)"),
)


def _is_number(value):
    """Whether ``value`` is a float, or an int (no bool) that a double holds:
    what the JSON config echo writes as a number."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max)


# kind -> (what a value must be, its test); a NumPy integer is no number,
# since the echo is JSON
_KINDS = {
    "int": ("a whole number",
            lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer())),
    "float": ("an int or a float", _is_number),
    "floats": ("a sequence of ints or floats",
               lambda v: isinstance(v, (tuple, list, np.ndarray)) and all(map(_is_number, v))),
    "str": ("a string", lambda v: isinstance(v, str)),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; one field-prefixed message each."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


ExperimentConfig = dataclasses.make_dataclass(
    "ExperimentConfig",
    [(attr, object, dataclasses.field(default=default))
     for _, attr, _, default, _, _ in _FIELDS],
    frozen=True, kw_only=True, namespace={"__module__": __name__, "__doc__": """\
One fully-specified computation, its fields given by keyword.

    ``angular`` is l in three dimensions and m in two.  ``gamma`` is the
    single rate used by scatter mode; ``gammas`` the grid scanned by
    gamma-scan mode (None for the built-in default).  ``table`` selects the
    benchmark table in reproduce mode.  A field that the mode does not read
    must keep its default.
    """})


def _checked(config):
    """``config`` with its whole numbers as ints, once each field passes its
    row of _FIELDS: first its kind (None is no value where the default is
    None), then whether the mode reads it, then the domain checks.  Raises
    ConfigError naming every failing field."""
    if config.mode not in _MODES:
        raise ConfigError([f"mode: must be one of {', '.join(_MODES)}"])
    mistyped, unread, whole = [], [], {}
    for key, attr, kind, default, modes, _ in _FIELDS:
        value = getattr(config, attr)
        if value is None and default is None:
            continue
        if kind is not None:
            what, test = _KINDS[kind]
            if not test(value):
                beyond = type(value) is int and not _is_number(value)
                got = "an int beyond double range" if beyond else repr(value)
                mistyped.append(f"{key}: must be {what} (got {got})")
                continue
            if kind == "int" and type(value) is not int:
                value = whole[attr] = int(value)
        if config.mode not in modes and (default is None or value != default):
            unread.append(f"{key}: only applies to {', '.join(modes)}")
    if mistyped:
        raise ConfigError(mistyped)
    if whole:
        config = dataclasses.replace(config, **whole)
    errors = unread + _domain_errors(config)
    if errors:
        raise ConfigError(errors)
    return config


def _domain_errors(config):
    """The CLI's own rules (format, a missing field, dim, the variant
    aliases, the 2D phase modes), then the library's rule of each value as
    ``key: <the library's message>``, once the fields it reads pass theirs."""
    errors = []
    if config.format not in ("csv", "json"):
        errors.append("format: must be csv or json")
    if config.mode == "reproduce":
        return errors + ([f"table: reproduce requires --table {_TABLE_RANGE}"]
                         if config.table is None
                         else _raised("table", benchmarks._table, config.table))
    phase = config.mode in ("scatter", "gamma-scan")
    if config.potential is None:
        errors.append("potential: a builtin name or JSON spec is required")
    elif not isinstance(config.potential, PotentialSpec):
        errors.append(f"potential: must be a PotentialSpec (got {config.potential!r})")
    elif phase:
        errors += _raised("potential", _short_range, config.potential)
    size = (["N: a positive mesh size is required"] if config.N is None
            else _raised("N", _size, config.N))
    alpha = [] if config.alpha is None else _raised("alpha", _alpha, config.alpha)
    errors += size + (["h: a positive, finite scaling factor is required"] if config.h is None
                      else _raised("h", _scale, config.h)) + alpha
    if config.mode == "scatter":
        errors += (["gamma: scatter requires a positive, finite --gamma"] if config.gamma is None
                   else _raised("gamma", _rate, config.gamma))
    if config.mode == "gamma-scan" and config.gammas is not None:
        errors += _raised("gamma", _gamma_grid, config.gammas)
    if config.dimension not in (2, 3):
        return errors + ["dim: must be 2 or 3"]
    if config.dimension == 2 and phase:
        # the integral relations use the 3D Coulomb/Riccati functions
        errors.append(f"dim: {config.mode} is defined in three dimensions only")
    aliases = [a for d, a in _VARIANTS if d == config.dimension]
    if config.variant not in aliases:
        return errors + [f"variant: must be one of {', '.join(aliases)}"]
    # the builders' rules, before any build: the angular number on N
    # functions, then alpha and the Exact terms on the basis a build takes
    # (its family and alpha depend on neither N nor h: 2 points stand in)
    scheme = _VARIANTS[config.dimension, config.variant]
    angular = [] if size else _raised("l/m", _scheme_row, scheme, config.dimension,
                                      config.angular, scheme_mesh(scheme, config.N, 1.0))
    if phase and not angular:  # the Coulomb functions' range
        angular = _raised("l/m", _coulomb_domain, config.angular, 0.0)
    errors += angular
    if not alpha:
        mesh = scheme_mesh(scheme, 2, 1.0, config.alpha)
        errors += _raised("alpha", _scheme_row, scheme, config.dimension, 0, mesh)
        if isinstance(config.potential, PotentialSpec):
            basis, ops = _exact_reads(scheme, config.angular, mesh)
            if SCHEMES[scheme][2][2] is Mode.Exact:  # the potential's Exact matrix
                errors += _raised("variant", _exact_ops, basis, (), config.potential)
            errors += _raised("alpha", _exact_ops, basis, ops)
    return errors


def _raised(key, rule, *args):
    """``[key: message]`` of the ValueError that ``rule(*args)`` raises, less
    a name of the key that the message opens with, or []."""
    try:
        rule(*args)
    except ValueError as e:
        name, _, rest = str(e).partition(" ")
        return [f"{key}: {rest if name in key.split('/') else e}"]
    return []


def _resolve_problem(config):
    """The basis the builder returns and the Hamiltonian H of a valid config."""
    scheme = _VARIANTS[config.dimension, config.variant]
    build = hamiltonian_2d if config.dimension == 2 else hamiltonian_3d
    mesh = scheme_mesh(scheme, config.N, config.h, config.alpha)
    H, basis = build(mesh, config.angular, config.potential, scheme)
    return basis, H


def _run_bound(config):
    # bound rows read energies only, so no eigenvectors are computed
    _, H = _resolve_problem(config)
    V, angular, dim = config.potential, config.angular, config.dimension
    energies = (bound_energies(H) * V.energy_unit).tolist()
    rows = [{"state": n, "energy": E} for n, E in enumerate(energies, 1)]
    # analytic levels are in internal units (so there the energies are
    # unscaled), and a Coulomb or Eckart one (the levels are negative) is
    # only given for a bound state the rule knows
    level = _level_rule(V, angular, dim) if V.energy_unit == 1.0 else None
    if level is not None:
        ground = level(0)
        for n, E in enumerate(energies):
            exact = level(n) if ground > 0.0 or E < 0.0 else None
            if exact is not None:
                rows[n]["exact"] = exact
                rows[n]["eps_rel"] = relative_error(E, exact)
    return rows


def _scattering_states(config):
    """The basis and the pseudostates of a scattering run, each with its
    number counted from 1.  A state whose eta = Z/k lies outside the Coulomb
    functions' domain is skipped; the others keep their numbers."""
    basis, H = _resolve_problem(config)
    l, Z = config.angular, config.potential.tail_Z
    states = enumerate(pseudostates(solve_bound_states(H, basis)), 1)
    return basis, [(n, s) for n, s in states if not _raised("eta", _coulomb_domain, l, Z / s.k)]


def _run_scatter(config):
    basis, states = _scattering_states(config)
    V = config.potential
    for n, state in states:
        res = tan_delta(state, config.angular, V, config.gamma, basis)
        yield {
            "state": n, "energy": state.energy * V.energy_unit, "k": state.k,
            "gamma": res.gamma, "tan_delta": res.tan_delta,
            "delta_deg": res.delta_deg, "branch": res.branch,
        }


def _run_gamma_scan(config):
    basis, states = _scattering_states(config)
    V = config.potential
    for n, state in states:
        rec, _ = gamma_scan(state, config.angular, V, V.tail_Z, basis, gammas=config.gammas)
        yield {
            "state": n, "energy": state.energy * V.energy_unit, "gamma": rec.gamma,
            "delta_deg": rec.delta_deg, "sensitivity": rec.sensitivity,
            "no_plateau": rec.no_plateau,
        }


def _config_echo(config):
    """The fields of a checked config that its mode reads, under their keys:
    a mesh field even when None, a field of one mode only when given, and
    never ``out``, which is no part of the run."""
    doc = {}
    for key, attr, _, _, modes, _ in _FIELDS:
        value = getattr(config, attr)
        if config.mode not in modes or attr == "out" or value is None and modes != _RUNS:
            continue
        if attr == "potential":
            value = _json_doc(value)
        elif attr == "gammas":
            value = [float(g) for g in value]
        names = key.split("/")
        doc[names[-1] if config.dimension == 2 else names[0]] = value
    return doc


def _report(mode, rows, echo, checks=None):
    """The schema-1 document, its floats not yet rounded; the provenance
    block holds a hash of the echoed config and the build id."""
    canon = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    doc = {"schema": 1, "mode": mode, "config": echo,
           "provenance": {"config_hash": digest, "build": _BUILD}, "rows": rows}
    if checks is not None:
        doc["checks"] = checks
    return doc


def run(config):
    """Execute one configuration and return its report: the dict that
    ``render_json`` writes, with keys ``schema``, ``mode``, ``config``,
    ``provenance``, ``rows`` and, in reproduce mode, ``checks``.

    Raises ConfigError when the configuration is inconsistent; numerical
    failures propagate as ArithmeticError/LinAlgError.
    """
    config = _checked(config)
    rows = list(_rows(config))
    checks = benchmarks.check_table(config.table, rows) if config.mode == "reproduce" else None
    return _report(config.mode, rows, _config_echo(config), checks)


def _rows(config):
    """The report rows of a checked config; a scatter or gamma-scan run
    computes each row only when it is read."""
    if config.mode == "reproduce":
        return benchmarks.run_table(config.table)
    if config.mode == "bound":
        return _run_bound(config)
    if config.mode == "scatter":
        return _run_scatter(config)
    return _run_gamma_scan(config)


def sweep(config, parameter, values):
    """Rerun ``config`` once per value of ``parameter`` (N, h, or gamma).

    Returns a report as ``run`` does, in mode ``sweep:bound`` or
    ``sweep:scatter`` and without checks.  Every point is checked, as
    ``run`` checks it, before the first one runs.  Each row summarizes the
    first state of the corresponding run, which is all that a scatter point
    computes: a failure in a later pseudostate does not fail the sweep.
    The row's values are null when a scatter run has no pseudostate.
    """
    if parameter not in ("N", "h", "gamma"):
        raise ConfigError(["parameter: must be N, h, or gamma"])
    values = tuple(values)
    if not values:
        raise ConfigError(["values: at least one value is required"])
    if config.mode not in ("bound", "scatter"):
        raise ConfigError(["mode: sweeps apply to bound or scatter runs"])
    if parameter == "gamma" and config.mode != "scatter":
        raise ConfigError(["parameter: gamma sweeps require scatter mode"])
    points = [_checked(dataclasses.replace(config, **{parameter: v})) for v in values]
    rows = []
    for v, point in zip(values, points):
        first = next(iter(_rows(point)), {})
        row = {"parameter": parameter, "value": v, "energy": first.get("energy")}
        if config.mode == "bound":
            row["eps_rel"] = first.get("eps_rel")
        else:
            row["tan_delta"] = first.get("tan_delta")
            row["delta_deg"] = first.get("delta_deg")
        rows.append(row)
    # the echo holds the swept field as given
    echo = _config_echo(dataclasses.replace(point, **{parameter: getattr(config, parameter)}))
    echo["sweep"] = {"parameter": parameter,
                     "values": [float(v) for v in values]}
    return _report(f"sweep:{config.mode}", rows, echo)


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(f"{float(v):.15g}")
    if v is None or isinstance(v, str):
        return v
    raise TypeError(f"report cells are scalars, not {type(v).__name__}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _row_template(*keys):
    """A flat row with these string keys as indent=2 writes it in the rows
    list, a %s in place of each value.  A key that is no string raises
    TypeError: 1, 1.0 and True are equal keys that json writes apart."""
    if not keys:
        return "{}"
    for k in keys:
        if not isinstance(k, str):
            raise TypeError(f"report row keys are strings, not {type(k).__name__}")
    items = (json.dumps(k).replace("%", "%%") + ": %s" for k in keys)
    return "{\n      " + ",\n      ".join(items) + "\n    }"


def render_json(report):
    """The report as JSON, byte-identical to ``json.dumps(report, indent=2)``
    plus a newline once the row cells and check values are rounded to 15
    significant digits.

    Rows must be flat dicts of scalars under string keys (else TypeError).
    Their float cells are formatted in one "%.15g" pass, and every row
    fills the template of its keys.
    """
    head = dict(report, rows=[])
    if "checks" in report:
        head["checks"] = [dict(c, value=_json_cell(c["value"])) for c in report["checks"]]
    text = json.dumps(head, indent=2) + "\n"
    rows = report["rows"]
    if not rows:
        return text
    cells = [v for row in rows for v in row.values()]
    floats = [v for v in cells if type(v) is float]
    # %.15g writes the text json writes for the rounded float, except for a
    # whole number (no ".0"), nan and inf, exponent 15 (repr writes digits up
    # to 1e16) and a three-digit exponent (a subnormal's repr may be shorter,
    # and 1.79769313486232e+308 rounds to inf): those take json's own text
    texts = iter([
        s if ("e" not in s and "." in s) or ("e" in s and s[-4:] != "e+15" and s[-5:-4] != "e")
        else json.dumps(float(s))
        for s in ("%.15g," * len(floats) % tuple(floats)).split(",")[:-1]
    ]).__next__
    # an int's %s is its repr, the text json writes
    cells = [texts() if type(v) is float else v if type(v) is int
             else json.dumps(_json_cell(v)) for v in cells]
    keys = [tuple(row) for row in rows]
    templates = {k: _row_template(*k) for k in set(keys)}
    rows = ",\n    ".join(map(templates.__getitem__, keys)) % tuple(cells)
    return text.replace('\n  "rows": []', '\n  "rows": [\n    ' + rows + "\n  ]", 1)


def _csv_cell(v, as_eps):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return benchmarks.eps_notation(float(v)) if as_eps else f"{float(v):.6g}"
    return str(v)


def render_csv(report):
    rows = report["rows"]
    if not rows:
        return ""
    # the bound-state benchmark tables are tables of relative errors
    as_eps = (report["mode"] == "reproduce"
              and report["config"].get("table") in benchmarks._ERROR_TABLES)
    cols = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([
            _csv_cell(row.get(c), as_eps and not isinstance(row.get(c), (int, str)))
            for c in cols
        ])
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError([message])


def _number(text, whole=False):
    """The number that a flag's ``text`` spells, as an int first if ``whole``;
    else the text, which the field's check names as it names a file's."""
    for read in (int, float) if whole else (float,):
        try:
            return read(text)
        except ValueError:
            pass
    return text


def _parse_grid(text):
    """The gamma-scan grid that ``--gamma`` spells."""
    try:
        if ":" not in text:
            return tuple(float(x) for x in text.split(","))
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise ConfigError(["gamma: use start:stop:count or a comma-separated list"]) from None
    # the rate's rule, before geomspace warns about inf or NaN or raises at 0
    if errors := _raised("gamma", _rate, a) or _raised("gamma", _rate, b):
        raise ConfigError(errors)
    return tuple(np.geomspace(a, b, max(n, 0)))


def _parse_potential(value):
    if value is None:
        return None
    if isinstance(value, str) and value.lstrip().startswith("{"):  # an inline spec
        try:
            value = _json_object(value, "potential")
        except ValueError as e:  # the reader names the potential
            raise ConfigError([str(e)]) from None
    if isinstance(value, dict):  # read inline, or a config file's object
        try:
            return _spec(value)
        except ValueError as e:
            raise ConfigError([f"potential: invalid spec ({e})"]) from None
    name, _, params = str(value).partition(":")
    kwargs = {}
    if params:
        for piece in params.split(","):
            key, _, num = piece.partition("=")
            key = key.strip()
            if key in kwargs:
                raise ConfigError([f"potential: repeated parameter {key!r}"])
            kwargs[key] = num  # builtin reads it as a number, or names it
    try:  # builtin names an unknown name, then a bad parameter
        return builtin(name, **kwargs)
    except ValueError as e:
        raise ConfigError([f"potential: {e}"]) from None


def build_parser():
    parser = _Parser(
        prog="lagmesh",
        description="Lagrange-mesh bound states, phase shifts, and benchmarks",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    common = _Parser(add_help=False)
    for key, *_, flag in _FIELDS:
        for name in key.split("/") if flag else ():
            common.add_argument(f"--{name}", help=flag)
    common.add_argument("--config", dest="config_file", default=None,
                        help="JSON file with defaults for any flag")
    for mode in (*_MODES, "sweep"):
        p = sub.add_parser(mode, parents=[common])
        if mode == "reproduce":
            p.add_argument("--check", action="store_true",
                           help="compare against the bundled reference values")
        if mode == "sweep":
            p.add_argument("--parameter", help="N, h or gamma")
            p.add_argument("--values", default=None,
                           help="comma-separated parameter values")
    return parser


def _one(key, values):
    """The one value given under the names of ``key``, or None; l/m has
    two names."""
    given = [v for v in values if v is not None]
    if len(given) > 1:
        raise ConfigError([f"{key}: give one angular number, not both"])
    return given[0] if given else None


def _assemble(args):
    """ExperimentConfig from parsed flags over the optional config file, and
    the file's ``sweep`` echo or None.  Values pass as given: run checks
    them."""
    doc = {}
    if args.config_file:
        try:
            with open(args.config_file) as f:
                doc = _json_object(f.read(), "config")
        except (OSError, UnicodeError) as e:  # unreadable, or no text
            raise ConfigError([f"config: {e}"]) from None
        except ValueError as e:  # the reader names the config
            raise ConfigError([str(e)]) from None
        # only a sweep knows the field ``sweep``, its report's echo
        known = {name for key, *_ in _FIELDS for name in key.split("/")}
        unknown = [f"{key}: unknown field" for key in doc
                   if key not in known and (key != "sweep" or args.mode != "sweep")]
        if unknown:
            raise ConfigError(unknown)

    if args.mode != "sweep":
        mode = args.mode
        if doc.get("mode") not in (None, mode):
            raise ConfigError([f"mode: the config file asks for {doc['mode']!r}, "
                               f"not {mode!r}"])
    else:
        mode = doc.get("mode", "scatter" if args.parameter == "gamma" else "bound")
    values = {}
    for key, attr, kind, *_ in _FIELDS[1:]:  # the mode is settled above
        names = key.split("/")
        flag = _one(key, [getattr(args, name, None) for name in names])
        if flag is not None and kind in ("int", "float"):
            flag = _number(flag, kind == "int")
        in_file = _one(key, [doc.get(name) for name in names])
        values[attr] = flag if flag is not None else in_file
    values["potential"] = _parse_potential(values["potential"])
    gamma = values["gamma"]
    if mode == "gamma-scan" and gamma is not None:
        if isinstance(gamma, list):  # only a file gives a list
            raise ConfigError(["gamma: a config file gives a gamma-scan grid as a list "
                               "under gammas"])
        values["gamma"], values["gammas"] = None, _parse_grid(str(gamma))
    elif isinstance(gamma, (int, str)) and not isinstance(gamma, bool):
        values["gamma"] = _number(str(gamma))  # a file's 4 echoes as 4.0
    if values["variant"] is None and mode in _RUNS:
        values["variant"] = "var" if mode == "bound" else "reg-sqrt"
    return ExperimentConfig(
        mode=mode, **{attr: v for attr, v in values.items() if v is not None},
    ), doc.get("sweep")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config, swept = _assemble(args)
        if config.out and isinstance(config.out, str):  # before any work, left as it was
            try:
                created = not os.path.exists(config.out)  # a link's target, if it is one
                open(config.out, "a").close()
            except (OSError, ValueError) as e:
                raise ConfigError([f"out: {e}"]) from None
            if created:
                os.remove(os.path.realpath(config.out))
        if args.mode == "sweep":
            if args.parameter is None or args.values is None:
                raise ConfigError(["sweep: both --parameter and --values are required"])
            values = tuple(map(_number, args.values.split(",")))
            # a sweep report's echo replays only the sweep it records
            if swept not in (None, {"parameter": args.parameter, "values": list(values)}):
                raise ConfigError([f"sweep: the config file's sweep {json.dumps(swept)} "
                                   "differs from --parameter/--values"])
            report = sweep(config, args.parameter, values)
        else:
            report = run(config)
    except ConfigError as e:
        for msg in e.errors:
            print(f"lagmesh: {msg}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"lagmesh: {e}", file=sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"lagmesh: numerical failure: {e}", file=sys.stderr)
        return 2

    text = render_json(report) if config.format == "json" else render_csv(report)
    if config.out:
        try:
            with open(config.out, "w") as f:
                f.write(text)
        except OSError as e:
            print(f"lagmesh: out: {e}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)

    if getattr(args, "check", False):
        checks = report["checks"]
        failed = [c for c in checks if not c["passed"]]
        for c in checks:
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"{mark} {c['description']} (got {c['value']:+.6g})", file=sys.stderr)
        print(f"{len(checks) - len(failed)}/{len(checks)} "
              "reference comparisons passed", file=sys.stderr)
        if failed:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
