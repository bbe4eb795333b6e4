"""Command-line runner for bound states, phase shifts, and benchmarks.

Subcommands
-----------
bound       spectrum of one mesh/scheme configuration
scatter     phase shifts of every pseudostate at a fixed gamma
gamma-scan  plateau search: recommended gamma per pseudostate
sweep       rerun a bound or scattering configuration over N, h, or gamma
reproduce   rebuild one of the bundled benchmark tables 1-5

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
import hashlib
import io
import json
import math
import sys

import numpy as np

from . import __version__, benchmarks
from .matelem import SCHEMES, HamiltonianVariant, hamiltonian_2d, hamiltonian_3d, scheme_mesh
from .potentials import BUILTIN_NAMES, PotentialSpec, builtin, exact_level, from_json, to_json
from .scattering import gamma_scan, tan_delta
from .solver import bound_energies, pseudostates, relative_error, solve_bound_states
from .specfun import _MAX_ETA

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

_MODES = ("bound", "scatter", "gamma-scan", "reproduce")

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

# JSON types of the config-file fields, matched exactly (true is no integer)
_NUMBER = (int, float)
_FIELD_TYPES = {
    "mode": (str,), "variant": (str,), "format": (str,), "out": (str,), "gammas": (list,),
    "potential": (str, dict), "l": (int,), "m": (int,), "dim": (int,), "N": (int,),
    "table": (int,), "alpha": _NUMBER, "h": _NUMBER, "gamma": (*_NUMBER, str),
    "sweep": (dict,),  # a sweep report's echo; read by the sweep command only
}


class ConfigError(ValueError):
    """Invalid experiment configuration; one field-prefixed message each."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified computation.

    ``angular`` is l in three dimensions and m in two.  ``gamma`` is the
    single rate used by scatter mode; ``gammas`` the grid scanned by
    gamma-scan mode (None for the built-in default).  ``table`` selects the
    benchmark table in reproduce mode.
    """

    mode: str
    potential: object = None
    angular: int = 0
    dimension: int = 3
    variant: str = None
    N: int = None
    alpha: float = None
    h: float = None
    gamma: float = None
    gammas: tuple = None
    table: int = None
    format: str = "csv"
    out: str = None


def _is_number(value):
    """Whether ``value`` is an int or a float, and no bool: what the JSON
    config echo writes as a number."""
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _validate(config):
    errors = []
    if config.mode not in _MODES:
        errors.append(f"mode: must be one of {', '.join(_MODES)}")
        return errors
    if config.format not in ("csv", "json"):
        errors.append("format: must be csv or json")
    if config.mode == "reproduce":
        if config.table not in benchmarks.TABLE_IDS:
            errors.append("table: reproduce requires --table 1..5")
        return errors
    if config.table is not None:
        errors.append("table: only applies to reproduce mode")
    if config.potential is None:
        errors.append("potential: a builtin name or JSON spec is required")
    elif not isinstance(config.potential, PotentialSpec):
        errors.append(f"potential: must be a PotentialSpec (got {config.potential!r})")
    # a config built in Python may hold any object in a number field; None
    # marks an optional number as not given
    mistyped = [
        f"{name}: must be an int or a float (got {value!r})"
        for name, value in (("N", config.N), ("h", config.h), ("alpha", config.alpha),
                            ("gamma", config.gamma), ("angular", config.angular))
        if not (value is None and name != "angular" or _is_number(value))
    ]
    mistyped += [
        f"{name}: must be a whole number (got {value!r})"
        for name, value in (("N", config.N), ("angular", config.angular))
        if isinstance(value, float) and not value.is_integer()
    ]
    if config.gammas is not None and not (
            isinstance(config.gammas, (tuple, list, np.ndarray))
            and all(map(_is_number, config.gammas))):
        mistyped.append(f"gammas: must be a sequence of ints or floats (got {config.gammas!r})")
    if mistyped:
        return errors + mistyped
    if config.N is None or config.N < 1:
        errors.append("N: a positive mesh size is required")
    if config.h is None or not config.h > 0.0:
        errors.append("h: a positive scaling factor is required")
    if config.angular < 0:
        errors.append("l/m: must be nonnegative")
    if config.dimension not in (2, 3):
        errors.append("dim: must be 2 or 3")
    else:
        if config.dimension == 2 and config.mode in ("scatter", "gamma-scan"):
            # the integral relations use the 3D Coulomb/Riccati functions
            errors.append(f"dim: {config.mode} is defined in three dimensions only")
        if not (isinstance(config.variant, str)
                and (config.dimension, config.variant) in _VARIANTS):
            aliases = [a for d, a in _VARIANTS if d == config.dimension]
            errors.append(f"variant: must be one of {', '.join(aliases)}")
        if config.dimension == 2 and config.alpha not in (None, 0.0):
            errors.append("alpha: two-dimensional schemes fix alpha = 0")
    if config.alpha is not None and not (
            config.alpha >= 0.0 and math.isfinite(config.alpha)):
        errors.append("alpha: must be finite and nonnegative")
    if config.mode == "scatter" and (
            config.gamma is None
            or not (config.gamma > 0.0 and math.isfinite(config.gamma))):
        errors.append("gamma: scatter requires a positive, finite --gamma")
    if config.mode == "bound" and config.gamma is not None:
        errors.append("gamma: only applies to scattering modes")
    return errors


def _resolve_problem(config):
    """Mesh and Hamiltonian pair (H, S) for a validated config."""
    scheme = _VARIANTS[config.dimension, config.variant]
    build = hamiltonian_2d if config.dimension == 2 else hamiltonian_3d
    mesh = scheme_mesh(scheme, config.N, config.h, config.alpha)
    H, S = build(mesh, config.angular, config.potential, scheme)
    return mesh, H, S


def _run_bound(config):
    # bound rows read energies only, so no eigenvectors are computed
    _, H, S = _resolve_problem(config)
    V, angular, dim = config.potential, config.angular, config.dimension
    # analytic levels are in internal units, and a Coulomb one (the levels
    # are negative) is only given for a bound state
    ground = exact_level(V, angular, 0, dim) if V.energy_unit == 1.0 else None
    rows = []
    for n, E in enumerate(bound_energies(H, S)):
        row = {"state": n + 1, "energy": float(E) * V.energy_unit}
        if ground is not None and (ground > 0.0 or E < 0.0):
            row["exact"] = exact_level(V, angular, n, dim)
            row["eps_rel"] = relative_error(float(E), row["exact"])
        rows.append(row)
    return rows


def _window(V):
    # charged-system phases are conventionally reported in [0, 180)
    return "positive" if V.tail_Z != 0.0 else "principal"


def _scattering_states(config):
    """The mesh and the pseudostates of a scattering run, each with its
    number counted from 1.  A state with |eta| = |Z/k| above _MAX_ETA lies
    outside the Coulomb functions' domain and is skipped; the others keep
    their numbers."""
    mesh, H, S = _resolve_problem(config)
    V = config.potential
    states = enumerate(pseudostates(solve_bound_states(H, S)), 1)
    return mesh, [(n, state) for n, state in states if abs(V.tail_Z / state.k) <= _MAX_ETA]


def _run_scatter(config):
    mesh, states = _scattering_states(config)
    V = config.potential
    rows = []
    for n, state in states:
        res = tan_delta(state, config.angular, V, V.tail_Z, config.gamma,
                        mesh, window=_window(V))
        rows.append({
            "state": n, "energy": state.energy * V.energy_unit, "k": state.k,
            "gamma": res.gamma, "tan_delta": res.tan_delta,
            "delta_deg": res.delta_deg, "branch": res.branch,
        })
    return rows


def _run_gamma_scan(config):
    mesh, states = _scattering_states(config)
    V = config.potential
    grid = None if config.gammas is None else np.asarray(config.gammas, dtype=float)
    rows = []
    for n, state in states:
        rec, _ = gamma_scan(state, config.angular, V, V.tail_Z, mesh,
                            gammas=grid, window=_window(V))
        rows.append({
            "state": n, "energy": state.energy * V.energy_unit, "gamma": rec.gamma,
            "delta_deg": rec.delta_deg, "sensitivity": rec.sensitivity,
            "no_plateau": rec.no_plateau,
        })
    return rows


def _config_echo(config):
    doc = {"mode": config.mode, "format": config.format}
    if config.mode == "reproduce":
        doc["table"] = config.table
        return doc
    doc.update({
        "potential": json.loads(to_json(config.potential)),
        "l" if config.dimension == 3 else "m": config.angular,
        "dim": config.dimension,
        "variant": config.variant,
        "N": config.N,
        "alpha": config.alpha,
        "h": config.h,
    })
    if config.gamma is not None:
        doc["gamma"] = config.gamma
    if config.gammas is not None:
        doc["gammas"] = [float(g) for g in config.gammas]
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
    errors = _validate(config)
    if errors:
        raise ConfigError(errors)
    checks = None
    if config.mode == "reproduce":
        rows = benchmarks.run_table(config.table)
        checks = benchmarks.check_table(config.table, rows)
    elif config.mode == "bound":
        rows = _run_bound(config)
    elif config.mode == "scatter":
        rows = _run_scatter(config)
    else:
        rows = _run_gamma_scan(config)
    return _report(config.mode, rows, _config_echo(config), checks)


def sweep(config, parameter, values):
    """Rerun ``config`` once per value of ``parameter`` (N, h, or gamma).

    Returns a report as ``run`` does, in mode ``sweep:bound`` or
    ``sweep:scatter`` and without checks.  Each row summarizes the first
    state of the corresponding run; its values are null when a scatter run
    has no pseudostate.
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
    if parameter == "N" and not all(float(v).is_integer() for v in values):
        raise ConfigError(["values: N values must be whole numbers"])
    rows = []
    cast = int if parameter == "N" else float
    for v in values:
        sub_rows = run(dataclasses.replace(config, **{parameter: cast(v)}))["rows"]
        first = sub_rows[0] if sub_rows else {}
        row = {"parameter": parameter, "value": v, "energy": first.get("energy")}
        if config.mode == "bound":
            row["eps_rel"] = first.get("eps_rel")
        else:
            row["tan_delta"] = first.get("tan_delta")
            row["delta_deg"] = first.get("delta_deg")
        rows.append(row)
    echo = _config_echo(config)
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


# Without indent json encodes in C; this item separator already puts each key
# of a flat row on its own line, at the depth that indent=2 gives it.
_encode_rows = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def render_json(report):
    """The report as JSON, byte-identical to ``json.dumps(report, indent=2)``
    plus a newline once the row cells and check values are rounded to 15
    significant digits.

    Rows must be flat dicts of scalars (a list or dict cell raises
    TypeError); they are encoded in one call of the C encoder and spliced
    into the indented header.
    """
    head = dict(report, rows=[])
    if "checks" in report:
        head["checks"] = [dict(c, value=_json_cell(c["value"])) for c in report["checks"]]
    text = json.dumps(head, indent=2) + "\n"
    if not report["rows"]:
        return text
    rows = _encode_rows([
        {k: float(f"{v:.15g}") if type(v) is float else _json_cell(v)
         for k, v in row.items()}
        for row in report["rows"]
    ])
    # ensure_ascii escapes every newline inside a string, so each newline is
    # structural and, the rows being flat, "},\n      {" only joins two rows
    rows = rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    rows = "[\n    {\n      " + rows + "\n    }\n  ]"
    rows = rows.replace("{\n      \n    }", "{}")  # an empty row, as indent=2 writes it
    return text.replace('\n  "rows": []', '\n  "rows": ' + rows, 1)


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


def _parse_gamma(text, mode):
    if text is None:
        return None, None
    if mode == "gamma-scan":
        try:
            if ":" not in text:
                return None, tuple(float(x) for x in text.split(","))
            a, b, n = text.split(":")
            a, b, n = float(a), float(b), int(n)
        except ValueError:
            raise ConfigError(
                ["gamma: use start:stop:count or a comma-separated list"]
            ) from None
        # checked here, before geomspace warns about them
        if not all(v > 0.0 and math.isfinite(v) for v in (a, b)):
            raise ConfigError(["gamma: grid endpoints must be positive and finite"])
        return None, tuple(np.geomspace(a, b, max(n, 0)))
    try:
        return float(text), None
    except ValueError:
        raise ConfigError(["gamma: must be a number"]) from None


def _parse_potential(value):
    if value is None:
        return None
    if isinstance(value, dict):
        value = json.dumps(value)
    if isinstance(value, str) and value.lstrip().startswith("{"):
        try:
            return from_json(value)
        except ValueError as e:
            raise ConfigError([f"potential: invalid spec ({e})"]) from None
    name, _, params = str(value).partition(":")
    if name not in BUILTIN_NAMES:
        raise ConfigError([
            f"potential: unknown name {name!r}; builtins are "
            + ", ".join(BUILTIN_NAMES)
        ])
    kwargs = {}
    if params:
        for piece in params.split(","):
            key, _, num = piece.partition("=")
            try:
                kwargs[key.strip()] = float(num)
            except ValueError:
                raise ConfigError(
                    [f"potential: bad parameter {piece!r}"]
                ) from None
    try:
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
    common.add_argument("--potential", metavar="NAME|JSON",
                        help="builtin name, name:key=value,... or JSON spec")
    common.add_argument("--l", type=int, default=None, help="orbital momentum (3D)")
    common.add_argument("--m", type=int, default=None, help="angular number (2D)")
    common.add_argument("--dim", type=int, default=None, help="2 or 3 (default 3)")
    common.add_argument("--variant", default=None,
                        help=", ".join(dict.fromkeys(a for _, a in _VARIANTS)))
    common.add_argument("--N", type=int, default=None, help="mesh size")
    common.add_argument("--alpha", type=float, default=None,
                        help="Laguerre parameter (default per variant)")
    common.add_argument("--h", type=float, default=None, help="scaling factor")
    common.add_argument("--gamma", default=None,
                        help="rate (scatter) or grid start:stop:count (gamma-scan)")
    common.add_argument("--table", type=int, default=None,
                        help="benchmark table id 1..5 (reproduce)")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--config", dest="config_file", default=None,
                        help="JSON file with defaults for any flag")
    for mode in ("bound", "scatter", "gamma-scan", "reproduce", "sweep"):
        p = sub.add_parser(mode, parents=[common])
        if mode == "reproduce":
            p.add_argument("--check", action="store_true",
                           help="compare against the bundled reference values")
        if mode == "sweep":
            p.add_argument("--parameter", choices=("N", "h", "gamma"))
            p.add_argument("--values", default=None,
                           help="comma-separated parameter values")
    return parser


def _check_types(doc, mode):
    """Reject a config file that is not an object or has unknown or
    mistyped fields; only a sweep knows the field ``sweep``."""
    if type(doc) is not dict:
        raise ConfigError(["config: the file must hold a JSON object"])
    known = _FIELD_TYPES if mode == "sweep" else _FIELD_TYPES.keys() - {"sweep"}
    errors = [
        f"{key}: unknown field" if key not in known
        else f"{key}: wrong JSON type (got {json.dumps(value)})"
        for key, value in doc.items()
        if key not in known or value is not None and (
            type(value) not in _FIELD_TYPES[key]
            or key == "gammas" and any(type(g) not in _NUMBER for g in value))
    ]
    if errors:
        raise ConfigError(errors)


def _one_angular(l, m):
    """The angular number given as l or as m, or None if neither is."""
    if l is not None and m is not None:
        raise ConfigError(["l/m: give one angular number, not both"])
    return m if m is not None else l


def _assemble(args):
    """ExperimentConfig from parsed flags plus the optional config file, and
    the file's ``sweep`` echo or None."""
    doc = {}
    if args.config_file:
        try:
            with open(args.config_file) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError([f"config: {e}"]) from None
        except json.JSONDecodeError as e:
            raise ConfigError([f"config: invalid JSON ({e})"]) from None
        _check_types(doc, args.mode)

    def pick(flag, key, default=None):
        return flag if flag is not None else doc.get(key, default)

    if args.mode != "sweep":
        mode = args.mode
        if doc.get("mode") not in (None, mode):
            raise ConfigError([f"mode: the config file asks for {doc['mode']!r}, "
                               f"not {mode!r}"])
    else:
        default_mode = (
            "scatter" if getattr(args, "parameter", None) == "gamma" else "bound"
        )
        mode = pick(None, "mode", default_mode)
    dimension = pick(args.dim, "dim", 3)
    # l and m name the one angular number in either dimension, in the flags
    # and in the file alike; a flag overrides the file
    angular = _one_angular(args.l, args.m)
    in_file = _one_angular(doc.get("l"), doc.get("m"))
    if angular is None:
        angular = 0 if in_file is None else in_file
    default_variant = "var" if mode == "bound" else "reg-sqrt"
    gamma_text = args.gamma if args.gamma is not None else doc.get("gamma")
    gamma, gammas = _parse_gamma(
        None if gamma_text is None else str(gamma_text), mode)
    if gammas is None and "gammas" in doc:
        gammas = tuple(float(g) for g in doc["gammas"])
    return ExperimentConfig(
        mode=mode,
        potential=_parse_potential(pick(args.potential, "potential")),
        angular=int(angular),
        dimension=int(dimension),
        variant=pick(args.variant, "variant", default_variant),
        N=pick(args.N, "N"),
        alpha=pick(args.alpha, "alpha"),
        h=pick(args.h, "h"),
        gamma=gamma,
        gammas=gammas,
        table=pick(args.table, "table"),
        format=pick(args.format, "format", "csv"),
        out=pick(args.out, "out"),
    ), doc.get("sweep")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config, swept = _assemble(args)
        if args.mode == "sweep":
            if args.parameter is None or args.values is None:
                raise ConfigError(
                    ["sweep: both --parameter and --values are required"])
            try:
                values = tuple(float(v) for v in args.values.split(","))
            except ValueError:
                raise ConfigError(
                    ["values: must be comma-separated numbers"]) from None
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
