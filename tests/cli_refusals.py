"""The refusals of the ``lagmesh`` command line that need no monkeypatch and
no earlier run, each stated once: argv in; an exit code (1 for a
configuration, 2 for a numerical failure), empty stdout and the whole of
stderr out.

A row's ``err`` is a regular expression that stderr must match in full
(``re.fullmatch``); ``said`` writes one for literal messages.  A row's
argv may name files by the keys of its ``files``: each is written to a
temporary directory first (its text), or left missing (None), and argv
names its path there.  A row's id is the tier-1 test id that runs it.

``tests/test_cli.py`` runs every row through ``cli.main`` in-process.  Run
as a script, this module runs every row through the installed ``lagmesh``
executable, with a RuntimeWarning as an error, and exits 1 naming each
row that fails::

    python tests/cli_refusals.py
"""

import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Row(NamedTuple):
    id: str
    argv: str  # split as a shell splits it
    code: int
    err: str
    files: tuple = ()  # (name, text or None) pairs

    def args(self, directory):
        """The argv, each file name replaced by its path in ``directory``,
        where the files are written."""
        paths = {}
        for name, text in self.files:
            paths[name] = str(pathlib.Path(directory, name))
            if text is not None:
                pathlib.Path(paths[name]).write_text(text)
        return [paths.get(a, a) for a in shlex.split(self.argv)]


def said(*messages):
    """The pattern of stderr holding these messages, a line each."""
    return "".join(re.escape(f"lagmesh: {m}\n") for m in messages)


def _file(doc):
    """The files of a row whose argv names ``cfg.json``, holding ``doc``."""
    return (("cfg.json", doc if isinstance(doc, str) else json.dumps(doc)),)


_ECKART_SCAN = "--potential eckart --variant reg-sqrt --N 15 --h 0.1"
_BIG = "9" * 400  # an int that no double holds
_GRID_TOO_SMALL = "gamma grid too small: at least 8 points are required"

ROWS = (
    *(Row(f"TestValidation::test_h_flag_config_and_sweep_value_exit_1[{h!r}-{where}]", argv,
          1, said(f"h: h must be positive and finite (got {h!r})"), files)
      for h in (float("inf"), float("-inf"), float("nan"), 0.0)
      for where, argv, files in (
          ("flag", f"bound --potential harmonic --N 5 --h={h!r}", ()),
          ("config", "bound --config cfg.json", _file({"potential": "harmonic", "N": 5, "h": h})),
          ("sweep", f"sweep --potential harmonic --N 5 --h 1 --parameter h --values={h!r}", ()))),
    *(Row(f"TestValidation::test_basis_smaller_than_the_angular_number_is_a_config_error"
          f"[argv{i}-{message}]", argv, 1, said(message))
      for i, (argv, message) in enumerate([
          ("bound --potential harmonic --N 3 --h 0.1 --l 5",
           "l/m: N must exceed l (got N=3, l=5)"),
          ("bound --potential harmonic --dim 2 --l 10 --N 10 --h 0.1",
           "l/m: N must exceed m (got N=10, m=10)"),
          ("sweep --potential harmonic --l 5 --h 0.1 --parameter N --values 8,5",
           "l/m: N must exceed l (got N=5, l=5)")])),
    # the Coulomb functions' range
    *(Row(f"TestValidation::test_angular_number_past_the_coulomb_functions_is_a_config_error"
          f"[{mode}-flags{i}]", f"{mode} --potential coulomb --N 30 --h 1.1 --l 21 {flags}", 1,
          said("l/m: l must be an integer in [0, 20] (got 21)"))
      for i, (mode, flags) in enumerate((("scatter", "--gamma 1"), ("gamma-scan", "")))),
    *(Row(f"TestGammaGrid::test_bad_grid_flag_exits_1_before_any_solve[{label}-{grid}-{message}]",
          f"gamma-scan --potential {potential} --variant reg-sqrt --N {N} --h 0.1 --gamma {grid}",
          1, said(f"gamma: {message}"))
      for label, potential, N in (("no-pseudostate", "coulomb", 1), ("pseudostates", "eckart", 15))
      for grid, message in (
          ("3,2", _GRID_TOO_SMALL), ("1,2,3", _GRID_TOO_SMALL), ("1:2:0", _GRID_TOO_SMALL),
          ("8,7,6,5,4,3,2,1", "gamma grid must be strictly increasing"),
          ("0,1,2,3,4,5,6,7", "gamma must be positive and finite (got 0.0)"),
          ("1,2,3,4,5,6,7,inf", "gamma must be positive and finite (got inf)"))),
    Row("TestGammaGrid::test_grid_given_as_a_list_under_gamma_names_gammas",
        "gamma-scan --config cfg.json", 1,
        said("gamma: a config file gives a gamma-scan grid as a list under gammas"),
        _file({"potential": "eckart", "variant": "reg-sqrt", "N": 15, "h": 0.1,
               "gamma": [0.5, 1, 2, 3, 4, 5, 6, 7]})),
    Row("TestGammaGrid::test_bad_grid_in_a_config_file_exits_1", "gamma-scan --config cfg.json",
        1, said(f"gamma: {_GRID_TOO_SMALL}"),
        _file({"potential": "eckart", "variant": "reg-sqrt", "N": 15, "h": 0.1,
               "gammas": [1, 2, 3]})),
    *(Row(f"TestGammaGrid::test_config_grid_names_the_bad_rate[{value!r}]",
          "gamma-scan --config cfg.json", 1,
          said(f"gamma: gamma must be positive and finite (got {value!r})"),
          _file({"potential": "eckart", "variant": "reg-sqrt", "N": 15, "h": 0.1,
                 "gammas": [*range(1, 10), value]}))
      for value in (0.0, float("inf"))),
    *(Row(f"TestExactMatrixConfig::test_exits_1_with_the_field_before_any_build[{case}]",
          f"bound {flags} --N 10 --h 0.5", 1, said(message))
      for case, flags, message in (
          ("eckart", "--potential eckart",
           "variant: potential 'eckart(b=2,c=-1)' has no exact matrix elements"),
          ("alpha-alpha", "--potential buck_alpha_alpha",
           "variant: potential 'buck_alpha_alpha' has no exact matrix elements"),
          ("eckart-2d", "--potential eckart --dim 2",
           "variant: potential 'eckart(b=2,c=-1)' has no exact matrix elements"),
          ("var-alpha-0", "--potential coulomb --variant var --alpha 0",
           "alpha: divergent integral: kinetic on family RegSqrt with alpha=0.0"),
          ("non-reg-alpha-1", "--potential coulomb --variant non-reg --alpha 1",
           "alpha: divergent integral: kinetic on family NonReg with alpha=1.0"),
          ("non-reg-vg-centrifugal", "--potential coulomb --variant non-reg-vg --alpha 0 --l 1",
           "alpha: divergent integral: 1/r^2 on family NonReg with alpha=0.0"))),
    # the check reads the basis a build takes, a MeshSpec, whose alpha is a float
    Row("TestExactMatrixConfig::test_whole_alpha_in_a_config_file_is_named_as_the_builder_names_it",
        "bound --config cfg.json", 1,
        said("alpha: divergent integral: kinetic on family NonReg with alpha=1.0"),
        _file({"potential": "coulomb", "variant": "non-reg", "alpha": 1, "N": 10, "h": 0.5})),
    *(Row(f"TestShortRangeConfig::test_exits_1_before_any_build[{case}]",
          f"{argv} --variant reg-sqrt --N 10 --h 0.5", 1,
          said(f"potential: potential {label!r} is not short-range: its term {term} does not "
               "vanish faster than 1/r"))
      for case, argv, label, term in (
          ("scatter-harmonic", "scatter --potential harmonic --gamma 1", "harmonic", "0.5 r**2"),
          ("gamma-scan-constant", """gamma-scan --potential '{"terms":[{"c":1,"p":0}]}'""",
           "user", "1 r**0"),
          ("gamma-scan-r^-1/2",
           """gamma-scan --potential '{"terms":[{"c":-1,"p":-1},{"c":2,"p":-0.5}]}'""",
           "user", "2 r**-0.5"))),
    # the N field's own rule, as at the first value
    *(Row(f"TestSweep::test_mesh_sizes_must_be_whole[{values}]",
          f"sweep --parameter N --values {values} --potential coulomb --h 0.9", 1,
          said(f"N: must be a whole number (got {float(values.split(',')[0])!r})"))
      for values in ("10.7,12", "inf", "nan")),
    Row("TestReplay::test_field_the_mode_does_not_read_exits_1[flag]",
        "reproduce --table 2 --N 5", 1,
        said("N: only applies to bound, scatter, gamma-scan")),
    Row("TestReplay::test_field_the_mode_does_not_read_exits_1[config]", "bound --config cfg.json",
        1, said("gammas: only applies to gamma-scan"),
        _file({"potential": "harmonic", "N": 10, "h": 0.1, "gammas": [1.0, 2.0]})),
    Row("TestMain::test_missing_subcommand_exits_1", "", 1,
        said("the following arguments are required: mode")),
    Row("TestMain::test_validation_failure_exits_1", "scatter --potential eckart --N 15 --h 0.1",
        1, said("gamma: scatter requires a positive, finite --gamma")),
    # in builtin's words, which name every builtin
    Row("TestMain::test_unknown_potential_exits_1", "bound --potential colomb --N 10 --h 0.5", 1,
        said("potential: unknown name 'colomb'; builtins are harmonic, coulomb, eckart, "
             "buck_alpha_alpha")),
    Row("TestMain::test_unknown_table_exits_1_in_the_librarys_words", "reproduce --table 9", 1,
        said("table: table must be one of (1, 2, 3, 4, 5), got 9")),
    # a builtin's parameters are named as given, a JSON spec's as in JSON
    *(Row(f"TestMain::test_non_finite_potential_exits_1[{potential}-{field}]",
          f"bound --potential {shlex.quote(potential)} --variant reg-sqrt --N 10 --h 0.9", 1,
          said(f"potential: {message}"))
      for potential, field, message in (
          ("coulomb:Z=nan", "Z", "Z must be finite (got nan)"),
          ("eckart:b=inf", "b", "b must be finite (got inf)"),
          ("eckart:c=-inf", "c", "c must be finite (got -inf)"),
          ('{"terms": [{"c": NaN, "p": -1}]}', "terms[0].c:",
           "invalid spec (terms[0].c: must be finite (got nan))"),
          ('{"terms": [{"c": -1, "p": -1}], "tailZ": Infinity}', "tailZ:",
           "invalid spec (tailZ: must be finite (got inf))"),
          ('{"coulombErf": {"q": 1, "mu": Infinity}}', "coulombErf.mu:",
           "invalid spec (coulombErf.mu: must be finite (got inf))"),
          ('{"eckart": {"b": NaN, "c": -1}}', "eckart.b:",
           "invalid spec (eckart.b: must be finite (got nan))"))),
    Row("TestMain::test_non_finite_potential_exits_1[coulomb:Z=inf-Z]",
        "bound --potential coulomb:Z=inf --variant reg-sqrt --N 5 --h 1", 1,
        said("potential: Z must be finite (got inf)")),
    # not run as an undamped constant
    Row("TestMain::test_unknown_spec_key_exits_1",
        """bound --potential '{"terms":[{"c":-1,"p":-1},{"c":0.2,"p":0,"alpha":0.5}]}' """
        "--variant reg-sqrt --N 10 --h 0.5", 1,
        said("potential: invalid spec (terms[1].alpha: unknown field)")),
    # an int that no float holds is a config error, not a numerical failure
    Row("TestMain::test_number_beyond_double_range_exits_1_naming_the_field[N]",
        f"bound --potential coulomb --h 1 --N {_BIG}", 1,
        said("N: must be a whole number (got an int beyond double range)")),
    Row("TestMain::test_number_beyond_double_range_exits_1_naming_the_field[config-h]",
        "bound --potential coulomb --N 10 --config cfg.json", 1,
        said("h: must be an int or a float (got an int beyond double range)"),
        _file(f'{{"h": {_BIG}}}')),
    Row("TestMain::test_number_beyond_double_range_exits_1_naming_the_field[spec-c]",
        f"""bound --potential '{{"terms":[{{"c":-{_BIG},"p":-1}}]}}' --N 10 --h 1""", 1,
        said("potential: invalid spec (terms[0].c: must be within double range)")),
    # json.load raises a plain ValueError for an int literal longer than
    # Python's int-to-string limit of 4300 digits
    Row("TestMain::test_config_int_past_the_digit_limit_is_invalid_json",
        "bound --potential coulomb --N 10 --config cfg.json", 1,
        r"lagmesh: config: invalid JSON \(Exceeds the limit \(4300 digits?\) for integer string "
        r"conversion.*\)\n", _file(f'{{"h": {"9" * 5000}}}')),
    # the integral relations are built from 3D Coulomb/Riccati functions
    *(Row(f"TestMain::test_two_dimensional_scatter_exits_1[{variant}]",
          f"scatter --dim 2 --variant {variant} --potential eckart --m 1 --N 12 --h 0.1 --gamma 2",
          1, said("dim: scatter is defined in three dimensions only", *extra))
      for variant, extra in (
          ("reg-sqrt", ()),
          ("var", ("variant: potential 'eckart(b=2,c=-1)' has no exact matrix elements",)))),
    *(Row(f"TestMain::test_extreme_h_exits_2_naming_h[{dim}-{h}]",
          f"bound --potential coulomb --dim {dim} --l 1 --variant reg-sqrt --N 20 --h {h}", 2,
          said(f"numerical failure: h={float(h)!r}: the kinetic scale 1/(2 h^2) is out of "
               "double range"))
      for dim in (2, 3) for h in ("1e-170", "1e-160", "1e200")),
    *(Row(f"TestMain::test_config_file_mode_must_match_the_subcommand[{command}]",
          f"{command} --config cfg.json", 1,
          said(f"mode: the config file asks for {other!r}, not {command!r}"),
          _file({"mode": other, "potential": "eckart", "variant": "reg-sqrt", "N": 15, "h": 0.1,
                 "gamma": 4, "table": 1}))
      for command, other in (("bound", "gamma-scan"), ("scatter", "gamma-scan"),
                             ("gamma-scan", "bound"), ("reproduce", "gamma-scan"))),
    *(Row(f"TestMain::test_config_file_with_both_l_and_m_exits_1[flags{i}]",
          f"bound --config cfg.json {flags}", 1, said("l/m: give one angular number, not both"),
          _file({"dim": 2, "l": 3, "m": 1, "potential": "harmonic"}))
      for i, flags in enumerate(("", "--l 1", "--m 1"))),
    *(Row(f"TestMain::test_malformed_config_file_exits_1[doc{i}-{field}]",
          "bound --config cfg.json", 1, said(message), _file(doc))
      for i, (doc, field, message) in enumerate((
          ({"potential": "harmonic", "N": 10, "h": "0.1"}, "h",
           "h: must be an int or a float (got '0.1')"),
          ({"potential": "harmonic", "N": "10", "h": 0.1}, "N",
           "N: must be a whole number (got '10')"),
          ({"potential": "harmonic", "N": True, "h": 0.1}, "N",
           "N: must be a whole number (got True)"),
          ({"potential": "harmonic", "N": 10, "h": 0.1, "gammas": [1, "2"]}, "gammas",
           "gammas: must be a sequence of ints or floats (got [1, '2'])"),
          ({"potential": {"label": "well", "terms": [1]}, "N": 10, "h": 0.1}, "potential",
           "potential: invalid spec (terms[0]: must be a JSON object)"),
          ([1, 2], "config", "config: must be a JSON object")))),
    Row("TestMain::test_unknown_config_keys_exit_1", "bound --config cfg.json", 1,
        said("aplha: unknown field", "verbose: unknown field"),
        _file({"potential": "harmonic", "N": 10, "h": 0.1, "aplha": 3, "verbose": None})),
    # json keeps a repeated key's last value: c = 2 would run a repulsive tail
    Row("TestMain::test_repeated_key_exits_1_naming_it[inline-spec]",
        """bound --potential '{"terms":[{"c":-1,"c":2,"p":-1}]}' --variant reg-sqrt """
        "--N 10 --h 0.5", 1, said("potential: invalid JSON (repeated key 'c')")),
    *(Row(f"TestMain::test_repeated_key_exits_1_naming_it[{case}]", "bound --config cfg.json", 1,
          said(f"config: invalid JSON (repeated key {key!r})"), _file(doc))
      for case, doc, key in (
          ("config-top-level", '{"potential":"harmonic","N":10,"N":30,"h":0.1}', "N"),
          ("config-spec", '{"potential":{"terms":[{"c":-1,"c":2,"p":-1}]},"N":10,"h":0.5}',
           "c"))),
    # the reader's error under one prefix; a field error keeps "invalid spec"
    *(Row(f"TestMain::test_malformed_inline_spec_names_the_potential_once[{case}]",
          f"bound --potential {shlex.quote(spec)} --N 10 --h 0.5", 1,
          rf"lagmesh: potential: invalid JSON \({message}: line 1 column \d+ \(char \d+\)\)\n")
      for case, spec, message in (
          ("unclosed", '{"terms": [{"c": -1, "p": -1}]', "Expecting ',' delimiter"),
          ("trailing-comma", '{"terms": [{"c": -1, "p": -1}],}',
           "Expecting property name enclosed in double quotes"),
          ("extra-data", '{"terms": [{"c": -1, "p": -1}]} {}', "Extra data"))),
    Row("TestMain::test_config_that_is_no_object_exits_1", "bound --config cfg.json", 1,
        said("config: must be a JSON object"), _file("[1]")),
    Row("TestMain::test_tail_at_odds_with_the_terms_exits_1",
        """bound --potential '{"terms": [{"c": -1, "p": -1}], "tailZ": 0}' --N 5 --h 1""", 1,
        said("potential: invalid spec (tailZ: 0.0 differs from the tail -1.0 of the terms)")),
    Row("TestMain::test_malformed_inline_spec_names_the_field",
        """bound --potential '{"coulombErf": {"q": 1}}' --N 5 --h 1""", 1,
        said("potential: invalid spec (coulombErf.mu: missing)")),
    Row("TestMain::test_bad_grid_argument", f"gamma-scan {_ECKART_SCAN} --gamma fast", 1,
        said("gamma: use start:stop:count or a comma-separated list")),
    *(Row(f"TestMain::test_non_finite_input_exits_1[{case}]", f"{flags} {_ECKART_SCAN}", 1,
          said(message))
      for case, flags, message in (
          ("scatter-inf", "scatter --gamma inf",
           "gamma: gamma must be positive and finite (got inf)"),
          ("scatter-nan", "scatter --gamma nan",
           "gamma: gamma must be positive and finite (got nan)"),
          ("sweep-inf", "sweep --parameter gamma --values inf",
           "gamma: gamma must be positive and finite (got inf)"),
          ("grid-inf", "gamma-scan --gamma 1:inf:16",
           "gamma: gamma must be positive and finite (got inf)"),
          ("grid-nan", "gamma-scan --gamma nan:10:16",
           "gamma: gamma must be positive and finite (got nan)"),
          ("alpha-nan", "bound --alpha nan",
           "alpha: alpha must be finite and nonnegative (got nan)"),
          ("alpha-inf", "bound --alpha inf",
           "alpha: alpha must be finite and nonnegative (got inf)"))),
    # before geomspace, which warns on inf or NaN and raises at 0
    *(Row(f"TestMain::test_grid_endpoint_is_checked_by_the_rate_rule[{at}-{value}]",
          f"gamma-scan {_ECKART_SCAN} --gamma={grid}", 1,
          said(f"gamma: gamma must be positive and finite (got {float(value)!r})"))
      for at in ("start", "stop")
      for value in ("0", "-1", "inf", "nan")
      for grid in [f"{value}:8:12" if at == "start" else f"0.5:{value}:12"]),
    *(Row(f"TestMain::test_alpha_beyond_gamma_range_exits_2_naming_alpha[{alpha}]",
          f"bound --potential harmonic --N 5 --h 1 --alpha {alpha}", 2,
          said(f"numerical failure: alpha={float(alpha)!r}: Gamma(alpha + 1) is out of "
               "double range"))
      for alpha in ("200", "1e300")),
    *(Row(f"TestMain::test_malformed_flag_exits_1_naming_it[{case}]", argv, 1, said(message))
      for case, argv, message in (
          ("format", "bound --potential harmonic --N 5 --h 1 --format xml",
           "format: must be csv or json"),
          ("gamma", "scatter --potential eckart --N 5 --h 1 --gamma x", "gamma: must be a number"),
          ("builtin-parameter", "bound --potential coulomb:Z=x --N 5 --h 1",
           "potential: Z must be a number (got 'x')"),
          ("repeated-parameter", "bound --potential 'coulomb:Z=1, Z=-2' --N 5 --h 1",
           "potential: repeated parameter 'Z'"),
          ("no-parameter", "sweep --potential harmonic --N 5 --h 1 --values 1,2",
           "sweep: both --parameter and --values are required"),
          ("no-values", "sweep --potential harmonic --N 5 --h 1 --parameter h",
           "sweep: both --parameter and --values are required"),
          ("values", "sweep --potential harmonic --N 5 --h 1 --parameter h --values a,b",
           "values: must be comma-separated numbers"))),
    *(Row(f"TestMain::test_var_without_exact_matrix_elements_exits_1[{potential}-{label}]",
          f"bound --potential {shlex.quote(potential)} --N 5 --h 0.1", 1,
          said(f"variant: potential {label!r} has no exact matrix elements"))
      for potential, label in (("eckart", "eckart(b=2,c=-1)"),
                               ('{"terms": [{"c": 1, "p": 1.5}]}', "user"))),
    Row("TestMain::test_missing_config_file_exits_1", "bound --config missing.json", 1,
        r"lagmesh: config: \[Errno 2\] No such file or directory: '.*missing\.json'\n",
        (("missing.json", None),)),
)


def failures(rows, run):
    """``(id, why)`` of each row that ``run(argv) -> (code, out, err)``
    does not refuse as the row states; argv names files in a temporary
    directory."""
    failed = []
    for row in rows:
        with tempfile.TemporaryDirectory() as directory:
            code, out, err = run(row.args(directory))
        if code != row.code or out or not re.fullmatch(row.err, err):
            failed.append((row.id, f"exit {code}, stdout {out[:80]!r}, stderr {err!r}"))
    return failed


def _console_failures():
    """``failures`` of every row through the installed ``lagmesh``, with a
    RuntimeWarning as an error."""
    lagmesh = shutil.which("lagmesh")
    if lagmesh is None:
        sys.exit("cli_refusals: no lagmesh executable on PATH")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")

    def console(argv):
        done = subprocess.run([lagmesh, *argv], env=env, capture_output=True, text=True,
                              timeout=120)
        return done.returncode, done.stdout, done.stderr

    return failures(ROWS, console)


if __name__ == "__main__":
    failed = _console_failures()
    for row_id, why in failed:
        print(f"FAIL {row_id}: {why}")
    print(f"{len(ROWS) - len(failed)}/{len(ROWS)} refusals as stated")
    sys.exit(1 if failed else 0)
