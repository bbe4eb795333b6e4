"""The accepted runs of the ``lagmesh`` command line, each stated once: argv
in; exit code 0, the whole of stderr (a pattern, as in
``tests/cli_refusals.py``, whose runner this table shares) and the report
out, checked as the row's ``report`` says: ``"text"``, ``"json"`` (schema
1) or ``"replay"`` (the config echo, fed back through ``--config``, prints
the same bytes).  A row that names ``--out`` finds its report in that
file.  A run of ``reproduce --table K --check`` prints on stderr exactly
the table's count of comparisons, every one a ``PASS``.  Each command of
the README's CLI block runs as written and as a replay.  A row's id is the
tier-1 test id that runs it.

``tests/test_cli.py`` runs every row through ``cli.main`` in-process.  Run
as a script, this module runs every row through the installed ``lagmesh``
executable, with a RuntimeWarning as an error, and exits 1 naming each
row that fails::

    python tests/cli_runs.py
"""

import pathlib
import re
import sys

from cli_refusals import Row, script


def _cli_examples():
    """The ``lagmesh ...`` commands of the README's CLI block, with their
    continuation lines joined."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("lagmesh ")]


CLI_EXAMPLES = _cli_examples()

# table -> the reference comparisons that its --check makes
COMPARISONS = {1: 15, 2: 15, 3: 18, 4: 20, 5: 4}
_ECKART = "--potential eckart --variant reg-sqrt --l 0 --N 15 --h 0.1"


def _stderr(argv):
    """The stderr of an accepted run: for ``reproduce --table K --check``,
    each of the table's comparisons a ``PASS``; else nothing."""
    words = argv.split()
    if "--check" not in words:
        return ""
    n = COMPARISONS[int(words[words.index("--table") + 1])]
    return rf"(?:PASS [^\n]*\n){{{n}}}{n}/{n} reference comparisons passed\n"


def _ran(case, argv, report="json", files=()):
    """A run of ``TestRuns::test_run``."""
    return Row(f"TestRuns::test_run[{case}]", argv, 0, _stderr(argv), files, report)


def _replayed(case, argv, files=()):
    """A JSON run whose echo replays it, a case of
    ``TestReplay::test_cli_report_replays``."""
    argv += " --format json"
    return Row(f"TestReplay::test_cli_report_replays[{case}]", argv, 0, _stderr(argv), files,
               "replay")


ROWS = (
    *(_ran(f"reproduce-{k}-check", f"reproduce --table {k} --check --format json")
      for k in COMPARISONS),
    _ran("reproduce-2-check-csv", "reproduce --table 2 --check", "text"),
    Row("TestMain::test_out_writes_file", "reproduce --table 5 --format json --out report.json",
        0, "", (("report.json", None),), "json"),
    *(run for variant in ("var", "reg-sqrt", "reg-r", "non-reg", "non-reg-vg") for run in (
        _ran(f"bound-{variant}",
             f"bound --potential coulomb --l 1 --variant {variant} --N 40 --h 0.5 --format json"),
        _ran(f"sweep-h-{variant}", f"sweep --potential coulomb --l 1 --variant {variant} --N 40 "
             "--parameter h --values 0.3,0.5,0.7 --format json"))),
    *(run for variant in ("var", "reg-sqrt") for run in (
        _ran(f"bound-2d-{variant}", f"bound --potential harmonic --l 1 --dim 2 "
             f"--variant {variant} --N 30 --h 0.1 --format json"),
        _ran(f"sweep-h-2d-{variant}", f"sweep --potential harmonic --m 1 --dim 2 "
             f"--variant {variant} --N 30 --parameter h --values 0.3,0.5,0.7 --format json"))),
    # the benchmark's tail cases: the Coulomb functions' large-l Taylor
    # sweeps, Steed's fractions and the Hankel series
    _ran("gamma-scan-coulomb-l10", "gamma-scan --potential coulomb --l 10 --N 30 --h 1.1 "
         "--format json"),
    _ran("gamma-scan-alpha-alpha-l4", "gamma-scan --potential buck_alpha_alpha --l 4 --N 30 "
         "--h 0.23 --format json"),
    # the plateau rule's tie floor: of the 299 pseudostates of a 300-point
    # d-wave mesh, half are flat at rounding noise
    _ran("gamma-scan-alpha-alpha-N300", "gamma-scan --potential buck_alpha_alpha --l 2 --N 300 "
         "--h 0.05 --format json"),
    # F from F'/F and the Wronskian below the gate: a short-range term on a
    # Coulomb tail (a pure Coulomb scan has tan delta = 0, so F never
    # reaches its output)
    _ran("gamma-scan-spec-l0", """gamma-scan --potential '{"terms":[{"c":1,"p":-1},"""
         """{"c":-3,"p":0,"a":0.5}]}' --l 0 --N 100 --h 0.12 --format json"""),
    _ran("gamma-scan-spec-l20", """gamma-scan --potential '{"terms":[{"c":-1,"p":-1},"""
         """{"c":2,"p":0,"a":0.5}]}' --l 20 --N 100 --h 0.12 --format json"""),
    # the far-point start and the rescaling of the Laguerre pass at the
    # largest nodes
    _ran("bound-harmonic-N1000", "bound --potential harmonic --N 1000 --h 0.02 --format json"),
    _ran("scatter-eckart", f"scatter {_ECKART} --gamma 4", "text"),
    _ran("sweep-N-csv", "sweep --potential coulomb --l 1 --h 0.9 --parameter N --values 10,12",
         "text"),
    _ran("sweep-gamma-csv", f"sweep {_ECKART} --parameter gamma --values 2,4", "text"),
    # no exact matrix elements, so a variant that reads none
    _ran("bound-eckart", "bound --potential eckart --variant reg-sqrt --N 10 --h 0.5", "text"),
    # undamped terms that cancel leave a short-range potential
    _ran("gamma-scan-cancelling", """gamma-scan --potential """
         """'{"terms":[{"c":1,"p":0},{"c":-1,"p":0},{"c":-1,"p":-1}]}' --N 10 --h 0.5""",
         "text"),
    *(run for i, c in enumerate(CLI_EXAMPLES, 1) for run in (
        _ran(f"readme-{i}", c.split(" ", 1)[1], "text"),
        _replayed(f"readme-{i}", c.split(" ", 1)[1]))),
    *(_replayed(f"table-{k}", f"reproduce --table {k}") for k in range(1, 6)),
    _replayed("sweep-N", "sweep --parameter N --values 10,12 --potential coulomb --l 1 --h 0.9"),
    _replayed("sweep-h", "sweep --parameter h --values 0.3,0.5 --potential harmonic --N 20 "
              "--h 0.09"),
    _replayed("sweep-gamma", "sweep --parameter gamma --values 2,4 --potential eckart "
              "--variant reg-sqrt --N 15 --h 0.1"),
    # a report written to --out replays as stdout does
    *(_replayed(f"out-{mode}", f"{argv} --out report.json", (("report.json", None),))
      for mode, argv in (
          ("bound", "bound --potential coulomb --l 1 --variant non-reg --N 20 --h 0.5"),
          ("gamma-scan", "gamma-scan --potential eckart --variant reg-sqrt --N 15 --h 0.1 "
           "--gamma 0.5:8:12"),
          ("sweep", f"sweep {_ECKART} --parameter gamma --values 2,4"))),
)


if __name__ == "__main__":
    sys.exit(script(ROWS, "runs as stated"))
