"""The narrative demos and the README's library example run without error;
the README's CLI commands run as rows of ``cli_runs``."""

import pathlib
import re
import runpy

import pytest

from lagmesh import potentials
from cli_runs import CLI_EXAMPLES

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_library_example_runs(capsys):
    section = README.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.startswith("E = ") for line in lines)


def test_readme_lists_the_builtins_with_their_defaults():
    listed = ", ".join(
        f"`{name}`" + (" (" + ", ".join(f"`{key}={value:g}`" for key, value in defaults.items())
                       + ")" if defaults else "")
        for name, (defaults, _) in potentials._BUILTINS.items())
    assert f"the builtins, with their parameters' defaults, are {listed})" in " ".join(
        README.split())


def test_readme_cli_examples_are_found():
    assert len(CLI_EXAMPLES) >= 7
