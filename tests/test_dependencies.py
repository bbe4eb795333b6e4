"""The runtime needs the standard library and NumPy alone.

``pyproject.toml`` declares numpy as the only dependency; scipy, mpmath and
hypothesis are test extras.  Every import statement of the package, lazy
ones inside functions included, must keep to that.  ``pyproject.toml`` also
states the suite's one warning rule: a RuntimeWarning fails its test.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lagmesh"


def _imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    strays = {f"{path.name}: {name}" for path in sources
              for name in _imported_modules(path) if name not in allowed}
    assert not strays


def test_numpy_is_the_one_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_a_runtime_warning_fails_every_test(pytestconfig):
    # stated once, for every test; no test restates it
    assert pytestconfig.inipath == ROOT / "pyproject.toml"
    assert "error::RuntimeWarning" in pytestconfig.getini("filterwarnings")


@pytest.mark.filterwarnings("ignore::UserWarning")  # [tool.setuptools] is "beta"
def test_declared_version_is_the_package_version():
    # a report's build id is read from lagmesh.__version__, installed or not,
    # and the package metadata reads its version from there too
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    import lagmesh

    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "version" not in project and project["dynamic"] == ["version"]
    config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == lagmesh.__version__
