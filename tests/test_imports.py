"""Import footprint: the package and the `radius` command load only what they use.

Each check starts a fresh interpreter with ``-X importtime``, which lists
every module the run imports, because this test process has long since
loaded every submodule.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import numradlab
from numradlab.matio import save_matrix

SRC = str(Path(numradlab.__file__).parents[1])


def imported_by(*args):
    """Names of the modules a fresh `python -X importtime ARGS` imports."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


def submodules(modules):
    return {m.removeprefix("numradlab.") for m in modules if m.startswith("numradlab.")}


def test_package_import_loads_no_submodule():
    modules = imported_by("-c", "import numradlab")
    assert "numradlab" in modules
    assert submodules(modules) == set()


def test_radius_name_leaves_the_certification_core_unloaded():
    loaded = submodules(imported_by("-c", "from numradlab import numerical_radius"))
    assert "radius" in loaded
    assert not loaded & {"catalog", "suite", "ensembles", "report", "functions", "means"}


def test_radius_command_loads_its_modules_only(tmp_path):
    path = tmp_path / "nil.json"
    save_matrix(np.array([[0, 1], [0, 0]], dtype=complex), path)
    modules = imported_by("-m", "numradlab", "radius", "--matrix", str(path))
    assert submodules(modules) == {"cli", "errors", "linalg", "matio", "radius"}
    assert "concurrent.futures.process" not in modules


def test_public_names_resolve_and_are_listed():
    listed = set(dir(numradlab))
    for name in numradlab.__all__:
        assert getattr(numradlab, name) is not None
        assert name in listed
    assert numradlab.numerical_radius is numradlab.radius.numerical_radius
    with pytest.raises(AttributeError):
        numradlab.no_such_name


def test_readme_library_example_runs():
    # The README's library example, run as a user would, in a fresh
    # interpreter: a name it uses that the package no longer has fails here.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert '"records"' in proc.stdout
