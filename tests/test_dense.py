"""The dense oracle module: the program never imports it, and the package
still exports every name that moved into it."""

import ast
from pathlib import Path

import pytest

import qwitness
from qwitness import dense

PROGRAM_MODULES = ("cli", "witness", "optimize", "classical", "ineq", "qobs", "opalg")

# Names the package exported from qobs, ineq and witness before they moved
# into dense.
MOVED_EXPORTS = (
    "ChshElement",
    "WitnessPair",
    "bloch_observable",
    "chsh_element",
    "decompose_svetlichny",
    "element_witness",
    "embed",
    "group_observable",
    "parity_projector",
    "total_witness",
    "witness_pair",
)


def imported_modules(source: str) -> set[str]:
    """Every module an import statement names, with relative imports written
    as ``.name`` and ``from . import name`` counted as ``.name``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module is None:
                found.update(base + alias.name for alias in node.names)
            else:
                found.add(base)
    return found


def imports_dense(source: str) -> bool:
    return any(name.rsplit(".", 1)[-1] == "dense" for name in imported_modules(source))


@pytest.mark.parametrize("module", PROGRAM_MODULES)
def test_program_module_does_not_import_dense(module):
    path = Path(qwitness.__file__).parent / f"{module}.py"
    assert not imports_dense(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "source",
    [
        "from .dense import term\n",
        "from . import dense\n",
        "from . import ineq, dense\n",
        "import qwitness.dense\n",
        "from qwitness.dense import witness_pair\n",
        "def f():\n    from .dense import embed\n",
    ],
)
def test_import_check_catches_every_form(source):
    assert imports_dense(source)


def test_import_check_ignores_other_modules():
    assert not imports_dense("from .ineq import operator_sum\nimport numpy as np\n")


@pytest.mark.parametrize("name", MOVED_EXPORTS)
def test_moved_names_are_reexported(name):
    assert getattr(qwitness, name) is getattr(dense, name)


def test_random_settings_left_the_package():
    assert not hasattr(qwitness, "random_settings")
    assert not hasattr(qwitness.qobs, "random_settings")
