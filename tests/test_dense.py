"""Source rules: the program never imports the dense oracle module, the
package still exports every name that moved into it, and the party cap
lives in opalg alone."""

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


def cap_rule_breaks(source: str) -> list[str]:
    """Each ``raise CapExceededError`` and each module-level ``MAX_*``
    constant in a module's source."""
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "CapExceededError":
                found.append(f"raise CapExceededError (line {node.lineno})")
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                found.append(f"{target.id} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", sorted(Path(qwitness.__file__).parent.glob("*.py")), ids=lambda path: path.stem
)
def test_party_cap_lives_in_opalg(path):
    breaks = cap_rule_breaks(path.read_text(encoding="utf-8"))
    if path.stem == "opalg":
        assert breaks
    else:
        assert breaks == []


@pytest.mark.parametrize(
    "source",
    [
        "raise CapExceededError('x')\n",
        "def f():\n    raise opalg.CapExceededError\n",
        "MAX_PARTIES = 8\n",
        "MAX_DIM: int = 256\n",
    ],
)
def test_cap_check_catches_every_form(source):
    assert cap_rule_breaks(source)


def test_cap_check_ignores_other_code():
    assert not cap_rule_breaks(
        "from .opalg import MAX_PARTIES, check_parties\n"
        "raise ValueError('capped')\n"
        "def f():\n    MAX_LOCAL = 3\n"
    )


@pytest.mark.parametrize("name", MOVED_EXPORTS)
def test_moved_names_are_reexported(name):
    assert getattr(qwitness, name) is getattr(dense, name)


def test_random_settings_left_the_package():
    assert not hasattr(qwitness, "random_settings")
    assert not hasattr(qwitness.qobs, "random_settings")
