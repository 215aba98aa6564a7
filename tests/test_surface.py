"""The public surface of the package has consumers.

Every public function and class defined in src/trimag is used by the
package's own code, or named in the README, or listed below with the
reason it stays.  Every name the package root re-exports is documented in
the README.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trimag"
README = (ROOT / "README.md").read_text()

#: public names that only tests call, with the reason each one stays
ALLOWED = {
    "exact_eigenshift": "a span boundary of benchmarks/tracing.py",
    "cube_root_response": "the branch seed at the degeneracy (ROADMAP item 1)",
    "linear_response": "the branch seed away from the degeneracy (ROADMAP item 1)",
}

TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(PACKAGE.glob("*.py"))}

DEFINITIONS = {node.name: node
               for name, tree in TREES.items() if name != "__init__.py"
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}


def referenced(name: str) -> bool:
    """True if a package module outside __init__.py loads the name anywhere
    but inside its own definition."""
    own = {id(node) for node in ast.walk(DEFINITIONS[name])}
    return any(
        id(node) not in own
        and name in (getattr(node, "id", None), getattr(node, "attr", None))
        for module, tree in TREES.items() if module != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def in_readme(name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", README) is not None


@pytest.mark.parametrize("name", sorted(DEFINITIONS))
def test_public_name_has_a_consumer(name):
    used = referenced(name) or in_readme(name)
    if name in ALLOWED:
        assert not used, f"{name} has a consumer now; drop it from ALLOWED"
    else:
        assert used, (f"{name} is used by nothing in src/ or the README: "
                      f"delete it, move it to tests/, or list why it stays")


def test_allowed_names_exist():
    assert set(ALLOWED) <= set(DEFINITIONS)


def test_root_exports_are_documented():
    exported = [alias.name for node in TREES["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exported
    assert [name for name in exported if not in_readme(name)] == []
