"""The public surface of the package has consumers.

Every public function, class and module-level constant defined in
src/trimag is used by the package's own code, or named in the README's
inline code, or listed below with the reason it stays; so is every public
method and property of those classes.  Every name the package root
re-exports is documented in the README.  A README mention counts only as
inline code outside fenced blocks: a name that appears only in a diagram
or an example's output is not documented.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trimag"
#: the README's inline code spans, fenced blocks left out
README_CODE = "\n".join(re.findall(
    r"`([^`]+)`", re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(),
                         flags=re.M | re.S)))

#: public names that only tests call, with the reason each one stays
ALLOWED: dict[str, str] = {}

TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(PACKAGE.glob("*.py"))}


def _defined_names(node) -> list[str]:
    """The names a module-level statement defines: a function's or a
    class's, or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets
            for name in (target.elts if isinstance(target, ast.Tuple)
                         else [target])
            if isinstance(name, ast.Name)]


DEFINITIONS = {name: node
               for module, tree in TREES.items() if module != "__init__.py"
               for node in tree.body for name in _defined_names(node)
               if not name.startswith("_")}

#: "Class.member" -> definition of each public method and property
MEMBERS = {f"{cls.name}.{node.name}": node
           for cls in DEFINITIONS.values() if isinstance(cls, ast.ClassDef)
           for node in cls.body
           if isinstance(node, ast.FunctionDef)
           and not node.name.startswith("_")}


def referenced(name: str) -> bool:
    """True if a package module outside __init__.py loads the name anywhere
    but inside its own definition."""
    own = {id(node) for node in ast.walk(DEFINITIONS[name])}
    return any(
        id(node) not in own and isinstance(node.ctx, ast.Load)
        and name in (getattr(node, "id", None), getattr(node, "attr", None))
        for module, tree in TREES.items() if module != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def member_loaded(qualname: str) -> bool:
    """True if a package module outside __init__.py loads obj.<member>
    anywhere but inside the member's own definition.

    Only attribute loads count: a local variable that shares the member's
    name is not a use of it.
    """
    member = qualname.rpartition(".")[2]
    own = {id(node) for node in ast.walk(MEMBERS[qualname])}
    return any(
        id(node) not in own and node.attr == member
        and isinstance(node.ctx, ast.Load)
        for module, tree in TREES.items() if module != "__init__.py"
        for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def in_readme(name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", README_CODE) is not None


@pytest.mark.parametrize("name", sorted(DEFINITIONS))
def test_public_name_has_a_consumer(name):
    used = referenced(name) or in_readme(name)
    if name in ALLOWED:
        assert not used, f"{name} has a consumer now; drop it from ALLOWED"
    else:
        assert used, (f"{name} is used by nothing in src/ or the README: "
                      f"delete it, move it to tests/, or list why it stays")


@pytest.mark.parametrize("qualname", sorted(MEMBERS))
def test_public_member_has_a_consumer(qualname):
    member = qualname.rpartition(".")[2]
    assert member_loaded(qualname) or in_readme(member), (
        f"{qualname} is used by nothing in src/ or the README: delete it "
        f"or move it to tests/")


def test_allowed_names_exist():
    assert set(ALLOWED) <= set(DEFINITIONS)


def test_root_exports_are_documented():
    exported = [alias.name for node in TREES["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exported
    assert [name for name in exported if not in_readme(name)] == []
