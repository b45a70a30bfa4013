"""Every public module-level function and class of the package has a user."""

import ast
from pathlib import Path

import atombench

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atombench"
USERS = ("src", "scripts", "perfbench")


def _public_definitions(path: Path) -> list:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _used_names(path: Path) -> set:
    """Identifiers, attribute names and imported names of one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_used_or_exported():
    used = set()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            used |= _used_names(path)
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _public_definitions(path)
              if name not in used and name not in atombench.__all__]
    assert not unused, f"public but unused outside tests: {unused}"
