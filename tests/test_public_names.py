"""Every public module-level function, class and constant of the package,
and every public method of its classes, has a user; every private one is
read outside tests."""

import ast
import re
from pathlib import Path

import atombench

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atombench"
USERS = ("src", "scripts", "perfbench")


def _public_definitions(path: Path) -> list:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_methods(path: Path) -> list:
    """Class.method for every public method of a module-level class."""
    return [f"{cls.name}.{node.name}"
            for cls in ast.parse(path.read_text()).body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _public_constants(path: Path) -> list:
    """ALL-CAPS names assigned at module level."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [t.id for t in targets if isinstance(t, ast.Name)
                  and t.id.isupper() and not t.id.startswith("_")]
    return names


def _private_definitions(path: Path) -> list:
    """Module-level functions, classes and assigned names, and Class.method
    for the methods of module-level classes, whose name starts with one
    underscore."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef)]
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for t in targets:
            names += [e.id for e in getattr(t, "elts", [t])
                      if isinstance(e, ast.Name)]
    return [name for name in names
            if re.match(r"_[^_]", name.rsplit(".", 1)[-1])]


def _used_names(path: Path, reads_only: bool = False) -> set:
    """Identifiers, attribute names and imported names of one file; with
    reads_only, only the identifiers and attribute names that are loaded."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if reads_only and not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _unused(definitions, reads_only: bool = False) -> list:
    used = set()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            used |= _used_names(path, reads_only)
    return [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in definitions(path)
            if name.rsplit(".", 1)[-1] not in used
            and name not in atombench.__all__]


def test_every_public_definition_is_used_or_exported():
    unused = _unused(_public_definitions)
    assert not unused, f"public but unused outside tests: {unused}"


def test_every_public_constant_is_read():
    unread = _unused(_public_constants, reads_only=True)
    assert not unread, f"constants never read outside tests: {unread}"


def test_every_public_method_is_used():
    # matched by method name alone: a call through any object counts
    unused = _unused(_public_methods)
    assert not unused, f"public methods unused outside tests: {unused}"


def test_every_private_definition_is_read():
    # a private helper read only by tests is test-only code in the package
    unread = _unused(_private_definitions, reads_only=True)
    assert not unread, f"private names never read outside tests: {unread}"


def _module_aliases(tree, modules: set) -> set:
    """Names under which a file binds a module of the package."""
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level == 1 and not node.module
                 or node.level == 0 and node.module == PACKAGE.name)
            for alias in node.names if alias.name in modules}


def test_no_module_reads_another_modules_private_name():
    # a private name is its module's own: another module that reads it
    # depends on what the owner may change without notice
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree, modules)
        reads += [f"{path.stem}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases
                  and re.match(r"_[^_]", node.attr)]
    assert not reads, f"private names read from another module: {reads}"


def test_every_error_class_is_raised():
    # the tests above count an import as a use, so they would not see an
    # error class whose last raise went; a base class is raised through the
    # classes that derive from it
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for cls in classes for base in cls.bases
             if isinstance(base, ast.Name)}
    raised = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    unraised = [cls.name for cls in classes
                if cls.name not in bases and cls.name not in raised]
    assert not unraised, f"error classes never raised in src/: {unraised}"
