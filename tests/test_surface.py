"""Every public name in the package is used by the package itself, and
every name the README's "Library" section lists exists.

A top-level function, class or UPPER_CASE constant in ``src/compana`` whose
name starts without an underscore must be named by code somewhere in
``src/compana`` outside its own definition: called, imported (the package's
exports count), annotated with or read.  Names that only tests reach belong
under ``tests/``.  Docstrings and comments do not count; the check reads the
syntax tree.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "compana"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*\Z")


def defined_names(node: ast.stmt) -> list[str]:
    """Public names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name) and CONSTANT.match(t.id)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id] if CONSTANT.match(node.target.id) else []
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def referenced_names(node: ast.AST) -> set[str]:
    """Names a statement reads: bare names, attributes and imported names."""
    out: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            out.update(alias.name for alias in child.names)
    return out


def unused_public_names() -> list[str]:
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path.stem, node) for node in tree.body]
    uses = [referenced_names(node) for _, node in statements]
    unused = []
    for index, (module, node) in enumerate(statements):
        for name in defined_names(node):
            if not any(name in names for i, names in enumerate(uses) if i != index):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_is_used_by_the_package():
    unused = unused_public_names()
    assert not unused, "public names no package code uses: " + ", ".join(unused)


def library_names() -> list[tuple[str, str]]:
    """(module, name) for every name the README's "Library" section lists:
    the backticked names of each "- `compana.<module>`:" entry, and the
    names its example imports from the package."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for module, body in re.findall(r"^- `(compana\.\w+)`:(.*?)(?=^- |^$)", section, re.M | re.S):
        listed += [(module, name) for name in re.findall(r"`([A-Za-z_]\w*)[`(]", body)]
    for imports in re.findall(r"^from (compana) import \((.*?)\)", section, re.M | re.S):
        listed += [(imports[0], name) for name in re.findall(r"\w+", imports[1])]
    return listed


def test_readme_library_names_exist():
    listed = library_names()
    sections = ("compositions", "series", "singularity", "asymptotics")
    assert {module for module, _ in listed} == {"compana", *(f"compana.{m}" for m in sections)}
    missing = [
        f"{module}.{name}"
        for module, name in listed
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, "README names what the package lacks: " + ", ".join(missing)
