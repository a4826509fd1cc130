"""No module of the package reads the process environment.

Every value that shapes the output comes from a command's arguments or a
module constant, so equal arguments give equal output in any environment.
The check reads the syntax tree of ``src/compana`` for ``os.environ``,
``os.environb``, ``os.getenv`` and ``os.getenvb``, by attribute or by
``from os import``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "compana"
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.AST) -> list[int]:
    """Line numbers at which a syntax tree reaches the environment."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT_NAMES for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_guard_sees_each_form():
    for source in (
        "import os\nos.environ.get('X')",
        "import os\nos.getenv('X')",
        "from os import environ",
        "from os import getenv as g",
    ):
        assert environment_reads(ast.parse(source)), source
    assert not environment_reads(ast.parse("import os\nos.cpu_count()"))


def test_no_module_reads_the_environment():
    reads = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in environment_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not reads, "environment reads in src/compana: " + ", ".join(reads)
