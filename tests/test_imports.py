"""Every module imports only the names it uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """Names an import binds that no expression of the module reads.

    `import a.b` binds `a`, and an attribute chain `a.b.c` reads `a`, so
    only bare names need counting.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import os, sys\nfrom a import b as c, d\nos.x(d)\n") == ["c", "sys"]


def test_no_unused_imports():
    # the package __init__ exists to be imported, so it is exempt
    paths = [p for folder in ("src/cohomolab", "tests")
             for p in sorted((ROOT / folder).glob("*.py")) if p.name != "__init__.py"]
    assert paths
    unused = {str(p.relative_to(ROOT)): names for p in paths
              if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}
