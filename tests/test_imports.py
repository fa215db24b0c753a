"""Every module imports only the names it uses, and the tests import no
third-party module that the `test` extra leaves undeclared."""

import ast
import re
import sys
from pathlib import Path

import pytest

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


# modules of this repository that the tests import by their bare names
LOCAL_MODULES = {"cohomolab", "conftest", "oracles"}


def third_party_imports(source: str) -> set:
    """Top-level modules that the absolute imports of source name, less the stdlib."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names - sys.stdlib_module_names


def test_third_party_imports_are_found():
    source = "import os.path, sympy\nfrom hypothesis import given\nfrom . import x\n"
    assert third_party_imports(source) == {"hypothesis", "sympy"}


def test_tests_import_only_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # in the stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in extra}
    undeclared = {str(p.relative_to(ROOT)): names for p in sorted((ROOT / "tests").glob("*.py"))
                  if (names := sorted(third_party_imports(p.read_text(encoding="utf-8"))
                                      - LOCAL_MODULES - declared))}
    assert undeclared == {}
