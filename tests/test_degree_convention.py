"""The package speaks cochain degrees; only `cli.py` knows `--convention`.

A library degree z names the group ker d_z / im d_{z-1}.  The CLI is the
one place that turns a printed degree into that one and back.  A name,
parameter, attribute or keyword containing `convention`, or a string
constant "shifted" or "standard", in any other module fails here.
Docstrings are not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONVENTION_NAMES = frozenset({"shifted", "standard"})


def _docstrings(tree) -> set:
    """The ids of the constant nodes that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _identifiers(node):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.arg, ast.keyword)):
        yield node.arg
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.alias):
        yield node.name
        yield node.asname


def convention_uses(sources: dict) -> list:
    """(module, line, what) of every convention name or string outside docstrings."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            for name in _identifiers(node):
                if name and "convention" in name.lower():
                    found.append((module, node.lineno, name))
            if (isinstance(node, ast.Constant) and node.value in CONVENTION_NAMES
                    and id(node) not in docstrings):
                found.append((module, node.lineno, node.value))
    return sorted(found)


def test_convention_uses_are_found():
    sources = {
        "a": '"""shifted and standard, by convention."""\nSTYLE = "shifted"\n',
        "b": "def f(x, convention=None):\n    \"\"\"standard\"\"\"\n    return x\n",
        "c": "from m import CONVENTIONS as c\ng(c, my_convention=1)\ny = c.convention\n",
        "d": "def h():\n    return 'standard'\n",
    }
    assert convention_uses(sources) == [
        ("a", 2, "shifted"), ("b", 1, "convention"), ("c", 1, "CONVENTIONS"),
        ("c", 2, "my_convention"), ("c", 3, "convention"), ("d", 2, "standard"),
    ]


def test_only_the_cli_knows_the_convention():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "cohomolab").glob("*.py")) if p.stem != "cli"}
    assert convention_uses(sources) == []
