"""`algebra.assess_domain` is the only code that writes a domain status
or the rational roots.

The two decide which complex and which verdict a command reports, so one
function sets them.  A call anywhere else in the package that passes
`domain_status=` or `rational_roots=`, to the record's constructor or to
`_replace`, or that fills either field by position, fails here.
"""

import ast
from pathlib import Path

from cohomolab.algebra import AlgebraSpec

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("domain_status", "rational_roots")
POSITION = min(AlgebraSpec._fields.index(f) for f in FIELDS)


def status_writers(sources: dict) -> list:
    """(module, top-level definition) of every call that sets domain_status
    or rational_roots, with None for a call outside any definition."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                by_name = any(k.arg in FIELDS for k in node.keywords)
                by_position = (isinstance(node.func, ast.Name) and node.func.id == "AlgebraSpec"
                               and len(node.args) > POSITION)
                if by_name or by_position:
                    found.append((module, getattr(top, "name", None)))
    return sorted(found)


def test_status_writers_are_found():
    sources = {"a": "def f(s):\n    return s._replace(domain_status='x')\n",
               "b": "class C:\n    def g(self):\n        return AlgebraSpec(1, 2, 3, 4, 5, 6)\n",
               "c": "S = T(domain_status=1)\nAlgebraSpec(1, 2, 3, 4, 5)\n",
               "d": "def h(s):\n    return s._replace(rational_roots=())\n"}
    assert status_writers(sources) == [("a", "f"), ("b", "C"), ("c", None), ("d", "h")]


def test_assess_domain_is_the_only_status_writer():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "cohomolab").glob("*.py"))}
    assert status_writers(sources) == [("algebra", "assess_domain")]
