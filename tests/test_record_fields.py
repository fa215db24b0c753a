"""The package's records, `typing.NamedTuple` classes in class syntax.

Every record field is read somewhere: a field nothing reads is dead state.
The scan finds records by that base class.  The value semantics the
package relies on: equal records hash equal, an update is a copy, and no
field can be assigned.
"""

import ast
from pathlib import Path

import pytest

from cohomolab.algebra import (
    DOMAIN_ASSERTED, DOMAIN_UNCHECKED, AlgebraSpec, Violation, assess_domain,
)
from cohomolab.cohomology import AuditReport, CheckResult, CohomologyReport, DistinguishedQuotient
from cohomolab.complex import ComplexLawReport, index_coboundary_matrix
from cohomolab.fileformat import parse_algebra_file
from cohomolab.linalg import Mat
from cohomolab.multilinear import MultilinearMap
from cohomolab.operators import ClassificationReport, OperatorVerdict

ROOT = Path(__file__).resolve().parent.parent
RECORDS = (AlgebraSpec, Violation, Mat, MultilinearMap, ComplexLawReport, CohomologyReport,
           DistinguishedQuotient, CheckResult, AuditReport, OperatorVerdict,
           ClassificationReport)


def _is_record(node) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def record_fields(package_sources) -> dict:
    """{record name: its annotated field names} for each NamedTuple class."""
    records = {}
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                records[node.name] = [s.target.id for s in node.body
                                      if isinstance(s, ast.AnnAssign)
                                      and isinstance(s.target, ast.Name)]
    return records


def unread_fields(package_sources, reader_sources) -> list:
    """`Class.field` for each record field of package_sources whose name no
    attribute read in package_sources or reader_sources uses."""
    read = set()
    for source in list(package_sources) + list(reader_sources):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{cls}.{name}" for cls, names in record_fields(package_sources).items()
                  for name in names if name not in read)


def _sources(folder):
    return [p.read_text(encoding="utf-8") for p in sorted((ROOT / folder).glob("*.py"))]


def test_unread_fields_are_found():
    package = ("from typing import NamedTuple\n"
               "class A(NamedTuple):\n    x: int\n    y: int\n")
    assert unread_fields([package], ["print(A(1, 2).x)\n"]) == ["A.y"]


def test_scan_finds_every_record():
    assert set(record_fields(_sources("src/cohomolab"))) == {r.__name__ for r in RECORDS}


def test_every_record_field_is_read():
    assert unread_fields(_sources("src/cohomolab"), _sources("tests")) == []


def test_equal_parses_share_the_index_matrix_cache():
    first, second = (parse_algebra_file(str(ROOT / "fixtures" / "cubic2.alg"))
                     for _ in range(2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    matrix = index_coboundary_matrix(first, 1)
    before = index_coboundary_matrix.cache_info()
    assert index_coboundary_matrix(second, 1) is matrix
    after = index_coboundary_matrix.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_assess_domain_returns_a_new_spec(qsqrt2):
    unchecked = qsqrt2._replace(domain_status=DOMAIN_UNCHECKED)
    assessed = assess_domain(unchecked)
    assert assessed.domain_status == DOMAIN_ASSERTED
    assert unchecked.domain_status == DOMAIN_UNCHECKED
    assert assessed._replace(domain_status=DOMAIN_UNCHECKED) == unchecked


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_fields_cannot_be_assigned(record):
    value = record(*[None] * len(record._fields))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
