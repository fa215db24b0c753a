"""The package's records, `linalg.Record` subclasses in class syntax.

Every record field is read somewhere: a field nothing reads is dead state.
The scan finds records by that base class.  The value semantics the
package relies on, which `typing.NamedTuple` gave before: a record equals
and hashes as the tuple of its fields, an update is a copy, defaults fill
in, a missing or unknown field is a TypeError, and no attribute can be
set.
"""

import ast
from pathlib import Path

import pytest

from cohomolab.algebra import AlgebraSpec, Domain, Violation, assess_domain, build_number_field
from cohomolab.cohomology import AuditReport, CheckResult, CohomologyReport, DistinguishedQuotient
from cohomolab.complex import ComplexLawReport, index_coboundary_matrix
from cohomolab.fileformat import parse_algebra_file
from cohomolab.linalg import Mat, Record
from cohomolab.multilinear import MultilinearMap
from cohomolab.operators import ClassificationReport, OperatorVerdict

ROOT = Path(__file__).resolve().parent.parent
RECORDS = (AlgebraSpec, Domain, Violation, Mat, MultilinearMap, ComplexLawReport, CohomologyReport,
           DistinguishedQuotient, CheckResult, AuditReport, OperatorVerdict,
           ClassificationReport)


def _is_record(node) -> bool:
    return any(isinstance(base, ast.Name) and base.id == Record.__name__ for base in node.bases)


def record_fields(package_sources) -> dict:
    """{record name: its annotated field names} for each Record class."""
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
    package = ("from cohomolab.linalg import Record\n"
               "class A(Record):\n    __slots__ = ()\n    x: int\n    y: int\n")
    assert unread_fields([package], ["print(A(1, 2).x)\n"]) == ["A.y"]


def test_scan_finds_every_record():
    assert set(record_fields(_sources("src/cohomolab"))) == {r.__name__ for r in RECORDS}


def test_every_record_field_is_read():
    assert unread_fields(_sources("src/cohomolab"), _sources("tests")) == []


def shares_one_entry(cached, first, second, *args) -> bool:
    """The lru_cache'd function's value on first is its cached value on second."""
    value = cached(first, *args)
    before = cached.cache_info()
    hit = cached(second, *args) is value
    after = cached.cache_info()
    return hit and (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_equal_parses_share_the_index_matrix_cache():
    first, second = (parse_algebra_file(str(ROOT / "fixtures" / "cubic2.alg"))
                     for _ in range(2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert shares_one_entry(index_coboundary_matrix, first, second, 1)
    # the parser's and the constructor's spec of one algebra are one value
    parsed = parse_algebra_file(str(ROOT / "fixtures" / "qsqrt2.alg"))
    built = build_number_field([-2, 0, 1], name="qsqrt2")
    assert parsed == built and hash(parsed) == hash(built)
    assert shares_one_entry(index_coboundary_matrix, parsed, built, 1)
    assert shares_one_entry(assess_domain, parsed, built)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_fields_cannot_be_assigned(record):
    value = record(*[None] * len(record._fields))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)


# the defaults of the records that have any; every other field is required
DEFAULTS = {AlgebraSpec: {"order_mode": "none"}, CheckResult: {"witness": None},
            OperatorVerdict: {"witness": None, "certificate": None}}


def fields_of(record) -> tuple:
    """A value per field, each hashable and told apart from the defaults."""
    return tuple(f"value of {field}" for field in record._fields)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_a_record_is_the_tuple_of_its_fields(record):
    values = fields_of(record)
    value = record(*values)
    assert value == values and tuple(value) == values and isinstance(value, tuple)
    assert record(**dict(zip(record._fields, values))) == values
    assert tuple(getattr(value, field) for field in record._fields) == values
    if "__hash__" not in vars(record):  # MultilinearMap hashes its dict by its items
        assert hash(value) == hash(values)
    assert repr(value).startswith(record.__name__ + "(")


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_replace_is_a_changed_copy_and_asdict_is_keyed_by_fields(record):
    values = fields_of(record)
    value = record(*values)
    changed = value._replace(**{record._fields[-1]: "new"})
    assert type(changed) is record and changed == values[:-1] + ("new",)
    assert value == values
    assert list(value._asdict()) == list(record._fields)
    assert tuple(value._asdict().values()) == values


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_defaults_fill_in_and_a_missing_or_unknown_field_is_refused(record):
    defaults = DEFAULTS.get(record, {})
    required = len(record._fields) - len(defaults)
    assert record._fields[required:] == tuple(defaults)
    values = fields_of(record)
    assert record(*values[:required]) == values[:required] + tuple(defaults.values())
    assert record(**dict(zip(record._fields[:required], values))) == (
        values[:required] + tuple(defaults.values()))
    with pytest.raises(TypeError):
        record(*values[:required - 1])
    with pytest.raises(TypeError):
        record(*values, not_a_field=0)
    with pytest.raises(TypeError):
        record(*values, "one too many")
    with pytest.raises(TypeError):
        record(*values, **{record._fields[0]: "twice"})


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_no_attribute_can_be_set(record):
    value = record(*fields_of(record))
    for name in record._fields + ("not_a_field", "__dict__"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, record._fields[0])
