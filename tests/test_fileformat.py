from fractions import Fraction

import pytest

from cohomolab.algebra import DOMAIN_UNCHECKED, assess_domain, validate_algebra
from cohomolab.cli import main
from cohomolab.fileformat import (
    ParseError, format_rational, parse_algebra_file, parse_algebra_text,
    parse_rational, serialize_algebra,
)
from conftest import elem

F = Fraction


def test_parse_rational():
    assert parse_rational("3") == F(3)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("4/6") == F(2, 3)
    assert parse_rational("+3/+4") == F(3, 4)
    for bad in ("1/0", "2/-3", "x", "1.5", "1/2/3"):
        with pytest.raises(ParseError):
            parse_rational(bad)
    # only an optional sign and ASCII digits, in numerator and denominator
    for bad in ("1_0", "\u0663", "1/2_0", "1/\u0662", "--1", "+", "1/", "0x10"):
        with pytest.raises(ParseError, match="malformed rational"):
            parse_rational(bad)
    for bad in ("1/0", "1/-2"):
        with pytest.raises(ParseError, match="positive denominator"):
            parse_rational(bad)


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-7, 2)) == "-7/2"
    assert parse_rational(format_rational(F(22, 7))) == F(22, 7)


def test_parse_fixture_files(qsqrt2, atomic3):
    # parsing leaves the domain unchecked; the domain test then agrees with the constructors
    parsed = parse_algebra_file("fixtures/qsqrt2.alg")
    assert parsed.domain_status == DOMAIN_UNCHECKED
    assert assess_domain(parsed) == qsqrt2
    parsed = parse_algebra_file("fixtures/atomic3.alg")
    assert parsed.domain_status == DOMAIN_UNCHECKED
    assert assess_domain(parsed) == atomic3
    assert atomic3.domain_status == "refuted"


def test_roundtrip_identity(qsqrt2, cubic2, atomic2, atomic4):
    for spec in (qsqrt2, cubic2, atomic2, atomic4):
        text = serialize_algebra(spec)
        assert parse_algebra_text(text) == spec._replace(domain_status=DOMAIN_UNCHECKED,
                                                         rational_roots=None)
        assert assess_domain(parse_algebra_text(text)) == spec
        assert serialize_algebra(parse_algebra_text(text)) == text


def test_symmetric_half_inferred():
    text = """
name sym
dim 2
unit 1 0
mult 0 0 = 1 0
mult 1 0 = 0 1   # lower-triangle entry stands in for (0,1)
mult 1 1 = 2 0
"""
    spec = parse_algebra_text(text)
    assert spec.structure[0][1] == elem(0, 1)
    assert spec.structure[1][0] == elem(0, 1)
    assert spec.order_mode == "none"


def test_atomic_off_diagonal_defaults():
    text = "name a\ndim 2\nunit 1 1\norder atomic\nmult 0 0 = 1 0\nmult 1 1 = 0 1\n"
    spec = parse_algebra_text(text)
    assert spec.structure[0][1] == elem(0, 0)


def test_parse_errors_carry_line_numbers():
    base = "name x\ndim 2\nunit 1 0\nmult 0 0 = 1 0\nmult 0 1 = 0 1\nmult 1 1 = 2 0\n"
    cases = [
        ("name y\n" + base, "line 2: duplicate name"),
        (base + "mult 0 1 = 0 1\n", "duplicate mult 0 1"),
        (base + "mult 0 1 = 9 9\n", "conflicting duplicate"),
        (base + "spin 1\n", "unknown key"),
        ("dim 0\n" + base.replace("dim 2\n", ""), "dim must be >= 1"),
        (base.replace("mult 1 1 = 2 0\n", ""), "missing mult entry"),
        (base.replace("unit 1 0", "unit 1"), "unit has 1 coordinates"),
        (base.replace("mult 1 1 = 2 0", "mult 1 1 = 2"), "has 1 coordinates"),
        (base + "order diffuse\n", "order must be"),
        (base.replace("mult 0 0 = 1 0", "mult 0 0 1 0"), "expected 'mult i j ="),
        (base.replace("dim 2", "dim 2 7"), "line 2: dim takes one integer"),
        (base.replace("dim 2", "dim 0_2"), "line 2: dim takes one integer"),
        (base.replace("dim 2", "dim \u0662"), "line 2: dim takes one integer"),
        (base.replace("mult 1 1", "mult 1 \u0661"), "mult indices must be integers"),
        (base.replace("unit 1 0", "unit 1 0_0"), "malformed rational"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError, match=needle):
            parse_algebra_text(text)
    with pytest.raises(ParseError, match="missing name"):
        parse_algebra_text("dim 1\nunit 1\nmult 0 0 = 1\n")


def test_out_of_range_indices(tmp_path):
    # reported before the table is built, so not as the pair a bad index left missing
    cases = [
        ("name x\ndim 1\nunit 1\nmult 0 0 = 1\nmult 0 5 = 1\n", "(0, 5)", 1),
        ("name x\ndim 1\nunit 1\nmult -1 0 = 1\n", "(-1, 0)", 1),
        # `mult 1 2` typed for `mult 1 1`
        ("name x\ndim 2\nunit 1 0\nmult 0 0 = 1 0\nmult 0 1 = 0 1\nmult 1 2 = 2 0\n",
         "(1, 2)", 2),
    ]
    for text, pair, dim in cases:
        path = tmp_path / "x.alg"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            parse_algebra_file(str(path))
        assert str(info.value) == f"mult indices {pair} out of range for dim {dim}"


def test_validate_flag(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    # b1*b1 = b0 with unit (1,0) fails the atomic idempotent law
    bad.write_text("name b\ndim 2\nunit 1 1\norder atomic\n"
                   "mult 0 0 = 1 0\nmult 1 1 = 1 0\n")
    spec = parse_algebra_file(str(bad))  # the parser reads the laws' violators too
    assert (spec.dim, spec.domain_status) == (2, DOMAIN_UNCHECKED)
    assert {v.law for v in validate_algebra(spec)} >= {"atomic"}
    # every command but validate stops at the first violated law
    assert main(["classify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: algebra law violated: ")


def test_domain_assessment_runs(tmp_path):
    p = tmp_path / "dual.alg"
    p.write_text("name dual\ndim 2\nunit 1 0\n"
                 "mult 0 0 = 1 0\nmult 0 1 = 0 1\nmult 1 1 = 0 0\n")
    spec = parse_algebra_file(str(p))
    assert spec.domain_status == DOMAIN_UNCHECKED
    assert validate_algebra(spec) == []
    assert assess_domain(spec).domain_status == "refuted"
