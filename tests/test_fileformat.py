import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cohomolab.algebra import assess_domain, validate_algebra
from cohomolab.cli import main
from cohomolab.fileformat import (
    ParseError, format_rational, parse_algebra_file, parse_algebra_text,
    parse_integer, parse_rational, serialize_algebra,
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
    # a parse is the same value as the constructor's spec, and so is its domain
    parsed = parse_algebra_file("fixtures/qsqrt2.alg")
    assert parsed == qsqrt2
    assert assess_domain(parsed) == assess_domain(qsqrt2) == ("asserted", ())
    parsed = parse_algebra_file("fixtures/atomic3.alg")
    assert parsed == atomic3
    assert assess_domain(parsed).status == "refuted"


def test_roundtrip_identity(qsqrt2, cubic2, atomic2, atomic4):
    for spec in (qsqrt2, cubic2, atomic2, atomic4):
        text = serialize_algebra(spec)
        assert parse_algebra_text(text) == spec
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


def test_an_atomic_parse_grows_with_its_text():
    """The missing off-diagonal cells share one zero tuple: a 12 KB file at
    dim 3000 fills row 0 with 2999 of them, then stops at the missing
    diagonal pair, with no dim-length tuple made per cell."""
    dim = 3000
    text = (f"name a\ndim {dim}\nunit" + " 1" * dim + "\norder atomic\n"
            "mult 0 0 =" + " 1" + " 0" * (dim - 1) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"missing mult entry for pair \(1, 1\)"):
            parse_algebra_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_parse_errors_carry_line_numbers():
    """Each message is pinned whole: the line it names, and a token echoed
    whole up to 40 characters and cut, with its length, past that."""
    base = "name x\ndim 2\nunit 1 0\nmult 0 0 = 1 0\nmult 0 1 = 0 1\nmult 1 1 = 2 0\n"
    tok40 = "x" * 40
    cases = [
        ("name y\n" + base, "line 2: duplicate name"),
        (base.replace("name x", "name x y"), "line 1: name takes one identifier"),
        (base.replace("name x", "name"), "line 1: name takes one identifier"),
        (base + "dim 2\n", "line 7: duplicate dim"),
        ("dim 0\n" + base.replace("dim 2\n", ""), "line 1: dim must be >= 1"),
        (base.replace("dim 2", "dim -3"), "line 2: dim must be >= 1"),
        (base.replace("dim 2", "dim"), "line 2: dim takes one integer"),
        (base.replace("dim 2", "dim 2 7"), "line 2: dim takes one integer"),
        (base.replace("dim 2", "dim 0_2"), "line 2: dim takes one integer"),
        (base.replace("dim 2", "dim \u0662"), "line 2: dim takes one integer"),
        (base + "unit 1 0\n", "line 7: duplicate unit"),
        (base.replace("unit 1 0", "unit 1 0_0"), "line 3: malformed rational '0_0'"),
        (base.replace("unit 1 0", "unit 1/0 0"),
         "line 3: rational '1/0' must have a positive denominator"),
        (base.replace("unit 1 0", "unit 1/-2 0"),
         "line 3: rational '1/-2' must have a positive denominator"),
        (base + "order none\norder atomic\n", "line 8: duplicate order"),
        (base + "order diffuse\n", "line 7: order must be 'none' or 'atomic'"),
        (base + "order none atomic\n", "line 7: order must be 'none' or 'atomic'"),
        (base + "order\n", "line 7: order must be 'none' or 'atomic'"),
        (base.replace("mult 0 0 = 1 0", "mult 0 0 1 0"), "line 4: expected 'mult i j = <values>'"),
        (base.replace("mult 0 0 = 1 0", "mult 0 0 ="), "line 4: expected 'mult i j = <values>'"),
        (base.replace("mult 1 1", "mult 1 \u0661"), "line 6: mult indices must be integers"),
        (base.replace("mult 0 1 = 0 1", "mult 0 1 = 0 x"), "line 5: malformed rational 'x'"),
        (base.replace("mult 0 0 = 1 0", "mult 0 0 = 1/0 0"),
         "line 4: rational '1/0' must have a positive denominator"),
        (base + "mult 0 1 = 0 1\n", "line 7: duplicate mult 0 1"),
        (base + "mult 1 0 = 0 1\n", "line 7: duplicate mult 0 1"),
        (base + "mult 0 1 = 9 9\n", "line 7: conflicting duplicate for mult 0 1"),
        (base + "spin 1\n", "line 7: unknown key 'spin'"),
        (base + "Name x\n", "line 7: unknown key 'Name'"),
        (base + tok40 + "\n", f"line 7: unknown key '{tok40}'"),
        (base + tok40 + "y\n", f"line 7: unknown key '{tok40}'... (41 characters)"),
        (base.replace("unit 1 0", "unit 1 " + tok40), f"line 3: malformed rational '{tok40}'"),
        ("dim 1\nunit 1\nmult 0 0 = 1\n", "missing name"),
        ("name x\nunit 1\nmult 0 0 = 1\n", "missing dim"),
        ("name x\ndim 1\nmult 0 0 = 1\n", "missing unit"),
        ("name x\norder atomic\n", "missing dim"),
        (base.replace("unit 1 0", "unit 1"), "unit has 1 coordinates, expected 2"),
        (base.replace("unit 1 0", "unit 1 0 0"), "unit has 3 coordinates, expected 2"),
        (base.replace("mult 1 1 = 2 0", "mult 1 1 = 2"), "mult 1 1 has 1 coordinates, expected 2"),
        (base.replace("mult 0 0 = 1 0", "mult 0 0 = 1 0 0"),
         "mult 0 0 has 3 coordinates, expected 2"),
        (base.replace("mult 1 1 = 2 0\n", ""), "missing mult entry for pair (1, 1)"),
        ("name a\ndim 2\nunit 1 1\norder atomic\nmult 0 0 = 1 0\n",
         "missing mult entry for pair (1, 1)"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            parse_algebra_text(text)
        assert str(info.value) == message, text


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
    assert spec.dim == 2
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
    assert validate_algebra(spec) == []
    assert assess_domain(spec) == ("refuted", None)


BIG = "1" + "0" * 99_999  # 100,000 digits, past Python's default 4,300-digit limit
LONG_FILES = {
    "constant": f"name q\ndim 1\nunit 1\nmult 0 0 = {BIG}\n",
    "fraction": f"name q\ndim 1\nunit 1\nmult 0 0 = 1/{BIG}\n",
    "index": f"name q\ndim 1\nunit 1\nmult 0 {BIG} = 1\n",
    "negative index": f"name q\ndim 1\nunit 1\nmult -{BIG} 0 = 1\n",
    "duplicate": f"name q\ndim 1\nunit 1\nmult 0 +{BIG} = 1\nmult {BIG} 0 = 1\n",
    "dim": f"name q\ndim {BIG}\nunit 1\nmult 0 0 = 1\n",
}


def parsed_or_error(text):
    try:
        return parse_algebra_text(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no digit limit")
@pytest.mark.parametrize("name", LONG_FILES)
def test_a_long_number_parses_whatever_the_digit_limit(name):
    """In process, with Python's default digit limit in force, a file with
    a 100,000-digit number gives the spec or the ParseError text that it
    gives with the limit lifted."""
    text = LONG_FILES[name]
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        limited = parsed_or_error(text)
        sys.set_int_max_str_digits(0)
        lifted = parsed_or_error(text)
    finally:
        sys.set_int_max_str_digits(before)
    assert limited == lifted
    if name in ("constant", "fraction"):
        assert lifted.structure[0][0] == (10 ** 99_999 if name == "constant" else F(1, 10 ** 99_999),)
    else:
        assert "characters)" in lifted and "malformed" not in lifted \
            and "must be integers" not in lifted


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no digit limit")
@pytest.mark.parametrize("name", ["constant", "fraction"])
def test_a_long_number_round_trips_whatever_the_digit_limit(name):
    """In process, with Python's default digit limit in force, a spec with
    a 100,000-digit scalar serializes in full, and parse -> serialize ->
    parse is the identity."""
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        spec = parse_algebra_text(LONG_FILES[name])
        text = serialize_algebra(spec)
        again = parse_algebra_text(text)
    finally:
        sys.set_int_max_str_digits(before)
    assert again == spec
    assert text.endswith(f"mult 0 0 = {BIG if name == 'constant' else '1/' + BIG}\n")


# tokens near the grammar: signs, ASCII digits, and what str.isdigit or int()
# take but the grammar does not (Unicode digits, '_', blanks)
near_integers = st.text(st.sampled_from("+-0123456789_ \n\u0663\u00b2\uff11"), max_size=8)


@given(st.one_of(near_integers, st.text(max_size=8)))
@example("\u0663")  # ARABIC-INDIC DIGIT THREE: int() reads it
@example("\u00b2")  # SUPERSCRIPT TWO: isdigit() holds
@example("\uff11")  # FULLWIDTH DIGIT ONE
@example("1_0")
@example("+-1")
@example("")
@example("-")
@example("-007")
def test_parse_integer_reads_exactly_the_grammar_pattern(tok):
    """The parser's integer rule, checked against the pattern it replaced."""
    if re.fullmatch(r"[+-]?[0-9]+", tok):
        assert parse_integer(tok) == int(tok)
    else:
        with pytest.raises(ValueError):
            parse_integer(tok)
