import ast
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cohomolab.algebra import build_number_field
from cohomolab.cli import (COMMANDS, GLOBAL_OPTIONS, _parse_canonical, _quote, _write_report,
                           build_parser, main)
from cohomolab.fileformat import format_rational, serialize_algebra
from cohomolab.linalg import Mat
from cohomolab.multilinear import MultilinearMap

QSQRT2 = "fixtures/qsqrt2.alg"
ATOMIC2 = "fixtures/atomic2.alg"
ATOMIC3 = "fixtures/atomic3.alg"
Q = "fixtures/q.alg"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", QSQRT2)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["algebra"] == "qsqrt2"
    assert payload["domain_status"] == "asserted"
    assert payload["violations"] == []


def test_validate_reports_violations(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("name b\ndim 2\nunit 1 1\norder atomic\n"
                   "mult 0 0 = 1 0\nmult 1 1 = 1 0\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"]
    laws = {v["law"] for v in payload["violations"]}
    assert laws & {"atomic", "unit"}


ATOMIC12 = "".join(["name atomic_12\ndim 12\nunit" + " 1" * 12 + "\norder atomic\n"]
                   + [f"mult {i} {i} =" + "".join(f" {int(j == i)}" for j in range(12)) + "\n"
                      for i in range(12)])
# Q[t]/(t^2 - (10^39 + 7)) and Q[t]/(t^3 - (10^39 + 7)): finding the
# divisors of the constant term by trial division would take about 3·10^19
# steps, where lifting the roots from a small prime takes a few
BIG_CONSTANT = ("name bigsq\ndim 2\nunit 1 0\norder none\nmult 0 0 = 1 0\n"
                f"mult 0 1 = 0 1\nmult 1 1 = {10 ** 39 + 7} 0\n")
BIG_CUBE = (ROOT / "fixtures" / "big3.alg").read_text()


@pytest.mark.parametrize("text,name,dim,status", [
    (ATOMIC12, "atomic_12", 12, "refuted"), (BIG_CONSTANT, "bigsq", 2, "asserted"),
    (BIG_CUBE, "big3", 3, "asserted"),
], ids=["atomic12", "big-constant", "big-cube"])
def test_validate_answers_at_once(capsys, tmp_path, text, name, dim, status):
    """The roots of a 12-atom order's minimal polynomial, and of a 40-digit
    constant, are lifted from a small prime: each answers at once."""
    path = tmp_path / "a.alg"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == json.dumps({"algebra": name, "command": "validate", "dim": dim,
                              "domain_status": status, "seed": 0, "valid": True,
                              "violations": []}, indent=2) + "\n"


def classify_at_once(capsys, tmp_path, text, status):
    path = tmp_path / "big.alg"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["domain_status"] == status
    return payload["kadison"]


def test_classify_proves_a_big_quadratic_a_field(capsys, tmp_path):
    """No rational root at d = 2, so a field, and Kadison is no."""
    assert classify_at_once(capsys, tmp_path, BIG_CONSTANT, "asserted") == {
        "certificate": None, "verdict": "no", "witness": [["1", "0"], ["0", "-1"]]}


def test_classify_proves_a_big_cubic_a_field(capsys, tmp_path):
    """No rational root at d = 3, so a field, and Kadison is no."""
    assert classify_at_once(capsys, tmp_path, BIG_CUBE, "asserted") == {
        "certificate": None, "verdict": "no",
        "witness": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]}


# the qsqrt2 products with unit 1 + t: the domain tests would read a non-algebra
UNLAWFUL = ("name b\ndim 2\nunit 1 1\norder none\n"
            "mult 0 0 = 1 0\nmult 0 1 = 0 1\nmult 1 1 = 2 0\n")


def test_validate_leaves_the_domain_unchecked_when_the_laws_fail(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text(UNLAWFUL)
    code, out, err = run_cli(capsys, "validate", str(bad))
    payload = json.loads(out)
    assert (code, err, payload["valid"]) == (1, "", False)
    assert payload["domain_status"] == "unchecked"
    assert {v["law"] for v in payload["violations"]} == {"unit"}
    code, out, _ = run_cli(capsys, "--format", "text", "validate", str(bad))
    assert code == 1
    assert 'domain_status: "unchecked"' in out.splitlines()
    assert "valid: false" in out.splitlines()


def refuse_the_domain_test(monkeypatch, why):
    """Make assess_domain raise in every package module that holds it."""
    def refuse(*args, **kwargs):
        raise AssertionError(why)

    for name, module in list(sys.modules.items()):
        if name.startswith("cohomolab") and hasattr(module, "assess_domain"):
            monkeypatch.setattr(module, "assess_domain", refuse)


def test_an_unlawful_file_never_reaches_the_domain_test(capsys, tmp_path, monkeypatch):
    refuse_the_domain_test(monkeypatch, "the domain test ran on a tensor that fails the laws")
    bad = tmp_path / "bad.alg"
    bad.write_text(UNLAWFUL)
    code, out, err = run_cli(capsys, "--format", "text", "validate", str(bad))
    assert (code, err) == (1, "")
    assert {'domain_status: "unchecked"', "valid: false"} <= set(out.splitlines())
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert (code, out, err) == (1, "", "error: algebra law violated: unit at (0,)\n")


def test_the_domain_test_runs_only_where_it_is_read(capsys, monkeypatch):
    """Only validate, classify and the ideal complex read the domain test."""
    argvs = [["cohomology", QSQRT2, "--degree", "1"], ["verify-complex", QSQRT2],
             ["cohomology", ATOMIC3, "--degree", "1", "--complex", "band"],
             ["audit", QSQRT2, "--map", "K"], ["audit", ATOMIC3, "--map", "Jeven"]]
    expected = [run_cli(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in expected)
    refuse_the_domain_test(monkeypatch, "the domain test ran where nothing reads it")
    assert [run_cli(capsys, *argv) for argv in argvs] == expected


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "validate", "fixtures/nope.alg")
    assert code == 1 and out == "" and "error:" in err


def test_usage_error(capsys):
    assert run_cli(capsys, "cohomology", QSQRT2)[0] == 2  # missing --degree
    assert run_cli(capsys, "--help")[0] == 0
    # nothing is sampled, so there is no sampling budget or seed to set; an
    # unknown option is named, not the token after it taken for the command
    for flag, value in (("--trials", "5"), ("--seed", "1")):
        for argv in ((flag, value, "classify", QSQRT2),
                     ("--form", "text", flag, value, "classify", QSQRT2)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("usage: cohomolab")
            assert err.endswith(f"cohomolab: error: unrecognized arguments: {flag}\n")
    for argv, message in ((("--seed=1", "classify", QSQRT2), "unrecognized arguments: --seed=1"),
                          (("--bogus", "classify", QSQRT2), "unrecognized arguments: --bogus"),
                          (("frobnicate", QSQRT2), "argument command: invalid choice: 'frobnicate'"),
                          (("--format", "xml", "validate", QSQRT2),
                           "argument --format: invalid choice: 'xml'")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and f"cohomolab: error: {message}" in err


def test_cohomology_output(capsys):
    code, out, _ = run_cli(capsys, "cohomology", QSQRT2, "--degree", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["convention"] == "shifted"
    assert (payload["dim_cocycles"], payload["dim_coboundaries"],
            payload["dim_H"]) == (6, 4, 2)
    assert len(payload["representatives"]) == 2
    assert all(isinstance(x, str) for row in payload["representatives"]
               for x in row)


def test_cohomology_band_complex(capsys):
    code, out, _ = run_cli(capsys, "cohomology", ATOMIC3, "--degree", "0",
                           "--complex", "band")
    assert code == 0
    assert json.loads(out)["dim_H"] == 0
    # band complex needs atomic order
    code, _, err = run_cli(capsys, "cohomology", QSQRT2, "--degree", "0",
                           "--complex", "band")
    assert code == 1 and "error:" in err


# dual numbers Q[e]/(e^2): not atomic, and e is a zero divisor
DUAL = ("name dual\ndim 2\nunit 1 0\n"
        "mult 0 0 = 1 0\nmult 0 1 = 0 1\nmult 1 1 = 0 0\n")


def test_ideal_complex_needs_asserted_domain(capsys, tmp_path):
    dual = tmp_path / "dual.alg"
    dual.write_text(DUAL)
    for argv in (["verify-complex", str(dual), "--complex", "ideal"],
                 ["cohomology", str(dual), "--degree", "1", "--complex", "ideal"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "ideal-preserving subspace is only defined" in err
    assert run_cli(capsys, "verify-complex", str(dual))[0] == 0


@pytest.mark.parametrize("coeffs", [
    [4, 0, 0, 0, 1],  # t^4 + 4 = (t^2+2t+2)(t^2-2t+2): Q(i) x Q(i)
    [6, 0, -5, 0, 1],  # (t^2-2)(t^2-3): Q(sqrt 2) x Q(sqrt 3)
], ids=["t4p4", "t2m2-t2m3"])
def test_ideal_complex_refused_on_a_rootless_split_quartic(capsys, tmp_path, coeffs):
    """No exact rule decides a rootless quartic, so its domain stays
    unchecked, and its ideal complex is refused, not computed as the full one."""
    path = tmp_path / "split.alg"
    path.write_text(serialize_algebra(build_number_field(coeffs, name="split")))
    code, out, err = run_cli(capsys, "cohomology", str(path), "--degree", "1",
                             "--complex", "ideal")
    assert (code, out) == (1, "")
    assert err == ("error: ideal-preserving subspace is only defined for asserted "
                   "domains and atomic algebras\n")


def test_negative_degree(capsys):
    for argv in (["--degree", "-2"], ["--degree", "-1", "--convention", "standard"]):
        code, out, err = run_cli(capsys, "cohomology", Q, *argv)
        assert code == 1 and out == "" and err.startswith("error:")
    # shifted degree -1 is ker d_0
    code, out, _ = run_cli(capsys, "cohomology", Q, "--degree", "-1")
    assert code == 0
    assert json.loads(out)["dim_cocycles"] == 0


@pytest.mark.parametrize("tag", ["band", "ideal"])
@pytest.mark.parametrize("argv", [["--convention", "standard", "--degree", "-2"],
                                  ["--degree", "-3"]])
def test_negative_degree_on_a_tag_complex_is_one_error_line(capsys, tag, argv):
    code, out, err = run_cli(capsys, "cohomology", ATOMIC2, "--complex", tag, *argv)
    assert (code, out, err) == (1, "", "error: cochain degrees start at 0, so d_-2 is undefined\n")


@pytest.mark.parametrize("tag", ["full", "ideal", "band"])
def test_verify_complex_negative_max_degree(capsys, tmp_path, tag):
    dual = tmp_path / "dual.alg"
    dual.write_text(DUAL)
    code, out, err = run_cli(capsys, "verify-complex", str(dual),
                             "--complex", tag, "--max-degree", "-1")
    assert code == 1 and out == "" and err.startswith("error:")


def test_audit_J_and_K_reject_other_n(capsys):
    for argv in (["--map", "J", "--n", "0"], ["--map", "K", "--n", "2"]):
        code, out, err = run_cli(capsys, "audit", Q, *argv)
        assert code == 1 and out == "" and err.startswith("error:")
    code, out, _ = run_cli(capsys, "audit", Q, "--map", "J", "--n", "1")
    assert code == 0 and json.loads(out)["n"] == 1


def test_degree_cap_exit_code(capsys):
    code, out, err = run_cli(capsys, "cohomology", QSQRT2, "--degree", "9")
    assert code == 3 and out == "" and "error:" in err
    code, _, _ = run_cli(capsys, "--degree-cap", "8",
                         "cohomology", QSQRT2, "--degree", "6")
    assert code == 0
    code, out, err = run_cli(capsys, "--degree-cap", "-1", "classify", QSQRT2)
    assert code == 2 and out == "" and "--degree-cap" in err


def test_degree_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("COHOMOLAB_MAX_DEGREE", "2")
    code, _, _ = run_cli(capsys, "cohomology", QSQRT2, "--degree", "2")
    assert code == 3
    # the explicit flag outranks the environment
    code, _, _ = run_cli(capsys, "--degree-cap", "5",
                         "cohomology", QSQRT2, "--degree", "2")
    assert code == 0
    monkeypatch.setenv("COHOMOLAB_MAX_DEGREE", "zzz")
    code, _, err = run_cli(capsys, "cohomology", QSQRT2, "--degree", "1")
    assert code == 1 and "COHOMOLAB_MAX_DEGREE" in err
    monkeypatch.setenv("COHOMOLAB_MAX_DEGREE", "-1")  # bad input, not a cap every command exceeds
    code, out, err = run_cli(capsys, "classify", QSQRT2)
    assert code == 1 and out == "" and "COHOMOLAB_MAX_DEGREE" in err


@pytest.mark.parametrize("top, argv", [
    (2, ["classify", QSQRT2]),
    (3, ["cohomology", QSQRT2, "--degree", "1"]),
    (2, ["cohomology", QSQRT2, "--degree", "1", "--convention", "standard"]),
    (3, ["audit", QSQRT2, "--map", "K"]),
    (4, ["audit", QSQRT2, "--map", "J"]),
    (3, ["verify-complex", QSQRT2, "--max-degree", "1"]),
    (3, ["verify-complex", ATOMIC2, "--max-degree", "1", "--complex", "band"]),
], ids=["classify", "cohomology-shifted", "cohomology-standard", "audit-K", "audit-J",
        "verify-complex-full", "verify-complex-band"])
def test_degree_cap_boundary(capsys, top, argv):
    """A cap one below the command's top degree refuses it, before any output."""
    code, out, err = run_cli(capsys, "--degree-cap", str(top - 1), *argv)
    assert (code, out, err) == (3, "", f"error: degree {top} exceeds the cap {top - 1}\n")
    assert run_cli(capsys, "--degree-cap", str(top), *argv)[0] == 0


# spellings Python's int() takes and the algebra file grammar does not
@pytest.mark.parametrize("flag, argv", [
    ("--degree-cap", ["--degree-cap", "1_0", "classify", Q]),
    ("--degree", ["cohomology", Q, "--degree", "1_0"]),
    ("--n", ["audit", Q, "--map", "J", "--n", "\u0661"]),  # an Arabic-Indic one
    ("--max-degree", ["verify-complex", Q, "--max-degree", " 3"]),
], ids=["degree-cap", "degree", "n", "max-degree"])
def test_integer_flags_follow_the_file_grammar(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and f"argument {flag}: invalid int value" in err


@pytest.mark.parametrize("value", [" 3", "1_0", "\u0663"])
def test_degree_cap_env_follows_the_file_grammar(capsys, monkeypatch, value):
    monkeypatch.setenv("COHOMOLAB_MAX_DEGREE", value)
    code, out, err = run_cli(capsys, "classify", Q)
    assert code == 1 and out == "" and "COHOMOLAB_MAX_DEGREE" in err


@pytest.mark.parametrize("cap", ["0", "5"])
@pytest.mark.parametrize("argv", [["--map", "Jeven", "--n", "0"],
                                  ["--map", "Jodd", "--n", "-1"]], ids=["Jeven", "Jodd"])
def test_audit_rejects_n_below_1_before_the_cap(capsys, cap, argv):
    code, out, err = run_cli(capsys, "--degree-cap", cap, "audit", QSQRT2, *argv)
    assert (code, out, err) == (1, "", "error: n must be >= 1\n")


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", QSQRT2)
    assert code == 0
    payload = json.loads(out)
    assert payload["kadison"]["verdict"] == "no"
    assert payload["kadison"]["witness"] == [["1", "0"], ["0", "-1"]]
    assert payload["h0mc_dim"] == 2
    assert payload["wickstead"] == "not_applicable"
    code, out, _ = run_cli(capsys, "classify", ATOMIC3)
    payload = json.loads(out)
    assert payload["kadison"]["verdict"] == "yes"
    assert payload["wickstead"]["verdict"] == "yes"
    assert (payload["h0mc_dim"], payload["h0oo_dim"]) == (6, 0)


def test_audit_output(capsys):
    code, out, _ = run_cli(capsys, "audit", QSQRT2, "--map", "J")
    assert code == 0
    payload = json.loads(out)
    assert payload["cocycle_preservation"]["pass"] is True
    assert payload["coboundary_preservation"]["pass"] is True
    assert payload["injectivity"]["pass"] is True
    assert payload["evaluator_agreement"] is True
    assert payload["target_degree"] == 2

    code, out, _ = run_cli(capsys, "audit", QSQRT2, "--map", "K")
    payload = json.loads(out)
    assert payload["cocycle_preservation"]["pass"] is False
    assert payload["cocycle_preservation"]["witness"] is not None
    assert payload["target_degree"] == 1


@pytest.mark.parametrize("path, tag", [(QSQRT2, "full"), ("fixtures/cubic2.alg", "full"),
                                       (ATOMIC3, "band")], ids=["qsqrt2", "cubic2", "atomic3"])
def test_shifted_degree_n_is_standard_degree_n_plus_1(capsys, path, tag):
    for n in range(3):
        groups = []
        for argv in (["--degree", str(n)], ["--degree", str(n + 1), "--convention", "standard"]):
            code, out, _ = run_cli(capsys, "cohomology", path, "--complex", tag, *argv)
            assert code == 0
            groups.append({k: v for k, v in json.loads(out).items()
                           if k.startswith("dim_") or k == "representatives"})
        assert groups[0] == groups[1]


def test_unknown_convention_is_a_usage_error(capsys):
    for argv in (["cohomology", QSQRT2, "--degree", "1"], ["audit", QSQRT2, "--map", "K"]):
        code, out, err = run_cli(capsys, *argv, "--convention", "sideways")
        assert code == 2 and out == "" and "--convention" in err


@pytest.mark.parametrize("name, n, g", [("K", 1, 2), ("J", 1, 3), ("Jeven", 2, 5), ("Jodd", 2, 4)])
def test_audit_target_degree_follows_the_convention(capsys, name, n, g):
    """The images live in cochain degree g: shifted prints g - 1, standard g."""
    cap = ["--degree-cap", "7"] if n == 2 else []
    for convention, printed in (("shifted", g - 1), ("standard", g)):
        code, out, _ = run_cli(capsys, *cap, "audit", QSQRT2, "--map", name, "--n", str(n),
                               "--convention", convention)
        assert code == 0 and json.loads(out)["target_degree"] == printed


def test_verify_complex(capsys):
    code, out, _ = run_cli(capsys, "verify-complex", QSQRT2,
                           "--max-degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_zero"] is True
    assert [r["n"] for r in payload["results"]] == [0, 1, 2]
    assert all(r["zero"] and r["first_nonzero"] is None
               for r in payload["results"])
    code, out, _ = run_cli(capsys, "verify-complex", ATOMIC3,
                           "--max-degree", "1", "--complex", "band")
    assert code == 0 and json.loads(out)["all_zero"] is True


@pytest.mark.parametrize("argv", [
    ["validate", QSQRT2],
    ["classify", QSQRT2],
    ["classify", ATOMIC3],
    ["cohomology", QSQRT2, "--degree", "2"],
    ["--format", "text", "cohomology", "fixtures/cubic2.alg", "--degree", "1"],
    ["cohomology", ATOMIC3, "--degree", "1", "--complex", "band"],
    ["audit", QSQRT2, "--map", "K"],
    ["audit", QSQRT2, "--map", "J"],
    ["audit", QSQRT2, "--map", "Jodd", "--n", "2"],
    ["verify-complex", QSQRT2, "--max-degree", "2"],
    ["verify-complex", ATOMIC3, "--max-degree", "2", "--complex", "band"],
], ids=["validate", "classify", "classify-atomic", "cohomology", "cohomology-text",
        "cohomology-band", "audit-K", "audit-J", "audit-Jodd-2", "verify-complex",
        "verify-complex-band"])
def test_no_command_builds_a_multilinear_map(capsys, monkeypatch, argv):
    """Cochains stay flat rows from the library to the writer."""
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a MultilinearMap was built")

    monkeypatch.setattr(MultilinearMap, "__new__", refuse)
    with pytest.raises(AssertionError):
        MultilinearMap(1, 1, {})
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


def test_json_output_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "classify", QSQRT2)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    payload = json.loads(next(iter(outs)))
    # canonical formatting: sorted keys, two-space indent, trailing newline
    assert next(iter(outs)) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "validate", Q)
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert any(line.startswith("valid: true") for line in lines)


def test_seed_recorded(capsys):
    _, out, _ = run_cli(capsys, "validate", Q)
    assert json.loads(out)["seed"] == 0


def written(report, pretty):
    pieces = []
    _write_report(report, pieces.append, pretty)
    return "".join(pieces)


def dumped(expected, pretty):
    """The bytes _write_report must write for a report that reads expected."""
    if pretty:
        return json.dumps(expected, sort_keys=True, indent=2) + "\n"
    return "".join(f"{key}: {json.dumps(value, sort_keys=True)}\n"
                   for key, value in sorted(expected.items()))


def test_witness_scalars_print_as_strings_and_indices_as_numbers():
    """A witness prints by the types it is built of: a Row's entries and a
    Mat's cells as scalar strings, and an int outside them, an index or a
    count, as a number."""
    report = {
        "cocycle": {"input": {2: 1, 4: Fraction(1, 2)}, "tuple_flat": 1, "coord": 0,
                    "value": format_rational(-6)},
        "kadison": Mat(2, 2, [{0: 1}, {1: Fraction(-1)}]),
        "wickstead": {"h0oo_dim": 2, "ok": True, "none": None},
    }
    expected = {
        "cocycle": {"input": {"2": "1", "4": "1/2"}, "tuple_flat": 1, "coord": 0, "value": "-6"},
        "kadison": [["1", "0"], ["0", "-1"]],
        "wickstead": {"h0oo_dim": 2, "ok": True, "none": None},
    }
    for pretty in (True, False):
        assert written(report, pretty) == dumped(expected, pretty)


rows = st.dictionaries(st.integers(0, 120), st.one_of(st.integers(), st.fractions()).filter(bool),
                       min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(rows)
@example({2: 1, 10: -3})  # "10" sorts before "2"
def test_a_row_is_written_as_its_scalar_strings(row):
    """A dict with int keys is a Row wherever it sits: a dict of its scalar
    strings, keyed by the index strings in string order."""
    strings = {str(k): format_rational(v) for k, v in row.items()}
    report = {"a": [row, {"b": row, "c": (1, row)}], "row": row}
    expected = {"a": [strings, {"b": strings, "c": [1, strings]}], "row": strings}
    for pretty in (True, False):
        assert written(report, pretty) == dumped(expected, pretty)


# strings that need every kind of JSON escape, beside arbitrary text
texts = st.one_of(st.text(), st.text(st.sampled_from('a "\\/\n\t\x00\x1f\x7fé√\U0001f600')))
payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), texts),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(texts, inner)),
    max_leaves=40,
)


# a report's representatives: one column count, and flat rows with
# integral and fractional entries, stored sparse
representative_mats = st.integers(1, 27).flatmap(
    lambda ncols: st.lists(st.dictionaries(
        st.integers(0, ncols - 1),
        st.one_of(st.integers(), st.fractions()).filter(bool), max_size=4,
    ), max_size=3).map(lambda rows: Mat(len(rows), ncols, rows)))


def dense(reps):
    return [[format_rational(row.get(i, 0)) for i in range(reps.ncols)] for row in reps.rows]


# every code point, lone surrogates included, and the ones the escapes single out
any_characters = st.one_of(st.characters(exclude_categories=()),
                           st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\x80 ~\u2028\ud800\udfff'))


@given(st.text(any_characters))
@example('plain printable ASCII, with no quote or backslash ~')
@example('"\\\x7f\u00e9\U0001d49c\ud83d')  # named escapes, DEL, BMP, astral, a lone surrogate
def test_quote_is_json_dumps(text):
    assert _quote(text) == json.dumps(text)


@given(st.one_of(st.integers(), st.fractions()))
def test_printed_scalars_need_no_json_escape(x):
    """The writer quotes a nonzero cell itself, without the encoder."""
    assert encode_basestring_ascii(format_rational(x)) == '"' + format_rational(x) + '"'


# a report is never empty; only `cohomology` reports have representatives
@settings(max_examples=300, deadline=None)
@given(st.dictionaries(texts, payloads, min_size=1, max_size=2),
       st.one_of(st.none(), representative_mats))
@example({"a": 1}, Mat(1, 4, [{0: 5}]))  # a nonzero at the first cell
@example({"a": 1}, Mat(1, 27, [{26: Fraction(-1, 3)}]))  # and at the last
@example({"a": 1}, Mat(3, 4, [{3: -2, 0: 1}, {}, {1: Fraction(7, 2)}]))  # the zero row reused
@example({"a": 1}, Mat(0, 8, []))  # no representatives
def test_streamed_json_equals_dumps(fields, representatives):
    report, expected = dict(fields), dict(fields)
    if representatives is not None:
        report["representatives"] = representatives
        expected["representatives"] = dense(representatives)
    pieces = []
    _write_report(report, pieces.append, True)
    assert "".join(pieces) == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    pieces = []
    _write_report(report, pieces.append, False)
    assert "".join(pieces) == "".join(f"{key}: {json.dumps(value, sort_keys=True)}\n"
                                      for key, value in sorted(expected.items()))


@settings(max_examples=100, deadline=None)
@given(representative_mats)
@example(Mat(2, 0, [{}, {}]))  # rows with no cells
@example(Mat(0, 3, []))
def test_a_nested_mat_is_written_as_its_dense_rows(mat):
    """The writer dispatches on the type, not on a key: a Mat anywhere in
    a report, in a list or in a dict, is the list of its dense rows."""
    report = {"a": [mat, {"b": mat, "c": (1, mat)}], "mat": mat}
    expected = {"a": [dense(mat), {"b": dense(mat), "c": [1, dense(mat)]}], "mat": dense(mat)}
    for pretty in (True, False):
        assert written(report, pretty) == dumped(expected, pretty)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, {1: True}, {1: 0.5}, {"a": [Fraction(1, 2)]},
                                   {"a": {None: 1}}],
                         ids=["float", "int-key", "row-bool", "row-float", "fraction", "none-key"])
def test_the_writer_refuses_what_it_does_not_encode(value):
    with pytest.raises(TypeError):
        _write_report({"a": value}, lambda piece: None, True)


# argv tokens: the table's flags and values, and spellings that only argparse reads
OPTIONS = dict(GLOBAL_OPTIONS + tuple(o for _, options in COMMANDS.values() for o in options))
INTS = ["0", "1", "3", "-2", "+3", "-0", "007", "1_0", "\u0663", " 3"]  # the last three invalid
FILES = [Q, "a b.alg", "", "classify", "-", "-f.alg", "--format"]
TOKENS = [*OPTIONS, *INTS, *FILES, *COMMANDS, "frobnicate", "-h", "--help", "--degree=1",
          "--format=text", "--seed", "--", "-x", "1.5", "xml", "sideways", "Jeven", "band"]


def option_pair(flag, spec):
    return st.sampled_from(spec.get("choices", INTS)).map(lambda value: [flag, value])


@st.composite
def argvs(draw):
    """A canonical argv, its options in any order, then up to three edits:
    a token or an option pair inserted, a token deleted or replaced, or a
    flag abbreviated."""
    def pairs(options):
        chosen = draw(st.lists(st.sampled_from(options), unique_by=lambda o: o[0])
                      if options else st.just([]))
        return [token for option in chosen for token in draw(option_pair(*option))]

    command = draw(st.sampled_from(list(COMMANDS)))
    own = COMMANDS[command][1]
    # now and then, the options of one side of the command may stray to the other
    argv = pairs(GLOBAL_OPTIONS + draw(st.sampled_from([(), (), (), own])))
    argv += [command, draw(st.sampled_from(FILES))]
    argv += pairs(own + draw(st.sampled_from([(), (), (), GLOBAL_OPTIONS])))
    inserts = (st.sampled_from(TOKENS).map(lambda token: [token])
               | st.sampled_from(list(OPTIONS.items())).flatmap(lambda o: option_pair(*o)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "abbreviate"]))
        if edit == "abbreviate":
            if at < len(argv) and argv[at].startswith("--") and len(argv[at]) > 3:
                argv[at] = argv[at][:draw(st.integers(3, len(argv[at]) - 1))]
            continue
        if edit != "insert":
            del argv[at:at + 1]
        if edit != "delete":
            argv[at:at] = draw(inserts)
    return argv


@settings(max_examples=1000, deadline=None)
@given(argvs())
@example(["--degree-cap", "-0", "--format", "text", "audit", Q, "--convention", "standard",
          "--n", "+3", "--map", "Jodd"])
def test_the_table_parser_agrees_with_argparse(argv):
    """Where the table reads argv, parse_args succeeds on it and reads the same."""
    args = _parse_canonical(argv)
    if args is not None:
        assert vars(build_parser().parse_args(argv)) == vars(args)


def readme_argvs() -> list:
    """The README's CLI lines, each alone, with one choice of one bracketed
    option, and after the global options."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = []
    for line in block.splitlines():
        base = re.sub(r"\s*\[[^]]*\]", "", line).split()[1:]  # less `cohomolab`
        argvs.append(base)
        for flag, choices in (group.split() for group in re.findall(r"\[([^]]*)\]", line)):
            argvs += [base + [flag, choice] for choice in choices.split("|")]
    return [prefix + argv for argv in argvs
            for prefix in ([], ["--format", "text"], ["--degree-cap", "3", "--format", "json"])]


def test_the_readme_commands_take_the_table_path():
    argvs = readme_argvs()
    assert len(argvs) == 3 * (5 + 9)  # 5 lines, 9 bracketed choices
    assert ["audit", QSQRT2, "--map", "K"] in argvs
    for argv in argvs:
        args = _parse_canonical(argv)
        assert args is not None, argv
        assert vars(args) == vars(build_parser().parse_args(argv))


def process_env(**env) -> dict:
    """The environment of a CLI process, with stdout block-buffered as by default."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    env.pop("PYTHONUNBUFFERED", None)
    return env


# sha256 of `cohomology fixtures/atomic4.alg --degree 3` stdout (152,153,182
# bytes), recorded with no memory limit while the JSON was built whole
ATOMIC4_DEGREE3_SHA256 = "9c1726fdbe9b65c89347ce958128a0cdd8741d6d43678dfabf62a80b4497635e"


# sha256 of `--format text cohomology fixtures/atomic4.alg --degree 3` stdout
# (69,150,784 bytes), recorded while the text report was built whole
ATOMIC4_DEGREE3_TEXT_SHA256 = "de3f7ab9817422b704cbb4d4faa6e2cc9dffe884b091a68907f2b15f4bff3415"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_large_report_streams_in_constant_memory(fmt):
    """96 MiB of address space holds the interpreter and the elimination,
    but not the report's dense representatives all at once."""
    limit = 96 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.Popen(
        [sys.executable, "-m", "cohomolab.cli", "--format", fmt, "cohomology",
         str(ROOT / "fixtures" / "atomic4.alg"), "--degree", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=process_env(),
        preexec_fn=cap_address_space)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
        digest.update(chunk)
    proc.stdout.close()
    assert proc.wait() == 0
    assert digest.hexdigest() == {"json": ATOMIC4_DEGREE3_SHA256,
                                  "text": ATOMIC4_DEGREE3_TEXT_SHA256}[fmt]


def test_closed_stdout_is_one_error_line():
    """A reader that stops early gets exit 1 and one `error:` line, not a traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cohomolab.cli", "cohomology",
         str(ROOT / "fixtures" / "atomic4.alg"), "--degree", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=process_env())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()  # the report is megabytes: writing the rest fails
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


LAWLESS = "name lawless\ndim 1\nunit 2\nmult 0 0 = 1\n"  # 2·e0 = 2e0, not e0
UNPARSABLE = "name bad\ndim 1\nunit 1/0\nmult 0 0 = 1\n"


def cli_process(*argv, stdout=subprocess.PIPE, **env):
    """One `python -m cohomolab.cli` process: its exit code, stdout bytes and stderr."""
    proc = subprocess.run([sys.executable, "-m", "cohomolab.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, cwd=ROOT, env=process_env(**env))
    return proc.returncode, proc.stdout, proc.stderr.decode()


def big_sqrt(digits):
    """Q[t]/(t^2 - N), N = 10^digits + 7, in the power basis of qsqrt2.alg;
    N is built as text, so this process never converts it."""
    n = "1" + "0" * (digits - 1) + "7"
    return (f"name bigsqrt\ndim 2\nunit 1 0\norder none\n"
            f"mult 0 0 = 1 0\nmult 0 1 = 0 1\nmult 1 1 = {n} 0\n")


@pytest.mark.parametrize("digits", [3001, 5001])
def test_scalars_of_any_size_are_read_and_printed(tmp_path, digits):
    """Python's limit on int <-> str conversion, at its 4,300-digit default
    or at 640, the lowest it accepts, does not reach the CLI: a constant
    past it parses, and a product past it prints.  Nothing lifts the limit,
    so fileformat's pieces of _DIGITS = 600 digits must stay under 640."""
    path = tmp_path / "bigsqrt.alg"
    path.write_text(big_sqrt(digits))
    for limit in ("4300", "640"):
        for argv in (["validate"], ["classify"], ["cohomology", "--degree", "3"]):
            code, out, err = cli_process(argv[0], str(path), *argv[1:],
                                         PYTHONINTMAXSTRDIGITS=limit)
            assert (code, err) == (0, "")
            assert json.loads(out)["algebra"] == "bigsqrt"
        scalars = re.findall(rb'"(-?[0-9]+(?:/[0-9]+)?)"', out)
        assert max(map(len, scalars)) > 4300


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no digit limit")
def test_main_leaves_the_digit_limit_as_it_is(tmp_path, capsys):
    """In process, at the default 4,300-digit limit, main validates a file
    with a constant past it and leaves the limit as it was, and the writer
    prints an int past it in full."""
    path = tmp_path / "bigsqrt.alg"
    path.write_text(big_sqrt(5000))
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code = main(["validate", str(path)])
        limit = sys.get_int_max_str_digits()
        big = written({"n": 10 ** 5000}, True)
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, limit) == (0, 4300)
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert big == '{\n  "n": 1' + "0" * 5000 + '\n}\n'


BIG = "1" * 100_000


@pytest.mark.parametrize("text, start, length", [
    (f"name x\ndim 1\nunit {BIG}x\n", "line 3: malformed rational '1", 100_001),
    (f"name x\ndim 1\nunit {BIG}/0\n", "line 3: rational '1", 100_002),
    (f"name x\ndim 1\n{BIG} 1\n", "line 3: unknown key '1", 100_000),
    (f"name x\ndim 1\nunit 1\nmult 0 {BIG} = 1\nmult {BIG} 0 = 1\n",
     "line 5: duplicate mult 0 1", 100_000),
    (f"name x\ndim 1\nunit 1\nmult 0 0 = 1\nmult 0 {BIG} = 1\n", "mult indices (0, 1", 100_000),
    (f"name x\ndim {BIG}\nunit 1\n", "unit has 1 coordinates, expected 1", 100_000),
], ids=["malformed", "denominator", "key", "duplicate", "range", "unit"])
def test_a_parse_error_echoes_a_bounded_token(tmp_path, text, start, length):
    """A 100,000-digit token or number is cut in the one error line, with its length."""
    path = tmp_path / "big.alg"
    path.write_text(text)
    code, out, err = cli_process("validate", str(path))
    assert (code, out) == (1, b"")
    assert err.startswith("error: " + start) and err.count("\n") == 1
    assert f"... ({length} characters)" in err and len(err.encode()) < 200


LONG = "1" + "0" * 5000  # 5,001 digits


@pytest.mark.parametrize("argv, env, expected", [
    (["cohomology", Q, "--degree", LONG], {}, 3),
    (["cohomology", Q, "--degree", "-" + LONG], {}, 1),
    (["--degree-cap", LONG, "cohomology", Q, "--degree", LONG], {}, 3),
    (["audit", Q, "--map", "K", "--n", LONG], {}, 1),
    (["audit", Q, "--map", "Jeven", "--n", LONG], {}, 3),
    (["verify-complex", Q, "--max-degree", "-" + LONG], {}, 1),
    (["cohomology", Q, "--degree", "x" + LONG], {}, 2),  # read by argparse
    (["--degree-cap", "-" + LONG, "classify", Q], {}, 2),
    (["cohomology", Q, "--degree", "1"], {"COHOMOLAB_MAX_DEGREE": "x" + LONG}, 1),
], ids=["degree", "negative-degree", "cap-and-degree", "audit-n", "audit-n-cap",
        "max-degree", "degree-not-an-int", "negative-cap", "environment"])
def test_an_error_echoes_a_bounded_number(argv, env, expected):
    """A 5,001-digit option or environment value is cut in the error line,
    with its length, as the file parser cuts a token."""
    code, out, err = cli_process(*argv, COLUMNS="80", **env)
    assert (code, out) == (expected, b"")
    *usage, line = err.splitlines()
    assert bool(usage) == (expected == 2)  # argparse writes its usage text first
    assert "error: " in line and "... (500" in line
    # an echo of a 5,001-digit number is 61 characters long: the cap line
    # echoes two, the degree and the cap
    bound = 160 if line.count("...") == 2 else 150
    assert all(len(x.encode()) < bound for x in usage + [line])


@pytest.mark.parametrize("argv, expected, errors", [
    (["validate", QSQRT2], 0, 0),
    (["--format", "text", "validate", QSQRT2], 0, 0),
    (["cohomology", ATOMIC3, "--degree", "1"], 0, 0),
    (["--format", "text", "cohomology", ATOMIC3, "--degree", "1"], 0, 0),
    (["--form", "text", "cohomology", ATOMIC3, "--degree=1"], 0, 0),  # read by argparse
    (["cohomology", ATOMIC3, "--degree=1"], 0, 0),
    (["cohomology", "fixtures/atomic4.alg", "--degree", "2"], 0, 0),  # megabytes
    (["--help"], 0, 0),
    (["validate", "{lawless}"], 1, 0),  # the violations are the report, on stdout
    (["validate", "{unparsable}"], 1, 1),
    (["cohomology", QSQRT2], 2, 1),  # no --degree
    (["cohomology", QSQRT2, "--degree", "9"], 3, 1),
], ids=["validate", "validate-text", "cohomology", "cohomology-text",
        "cohomology-text-abbreviated", "cohomology-degree-equals", "atomic4",
        "help", "lawless", "unparsable", "usage", "cap"])
def test_a_cli_process_writes_what_main_writes(capsysbinary, monkeypatch, tmp_path,
                                               argv, expected, errors):
    """The process entry flushes everything main wrote and exits with main's code."""
    (tmp_path / "lawless.alg").write_text(LAWLESS)
    (tmp_path / "unparsable.alg").write_text(UNPARSABLE)
    argv = [a.format(lawless=tmp_path / "lawless.alg", unparsable=tmp_path / "unparsable.alg")
            for a in argv]
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
    code = main(argv)
    captured = capsysbinary.readouterr()
    assert code == expected and captured.err.decode().count("error: ") == errors
    assert cli_process(*argv, COLUMNS="80") == (code, captured.out, captured.err.decode())


def test_a_cli_process_skips_finalization():
    """An atexit handler runs after main returns, but not after the process entry."""
    marker = ("import atexit, runpy, sys\n"
              "atexit.register(sys.stderr.write, 'finalized\\n')\n"
              "sys.argv = ['cohomolab', 'validate', 'fixtures/q.alg']\n")
    by_main = marker + "from cohomolab.cli import main\nsys.exit(main())\n"
    by_entry = marker + "runpy.run_module('cohomolab.cli', run_name='__main__')\n"
    results = [subprocess.run([sys.executable, "-c", source], capture_output=True,
                              cwd=ROOT, env=process_env()) for source in (by_main, by_entry)]
    assert [(r.returncode, r.stderr) for r in results] == [(0, b"finalized\n"), (0, b"")]
    assert results[0].stdout == results[1].stdout
    assert json.loads(results[1].stdout)["valid"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_to_a_full_disk_is_one_error_line():
    # argparse swallows its write error, and the help text waits in the buffer
    with open("/dev/full", "wb") as full:
        code, _, err = cli_process("--help", stdout=full)
    assert (code, err) == (1, "error: [Errno 28] No space left on device\n")


def test_the_console_script_enters_where_the_main_block_does():
    tomllib = pytest.importorskip("tomllib")  # in the stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        script = tomllib.load(f)["project"]["scripts"]["cohomolab"]
    tree = ast.parse((ROOT / "src" / "cohomolab" / "cli.py").read_text(encoding="utf-8"))
    (block,) = [s for s in tree.body if isinstance(s, ast.If)
                and ast.unparse(s.test) == "__name__ == '__main__'"]
    (call,) = [n for n in ast.walk(block) if isinstance(n, ast.Call)]
    assert script == f"cohomolab.cli:{ast.unparse(call.func)}"
