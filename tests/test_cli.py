import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cohomolab.cli import _jsonable, _write_report, main
from cohomolab.fileformat import format_rational
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
# steps, which the quadratic's discriminant makes needless
BIG_CONSTANT = ("name bigsq\ndim 2\nunit 1 0\norder none\nmult 0 0 = 1 0\n"
                f"mult 0 1 = 0 1\nmult 1 1 = {10 ** 39 + 7} 0\n")
BIG_CUBE = ("name bigcube\ndim 3\nunit 1 0 0\norder none\nmult 0 0 = 1 0 0\n"
            "mult 0 1 = 0 1 0\nmult 0 2 = 0 0 1\nmult 1 1 = 0 0 1\n"
            f"mult 1 2 = {10 ** 39 + 7} 0 0\nmult 2 2 = 0 {10 ** 39 + 7} 0\n")


@pytest.mark.parametrize("text,name,dim,status", [
    (ATOMIC12, "atomic_12", 12, "refuted"), (BIG_CONSTANT, "bigsq", 2, "asserted"),
    (BIG_CUBE, "bigcube", 3, "asserted"),
], ids=["atomic12", "big-constant", "big-cube"])
def test_validate_within_the_root_search_budget(capsys, tmp_path, text, name, dim, status):
    """An atomic order skips the root search, a quadratic needs none, and a
    search past its budget never starts: each answers at once."""
    path = tmp_path / "a.alg"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == json.dumps({"algebra": name, "command": "validate", "dim": dim,
                              "domain_status": status, "seed": 0, "valid": True,
                              "violations": []}, indent=2) + "\n"


def classify_at_once(capsys, tmp_path, text):
    path = tmp_path / "big.alg"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["domain_status"] == "asserted"
    return payload["kadison"]


def test_classify_past_the_root_search_budget(capsys, tmp_path):
    """A quadratic's discriminant decides its roots, so it is a proved field."""
    assert classify_at_once(capsys, tmp_path, BIG_CONSTANT) == {
        "certificate": None, "verdict": "no", "witness": [["1", "0"], ["0", "-1"]]}


def test_classify_leaves_a_cubic_past_the_budget_unknown(capsys, tmp_path):
    assert classify_at_once(capsys, tmp_path, BIG_CUBE) == {
        "certificate": None, "verdict": "unknown_sampled", "witness": None}


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


def test_an_unlawful_file_never_reaches_the_domain_test(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the domain test ran on a tensor that fails the laws")

    for name, module in list(sys.modules.items()):
        if name.startswith("cohomolab") and hasattr(module, "assess_domain"):
            monkeypatch.setattr(module, "assess_domain", refuse)
    bad = tmp_path / "bad.alg"
    bad.write_text(UNLAWFUL)
    code, out, err = run_cli(capsys, "--format", "text", "validate", str(bad))
    assert (code, err) == (1, "")
    assert {'domain_status: "unchecked"', "valid: false"} <= set(out.splitlines())
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert (code, out, err) == (1, "", "error: algebra law violated: unit at (0,)\n")


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "validate", "fixtures/nope.alg")
    assert code == 1 and out == "" and "error:" in err


def test_usage_error(capsys):
    assert run_cli(capsys, "cohomology", QSQRT2)[0] == 2  # missing --degree
    assert run_cli(capsys, "frobnicate", QSQRT2)[0] == 2
    assert run_cli(capsys, "--help")[0] == 0
    # a negative sampling budget is a usage error, not an empty budget
    code, out, err = run_cli(capsys, "--trials", "-5", "classify", QSQRT2)
    assert code == 2 and out == "" and "--trials" in err
    assert run_cli(capsys, "--trials", "0", "classify", QSQRT2)[0] == 0


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
    ("--trials", ["--trials", "1_0", "classify", Q]),
    ("--seed", ["--seed", "\u0663", "classify", Q]),  # an Arabic-Indic three
    ("--degree-cap", ["--degree-cap", "1_0", "classify", Q]),
    ("--degree", ["cohomology", Q, "--degree", "1_0"]),
    ("--n", ["audit", Q, "--map", "J", "--n", "\u0661"]),  # an Arabic-Indic one
    ("--max-degree", ["verify-complex", Q, "--max-degree", " 3"]),
], ids=["trials", "seed", "degree-cap", "degree", "n", "max-degree"])
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
    _, out, _ = run_cli(capsys, "--seed", "9", "validate", Q)
    assert json.loads(out)["seed"] == 9


def test_witness_scalars_print_as_strings_and_indices_as_numbers():
    witness = {"input": {2: 1, 4: Fraction(1, 2)}, "tuple_flat": 1, "coord": 0, "value": -6}
    assert _jsonable(witness) == {"input": {"2": "1", "4": "1/2"}, "tuple_flat": 1,
                                  "coord": 0, "value": "-6"}
    assert _jsonable([[1, 0], [0, Fraction(-1)]]) == [["1", "0"], ["0", "-1"]]
    assert _jsonable({"h0oo_dim": 2, "ok": True, "none": None}) == {
        "h0oo_dim": 2, "ok": True, "none": None}


# strings that need every kind of JSON escape, beside arbitrary text
texts = st.one_of(st.text(), st.text(st.sampled_from('a "\\/\n\t\x00\x1f\x7fé√\U0001f600')))
payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), texts),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(texts, inner)),
    max_leaves=40,
)


# cochains with integral and fractional entries, stored sparse
cochains = st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(
    lambda shape: st.dictionaries(
        st.integers(0, shape[0] ** (shape[1] + 1) - 1),
        st.one_of(st.integers(), st.fractions()).filter(bool), max_size=4,
    ).map(lambda vec: MultilinearMap(shape[1], shape[0], vec)))


def dense(m):
    return [format_rational(m.vec.get(i, 0)) for i in range(m.dim ** (m.arity + 1))]


@given(st.one_of(st.integers(), st.fractions()))
def test_printed_scalars_need_no_json_escape(x):
    """The writer quotes a nonzero cell itself, without the encoder."""
    assert encode_basestring_ascii(format_rational(x)) == '"' + format_rational(x) + '"'


# a report is never empty; only `cohomology` reports have representatives
@settings(max_examples=300, deadline=None)
@given(st.dictionaries(texts, payloads, min_size=1, max_size=2),
       st.one_of(st.none(), st.lists(cochains, max_size=3)))
@example({"a": 1}, [MultilinearMap(1, 2, {0: 5})])  # a nonzero at the first cell
@example({"a": 1}, [MultilinearMap(2, 3, {26: Fraction(-1, 3)})])  # and at the last
@example({"a": 1}, [MultilinearMap(1, 2, {3: -2, 0: 1}),  # two shapes, one seen twice
                    MultilinearMap(2, 3, {5: Fraction(7, 2)}), MultilinearMap(1, 2, {})])
def test_streamed_json_equals_dumps(fields, representatives):
    report, expected = dict(fields), dict(fields)
    if representatives is not None:
        report["representatives"] = representatives
        expected["representatives"] = [dense(m) for m in representatives]
    pieces = []
    _write_report(report, pieces.append, True)
    assert "".join(pieces) == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    pieces = []
    _write_report(report, pieces.append, False)
    assert "".join(pieces) == "".join(f"{key}: {json.dumps(value, sort_keys=True)}\n"
                                      for key, value in sorted(expected.items()))


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

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cohomolab.cli", "--format", fmt, "cohomology",
         str(ROOT / "fixtures" / "atomic4.alg"), "--degree", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cohomolab.cli", "cohomology",
         str(ROOT / "fixtures" / "atomic4.alg"), "--degree", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()  # the report is megabytes: writing the rest fails
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err
