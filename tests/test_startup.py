"""Start-up stays lean: every command is a fresh process, so what
`import cohomolab.cli` loads is paid by each one."""

import os
import subprocess
import sys
from pathlib import Path

import cohomolab

# the subprocess below runs the package these tests imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cohomolab.__file__))
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def printed_by(source: str, *flags: str) -> list:
    """The lines that source prints, run in a fresh interpreter on the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-c", source], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    (out,) = printed_by("import sys, cohomolab.cli; print(*sorted(sys.modules))")
    assert {"cohomolab.cli"} <= set(out.split())
    assert not {"dataclasses", "inspect"} & set(out.split())


PROBE = """
import io, sys
from cohomolab.cli import build_parser, main
sys.stdout = io.StringIO()
codes = [main(argv) for argv in {argvs!r}]
sys.stdout = sys.__stdout__
print(*codes)
print(*sorted(sys.modules))
sys.stdout = io.StringIO()
code = main(["--help"])
help_text, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
print(code, help_text == build_parser().format_help())
"""


# one successful command of each kind, on integral fixtures
ARGVS = [["validate", str(FIXTURES / "qsqrt2.alg")],
         ["classify", str(FIXTURES / "atomic3.alg")],
         ["--format", "text", "cohomology", str(FIXTURES / "cubic2.alg"), "--degree", "1"],
         ["cohomology", str(FIXTURES / "cubic2.alg"), "--degree", "3"],
         ["audit", str(FIXTURES / "qsqrt2.alg"), "--map", "K"],
         ["verify-complex", str(FIXTURES / "atomic2.alg"), "--complex", "band"]]


def test_a_successful_command_loads_neither_argparse_nor_json():
    """Each command reads its argv from the table and writes its report
    itself; only --help, a usage error or another spelling loads argparse.
    On integral inputs elimination stays over the ints, so fractions, and
    the decimal and numbers it imports, are not loaded either."""
    (bare,) = printed_by("import sys; print(*sorted(sys.modules))")
    codes, loaded, help_run = printed_by(PROBE.format(argvs=ARGVS))
    assert codes.split() == ["0"] * len(ARGVS)
    assert {"cohomolab.cli", "cohomolab.operators"} <= set(loaded.split())
    assert not {"argparse", "gettext", "locale", "json", "fractions", "decimal", "numbers"} & (
        set(loaded.split()) - set(bare.split()))
    assert help_run == "0 True"


CLEAN_PROBE = """
import io, sys
import cohomolab.cli
print(*sorted(sys.modules))
sys.stdout = io.StringIO()
codes = [cohomolab.cli.main(argv) for argv in {argvs!r}]
sys.stdout = sys.__stdout__
print(*codes)
print(*sorted(sys.modules))
"""


def test_a_clean_start_loads_neither_typing_nor_re():
    """Under python -S no site module preloads anything, so what is loaded
    is the package's own doing: records are tuple classes made without
    typing, and the parser and the writer match text without re, which
    would bring enum.  (argparse, for --help or a usage error, and
    fractions, for a non-integral input, still load re.)"""
    imported, codes, ran = printed_by(CLEAN_PROBE.format(argvs=ARGVS), "-S")
    assert "cohomolab.cli" in imported.split()
    assert codes.split() == ["0"] * len(ARGVS)
    for loaded in (imported, ran):
        assert not {"typing", "re", "enum"} & set(loaded.split())


# the golden pin of `cohomology qhalf --degree 1` in test_golden.py
QHALF_PIN = "539ffd243a8a90e93f56ac33bff79aa27f17b5c4a1534d067ad53c2b88ad1f98"

QHALF_PROBE = """
import hashlib, io, sys
from cohomolab.cli import main
sys.stdout = io.StringIO()
code = main(["cohomology", {path!r}, "--degree", "1"])
out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
print(code, hashlib.sha256(out.encode()).hexdigest())
print(*sorted(sys.modules))
"""


def test_a_non_integral_input_loads_fractions_and_keeps_its_pin():
    """qhalf's u^2 = 1/2 is the one place a Fraction is needed."""
    (bare,) = printed_by("import sys; print(*sorted(sys.modules))")
    result, loaded = printed_by(QHALF_PROBE.format(path=str(FIXTURES / "qhalf.alg")))
    assert result == f"0 {QHALF_PIN}"
    assert "fractions" in set(loaded.split()) - set(bare.split())
