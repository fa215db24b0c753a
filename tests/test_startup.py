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


def printed_by(source: str) -> list:
    """The lines that source prints, run in a fresh interpreter on the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", source], env=env, check=True,
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


def test_a_successful_command_loads_neither_argparse_nor_json():
    """Each command reads its argv from the table and writes its report
    itself; only --help, a usage error or another spelling loads argparse."""
    argvs = [["validate", str(FIXTURES / "qsqrt2.alg")],
             ["classify", str(FIXTURES / "atomic3.alg")],
             ["--format", "text", "cohomology", str(FIXTURES / "cubic2.alg"), "--degree", "1"],
             ["audit", str(FIXTURES / "qsqrt2.alg"), "--map", "K"],
             ["verify-complex", str(FIXTURES / "atomic2.alg"), "--complex", "band"]]
    (bare,) = printed_by("import sys; print(*sorted(sys.modules))")
    codes, loaded, help_run = printed_by(PROBE.format(argvs=argvs))
    assert codes.split() == ["0"] * len(argvs)
    assert {"cohomolab.cli", "cohomolab.operators"} <= set(loaded.split())
    assert not {"argparse", "gettext", "locale", "json"} & (set(loaded.split()) - set(bare.split()))
    assert help_run == "0 True"
