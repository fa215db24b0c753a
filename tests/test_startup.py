"""Start-up stays lean: every command is a fresh process, so what
`import cohomolab.cli` loads is paid by each one."""

import os
import subprocess
import sys

import cohomolab

# the subprocess below runs the package these tests imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cohomolab.__file__))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    probe = "import sys, cohomolab.cli; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert {"cohomolab.cli"} <= set(out.split())
    assert not {"dataclasses", "inspect"} & set(out.split())
