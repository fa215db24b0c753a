"""The benchmark's tracer rebinds package names by string; keep them alive.

perfbench/tracer.py is loaded read-only (its main does not run on import),
and every function and method it wraps must still exist, or a traced
benchmark run would fail on a renamed or deleted name.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import cohomolab

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")
# the subprocess below runs the package these tests imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cohomolab.__file__))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = _load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for _, module, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for _, module, cls, method in tracer.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), (module, cls, method)


def test_cli_import_loads_every_traced_module():
    """The tracer looks each module up in sys.modules after `import cohomolab.cli`,
    so that import alone must load them all."""
    tracer = _load_tracer()
    wanted = {module for _, module, _ in tracer.FUNCTIONS}
    wanted |= {module for _, module, _, _ in tracer.METHODS}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    probe = "import sys, cohomolab.cli; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert wanted <= set(out.split())
