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

import pytest

import cohomolab
from cohomolab.cli import _parse_canonical, main

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


PERFBENCH = os.path.dirname(TRACER)
REPO_ROOT = os.path.dirname(PERFBENCH)


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's inputs, workloads and checks modules, imported without
    writing bytecode there, from the repository root that fixture paths
    are relative to; sys.path and sys.modules are restored afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.chdir(REPO_ROOT)
    names = ("inputs", "workloads", "checks")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    yield [importlib.import_module(name) for name in names]
    for name in names:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


def test_seed_0_commands_pass_the_benchmark_checks(perfbench, tmp_path, capsys):
    """Every seed-0 command of full-complex, chain-audit and many-small exits
    0 with stdout that the benchmark's own check accepts, the known split
    input Kadison failure included."""
    inputs, workloads, checks = perfbench
    for workload in ("full-complex", "chain-audit", "many-small"):
        commands = workloads.WORKLOADS[workload](0, str(tmp_path / workload))
        inputs.write_algebras({c.alg.path: c.alg for c in commands}.values(), REPO_ROOT)
        for cmd in commands:
            code = main(cmd.argv)
            stdout = capsys.readouterr().out.encode("utf-8")
            assert code == 0, cmd.label
            failure = checks.check(cmd, stdout)
            assert failure is None, (cmd.label, failure.reason)


def test_every_benchmark_command_takes_the_table_path(perfbench, tmp_path):
    """Each benchmark command is spelled canonically, so argparse stays unloaded."""
    _, workloads, _ = perfbench
    for workload, make in workloads.WORKLOADS.items():
        for cmd in make(0, str(tmp_path / workload)):
            assert _parse_canonical(cmd.argv) is not None, cmd.label
