"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests`.

They run the real CLI, so they take about a minute.
"""

import json
import os
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from checks import check  # noqa: E402
from inputs import (  # noqa: E402
    BINOMIAL_CONSTANTS, SplitMix64, binomial, is_eisenstein_at_2,
    random_eisenstein, write_algebras,
)
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def cli(cmd) -> bytes:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run([sys.executable, "-m", "cohomolab.cli", *cmd.argv],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          check=True).stdout


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_seed_zero_reproduces_the_reference_quartic():
    cmds = WORKLOADS["full-complex"](0, "w")
    assert cmds[0].alg.label == "quartic[t^4-2]"
    assert "mult 1 3 = 2 0 0 0\n" in cmds[0].alg.text
    assert "mult 3 3 = 0 0 2 0\n" in cmds[0].alg.text


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    def texts(seed):
        return [(c.label, c.alg.text) for c in WORKLOADS[workload](seed, "w")]
    assert texts(7) == texts(7)


def test_number_fields_are_eisenstein():
    rng = SplitMix64(3)
    for _ in range(200):
        assert is_eisenstein_at_2(random_eisenstein(rng, 2 + rng.below(3)))
    assert all(is_eisenstein_at_2(binomial(4, c)) for c in BINOMIAL_CONSTANTS)


def _command(workload, seed, op, alg, degree=None):
    """The workload's first matching command, with its input file written."""
    cmds = WORKLOADS[workload](seed, ".bench_build/perfbench/test-inputs")
    cmd = next(c for c in cmds if c.op == op and c.alg.label.startswith(alg)
               and c.option("--degree") == degree)
    write_algebras([cmd.alg], ROOT)
    return cmd


def test_checker_rejects_a_tampered_pinned_output():
    cmd = _command("chain-audit", 0, "audit", "quartic[t^4-2]")
    assert cmd.option("--map") == "K"
    out = cli(cmd)
    assert check(cmd, out) is None
    assert check(cmd, out.replace(b'"pass": false', b'"pass": true')) is not None
    assert check(cmd, out + b"\n") is not None


def test_checker_rejects_a_tampered_unpinned_output():
    cmd = _command("many-small", 5, "cohomology", "eis4", degree="1")
    out = cli(cmd)
    assert check(cmd, out) is None
    report = json.loads(out)
    report["dim_H"] += 1
    assert check(cmd, json.dumps(report).encode()) is not None
    report["dim_H"] -= 1
    report["representatives"][0][0] = "7/3"
    assert check(cmd, json.dumps(report).encode()) is None  # values are not pinned here
    report["representatives"].pop()
    assert check(cmd, json.dumps(report).encode()) is not None


def test_kadison_no_on_a_split_input_is_a_known_failure():
    cmd = _command("many-small", 0, "classify", "split")
    report = json.loads(cli(cmd))
    report["kadison"] = {"verdict": "no", "witness": None, "certificate": None}
    failure = check(cmd, json.dumps(report).encode())
    assert failure is not None and failure.known
    report["h0mc_dim"] += 1
    assert not check(cmd, json.dumps(report).encode()).known


def _runs(workload, seeds, seconds):
    rows = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True, timeout=180)
        rows.append(json.loads(proc.stdout.decode().splitlines()[-1]))
    return rows


def test_two_sets_of_runs_agree_within_the_bounds():
    seeds = (1, 2, 3)
    first, second = _runs("many-small", seeds, 1), _runs("many-small", seeds, 1)
    for row in first + second:
        assert row["correct"] and row["attempted"] >= 1
    # the pass count is fixed, so the counts repeat exactly for each seed
    assert ([(r["attempted"], r["failed"]) for r in first]
            == [(r["attempted"], r["failed"]) for r in second])
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = statistics.median(r["metrics"][name]["value"] for r in first)
        b = statistics.median(r["metrics"][name]["value"] for r in second)
        assert abs(b - a) <= bound * min(a, b), (name, a, b)


def test_fails_without_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-small",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
