"""Write pins.json: the reference values that checks.py compares against.

    python3 perfbench/pin.py

Run it from the root of a checkout whose CLI output is known to be right;
the shipped pins.json was written at the seed commit.  It records

- atomic_dims: full-complex cohomology dimensions of atomic_d, which every
  étale algebra of dimension d shares;
- restricted_dims, audit, classify: the verdicts and quotient dimensions;
- sha256: the stdout of every command that full-complex (for every
  binomial constant a seed can draw), restricted and chain-audit run.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from inputs import atomic_algebra, write_algebras  # noqa: E402
from workloads import Command, WORKLOADS  # noqa: E402

WORKDIR = os.path.join(".bench_build", "perfbench", "pin")
# seeds 0..63 draw every binomial constant for both full-complex inputs
FULL_COMPLEX_SEEDS = range(64)
CLASSIFY_SEEDS = range(16)


def cli(cmd) -> bytes:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "cohomolab.cli", *cmd.argv],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True)
    return proc.stdout


def unique(commands):
    return list({c.label: c for c in commands}.values())


def main():
    shutil.rmtree(os.path.join(ROOT, WORKDIR), ignore_errors=True)
    pins = {"atomic_dims": {}, "restricted_dims": {}, "audit": {},
            "classify": {}, "sha256": {}}

    reference = []
    for d in range(1, 6):
        alg = atomic_algebra(d, WORKDIR)
        degrees = [0, 1] + ([2] if d == 4 else []) + ([3] if d == 3 else [])
        reference += [Command("cohomology", alg, "--degree", str(n)) for n in degrees]
    write_algebras([c.alg for c in reference], ROOT)
    for cmd in reference:
        out = json.loads(cli(cmd))
        key = f"{cmd.alg.dim} {cmd.option('--degree')}"
        pins["atomic_dims"][key] = [out["dim_cocycles"], out["dim_coboundaries"], out["dim_H"]]

    hashed = []
    for seed in FULL_COMPLEX_SEEDS:
        hashed += WORKLOADS["full-complex"](seed, os.path.join(WORKDIR, f"full{seed}"))
    hashed += WORKLOADS["restricted"](0, WORKDIR)
    hashed += WORKLOADS["chain-audit"](0, os.path.join(WORKDIR, "audit"))
    hashed = unique(hashed)
    write_algebras([c.alg for c in hashed], ROOT)
    for cmd in hashed:
        stdout = cli(cmd)
        pins["sha256"][cmd.label] = hashlib.sha256(stdout).hexdigest()
        out = json.loads(stdout)
        if cmd.op == "audit":
            pins["audit"][cmd.label] = [
                out["cocycle_preservation"]["pass"],
                out["coboundary_preservation"]["pass"],
                out["injectivity"]["pass"], out["evaluator_agreement"]]
        elif cmd.op == "cohomology" and cmd.option("--complex", "full") != "full":
            pins["restricted_dims"][cmd.label] = [
                out["dim_cocycles"], out["dim_coboundaries"], out["dim_H"]]

    classify = []
    for seed in CLASSIFY_SEEDS:
        classify += [c for c in WORKLOADS["many-small"](seed, os.path.join(WORKDIR, f"small{seed}"))
                     if c.op == "classify"]
    classify = unique(classify)
    write_algebras([c.alg for c in classify], ROOT)
    for cmd in classify:
        out = json.loads(cli(cmd))
        wickstead = out["wickstead"]
        got = {"h0mc_dim": out["h0mc_dim"], "h0oo_dim": out["h0oo_dim"],
               "wickstead": wickstead if isinstance(wickstead, str) else wickstead["verdict"]}
        key = f"{cmd.alg.kind} {cmd.alg.dim}"
        if pins["classify"].setdefault(key, got) != got:
            raise SystemExit(f"{cmd.label}: {got} differs from {pins['classify'][key]}")

    shutil.rmtree(os.path.join(ROOT, WORKDIR), ignore_errors=True)
    with open(os.path.join(BENCH, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
