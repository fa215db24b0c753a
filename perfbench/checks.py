"""Output checks for every benchmark command.

The checks rest on facts that hold whatever the implementation:

- every input is étale, so full-complex cohomology dimensions equal those
  of the atomic algebra atomic_d of the same dimension;
- d o d = 0, so verify-complex reports all_zero;
- audit verdicts, classify quotient dimensions and, for the fixed-input
  workloads, the whole stdout are pinned in pins.json from the seed
  commit, because the CLI promises byte-identical output.

No check reads `domain_status`, which is due to be renamed.  Classify's
Kadison verdict must be "no" on number fields of degree >= 2 and must not
be "no" on split inputs.  The seed commit breaks the second rule on split
Q[t]/(p) inputs whose zero divisors its sampled falsifier misses; such a
failure is reported as known, and it still counts as a failed command.
"""

import hashlib
import json
import os

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json"),
          encoding="utf-8") as _fh:
    PINS = json.load(_fh)


class Failure:
    def __init__(self, reason: str, known: bool = False):
        self.reason = reason
        self.known = known  # the split-input Kadison defect


def _cohomology(cmd, out):
    degree = int(cmd.option("--degree"))
    tag = cmd.option("--complex", "full")
    d = cmd.alg.dim
    dims = [out["dim_cocycles"], out["dim_coboundaries"], out["dim_H"]]
    if tag == "full":
        want = PINS["atomic_dims"].get(f"{d} {degree}")
    else:
        want = PINS["restricted_dims"].get(cmd.label)
    if want is None:
        return Failure(f"no reference dimensions for {cmd.label}")
    if dims != want:
        return Failure(f"dims {dims} != reference {want}")
    reps = out["representatives"]
    if len(reps) != out["dim_H"]:
        return Failure(f"{len(reps)} representatives for dim_H {out['dim_H']}")
    # shifted convention: degree-n cocycles are (n+2)-linear, d values each
    size = d ** (degree + 3)
    if any(len(r) != size for r in reps):
        return Failure(f"a representative does not have {size} coordinates")
    return None


def _verify_complex(cmd, out):
    max_degree = int(cmd.option("--max-degree"))
    results = out["results"]
    if out["all_zero"] is not True or len(results) != max_degree + 1:
        return Failure("d o d is not reported zero at every degree")
    if any(r["zero"] is not True for r in results):
        return Failure("a degree reports d o d != 0")
    return None


def _audit(cmd, out):
    got = [out["cocycle_preservation"]["pass"],
           out["coboundary_preservation"]["pass"],
           out["injectivity"]["pass"],
           out["evaluator_agreement"]]
    want = PINS["audit"].get(cmd.label)
    if got != want:
        return Failure(f"audit verdicts {got} != pinned {want}")
    return None


def _classify(cmd, out):
    alg = cmd.alg
    want = PINS["classify"].get(f"{alg.kind} {alg.dim}")
    if want is None:
        return Failure(f"no pinned classification for {alg.kind} d={alg.dim}")
    wickstead = out["wickstead"]
    got = {"h0mc_dim": out["h0mc_dim"], "h0oo_dim": out["h0oo_dim"],
           "wickstead": wickstead if isinstance(wickstead, str) else wickstead["verdict"]}
    if got != want:
        return Failure(f"classification {got} != pinned {want}")
    kadison = out["kadison"]["verdict"]
    if alg.kind == "field" and kadison != "no":
        return Failure(f"Kadison {kadison!r} on a field of degree {alg.dim}")
    if alg.kind != "field" and kadison == "no":
        return Failure("Kadison 'no' on a split algebra", known=alg.kind == "split")
    return None


def _validate(cmd, out):
    if out["valid"] is not True or out["violations"]:
        return Failure("valid algebra reported invalid")
    return None


CHECKS = {
    "cohomology": _cohomology,
    "verify-complex": _verify_complex,
    "audit": _audit,
    "classify": _classify,
    "validate": _validate,
}


def check(cmd, stdout: bytes):
    """None if the command's stdout is right, else a Failure."""
    pinned = PINS["sha256"].get(cmd.label)
    if pinned is not None and hashlib.sha256(stdout).hexdigest() != pinned:
        return Failure("stdout differs from the pinned bytes")
    try:
        out = json.loads(stdout)
    except ValueError:
        return Failure("stdout is not one JSON object")
    if not isinstance(out, dict):
        return Failure("stdout is not one JSON object")
    if out.get("command") != cmd.op or out.get("dim") != cmd.alg.dim:
        return Failure("stdout reports another command or dimension")
    try:
        return CHECKS[cmd.op](cmd, out)
    except (KeyError, TypeError) as exc:
        return Failure(f"malformed report: {exc!r}")
