"""End-to-end acceptance checks, one summary line printed per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cohomolab
from cohomolab.algebra import assess_domain, basis_element, build_atomic, multiply
from cohomolab.cohomology import (
    audit_chain_map, build_K, cocycle_space, cohomology, multiplier_quotient,
)
from cohomolab.complex import (
    TAG_BAND, TAG_FULL, TAG_IDEAL, apply_d, naive_coboundary_images, verify_dd_zero,
)
from cohomolab.linalg import Echelon, span_dim
from cohomolab.multilinear import from_flat
from cohomolab.operators import classify
from conftest import elem, operator, psi_f_of_ab
from oracles import (
    apply_matrix, evaluate, from_coeff_function, is_hochschild_2cocycle, is_local_multiplier,
    is_multiplier, is_zero, product_cochain_subspace, to_dense,
)

F = Fraction

# the subprocesses below run the package these tests imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cohomolab.__file__))

FIXTURE_FILES = {
    "q": "fixtures/q.alg",
    "qsqrt2": "fixtures/qsqrt2.alg",
    "cubic2": "fixtures/cubic2.alg",
    "atomic2": "fixtures/atomic2.alg",
    "atomic3": "fixtures/atomic3.alg",
    "atomic4": "fixtures/atomic4.alg",
}


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fixture_specs(request):
    names = ["q", "qsqrt2", "cubic2", "atomic2", "atomic3", "atomic4"]
    mgr = request.getfixturevalue  # session fixtures from conftest
    return {n: mgr(n) for n in names}


def test_criterion_1_complex_law(fixture_specs):
    """d_{n+1} o d_n = 0 up to degree 3 on every fixture and complex."""
    start = time.monotonic()
    checked = 0
    for name, spec in fixture_specs.items():
        tags = [TAG_FULL]
        if spec.order_mode == "atomic":
            tags += [TAG_IDEAL, TAG_BAND]
        elif assess_domain(spec).status == "asserted":
            tags += [TAG_IDEAL]
        for tag in tags:
            rep = verify_dd_zero(spec, 3, tag=tag)
            assert rep.all_zero, f"{name}/{tag}: {rep.results}"
            checked += 1
    elapsed = time.monotonic() - start
    report("1 complex-law", checked == 15 and elapsed < 10,
           f"{checked} complexes, {elapsed:.1f}s")


def test_criterion_2_kernel_structure(fixture_specs):
    """dim ker d_1 = d^2, by nullspace and by the f -> f o mult embedding."""
    ok = True
    for name, spec in fixture_specs.items():
        d = spec.dim
        rows = cocycle_space(spec, 1, TAG_FULL)
        nullspace_dim = len(rows)
        # independent construction: compose each linear map with multiplication
        composed = []
        for i in range(d):
            for k in range(d):
                f_ik = lambda x, i=i, k=k: tuple(
                    x[i] if t == k else F(0) for t in range(d))
                psi = from_coeff_function(
                    spec, 2, lambda idx: f_ik(spec.structure[idx[0]][idx[1]]))
                assert is_zero(apply_d(spec, psi))
                composed.append(psi.flatten())
        embed_dim = span_dim(composed)
        ech = Echelon(rows)
        inside = all(ech.contains(r) for r in composed)
        ok = ok and nullspace_dim == d * d == embed_dim and inside
    report("2 kernel-structure", ok, "dim ker d_1 = d^2 both ways")


def brute_force_ker_d1_dim(spec):
    """Constraint oracle: solve Psi(ab, c) = Psi(ac, b) coefficientwise."""
    d = spec.dim
    rows = []
    for i, j, k in itertools.product(range(d), repeat=3):
        for out in range(d):
            row = {}
            for t in range(d):
                c1 = spec.structure[i][j][t]
                col = (t * d + k) * d + out
                if c1:
                    row[col] = row.get(col, F(0)) + c1
                c2 = spec.structure[i][k][t]
                col = (t * d + j) * d + out
                if c2:
                    row[col] = row.get(col, F(0)) - c2
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    return d ** 3 - Echelon(rows).rank


def test_criterion_3_distinguished_quotients(fixture_specs):
    want_mc = {"q": 0, "qsqrt2": 2, "cubic2": 6}
    ok = True
    for name, expect in want_mc.items():
        spec = fixture_specs[name]
        got = multiplier_quotient(spec).dim_H
        # brute-force oracle: direct constraint kernel minus multiplier image
        d = spec.dim
        multipliers = [  # x -> x * b_k
            from_coeff_function(spec, 1, lambda idx, k=k: spec.structure[idx[0]][k])
            for k in range(d)]
        images = [apply_d(spec, m).flatten() for m in multipliers]
        oracle = brute_force_ker_d1_dim(spec) - span_dim(images)
        ok = ok and got == expect == oracle
    for d in range(1, 5):
        spec = build_atomic(d)
        got = cohomology(spec, 1, TAG_BAND).dim_H
        # oracle: band-diagonal kernel vs orthomorphism images, by evaluation
        diag_ker = d  # diagonal 2-cochains all satisfy the kernel constraint
        orthomorphisms = [  # the coordinate projections x -> x_k b_k
            from_coeff_function(spec, 1, lambda idx, k=k: basis_element(d, k)
                                if idx == (k,) else (F(0),) * d)
            for k in range(d)]
        images = [apply_d(spec, m).flatten() for m in orthomorphisms]
        ok = ok and got == 0 == diag_ker - span_dim(images)
    report("3 distinguished-quotients", ok,
           "H0mc = 0/2/6, H0oo = 0 on atomic d=1..4")


def test_criterion_4_classification_consistency(fixture_specs):
    ok = True
    for name, spec in fixture_specs.items():
        r = classify(spec)
        if r.kadison.verdict == "no":
            ok = ok and r.h0mc_dim > 0
        if r.wickstead is not None and r.wickstead.verdict == "yes":
            ok = ok and r.h0oo_dim == 0
        if spec.order_mode == "atomic":
            ok = ok and r.wickstead.verdict == "yes"
            ok = ok and r.kadison.verdict == "yes"
    report("4 classification-consistency", ok)


def test_criterion_5_witness_validity(fixture_specs):
    spec = fixture_specs["qsqrt2"]
    r = classify(spec)
    w = to_dense(r.kadison.witness)
    # every operator of a field is local: sampling must not refute it
    ok = (r.kadison.verdict == "no"
          and is_local_multiplier(spec, operator(spec, w)).verdict != "no")
    mult = is_multiplier(spec, operator(spec, w))
    ok = ok and mult.verdict == "no"
    # re-derive the refuting equation from the stored refutation point
    ok = ok and mult.witness["slot"] == 1 and mult.witness["tuple"] == ()
    b = basis_element(2, mult.witness["basis"])
    lhs = tuple(sum(w[i][j] * b[j] for j in range(2)) for i in range(2))
    rhs = multiply(spec, b, tuple(sum(w[i][j] * spec.unit[j] for j in range(2))
                                  for i in range(2)))
    ok = ok and lhs != rhs and lhs == elem(0, -1) and rhs == elem(0, 1)
    report("5 witness-validity", ok, "conjugation on qsqrt2")


def test_criterion_6_chain_map_audits(fixture_specs):
    qsqrt2 = fixture_specs["qsqrt2"]
    q = fixture_specs["q"]
    ok = True
    for spec in (q, qsqrt2):
        j = audit_chain_map(spec, "J")
        ok = ok and j.cocycle_preservation.ok and j.evaluator_agreement
    ok = ok and audit_chain_map(q, "K").cocycle_preservation.ok
    k = audit_chain_map(qsqrt2, "K")
    ok = ok and not k.cocycle_preservation.ok and k.evaluator_agreement

    # naive 24-permutation oracle at the all-sqrt2 tuple
    k_psi = apply_matrix(build_K(qsqrt2), psi_f_of_ab(qsqrt2), 3)
    r2 = elem(0, 1)
    total = elem(0, 0)
    for sigma in itertools.permutations(range(4)):
        args = [r2] * 4
        first = multiply(qsqrt2, args[sigma[0]], args[sigma[1]])
        term = evaluate(k_psi, [first, args[sigma[2]], args[sigma[3]]])
        total = tuple(a + b for a, b in zip(total, term))
    ok = ok and total == elem(0, -48)
    ok = ok and evaluate(apply_d(qsqrt2, k_psi), [r2] * 4) == elem(0, -48)
    (naive,) = naive_coboundary_images(qsqrt2, 2, [k_psi.flatten()])
    ok = ok and evaluate(from_flat(2, 4, naive), [r2] * 4) == elem(0, -48)
    report("6 chain-map-audits", ok,
           "J passes, K fails on qsqrt2, oracle value (0, -48)")


def test_criterion_7_hochschild_subspace(fixture_specs):
    ok = True
    for name, spec in fixture_specs.items():
        for m in product_cochain_subspace(spec, 2):
            passed, witness = is_hochschild_2cocycle(spec, m)
            ok = ok and passed and witness is None
    report("7 hochschild-subspace", ok)


def test_criterion_8_determinism(fixture_specs):
    cmds = [
        ["classify", FIXTURE_FILES["qsqrt2"]],
        ["cohomology", FIXTURE_FILES["atomic3"], "--degree", "1"],
        ["audit", FIXTURE_FILES["qsqrt2"], "--map", "K"],
        ["verify-complex", FIXTURE_FILES["q"], "--max-degree", "3"],
    ]
    ok = True
    for cmd in cmds:
        outs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
            env.pop("COHOMOLAB_MAX_DEGREE", None)
            p = subprocess.run([sys.executable, "-m", "cohomolab.cli"] + cmd,
                               capture_output=True, env=env)
            ok = ok and p.returncode == 0
            outs.append(p.stdout)
        ok = ok and len(set(outs)) == 1 and json.loads(outs[0])
    report("8 determinism", ok, "byte-identical across hash seeds")
