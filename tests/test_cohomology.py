import gc
import itertools
import json
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cohomolab.algebra import (
    basis_element, build_atomic, build_number_field, multiply, zero_element,
)
from cohomolab.cli import main
from cohomolab.complex import (
    TAG_BAND, TAG_FULL, TAG_IDEAL, DegreeCapExceeded, OrderStructureRequired, apply_d,
    coboundary, coboundary_images, coboundary_rows, lift, tag_coords,
)
from cohomolab.cohomology import (
    CHAIN_MAPS, CheckResult, _chain_map_fn, audit_chain_map, build_J,
    build_J_even, build_J_odd, build_K, cocycle_space, cohomology, multiplier_quotient,
)
from cohomolab.fileformat import format_rational, parse_algebra_file
from cohomolab.linalg import ColumnSpace, Echelon, axpy, span_dim
from cohomolab.multilinear import from_flat, tuple_index
from conftest import elem, mult_cochain, psi_f_times_b
from oracles import (
    add, apply_matrix, audit_stacked, by_coordinate, coboundary_space, coeff, evaluate,
    from_coeff_function, is_zero, keyed, lifted_coboundary_echelon, product_cochain_subspace,
    symmetry_check,
)

F = Fraction
FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.alg"))


def test_cocycle_space_dims(qsqrt2, cubic2):
    assert len(cocycle_space(qsqrt2, 1, TAG_FULL)) == 4
    assert len(cocycle_space(cubic2, 1, TAG_FULL)) == 9
    assert len(coboundary_space(qsqrt2, 0, TAG_FULL)) == 0


def test_cocycles_are_killed(qsqrt2):
    for row in cocycle_space(qsqrt2, 1, TAG_FULL):
        assert is_zero(apply_d(qsqrt2, from_flat(2, 2, row)))


def test_coboundaries_inside_cocycles(qsqrt2):
    z = Echelon(cocycle_space(qsqrt2, 2, TAG_FULL))
    for row in coboundary_space(qsqrt2, 2, TAG_FULL):
        assert z.contains(row)


@pytest.mark.parametrize("fix,expected", [
    ("q", {0: (1, 1, 0), 1: (0, 0, 0), 2: (1, 1, 0)}),
    ("qsqrt2", {0: (4, 4, 0), 1: (6, 4, 2), 2: (24, 10, 14)}),
    ("cubic2", {0: (9, 9, 0), 1: (36, 18, 18), 2: (162, 45, 117)}),
    ("atomic2", {0: (4, 4, 0), 1: (6, 4, 2), 2: (24, 10, 14)}),
    ("atomic3", {0: (9, 9, 0), 1: (36, 18, 18), 2: (162, 45, 117)}),
])
def test_cohomology_dims_shifted(fix, expected, request):
    spec = request.getfixturevalue(fix)
    for n, (z, b, h) in expected.items():
        r = cohomology(spec, n + 1)
        assert (r.dim_cocycles, r.dim_coboundaries, r.dim_H) == (z, b, h)
        assert r.representatives.nrows == len(r.representatives.rows) == h
        # the CLI's shifted degree n is cochain degree n + 1: (n+2)-linear
        # classes, flat rows of d^(n+2) tuples times d output coordinates
        assert r.representatives.ncols == spec.dim ** (n + 3)


def test_representatives_independent_mod_coboundaries(qsqrt2):
    r = cohomology(qsqrt2, 2)
    b_rows = coboundary_space(qsqrt2, 2, TAG_FULL)
    z = Echelon(cocycle_space(qsqrt2, 2, TAG_FULL))
    ech = Echelon(b_rows)
    for row in r.representatives.rows:
        assert z.contains(row)
        assert ech.add(row)  # each rep grows the span beyond the coboundaries
    assert ech.rank == len(b_rows) + r.dim_H


def test_restricted_cohomology(atomic2, atomic3):
    for spec in (atomic2, atomic3):
        for tag in (TAG_BAND, TAG_IDEAL):
            r = cohomology(spec, 1, tag=tag)
            assert (r.dim_cocycles, r.dim_coboundaries) == (spec.dim, spec.dim)
            assert r.dim_H == 0


def test_cohomology_degree_cap(qsqrt2):
    with pytest.raises(DegreeCapExceeded):
        cohomology(qsqrt2, 10)
    reps = cohomology(qsqrt2, 6, cap=7).representatives
    assert reps.rows and reps.ncols == 2 ** 8  # 7-linear classes


def test_multiplier_space(qsqrt2):
    # the multipliers x -> x * w are the arity-1 product cochains
    basis = product_cochain_subspace(qsqrt2, 1)
    assert len(basis) == 2
    assert span_dim([m.flatten() for m in basis]) == len(basis)
    # member k is x -> x * b_k
    x = elem(3, 5)
    assert evaluate(basis[1], [x]) == multiply(qsqrt2, x, elem(0, 1))
    # multipliers are d_0-closed into ker d_1 after one step
    for m in basis:
        assert is_zero(apply_d(qsqrt2, apply_d(qsqrt2, m)))


def test_orthomorphism_space(atomic3, qsqrt2):
    # the orthomorphisms are the band complex's degree-0 cochains
    rows = lift(atomic3, 0, TAG_BAND, [{k: F(1)} for k in range(3)])
    assert len(rows) == 3
    assert evaluate(from_flat(3, 1, rows[0]), [elem(2, 5, 7)]) == elem(2, 0, 0)
    with pytest.raises(OrderStructureRequired):
        tag_coords(qsqrt2, 0, TAG_BAND)


def test_distinguished_quotients(qsqrt2, cubic2, atomic2, atomic3):
    for spec in (qsqrt2, cubic2, atomic3):
        r = multiplier_quotient(spec)
        assert r.dim_H == spec.dim ** 2 - spec.dim
        assert (r.dim_kernel, r.dim_image) == (spec.dim ** 2, spec.dim)
        assert r.dim_kernel == len(cocycle_space(spec, 1, TAG_FULL))
    # the orthomorphism quotient is H^1 of the band complex
    for spec in (atomic2, atomic3):
        r = cohomology(spec, 1, TAG_BAND)
        assert (r.dim_cocycles, r.dim_coboundaries, r.dim_H) == (spec.dim, spec.dim, 0)
    with pytest.raises(OrderStructureRequired):
        cohomology(qsqrt2, 1, TAG_BAND)


def test_build_K_formula(qsqrt2):
    k_mat = build_K(qsqrt2)
    assert (k_mat.nrows, k_mat.ncols) == (2 ** 4, 2 ** 3)
    k = apply_matrix(k_mat, psi_f_times_b(qsqrt2), 3)
    r2, one = elem(0, 1), elem(1, 0)
    # x1 Psi(x2,x3) - x2 Psi(x1,x3) with Psi(a,b) = f(a) b
    assert evaluate(k, [r2, one, one]) == elem(-1, 0)
    assert evaluate(k, [one, one, r2]) == elem(0, 0)
    assert is_zero(apply_matrix(k_mat, mult_cochain(qsqrt2), 3))


def test_build_J_formula(qsqrt2):
    j_mat = build_J(qsqrt2)
    assert (j_mat.nrows, j_mat.ncols) == (2 ** 5, 2 ** 3)
    j = apply_matrix(j_mat, mult_cochain(qsqrt2), 4)
    e = qsqrt2.unit
    assert evaluate(j, [e, e, e, e]) == elem(6, 0)
    # each of the 6 permutations of slots 2..4 contributes x1 x2 x3 x4
    x = [elem(1, 1), elem(2, 0), elem(0, 1), elem(1, -1)]
    prod = x[0]
    for y in x[1:]:
        prod = multiply(qsqrt2, prod, y)
    assert evaluate(j, x) == tuple(6 * c for c in prod)


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def explicit_K(spec, psi):
    """(x1,x2,x3) -> x1*Psi(x2,x3) - x2*Psi(x1,x3), tuple by tuple."""
    d = spec.dim
    return from_coeff_function(spec, 3, lambda t: sub(
        multiply(spec, basis_element(d, t[0]), coeff(psi, (t[1], t[2]))),
        multiply(spec, basis_element(d, t[1]), coeff(psi, (t[0], t[2]))),
    ))


def explicit_J(spec, psi):
    """(x1..x4) -> sum over all 6 permutations p of slots {2,3,4} of
    x1*x_{p2}*Psi(x_{p3},x_{p4}), one permutation at a time."""
    d = spec.dim

    def value_at(t):
        acc = zero_element(d)
        for p in itertools.permutations(t[1:]):
            term = multiply(spec, basis_element(d, t[0]), basis_element(d, p[0]))
            acc = add(acc, multiply(spec, term, coeff(psi, (p[1], p[2]))))
        return acc

    return from_coeff_function(spec, 4, value_at)


@pytest.mark.parametrize("fix", ["q", "qsqrt2", "cubic2", "atomic2", "atomic3", "atomic4"])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_families_at_n1_match_explicit_J_and_K(fix, data, request):
    spec = request.getfixturevalue(fix)
    entries = data.draw(st.dictionaries(
        st.integers(0, spec.dim ** 3 - 1), st.integers(-3, 3), max_size=8))
    psi = from_flat(spec.dim, 2, {c: F(v) for c, v in entries.items()})
    assert apply_matrix(build_J_even(spec, 1), psi, 4) == explicit_J(spec, psi)
    assert apply_matrix(build_J_odd(spec, 1), psi, 3) == explicit_K(spec, psi)


def permutation_J_even(spec, n, psi):
    """Jeven(n) one permutation of slots 2..2n+2 at a time, with no
    grouping of equal arrangements and no memo."""
    d = spec.dim

    def value_at(t):
        acc = zero_element(d)
        for p in itertools.permutations(t[1:]):
            term = basis_element(d, t[0])
            for q in p[:2 * n - 1]:
                term = multiply(spec, term, basis_element(d, q))
            acc = add(acc, multiply(spec, term, coeff(psi, p[2 * n - 1:])))
        return acc

    return from_coeff_function(spec, 2 * n + 2, value_at)


def explicit_J_odd(spec, n, psi):
    """Jodd(n) tuple by tuple: (x1...x_{2n-2}) * (x_{2n-1}Psi(x_{2n},x_{2n+1})
    - x_{2n}Psi(x_{2n-1},x_{2n+1}))."""
    d = spec.dim

    def value_at(t):
        prefix = spec.unit
        for q in t[:2 * n - 2]:
            prefix = multiply(spec, prefix, basis_element(d, q))
        a, b, c = t[2 * n - 2:]
        return multiply(spec, prefix, sub(
            multiply(spec, basis_element(d, a), coeff(psi, (b, c))),
            multiply(spec, basis_element(d, b), coeff(psi, (a, c))),
        ))

    return from_coeff_function(spec, 2 * n + 1, value_at)


# every fixture at n = 1 and 2, and cubic2 at n = 1, where Jeven has keys
# with three distinct slot values
@pytest.mark.parametrize("fix,n", [
    pytest.param(fix, n, id=f"{n}-{fix}")
    for n, fixes in ((1, ["q", "qsqrt2", "atomic2", "cubic2"]), (2, ["q", "qsqrt2", "atomic2"]))
    for fix in fixes])
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_families_match_permutation_formulas(fix, n, data, request):
    spec = request.getfixturevalue(fix)
    entries = data.draw(st.dictionaries(
        st.integers(0, spec.dim ** 3 - 1), st.integers(-3, 3), max_size=8))
    psi = from_flat(spec.dim, 2, {c: F(v) for c, v in entries.items()})
    j_even = apply_matrix(build_J_even(spec, n), psi, 2 * n + 2)
    assert j_even == permutation_J_even(spec, n, psi)
    assert apply_matrix(build_J_odd(spec, n), psi, 2 * n + 1) == explicit_J_odd(spec, n, psi)
    for slots in ((2, 3), (3, 4)):
        assert symmetry_check(j_even, slots) == "symmetric"


def test_j_even_and_odd_specialize(qsqrt2):
    e = qsqrt2.unit
    j2 = apply_matrix(build_J_even(qsqrt2, 2), mult_cochain(qsqrt2), 6)
    assert evaluate(j2, [e] * 6) == elem(120, 0)
    with pytest.raises(ValueError):
        build_J_even(qsqrt2, 0)
    with pytest.raises(ValueError):
        build_J_odd(qsqrt2, 0)


def test_audit_J_passes(q, qsqrt2, atomic3):
    for spec in (q, qsqrt2, atomic3):
        r = audit_chain_map(spec, "J")
        assert r.cocycle_preservation.ok
        assert r.coboundary_preservation.ok
        assert r.injectivity.ok
        assert r.evaluator_agreement
        assert r.degree == 3


def test_audit_K_honest_failure(q, qsqrt2):
    assert audit_chain_map(q, "K").cocycle_preservation.ok
    r = audit_chain_map(qsqrt2, "K")
    assert not r.cocycle_preservation.ok
    assert r.coboundary_preservation.ok
    assert r.injectivity.ok
    assert r.evaluator_agreement
    assert r.degree == 2


def test_audit_K_witness_reproduces(qsqrt2):
    r = audit_chain_map(qsqrt2, "K")
    w = r.cocycle_preservation.witness
    psi = from_flat(2, 2, w["input"])
    dd = apply_d(qsqrt2, apply_matrix(build_K(qsqrt2), psi, 3))
    flat = w["tuple_flat"] * qsqrt2.dim + w["coord"]
    assert dd.flatten().get(flat) == w["value"]
    assert w["value"] != 0


def test_audit_higher_maps(qsqrt2):
    jodd1 = audit_chain_map(qsqrt2, "Jodd", n=1)
    k = audit_chain_map(qsqrt2, "K")
    assert jodd1.cocycle_preservation.ok == k.cocycle_preservation.ok is False
    jeven2 = audit_chain_map(qsqrt2, "Jeven", n=2, cap=7)
    assert jeven2.cocycle_preservation.ok and jeven2.degree == 5
    jodd2 = audit_chain_map(qsqrt2, "Jodd", n=2, cap=7)
    assert jodd2.cocycle_preservation.ok and jodd2.degree == 4
    with pytest.raises(DegreeCapExceeded):
        audit_chain_map(qsqrt2, "Jeven", n=2)
    for name, n in (("M", 1), ("J", 0), ("K", 2)):
        with pytest.raises(ValueError):
            audit_chain_map(qsqrt2, name, n=n)


# the module audit_chain_map looks its names up in (the package's
# `cohomology` attribute is the function of that name)
AUDIT = sys.modules[audit_chain_map.__module__]


def perturb_images(monkeypatch, g, at):
    """Make the fast path's d_g images, as audit_chain_map sees them, wrong
    by 1 at coordinate 0 of the flat output tuples `at` of the first image."""
    real = AUDIT.coboundary_images

    def perturbed(spec, n, rows):
        images = real(spec, n, rows)
        if n == g:
            images[0] = dict(images[0])
            for t in at(spec):
                c = t * spec.dim
                images[0][c] = images[0].get(c, 0) + 1
        return images

    monkeypatch.setattr(AUDIT, "coboundary_images", perturbed)


def test_audit_catches_disagreement_whole(qsqrt2, monkeypatch):
    assert audit_chain_map(qsqrt2, "K").evaluator_agreement
    # the naive sum at (1, 0, 0, 0) is the one formed at (0, 0, 0, 1), reused
    for at in ([5], [tuple_index((1, 0, 0, 0), qsqrt2.dim)]):
        with monkeypatch.context() as patch:
            perturb_images(patch, 2, lambda spec: at)
            assert not audit_chain_map(qsqrt2, "K").evaluator_agreement


def test_audit_compares_every_output_tuple(atomic4, monkeypatch):
    """A wrong d_4 entry at one output tuple of 4^6 is caught.  The tuple
    (0, ..., 0) lies outside the 64 seeded tuples that a sampled comparison
    once drew here, so only a comparison of every tuple sees it."""
    assert audit_chain_map(atomic4, "Jodd", n=2).evaluator_agreement
    perturb_images(monkeypatch, 4, lambda spec: [tuple_index((0,) * 6, spec.dim)])
    assert not audit_chain_map(atomic4, "Jodd", n=2).evaluator_agreement


# The failure branches: chain maps that break injectivity or coboundary
# preservation, patched in where audit_chain_map looks its chain map up.


def patch_map(monkeypatch, fn, g):
    monkeypatch.setattr(AUDIT, "_chain_map_fn", lambda name, n: (fn, g))


def zero_map(g):
    return lambda spec: keyed(spec.dim ** 3, range(spec.dim ** (g + 2)), lambda i: ())


def rank_one_map(spec, g):
    """psi -> psi[c] * h, with h the first representative of degree g and
    c the first column of the first multiplier coboundary; None where that
    cohomology vanishes."""
    reps = cohomology(spec, g, cap=g + 1).representatives.rows
    if not reps:
        return None
    h, c = reps[0], min(AUDIT._multiplier_coboundaries(spec)[0])
    return lambda spec: keyed(spec.dim ** 3, range(spec.dim ** (g + 2)),
                              lambda i: [(c, h[i])] if i in h else ())


def asymmetric_map(spec, g):
    """psi -> psi[c] * h, with h the unit cochain at coordinate 0 of the
    tuple (0, .., 0, 1), which is not symmetric in its last two slots, and
    c the first column of the first row of ker d_1; None at d = 1, where
    every cochain is symmetric."""
    if spec.dim == 1:
        return None
    h = tuple_index((0,) * g + (1,), spec.dim) * spec.dim
    c = min(cocycle_space(spec, 1, TAG_FULL)[0])
    return lambda spec: keyed(spec.dim ** 3, range(spec.dim ** (g + 2)),
                              lambda i: [(c, 1)] if i == h else ())


def cocycle_check_by_images(spec, chain, g):
    """The cocycle check read from coboundary_images of all the images of
    ker d_1: the first row whose d_g image is nonzero, at its first entry."""
    ker_d1 = cocycle_space(spec, 1, TAG_FULL)
    for row, dd in zip(ker_d1, coboundary_images(spec, g, chain.images(ker_d1))):
        if dd:
            flat, coord = divmod(min(dd), spec.dim)
            return CheckResult(False, {"input": row, "tuple_flat": flat, "coord": coord,
                                       "value": dd[min(dd)]})
    return CheckResult(True)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("name", ["J", "Jeven"])
def test_odd_degree_cocycle_check_matches_coboundary_images(path, name):
    """At odd g the audit tests slot symmetry, not d_g: its verdict and
    witness equal those read from d_g of every image, and each image is
    symmetric in its last two slots exactly when d_g kills it."""
    spec = parse_algebra_file(str(path))
    fn, g = _chain_map_fn(name, 1)
    assert g == 3
    chain = fn(spec)
    assert audit_chain_map(spec, name).cocycle_preservation == \
        cocycle_check_by_images(spec, chain, g)
    images = chain.images(cocycle_space(spec, 1, TAG_FULL))
    for image, dd in zip(images, coboundary_images(spec, g, images)):
        assert AUDIT._swap_symmetric(spec.dim, image) == (not dd)


@pytest.mark.parametrize("fix,g", [("qsqrt2", 3), ("qsqrt2", 5), ("qhalf", 3),
                                   ("cubic2", 3), ("atomic3", 3), ("q", 3)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_odd_coboundary_kills_exactly_the_swap_symmetric(fix, g, data):
    """For odd g >= 3 on a unital algebra, d_g P = 0 exactly when P is
    symmetric in its last two slots, on drawn cochains symmetrized or not."""
    spec = parse_algebra_file(f"fixtures/{fix}.alg")
    d = spec.dim
    row = data.draw(st.dictionaries(st.integers(0, d ** (g + 2) - 1),
                                    st.integers(-3, 3).filter(bool), max_size=6))
    if data.draw(st.booleans()):  # add each entry's swap: P(.., x, y) + P(.., y, x)
        swapped = {}
        for f, v in row.items():
            rest, k = divmod(f, d)
            rest, b = divmod(rest, d)
            rest, a = divmod(rest, d)
            swapped[((rest * d + b) * d + a) * d + k] = v
        for f, v in swapped.items():
            row[f] = row.get(f, 0) + v
        row = {f: v for f, v in row.items() if v}
    (dd,) = coboundary_images(spec, g, [row])
    assert AUDIT._swap_symmetric(d, row) == (not dd)


@pytest.mark.parametrize("fix", ["qsqrt2", "qhalf", "cubic2", "atomic3"])
def test_audit_asymmetric_map_fails_cocycle_preservation(fix, monkeypatch):
    """A map at g = 3 whose images are not symmetric in their last two
    slots: the audit applies d_3 to the first of them, and its witness is
    d_3's first nonzero entry, reproduced by direct evaluation."""
    spec = parse_algebra_file(f"fixtures/{fix}.alg")
    fn = asymmetric_map(spec, 3)
    patch_map(monkeypatch, fn, 3)
    r = audit_chain_map(spec, "J")
    assert not r.cocycle_preservation.ok
    assert r.cocycle_preservation == cocycle_check_by_images(spec, fn(spec), 3)
    w = r.cocycle_preservation.witness
    image = apply_matrix(fn(spec), from_flat(spec.dim, 2, w["input"]), 4)
    dd = apply_d(spec, image).flatten()
    assert dd[w["tuple_flat"] * spec.dim + w["coord"]] == w["value"] != 0
    assert min(dd) == w["tuple_flat"] * spec.dim + w["coord"]


@pytest.mark.parametrize("name", ["K", "J"])
def test_audit_zero_map_fails_injectivity(qsqrt2, monkeypatch, name):
    _, g = _chain_map_fn(name, 1)
    patch_map(monkeypatch, zero_map(g), g)
    r = audit_chain_map(qsqrt2, name)
    assert r.cocycle_preservation.ok and r.coboundary_preservation.ok
    assert not r.injectivity.ok
    w = r.injectivity.witness["cocycle"]
    assert w == {4: 1, 2: 1}
    assert Echelon(cocycle_space(qsqrt2, 1, TAG_FULL)).contains(w)
    assert not Echelon(AUDIT._multiplier_coboundaries(qsqrt2)).contains(w)


@pytest.mark.parametrize("name", ["K", "J"])
def test_audit_rank_one_map_fails_coboundary_preservation(qsqrt2, monkeypatch, name):
    _, g = _chain_map_fn(name, 1)
    fn = rank_one_map(qsqrt2, g)
    patch_map(monkeypatch, fn, g)
    r = audit_chain_map(qsqrt2, name)
    assert r.cocycle_preservation.ok
    assert not r.coboundary_preservation.ok
    w = r.coboundary_preservation.witness
    assert Echelon(AUDIT._multiplier_coboundaries(qsqrt2)).contains(w["input"])
    image = apply_matrix(fn(qsqrt2), from_flat(2, 2, w["input"]), g + 1)
    assert w["image"] == image.flatten() != {}


@pytest.mark.parametrize("fixture", ["qsqrt2", "qhalf"])
@pytest.mark.parametrize("name", ["K", "J"])
@pytest.mark.parametrize("check", ["injectivity", "coboundary_preservation"])
def test_main_prints_the_failure_witnesses(monkeypatch, capsys, fixture, name, check):
    """The two witnesses that no fixture's audit prints, through main in
    both formats: each is its Rows, with string keys and string scalars."""
    path = f"fixtures/{fixture}.alg"
    spec = parse_algebra_file(path)
    _, g = _chain_map_fn(name, 1)
    patch_map(monkeypatch, zero_map(g) if check == "injectivity" else rank_one_map(spec, g), g)
    witness = getattr(audit_chain_map(spec, name), check).witness
    expected = {"pass": False, "witness": {
        key: {str(k): format_rational(v) for k, v in row.items()} for key, row in witness.items()}}
    assert main(["audit", path, "--map", name]) == 0
    out = capsys.readouterr().out
    printed = json.loads(out)
    assert printed[check] == expected
    assert out == json.dumps(printed, sort_keys=True, indent=2) + "\n"
    assert main(["--format", "text", "audit", path, "--map", name]) == 0
    assert f"{check}: {json.dumps(expected, sort_keys=True)}" in capsys.readouterr().out.splitlines()


@st.composite
def audited_algebras(draw):
    """Q[t]/(p), p monic integer of degree 1 to 3, or an atomic algebra of 1 to 3 atoms."""
    if draw(st.booleans()):
        return build_atomic(draw(st.integers(1, 3)))
    k = draw(st.integers(1, 3))
    return build_number_field(draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)) + [1])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=audited_algebras(), data=st.data())
def test_audit_matches_stacked_kernel_oracle(spec, data, monkeypatch):
    """All three verdicts and witnesses equal those read from a stacked
    [images | coboundary basis] kernel, for the four maps (n = 2 only up
    to d = 2), the zero map, a rank-one map, and a rank-one map onto a
    cochain not symmetric in its last two slots."""
    n = 2 if spec.dim <= 2 and data.draw(st.booleans()) else 1
    name = data.draw(st.sampled_from(CHAIN_MAPS if n == 1 else ("Jeven", "Jodd")))
    fn, g = _chain_map_fn(name, n)
    kind = data.draw(st.sampled_from(["map", "zero", "rank one", "asymmetric"]))
    if kind == "zero":
        fn = zero_map(g)
    elif kind == "rank one":
        fn = rank_one_map(spec, g) or zero_map(g)
    elif kind == "asymmetric":
        fn = asymmetric_map(spec, g) or zero_map(g)
    patch_map(monkeypatch, fn, g)
    r = audit_chain_map(spec, name, n=n, cap=g + 1)
    assert (r.cocycle_preservation, r.coboundary_preservation, r.injectivity) == \
        audit_stacked(spec, fn, g)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_multiplier_coboundaries_match_product_cochains(path):
    spec = parse_algebra_file(str(path))
    assert AUDIT._multiplier_coboundaries(spec) == \
        [apply_d(spec, m).flatten() for m in product_cochain_subspace(spec, 1)]


@lru_cache(maxsize=None)
def reduction_case(name: str, g: int):
    """A fixture, an index-level echelon of im d_{g-1} fed d_{g-1}'s raw
    index-level images, the lifted echelon, and the lifted images spanning
    im d_{g-1}."""
    spec = parse_algebra_file(str(FIXTURES[0].with_name(f"{name}.alg")))
    images = coboundary(spec, g - 1, TAG_FULL).transpose().rows
    return (spec, Echelon(images), lifted_coboundary_echelon(spec, g),
            lift(spec, g, TAG_FULL, images))


REDUCTION_CASES = [(name, g) for name, d in (("qsqrt2", 2), ("qhalf", 2), ("cubic2", 3),
                                             ("atomic3", 3), ("tm2sq", 2))
                   for g in range(1, 8) if d ** (g + 2) <= 3 ** 6]


@pytest.mark.parametrize("name,g", REDUCTION_CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_index_level_reduction_equals_lifted(name, g, data):
    """Reducing a flat vector one output coordinate at a time, by
    by_coordinate with the index-level echelon, gives the lifted
    Fraction RREF's reduce times D, the lcm of the index-level pivot
    leads, entry for entry, on vectors inside im d_{g-1} and off it."""
    spec, index_ech, lifted_ech, lifted_images = reduction_case(name, g)
    d = spec.dim
    values = st.fractions(-4, 4, max_denominator=5).filter(bool)
    x = data.draw(st.dictionaries(st.integers(0, d ** (g + 2) - 1), values, max_size=8))
    for j, c in data.draw(st.lists(st.tuples(st.integers(0, len(lifted_images) - 1), values),
                                   max_size=4)):
        axpy(x, c, lifted_images[j])
    reduced = by_coordinate(d, x, index_ech.reduce)
    scale = lcm(*(p[c] for c, p in index_ech.pivots.items()))
    assert reduced == {c: scale * v for c, v in lifted_ech.reduce(x).items()}


def test_reduction_cases_share_rows_both_ways():
    """REDUCTION_CASES reduce modulo d_{g-1} at odd and at even g-1 >= 2, so
    both kinds of shared rows, pairs and multisets, run below."""
    assert {(g - 1) % 2 for _, g in REDUCTION_CASES if g >= 3} == {0, 1}


@pytest.mark.parametrize("name,g", REDUCTION_CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_column_space_reduction_is_linear_and_kills_exactly_im_d(name, g, data):
    """The audit's reduction modulo im d_{g-1}, a ColumnSpace of d_{g-1}'s
    row stream applied one output coordinate at a time, is linear, and it
    is zero exactly on the lifted echelon's span, on vectors inside
    im d_{g-1} and off it."""
    spec, _, lifted_ech, lifted_images = reduction_case(name, g)
    d = spec.dim
    matrix = coboundary(spec, g - 1, TAG_FULL)
    if g >= 3:  # d_{g-1} shares rows between positions, and the cases use it
        assert len({id(r) for r in matrix.rows}) < len(matrix.rows)
    space = ColumnSpace(coboundary_rows(spec, g - 1), matrix.nrows, matrix.ncols)

    def reduce(x):
        return by_coordinate(d, x, space.reduce)

    values = st.fractions(-4, 4, max_denominator=5).filter(bool)

    def vector():
        x = data.draw(st.dictionaries(st.integers(0, d ** (g + 2) - 1), values, max_size=6))
        for j, c in data.draw(st.lists(st.tuples(st.integers(0, len(lifted_images) - 1),
                                                 values), max_size=4)):
            axpy(x, c, lifted_images[j])
        return x

    x, y = vector(), vector()
    a, b = data.draw(values), data.draw(values)
    combined = {}
    axpy(combined, a, x)
    axpy(combined, b, y)
    expected = {}
    axpy(expected, a, reduce(x))
    axpy(expected, b, reduce(y))
    assert reduce(combined) == expected
    for v in (x, y, combined):
        assert (not reduce(v)) == lifted_ech.contains(v)


def test_audit_keeps_no_naive_image_alive():
    """K on Q[t]/(t^5 - 2) compares 25 images of ker d_1 in degree 2 with
    the naive evaluator, which forms each one only when the comparison
    draws it, and reduces each image on its own.  Its traced peak was
    about 2.6 MB while every naive image, every index-level part and a
    dense echelon of im d_1 were held together, and is about 1.6 MB now,
    the fast images of d_2 being the largest part."""
    spec = build_number_field([-2, 0, 0, 0, 0, 1])
    gc.collect()
    tracemalloc.start()
    try:
        report = audit_chain_map(spec, "K")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.cocycle_preservation.ok and report.evaluator_agreement
    assert peak < 2_000_000, f"{peak} bytes traced at the audit's peak"
