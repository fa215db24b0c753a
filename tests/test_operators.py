from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cohomolab.algebra import basis_element, build_atomic, build_number_field, multiply
from cohomolab.complex import OrderStructureRequired
from cohomolab.multilinear import MultilinearMap
from cohomolab.operators import NO, UNKNOWN, YES, classify
from conftest import elem, operator
from oracles import (
    is_band_preserving, is_local_multiplier, is_multiplier, is_orthomorphism, sample_elements,
)

F = Fraction


def regmat(spec, w):
    d = spec.dim
    cols = [multiply(spec, basis_element(d, j), w) for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def conjugation(d):
    m = [[F(1 if i == j else 0) for j in range(d)] for i in range(d)]
    m[1][1] = F(-1)
    return m


def test_apply_operator(qsqrt2):
    # an operator is applied as its arity-1 cochain
    m = [[F(1), F(2)], [F(0), F(3)]]
    assert operator(qsqrt2, m).eval([elem(1, 1)]) == elem(3, 3)


def test_sample_elements_deterministic(qsqrt2, atomic3):
    a = sample_elements(qsqrt2, 8, 3)
    assert a == sample_elements(qsqrt2, 8, 3)
    assert a[:3] == [elem(1, 0), elem(0, 1), elem(1, 1)]
    assert len(a) == 2 + 1 + 8
    assert sample_elements(qsqrt2, 8, 4) != a
    # the basis, then each pairwise sum, then the seeded elements
    b = sample_elements(atomic3, 8, 3)
    assert b[3:6] == [elem(1, 1, 0), elem(1, 0, 1), elem(0, 1, 1)] and len(b) == 3 + 3 + 8


def test_is_multiplier(qsqrt2):
    v = is_multiplier(qsqrt2, operator(qsqrt2, regmat(qsqrt2, elem(2, 3))))
    assert v.verdict == YES
    assert v.certificate == elem(2, 3)
    v = is_multiplier(qsqrt2, operator(qsqrt2, conjugation(2)))
    assert v.verdict == NO
    assert v.witness == {"slot": 1, "tuple": (), "basis": 1}
    with pytest.raises(ValueError):
        is_multiplier(qsqrt2, MultilinearMap(1, 1, {0: F(1)}))


@pytest.mark.parametrize("predicate", [
    is_multiplier, is_local_multiplier, is_band_preserving, is_orthomorphism,
])
def test_predicates_reject_wrong_shape(predicate, atomic3, qsqrt2):
    one_by_one = MultilinearMap(1, 1, {0: F(1)})  # the operator [[1]]
    for spec, other in ((atomic3, qsqrt2), (qsqrt2, atomic3)):
        for psi in (one_by_one, operator(other, conjugation(other.dim)),
                    MultilinearMap(0, spec.dim, {0: F(1)})):
            with pytest.raises(ValueError, match="operator must be a cochain"):
                predicate(spec, psi)


def test_conjugation_local_but_not_multiplier(qsqrt2):
    # the nontrivial field automorphism: T(a) = sigma(a) = (sigma(a)/a) * a,
    # local like every operator of a field, which sampling cannot prove
    v = is_local_multiplier(qsqrt2, operator(qsqrt2, conjugation(2)))
    assert v.verdict == UNKNOWN
    assert is_multiplier(qsqrt2, operator(qsqrt2, conjugation(2))).verdict == NO


def test_local_multiplier_atomic(atomic3):
    diag = [[F(2 if i == j and i == 1 else (1 if i == j else 0))
             for j in range(3)] for i in range(3)]
    assert is_local_multiplier(atomic3, operator(atomic3, diag)).verdict == YES
    off = [[F(0)] * 3 for _ in range(3)]
    off[0][1] = F(1)
    v = is_local_multiplier(atomic3, operator(atomic3, off))
    assert v.verdict == NO
    assert v.witness == (elem(0, 1, 0),)


def test_local_multiplier_unknown_without_structure():
    dual = build_number_field([0, 0, 1], name="dual")  # t^2 = 0, not a domain
    d = dual.dim
    ident = [[F(1 if i == j else 0) for j in range(d)] for i in range(d)]
    assert is_local_multiplier(dual, operator(dual, ident)).verdict == UNKNOWN
    shift = [[F(0), F(0)], [F(1), F(0)]]  # 1 -> t, t -> 0 = t*t
    assert is_local_multiplier(dual, operator(dual, shift)).verdict == UNKNOWN
    bad = [[F(0), F(1)], [F(0), F(0)]]  # t -> 1, not in t*A
    assert is_local_multiplier(dual, operator(dual, bad)).verdict == NO


def test_band_preserving_and_orthomorphism(atomic3, qsqrt2):
    diag = [[F(i + 1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert is_band_preserving(atomic3, operator(atomic3, diag)).verdict == YES
    orth = is_orthomorphism(atomic3, operator(atomic3, diag))
    assert orth.verdict == YES
    assert orth.certificate == operator(atomic3, [[abs(v) for v in row] for row in diag])
    off = [[F(0)] * 3 for _ in range(3)]
    off[2][0] = F(5)
    v = is_band_preserving(atomic3, operator(atomic3, off))
    assert v.verdict == NO
    assert v.witness == (elem(1, 0, 0), elem(0, 0, 1))
    assert is_orthomorphism(atomic3, operator(atomic3, off)).verdict == NO
    with pytest.raises(OrderStructureRequired):
        is_band_preserving(qsqrt2, operator(qsqrt2, conjugation(2)))


ORACLE_ALGEBRAS = {
    "atomic2": build_atomic(2), "atomic3": build_atomic(3), "atomic4": build_atomic(4),
    "qsqrt2": build_number_field([-2, 0, 1]), "cubic2": build_number_field([-2, 0, 0, 1]),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_ALGEBRAS)), data=st.data())
def test_arity1_predicates_match_dense_definitions(name, data):
    """At arity 1 is_multiplier and is_band_preserving agree with the dense
    definitions for a d x d operator matrix T, written out here."""
    spec = ORACLE_ALGEBRAS[name]
    d = spec.dim
    w = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    noise = data.draw(st.one_of(
        st.just([0] * (d * d)),
        st.lists(st.sampled_from([0, 0, 0, 0, 1, -2]), min_size=d * d, max_size=d * d)))
    # a multiplier (diagonal on atomic algebras), perhaps plus sparse noise
    mult = regmat(spec, elem(*w))
    t = [[mult[i][j] + noise[i * d + j] for j in range(d)] for i in range(d)]

    def apply(x):
        return tuple(sum((t[i][j] * x[j] for j in range(d)), F(0)) for i in range(d))

    te = apply(spec.unit)
    bad = [i for i in range(d)
           if apply(basis_element(d, i)) != multiply(spec, basis_element(d, i), te)]
    v = is_multiplier(spec, operator(spec, t))
    if bad:
        assert v.verdict == NO and v.witness == {"slot": 1, "tuple": (), "basis": bad[0]}
    else:
        assert v.verdict == YES and v.certificate == te

    if spec.order_mode != "atomic":
        with pytest.raises(OrderStructureRequired):
            is_band_preserving(spec, operator(spec, t))
        return
    off = [(j, i) for j in range(d) for i in range(d) if i != j and t[i][j]]
    v = is_band_preserving(spec, operator(spec, t))
    if off:
        j, i = off[0]
        assert v.verdict == NO
        assert v.witness == (basis_element(d, j), basis_element(d, i))
    else:
        assert v.verdict == YES


def test_classify_field(qsqrt2):
    r = classify(qsqrt2)
    assert r.kadison.verdict == NO
    assert r.kadison.witness == conjugation(2)
    assert r.wickstead is None and r.h0oo_dim is None
    assert r.h0mc_dim == 2
    assert qsqrt2.domain_status == "asserted"


def test_classify_cubic(cubic2):
    r = classify(cubic2)
    assert r.kadison.verdict == NO
    assert r.h0mc_dim == 6


def test_classify_atomic(atomic3):
    r = classify(atomic3)
    assert r.kadison.verdict == YES
    assert r.wickstead.verdict == YES
    assert (r.h0mc_dim, r.h0oo_dim) == (6, 0)


def test_classify_trivial_and_unknown(q):
    assert classify(q).kadison.verdict == YES
    dual = build_number_field([0, 0, 1], name="dual")
    r = classify(dual)
    assert r.kadison.verdict == UNKNOWN
    assert dual.domain_status == "refuted"


def test_classify_decides_from_the_rational_roots(qsqrt2):
    split = build_number_field([-49, 0, 1], name="t2m49")  # Q x Q
    assert split.rational_roots == (-7, 7) and split.domain_status == "refuted"
    assert classify(split).kadison == (YES, None, None)
    assert qsqrt2.rational_roots == ()
    # Q(i) x Q(i) = Q[t]/((t^2+2t+2)(t^2-2t+2)), rootless at d = 4: no, with
    # no witness, whatever the falsifier finds; negating the second basis
    # direction is no local multiplier there
    two_fields = build_number_field([4, 0, 0, 0, 1])
    assert two_fields.rational_roots == ()
    assert classify(two_fields).kadison == (NO, None, None)
    assert is_local_multiplier(two_fields, operator(two_fields, conjugation(4))).verdict == NO
    # one root and a quadratic field: no, proved by the count
    assert classify(build_number_field([-8, 0, 0, 1])).kadison == (NO, None, None)


# the linear factors t - r for r in -6..6, then four irreducible ones
FACTORS = [(-r, 1) for r in range(-6, 7)] + [(-2, 0, 1), (1, 0, 1), (-2, 0, 0, 1), (1, -1, 0, 1)]


@st.composite
def squarefree_products(draw):
    """Distinct factors from FACTORS, in drawn order, while the degree stays <= 4."""
    chosen, degree = [], 0
    for f in draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4, unique=True)):
        if degree + len(f) - 1 <= 4:
            chosen.append(f)
            degree += len(f) - 1
    return chosen


@settings(max_examples=60, deadline=None)
@given(squarefree_products())
def test_roots_and_kadison_against_sympy(factors):
    """On Q[t]/(p), p squarefree, the roots are sympy's rational roots of p
    (of the unit's t - 1 at d = 1, where t is no basis element), Kadison is
    yes exactly when p splits into linear factors, a root at d >= 2 refutes
    a domain, no root at d <= 3 asserts one, and a printed witness is not
    refuted as a local multiplier and is refuted as a multiplier."""
    t = sympy.Symbol("t")
    p = sympy.Mul(*(sympy.Poly(list(reversed(f)), t).as_expr() for f in factors))
    spec = build_number_field([int(c) for c in reversed(sympy.Poly(p, t).all_coeffs())])
    d = spec.dim
    roots = sympy.roots(p if d > 1 else t - 1, t, filter="Q")
    assert spec.rational_roots == tuple(sorted(F(int(r.p), int(r.q)) for r in roots))
    kadison = classify(spec).kadison
    split = all(sympy.degree(f, t) == 1 for f, _ in sympy.factor_list(p)[1])
    assert (kadison.verdict == YES) == split
    if roots and d >= 2:
        assert spec.domain_status == "refuted"
    if not roots and d <= 3:
        assert spec.domain_status == "asserted"
    if kadison.witness is not None:
        psi = operator(spec, kadison.witness)
        assert is_local_multiplier(spec, psi).verdict != NO
        assert is_multiplier(spec, psi).verdict == NO
