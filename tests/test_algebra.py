import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from cohomolab.algebra import (
    ShapeError, assess_domain, basis_element, basis_product, build_atomic, build_number_field,
    multiply, rational_roots, validate_algebra,
)
from conftest import elem
from oracles import principal_ideal_contains


def test_qsqrt2_valid(qsqrt2):
    assert validate_algebra(qsqrt2) == []


def test_broken_structure_reports_associativity(atomic3):
    # set b1*b2 = b0: then (b1 b1) b2 = b0 but b1 (b1 b2) = b1 b0 = 0
    structure = [list(row) for row in atomic3.structure]
    structure[1][2] = structure[2][1] = elem(1, 0, 0)
    broken = atomic3._replace(structure=tuple(tuple(r) for r in structure))
    laws = {(v.law, v.indices) for v in validate_algebra(broken)}
    assert ("associativity", (1, 1, 2)) in laws


def test_atomic_bad_unit_reports_unit_law(atomic3):
    broken = atomic3._replace(unit=elem(1, 1, 0))
    laws = {(v.law, v.indices) for v in validate_algebra(broken)}
    assert ("unit", (2,)) in laws


def test_shape_error_names_index(qsqrt2):
    structure = [list(row) for row in qsqrt2.structure]
    structure[0][1] = elem(1)
    broken = qsqrt2._replace(structure=tuple(tuple(r) for r in structure))
    with pytest.raises(ShapeError, match=r"\(0,1\)"):
        validate_algebra(broken)


def test_multiply_examples(qsqrt2, atomic3):
    assert multiply(qsqrt2, elem(1, 1), elem(1, 1)) == elem(3, 2)
    assert multiply(atomic3, elem(1, 2, 0), elem(0, 5, 7)) == elem(0, 10, 0)
    for spec in (qsqrt2, atomic3):
        x = tuple(Fraction(k + 1) for k in range(spec.dim))
        assert multiply(spec, spec.unit, x) == x


def test_multiply_dimension_mismatch(qsqrt2):
    with pytest.raises(ValueError):
        multiply(qsqrt2, elem(1, 2, 3), elem(1, 0))


def is_unit(spec, x):
    return principal_ideal_contains(spec, x, spec.unit)


def test_invert_examples(qsqrt2, atomic2):
    assert is_unit(qsqrt2, elem(1, 1))
    assert not is_unit(atomic2, elem(1, 0))
    assert is_unit(qsqrt2, qsqrt2.unit)
    assert is_unit(atomic2, atomic2.unit)


def test_invert_iff_nonzero_on_grid(qsqrt2):
    rng = range(-2, 3)
    for a, b in itertools.product(rng, rng):
        assert is_unit(qsqrt2, elem(a, b)) == (a != 0 or b != 0)


# monic factors of degree 1 and 2 with small coefficients, repeats allowed
monic_factors = st.lists(
    st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(lambda c: c + [1]),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(factors=monic_factors, data=st.data())
def test_unit_iff_coprime_to_modulus(factors, data):
    """x is a unit of Q[t]/(p) exactly when gcd(x(t), p) = 1, by sympy."""
    factors += factors[:data.draw(st.integers(0, len(factors)))]  # repeated factors
    t = sympy.Symbol("t")
    p = sympy.Mul(*(sympy.Poly(list(reversed(c)), t).as_expr() for c in factors))
    coeffs = [int(c) for c in reversed(sympy.Poly(p, t).all_coeffs())]
    spec = build_number_field(coeffs)
    x = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=spec.dim,
                                 max_size=spec.dim)))
    x_of_t = sum(c * t ** k for k, c in enumerate(x))
    assert is_unit(spec, x) == (sympy.gcd(x_of_t, p) == 1)


def test_build_number_field(qsqrt2, cubic2):
    assert qsqrt2.structure[0][0] == elem(1, 0)
    assert qsqrt2.structure[0][1] == elem(0, 1)
    assert qsqrt2.structure[1][1] == elem(2, 0)
    assert qsqrt2.unit == elem(1, 0)
    assert cubic2.structure[2][2] == elem(0, 2, 0)  # t^2 * t^2 = 2t
    one_dim = build_number_field([-5, 1])
    assert one_dim.dim == 1
    assert multiply(one_dim, elem(3), elem(4)) == elem(12)


def test_build_number_field_rejects_bad_input():
    with pytest.raises(ValueError):
        build_number_field([1, 2])  # not monic
    with pytest.raises(ValueError):
        build_number_field([1])  # degree 0


def test_build_atomic(atomic3, atomic4):
    a1 = build_atomic(1)
    assert a1.dim == 1 and multiply(a1, elem(2), elem(3)) == elem(6)
    assert atomic3.structure[0][0] == elem(1, 0, 0)
    assert atomic3.structure[0][1] == elem(0, 0, 0)
    assert atomic3.unit == elem(1, 1, 1)
    assert validate_algebra(atomic4) == []
    with pytest.raises(ValueError):
        build_atomic(0)


@pytest.mark.parametrize("d", range(1, 7))
def test_an_atomic_order_has_d_roots(d):
    """An atomic order is Q^d: its trace form is nonsingular, and the root
    search runs there as on any other lawful spec."""
    assert len(assess_domain(build_atomic(d)).roots) == d


@pytest.mark.parametrize("coeffs,status", [
    ([4, -4, 1], "refuted"),  # (t-2)^2
    ([1, 0, -2, 0, 1], "refuted"),  # (t^2-1)^2
    ([0, 0, 1], "refuted"),
    ([0, 0, 0, 1], "refuted"),
    # reduced and rootless at degree 4: a field, or (t^2+2t+2)(t^2-2t+2)
    # split, and nothing exact tells them apart yet
    ([-2, 0, 0, 0, 1], "unchecked"),
    ([4, 0, 0, 0, 1], "unchecked"),
    ([-8, 0, 0, 1], "refuted"),  # (t-2)(t^2+2t+4): the root 2
    ([-49, 0, 1], "refuted"),  # (t-7)(t+7)
])
def test_trace_form_refutes_non_reduced(coeffs, status):
    assert assess_domain(build_number_field(coeffs)).status == status


def test_rational_roots_and_their_budget():
    assert rational_roots([6, -5, 1]) == (2, 3)
    assert rational_roots([0, -1, 0, 1]) == (-1, 0, 1)
    assert rational_roots([-1, 0, 4]) == (Fraction(-1, 2), Fraction(1, 2))
    assert rational_roots([2, 0, 1]) == ()
    assert rational_roots([3, 2]) == (Fraction(-3, 2),)
    # lifting finds the roots at any size, with no search of divisors
    assert rational_roots([-(10 ** 39 + 7), 0, 1]) == ()
    assert rational_roots([-(10 ** 40), 0, 1]) == (-10 ** 20, 10 ** 20)
    assert rational_roots([-73513440, 0, 1]) == ()
    assert rational_roots([-(10 ** 39 + 7), 0, 0, 1]) == ()  # 3·10^19 trial divisions
    # a constant with 768 divisors costs no more
    assert rational_roots([-73513440, 0, 0, 1]) == ()
    assert rational_roots([-7351344, 0, 0, 1]) == ()


@pytest.mark.parametrize("m", [[9, -6, 1], [0, 0, 1]], ids=["t-3-squared", "t-squared"])
def test_rational_roots_refuses_a_repeated_root(m):
    """Every odd prime sees the repeated root, so the rejected primes pass
    Hadamard's bound on a nonzero discriminant."""
    with pytest.raises(ValueError, match="not squarefree"):
        rational_roots(m)


T = sympy.Symbol("t")
# leading coefficients both small and 30-digit: the scaling M = a^(d-1)·m(u/a)
# puts a into the Cauchy and Hadamard bounds
linear_factors = st.builds(lambda a, b: a * T - b,
                           st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30))
                           .filter(bool), st.integers(-10 ** 40, 10 ** 40))
irreducible_factors = st.integers(2, 3).flatmap(
    lambda k: st.tuples(st.integers(-12, 12).filter(bool),
                        st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=k, max_size=k))
).map(lambda c: sympy.Poly([c[0], *c[1]], T)).filter(lambda f: f.is_irreducible)


@st.composite
def products_to_degree_6(draw):
    """Ascending integer coefficients of a product of drawn factors, each
    taken while the degree stays <= 6."""
    p, degree = sympy.Poly(1, T), 0
    for f in draw(st.lists(st.one_of(linear_factors, irreducible_factors), min_size=1,
                           max_size=6)):
        if degree + sympy.degree(f, T) <= 6:
            p, degree = p * sympy.Poly(f, T), degree + sympy.degree(f, T)
    return tuple(int(c) for c in reversed(p.all_coeffs()))


@settings(max_examples=150, deadline=None)
@given(products_to_degree_6())
@example((45, -739_717_064_710_973, -739_717_064_710_973))  # sympy.roots raises here
def test_rational_roots_against_sympy(m):
    """Exact at 40-digit roots, negative and non-unit leading coefficients
    and degree 6, on the squarefree polynomials that rational_roots takes."""
    p = sympy.Poly(list(reversed(m)), T)
    assume(p.gcd(p.diff(T)).degree() == 0)
    # the roots of p's linear factors: sympy.roots can raise on such
    # coefficients, where its integer factoring meets a composite factor
    linear = [f for f, _ in p.factor_list()[1] if f.degree() == 1]
    assert rational_roots(list(m)) == tuple(sorted(-f.nth(0) / f.nth(1) for f in linear))


@st.composite
def factored_monics(draw):
    """Monic factors of degree 1 or 2, each taken once or twice, of total degree 1 to 4."""
    factors = []
    while True:
        room = 4 - sum(len(c) - 1 for c in factors)
        if room == 0 or (factors and draw(st.booleans())):
            return factors
        deg = draw(st.integers(1, min(2, room)))
        c = draw(st.lists(st.integers(-3, 3), min_size=deg, max_size=deg)) + [1]
        factors += [c] * draw(st.integers(1, min(2, room // deg)))


@settings(max_examples=80, deadline=None)
@given(factored_monics())
def test_domain_status_against_squarefreeness(factors):
    """Refuted whenever gcd(p, p') has positive degree, by sympy.  On
    squarefree p a rational root refutes at degree >= 2, no root at degree
    <= 3 asserts a field, and a rootless quartic stays unchecked."""
    t = sympy.Symbol("t")
    p = sympy.Mul(*(sympy.Poly(list(reversed(c)), t).as_expr() for c in factors))
    coeffs = [int(c) for c in reversed(sympy.Poly(p, t).all_coeffs())]
    status = assess_domain(build_number_field(coeffs)).status
    if sympy.degree(sympy.gcd(p, sympy.diff(p, t)), t) > 0:
        assert status == "refuted"
    elif sympy.roots(p, t, filter="Q"):
        assert status == ("refuted" if len(coeffs) > 2 else "asserted")
    elif len(coeffs) <= 4:
        assert status == "asserted"
    else:
        assert status == "unchecked"


@pytest.mark.parametrize("coeffs", [
    [4, 0, 0, 0, 1],  # t^4 + 4 = (t^2+2t+2)(t^2-2t+2): Q(i) x Q(i)
    [6, 0, -5, 0, 1],  # (t^2-2)(t^2-3): Q(sqrt 2) x Q(sqrt 3)
], ids=["t4p4", "t2m2-t2m3"])
def test_a_rootless_product_of_fields_is_not_asserted(coeffs):
    """Both algebras have zero divisors, so neither is a domain."""
    assert assess_domain(build_number_field(coeffs)).status != "asserted"


@pytest.mark.parametrize("fix", ["q", "qsqrt2", "cubic2", "atomic2", "atomic3"])
def test_basis_products_commute_and_associate(fix, request):
    spec = request.getfixturevalue(fix)
    d = spec.dim
    for i, j, k in itertools.product(range(d), repeat=3):
        bi, bj, bk = (basis_element(d, t) for t in (i, j, k))
        assert multiply(spec, bi, bj) == multiply(spec, bj, bi)
        left = multiply(spec, multiply(spec, bi, bj), bk)
        right = multiply(spec, bi, multiply(spec, bj, bk))
        assert left == right


@pytest.mark.parametrize("fix", ["q", "qsqrt2", "cubic2", "atomic2"])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_basis_product_is_left_to_right_chain(fix, data, request):
    spec = request.getfixturevalue(fix)
    d = spec.dim
    assert basis_product(spec, ()) == spec.unit
    idx = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=5)))
    chain = basis_element(d, idx[0])
    for i in idx[1:]:
        chain = multiply(spec, chain, basis_element(d, i))
    assert basis_product(spec, idx) == chain


def test_atomic_idempotents(atomic4):
    d = atomic4.dim
    for i in range(d):
        bi = basis_element(d, i)
        assert multiply(atomic4, bi, bi) == bi
        for j in range(d):
            if j != i:
                assert not any(multiply(atomic4, bi, basis_element(d, j)))


small_rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6,
)


@given(st.tuples(small_rationals, small_rationals),
       st.tuples(small_rationals, small_rationals),
       st.tuples(small_rationals, small_rationals))
def test_multiply_bilinear_commutative(x, y, z):
    spec = build_number_field([-2, 0, 1])
    assert multiply(spec, x, y) == multiply(spec, y, x)
    xy = multiply(spec, x, tuple(a + b for a, b in zip(y, z)))
    assert xy == tuple(a + b for a, b in zip(multiply(spec, x, y),
                                             multiply(spec, x, z)))
