"""Structure identities of the complex, held by every commutative unital algebra.

- H0mc has dimension d^2 - d: a 1-cocycle satisfies P(a, c) = P(ac, e), so
  ker d_1 = d_0(End A), which has dimension d^2 since d_0 is injective on a
  unital algebra, while the multipliers' coboundaries have dimension d.
- For odd n >= 3, d_n P = (P - P o tau)(x1*x2, x3, ..) with tau swapping the
  last two slots, so ker d_n is exactly the cochains symmetric in those
  slots, and the canonical kernel basis is the symmetrized unit cochains.

Both are checked on every fixture and on Q[t]/(p) for small monic integer p.

- For even n >= 2, columns of the index-level d_n whose last n indices
  rearrange one another are equal: d_n sums over every ordering of its
  arguments, so it absorbs any permutation of the cochain's slots 2..n+1.
  So d_n is determined by the columns of sorted tails.

That is checked on every fixture, and on the same Q[t]/(p) in the power
basis and in a second, random basis.

- The rank r_n of the index-level d_n (d^{n+2} rows) has a formula:
  r_0 = d, r_1 = d^2 - d and, for odd n >= 3, r_n = d^{n-1}·C(d,2).  For
  even n >= 2, r_n is the dimension of the degree-(n+2) part of the ideal
  of Q[x_1..x_d] generated by the d coordinate quadrics of x -> x^2, since
  d_n P is determined by its diagonal P(x^2, x, .., x).  On an étale
  algebra (nonsingular trace form) that ideal is (x_1^2, .., x_d^2) over
  the algebraic closure, so r_n = C(d+n+1, n+2) - C(d, n+2).

The rank formula is checked on Q[t]/(p) for random monic p of degree up to 4,
non-reduced p included.
"""

import itertools
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from cohomolab.algebra import build_number_field
from cohomolab.cohomology import multiplier_quotient
from cohomolab.complex import index_coboundary_matrix
from cohomolab.fileformat import parse_algebra_file
from cohomolab.linalg import kernel, span_dim
from cohomolab.multilinear import all_tuples, tuple_index
from oracles import rebase

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.alg"))


@st.composite
def small_algebras(draw):
    """Q[t]/(p), p monic of degree 1 to 3: random integer coefficients
    (mostly fields), a product of linear factors (split, repeats allowed),
    or t^k (a truncation)."""
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "split", "truncated"]))
    if kind == "random":
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k)) + [1]
    elif kind == "split":
        coeffs = [1]
        for r in draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)):
            # multiply by (t - r), coefficients in ascending degree
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    else:
        coeffs = [0] * k + [1]
    return build_number_field(coeffs, name=f"{kind}{coeffs}")


def symmetric_in_last_two(d: int, n: int) -> list:
    """e_(..,a,a) and e_(..,a,b) + e_(..,b,a) for a < b, as index-level rows
    over (n+1)-tuples, in increasing free column e_(..,b,a)."""
    rows = []
    for t in all_tuples(d, n + 1):
        a, b = t[-2:]
        if a > b:
            rows.append({tuple_index(t[:-2] + (b, a), d): 1, tuple_index(t, d): 1})
        elif a == b:
            rows.append({tuple_index(t, d): 1})
    return rows


def check_h0mc(spec):
    assert multiplier_quotient(spec).dim_H == spec.dim ** 2 - spec.dim


def check_odd_kernels(spec):
    # n = 5 only up to d = 2, to keep the matrices small
    for n in (3, 5) if spec.dim <= 2 else (3,):
        assert kernel(index_coboundary_matrix(spec, n)) == symmetric_in_last_two(spec.dim, n)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_identities(path):
    spec = parse_algebra_file(str(path))
    check_h0mc(spec)
    check_odd_kernels(spec)


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_identities_on_small_algebras(spec):
    check_h0mc(spec)
    check_odd_kernels(spec)


def check_even_columns(spec):
    """At n = 2, and n = 4 for d <= 3, every column of d_n equals the column
    of its first index and its sorted last n."""
    d = spec.dim
    for n in (2, 4) if d <= 3 else (2,):
        columns = index_coboundary_matrix(spec, n).transpose().rows
        for col, t in enumerate(all_tuples(d, n + 1)):
            assert columns[col] == columns[tuple_index(t[:1] + tuple(sorted(t[1:])), d)]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_even_columns_of_rearranged_tails_are_equal(path):
    check_even_columns(parse_algebra_file(str(path)))


@settings(max_examples=25, deadline=None)
@given(small_algebras(), st.data())
def test_even_columns_of_rearranged_tails_are_equal_in_any_basis(spec, data):
    d = spec.dim
    P = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                           min_size=d, max_size=d))
    assume(sympy.Matrix(P).det() != 0)
    check_even_columns(spec)
    check_even_columns(rebase(spec, P))


def test_symmetric_in_last_two_by_hand():
    # d = 2, n = 3: free columns (0,0,0,0), (0,0,1,0), (0,0,1,1), ...
    assert symmetric_in_last_two(2, 3)[:3] == [{0: 1}, {1: 1, 2: 1}, {3: 1}]
    assert len(symmetric_in_last_two(3, 3)) == 3 ** 2 * 6


@st.composite
def monic_polynomials(draw):
    """Ascending coefficients of a monic p of degree d <= 4: random integer
    coefficients (mostly squarefree), (t - a)^2·q for a monic q, or t^d."""
    kind = draw(st.sampled_from(["random", "square", "power"]))
    d = draw(st.integers(2 if kind == "square" else 1, 4))
    if kind == "random":
        return draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)) + [1]
    if kind == "power":
        return [0] * d + [1]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=d - 2, max_size=d - 2)) + [1]
    a = draw(st.integers(-3, 3))
    for _ in range(2):  # multiply by (t - a)
        coeffs = [c - a * b for c, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def ideal_dim(spec, n: int) -> int:
    """dim of the degree-(n+2) part of the ideal generated by the coordinate
    quadrics of x -> x^2: the span of every degree-n monomial times each
    quadric, as rows over exponent tuples."""
    d = spec.dim
    quadrics = []
    for k in range(d):
        q = {}
        for i, j in itertools.product(range(d), repeat=2):
            e = tuple((m == i) + (m == j) for m in range(d))
            q[e] = q.get(e, 0) + spec.structure[i][j][k]
        quadrics.append(q)
    rows = []
    for mono in itertools.combinations_with_replacement(range(d), n):
        shift = [mono.count(m) for m in range(d)]
        rows += [{tuple(a + b for a, b in zip(e, shift)): v for e, v in q.items() if v}
                 for q in quadrics]
    return span_dim(rows)


def check_ranks(coeffs, max_rows: int):
    """Every r_n of Q[t]/(p) with at most max_rows rows, n <= 8, against its formula."""
    spec = build_number_field(coeffs)
    d = spec.dim
    t = sympy.Symbol("t")
    etale = sympy.discriminant(sympy.Poly(list(reversed(coeffs)), t)) != 0
    for n in itertools.takewhile(lambda n: d ** (n + 2) <= max_rows, range(9)):
        rank = span_dim(index_coboundary_matrix(spec, n).rows)
        if n < 2:
            assert rank == (d, d * d - d)[n]
        elif n % 2:
            assert rank == d ** (n - 1) * comb(d, 2)
        else:
            assert rank == ideal_dim(spec, n)
            if etale:
                assert rank == comb(d + n + 1, n + 2) - comb(d, n + 2)


@pytest.mark.parametrize("coeffs", [
    [-2, 0, 0, 0, 1], [0, 0, 0, 0, 1], [1, 0, -2, 0, 1],
    [-2, 0, 0, 1], [0, 0, 0, 1], [1, -2, 1],
], ids=["t4m2", "t4", "t2m1sq", "cubic2", "t3", "tm1sq"])
def test_coboundary_ranks_by_formula(coeffs):
    check_ranks(coeffs, 4096)


# d_4 of a dense random quartic takes seconds to eliminate, so random draws
# stop at 1024 rows
@settings(max_examples=30, deadline=None)
@given(monic_polynomials())
def test_coboundary_ranks_by_formula_on_random_monics(coeffs):
    check_ranks(coeffs, 1024)
