"""Structure identities of the complex, held by every commutative unital algebra.

- H0mc has dimension d^2 - d: a 1-cocycle satisfies P(a, c) = P(ac, e), so
  ker d_1 = d_0(End A), which has dimension d^2 since d_0 is injective on a
  unital algebra, while the multipliers' coboundaries have dimension d.
- For odd n >= 3, d_n P = (P - P o tau)(x1*x2, x3, ..) with tau swapping the
  last two slots, so ker d_n is exactly the cochains symmetric in those
  slots, and the canonical kernel basis is the symmetrized unit cochains.

Both are checked on every fixture and on Q[t]/(p) for small monic integer p.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cohomolab.algebra import build_number_field
from cohomolab.cohomology import distinguished_quotient
from cohomolab.complex import index_coboundary_matrix
from cohomolab.fileformat import parse_algebra_file
from cohomolab.linalg import kernel
from cohomolab.multilinear import all_tuples, tuple_index

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
    assert distinguished_quotient(spec, "mc").dim_H == spec.dim ** 2 - spec.dim


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


def test_symmetric_in_last_two_by_hand():
    # d = 2, n = 3: free columns (0,0,0,0), (0,0,1,0), (0,0,1,1), ...
    assert symmetric_in_last_two(2, 3)[:3] == [{0: 1}, {1: 1, 2: 1}, {3: 1}]
    assert len(symmetric_in_last_two(3, 3)) == 3 ** 2 * 6
