import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cohomolab.linalg import (
    Echelon, Mat, column_space, complete_basis, intersection, kernel, rank,
    row_to_primitive, rref, span_contains, span_dim, span_leq,
)

F = Fraction


def dense(rows):
    return Mat.from_dense([[F(v) for v in r] for r in rows])


def test_mat_roundtrip():
    m = dense([[1, 0, -2], [0, 0, 0], [F(1, 3), 5, 0]])
    assert m.to_dense() == [[F(1), F(0), F(-2)],
                            [F(0), F(0), F(0)],
                            [F(1, 3), F(5), F(0)]]
    assert not m.is_zero()
    assert dense([[0, 0], [0, 0]]).is_zero()


def test_matmul():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert a.matmul(b).to_dense() == [[F(2), F(1)], [F(4), F(3)]]
    assert a.matmul(dense([[0, 0], [0, 0]])).is_zero()


def test_matmul_shape_check():
    with pytest.raises(AssertionError):
        dense([[1, 2]]).matmul(dense([[1, 2]]))


def test_transpose():
    m = dense([[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert t.nrows == 3 and t.ncols == 2
    assert t.to_dense() == [[F(1), F(4)], [F(2), F(5)], [F(3), F(6)]]


def test_row_to_primitive():
    assert row_to_primitive({0: F(1, 2), 2: F(-3, 4)}) == {0: F(2), 2: F(-3)}
    assert row_to_primitive({1: F(-2), 3: F(4)}) == {1: F(1), 3: F(-2)}
    assert row_to_primitive({}) == {}


def test_rref_canonical():
    m1 = dense([[1, 2, 3], [4, 5, 6]])
    m2 = dense([[4, 5, 6], [5, 7, 9], [1, 2, 3]])
    assert rref(m1.rows) == rref(m2.rows)
    assert rank(m1) == rank(m2) == 2


def test_rank_examples():
    assert rank(dense([[0, 0], [0, 0]])) == 0
    assert rank(dense([[1, 0], [0, 1]])) == 2
    assert rank(dense([[1, 2], [2, 4], [3, 6]])) == 1
    assert rank(dense([[F(1, 7), F(2, 7)], [F(3, 5), F(4, 5)]])) == 2


def test_kernel():
    m = dense([[1, 2, 3], [4, 5, 6]])
    basis = kernel(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m.to_dense():
        assert sum(row[j] * v.get(j, F(0)) for j in range(3)) == 0
    assert kernel(dense([[1, 0], [0, 1]])) == []


def test_rank_nullity():
    m = dense([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]])
    assert rank(m) + len(kernel(m)) == m.ncols


def test_column_space():
    cols = column_space(dense([[1, 2], [2, 4]]))
    assert len(cols) == 1
    assert span_contains(cols, {0: F(3), 1: F(6)})
    assert not span_contains(cols, {0: F(1), 1: F(0)})


def test_echelon_incremental():
    e = Echelon()
    assert e.add({0: F(1), 1: F(1)})
    assert not e.add({0: F(2), 1: F(2)})
    assert e.add({2: F(5)})
    assert e.rank == 2
    assert e.contains({0: F(1), 1: F(1), 2: F(-1)})
    assert not e.contains({0: F(1)})


def test_span_helpers():
    a = [{0: F(1)}, {1: F(1)}]
    b = [{0: F(1), 1: F(2)}]
    assert span_leq(b, a)
    assert not span_leq(a, b)
    assert span_dim(a + b) == 2


def test_intersection():
    # span{(1,0,0),(0,1,0)} ∩ span{(0,1,0),(0,0,1)} = span{(0,1,0)}
    u = [{0: F(1)}, {1: F(1)}]
    w = [{1: F(1)}, {2: F(1)}]
    inter = intersection(u, w, 3)
    assert len(inter) == 1
    assert span_contains(inter, {1: F(7)})
    assert intersection([{0: F(1)}], [{1: F(1)}], 2) == []


def test_complete_basis():
    inner = [{0: F(1), 1: F(1)}]
    outer = inner + [{0: F(1)}]
    extra = complete_basis(inner, outer)
    assert len(extra) == 1
    assert span_dim(inner + extra) == 2
    assert complete_basis(inner, inner) == []


matrices = st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
             min_size=3, max_size=3),
    min_size=1, max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity_property(rows):
    m = Mat.from_dense(rows)
    assert rank(m) + len(kernel(m)) == m.ncols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilated(rows):
    m = Mat.from_dense(rows)
    for v in kernel(m):
        for row in rows:
            assert sum(row[j] * v.get(j, F(0)) for j in range(len(row))) == 0
