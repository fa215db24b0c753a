import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cohomolab.algebra import basis_element, build_number_field, multiply
from cohomolab.complex import (
    TAG_BAND, TAG_IDEAL, OrderStructureRequired, UnsupportedAlgebra, lift, tag_coords,
)
from cohomolab.linalg import span_dim
from cohomolab.multilinear import all_tuples, from_flat, tuple_index
from conftest import elem, mult_cochain, psi_f_times_b, sqrt2_coefficient
from oracles import (
    coeff, evaluate, from_coeff_function, is_hochschild_2cocycle, is_zero,
    product_cochain_subspace, symmetry_check, unit_tensor,
)

F = Fraction


def test_tuple_index_lexicographic():
    assert tuple_index((0, 0), 3) == 0
    assert tuple_index((1, 2), 3) == 5
    assert tuple_index((2, 2, 2), 3) == 26
    flats = [tuple_index(t, 2) for t in all_tuples(2, 3)]
    assert flats == list(range(8))


def test_eval_matches_coefficients(qsqrt2):
    psi = psi_f_times_b(qsqrt2)
    for i, j in all_tuples(2, 2):
        b = (basis_element(2, i), basis_element(2, j))
        assert evaluate(psi, b) == coeff(psi, (i, j))
    # Psi(a, b) = f(a) * b with f(x + y sqrt2) = y
    assert evaluate(psi, [elem(1, 2), elem(3, 4)]) == elem(6, 8)


def test_eval_arity_and_dim_checks(qsqrt2):
    psi = psi_f_times_b(qsqrt2)
    with pytest.raises(ValueError):
        evaluate(psi, [elem(1, 0)])
    with pytest.raises(ValueError):
        evaluate(psi, [elem(1, 0, 0), elem(1, 0)])


def test_flatten_roundtrip(qsqrt2):
    psi = psi_f_times_b(qsqrt2)
    assert from_flat(2, 2, psi.flatten()) == psi
    assert hash(from_flat(2, 2, psi.flatten())) == hash(psi)
    assert from_flat(3, 2, {}).flatten() == {}
    assert is_zero(from_flat(3, 2, {}))
    assert not is_zero(psi)


def test_unit_tensor():
    t = unit_tensor(2, 2, 3, 1)
    assert coeff(t, (1, 1)) == elem(0, 1)
    assert coeff(t, (0, 1)) == elem(0, 0)
    assert t.flatten() == {3 * 2 + 1: F(1)}


def _unit_rows(size):
    return [{i: F(1)} for i in range(size)]


def test_diagonal_basis(atomic3):
    """The ideal complex of an atomic algebra is spanned by (b_k, b_k) -> b_k."""
    rows = lift(atomic3, 1, TAG_IDEAL, _unit_rows(1))  # Q's one cochain, on each atom
    assert len(rows) == 3
    assert span_dim(rows) == len(rows)
    m = from_flat(3, 2, rows[1])
    assert coeff(m, (1, 1)) == elem(0, 1, 0)
    assert all(not any(coeff(m, idx)) for idx in all_tuples(3, 2) if idx != (1, 1))


def test_subspace_selectors(qsqrt2, atomic3):
    assert tag_coords(qsqrt2, 1, TAG_IDEAL) is None  # a field: every cochain
    assert len(lift(qsqrt2, 1, TAG_IDEAL, _unit_rows(4))) == 8
    assert len(tag_coords(atomic3, 1, TAG_IDEAL)) == 3
    assert len(tag_coords(atomic3, 1, TAG_BAND)) == 3
    with pytest.raises(OrderStructureRequired):
        tag_coords(qsqrt2, 1, TAG_BAND)
    unchecked = build_number_field([0, 0, 1], name="dual")  # zero divisors
    with pytest.raises(UnsupportedAlgebra):
        tag_coords(unchecked, 1, TAG_IDEAL)


def test_product_cochain_subspace(qsqrt2):
    basis = product_cochain_subspace(qsqrt2, 2)
    assert len(basis) == 2
    assert basis[0] == mult_cochain(qsqrt2)
    x, y = elem(1, 2), elem(3, -1)
    assert evaluate(basis[1], [x, y]) == multiply(
        qsqrt2, multiply(qsqrt2, x, y), elem(0, 1))


def test_hochschild_cocycle(qsqrt2):
    assert is_hochschild_2cocycle(qsqrt2, mult_cochain(qsqrt2)) == (True, None)
    # Psi(a,b) = f(a) b: at (sqrt2, 1, 1) the Hochschild sum is
    # 0 + Psi(sqrt2, 1) - Psi(sqrt2, 1) - 1 * Psi(sqrt2, 1) = -1
    ok, witness = is_hochschild_2cocycle(qsqrt2, psi_f_times_b(qsqrt2))
    assert not ok
    assert witness == (1, 0, 0)
    with pytest.raises(ValueError):
        is_hochschild_2cocycle(qsqrt2, from_flat(2, 3, {}))


def test_symmetry_check(qsqrt2):
    assert symmetry_check(mult_cochain(qsqrt2), (1, 2)) == "symmetric"
    f = sqrt2_coefficient
    anti = from_coeff_function(
        qsqrt2, 2,
        lambda idx: tuple(
            f(basis_element(2, idx[0]))[k] * basis_element(2, idx[1])[0]
            - f(basis_element(2, idx[1]))[k] * basis_element(2, idx[0])[0]
            for k in range(2)))
    assert symmetry_check(anti, (1, 2)) == "antisymmetric"
    assert symmetry_check(psi_f_times_b(qsqrt2), (1, 2)) == "neither"
    with pytest.raises(ValueError):
        symmetry_check(mult_cochain(qsqrt2), (1, 1))
    with pytest.raises(ValueError):
        symmetry_check(mult_cochain(qsqrt2), (0, 2))


def test_zero_map_symmetric_everywhere():
    z = from_flat(2, 3, {})
    for pair in itertools.combinations((1, 2, 3), 2):
        assert symmetry_check(z, pair) == "symmetric"


coords = st.fractions(min_value=-4, max_value=4, max_denominator=3)
vec2 = st.tuples(coords, coords)


@settings(max_examples=50, deadline=None)
@given(vec2, vec2, vec2, coords)
def test_eval_linear_in_each_slot(x, y, z, c):
    spec = build_number_field([-2, 0, 1])
    psi = psi_f_times_b(spec)
    for slot in range(2):
        args_sum = [x, y]
        args_sum[slot] = tuple(a + c * b for a, b in zip(args_sum[slot], z))
        args_a = [x, y]
        args_b = [x, y]
        args_b[slot] = z
        lhs = evaluate(psi, args_sum)
        va, vb = evaluate(psi, args_a), evaluate(psi, args_b)
        assert lhs == tuple(a + c * b for a, b in zip(va, vb))


@pytest.mark.parametrize("fix", ["qsqrt2", "cubic2", "atomic3"])
@pytest.mark.parametrize("arity", [1, 2, 3])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sparse_eval_matches_dense_expansion(fix, arity, data, request):
    spec = request.getfixturevalue(fix)
    d = spec.dim
    entries = data.draw(st.dictionaries(
        st.integers(0, d ** (arity + 1) - 1), st.integers(-3, 3), max_size=d ** (arity + 1)))
    args = data.draw(st.lists(st.tuples(*[coords] * d), min_size=arity, max_size=arity))
    m = from_flat(d, arity, {c: F(v) for c, v in entries.items()})
    # dense tensor: one value per basis tuple, tuples in lexicographic order
    dense = [[F(entries.get(t * d + k, 0)) for k in range(d)] for t in range(d ** arity)]
    expected = [F(0)] * d
    for values, idx in zip(dense, itertools.product(range(d), repeat=arity)):
        w = F(1)
        for slot, i in enumerate(idx):
            w *= args[slot][i]
        for k in range(d):
            expected[k] += w * values[k]
    assert evaluate(m, args) == tuple(expected)
