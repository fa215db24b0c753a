"""The exact-scalar rule: an int when integral, otherwise a Fraction, never a float.

Integral inputs must stay ints through the structure constants, the
coboundary matrices, elimination and the chain maps, and every division
must go through linalg.div, since int / int is a float.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from cohomolab.algebra import build_number_field
from cohomolab.cohomology import build_J_odd, cocycle_space
from cohomolab.complex import TAG_FULL, index_coboundary_matrix
from cohomolab.fileformat import parse_algebra_file, parse_rational
from cohomolab.linalg import Echelon, Mat, div, kernel, scalar
from oracles import principal_ideal_contains, rref

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name):
    return parse_algebra_file(str(FIXTURES / f"{name}.alg"))


def to_fractions(rows):
    return [{c: F(v) for c, v in r.items()} for r in rows]


def scalars(obj):
    """Every number nested in dicts, lists and tuples."""
    if isinstance(obj, dict):
        return [v for x in obj.values() for v in scalars(x)]
    if isinstance(obj, (list, tuple)):
        return [v for x in obj for v in scalars(x)]
    return [obj]


def test_scalar_rule():
    assert type(scalar(F(4, 2))) is int and scalar(F(4, 2)) == 2
    assert type(scalar(7)) is int
    assert scalar(F(1, 2)) == F(1, 2) and type(scalar(F(1, 2))) is F
    assert type(scalar("-6/3")) is int and scalar("-6/3") == -2
    with pytest.raises(TypeError):
        scalar(0.5)
    assert type(parse_rational("4/2")) is int
    assert parse_rational("-7/2") == F(-7, 2)


def test_div_is_exact():
    assert type(div(6, 3)) is int and div(6, 3) == 2
    assert div(1, 2) == F(1, 2) and type(div(1, 2)) is F
    assert div(-3, -6) == F(1, 2)
    assert type(div(F(1, 2), F(1, 4))) is int and div(F(1, 2), F(1, 4)) == 2
    assert div(3, F(1, 2)) == 6 and type(div(3, F(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


# integer rows whose leading entries are not units: eliminating them divides
NONUNIT_ROWS = [{0: 2, 1: 1}, {0: 4, 1: 3, 2: 6}, {1: 3, 2: 5}, {0: 6, 2: -4}]


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_elimination_of_int_rows_never_makes_a_float(count):
    rows = NONUNIT_ROWS[:count]
    ech = Echelon(rows)
    assert not any(isinstance(v, float) for v in scalars(ech.pivots))
    assert ech.pivots == Echelon(to_fractions(rows)).pivots
    mat = Mat(len(rows), 3, rows)
    basis = kernel(mat)
    assert all(type(v) is int for v in scalars(basis))
    assert basis == kernel(Mat(len(rows), 3, to_fractions(rows)))
    canonical = rref(rows)
    assert all(type(v) is int for v in scalars(canonical))
    assert canonical == rref(to_fractions(rows))


def test_invert_of_a_nonunit_integer_element(qsqrt2):
    # 2 is a unit of Q(sqrt 2) but not of Z[sqrt 2], so deciding it divides by 2
    assert principal_ideal_contains(qsqrt2, (2, 0), qsqrt2.unit)
    as_fractions = qsqrt2._replace(
        structure=tuple(tuple(tuple(F(v) for v in e) for e in row) for row in qsqrt2.structure),
        unit=tuple(F(v) for v in qsqrt2.unit))
    assert principal_ideal_contains(as_fractions, (F(2), F(0)), as_fractions.unit)
    assert principal_ideal_contains(qsqrt2, (1, 1), qsqrt2.unit)  # (1 + t)(t - 1) = 1


@pytest.fixture(scope="module", params=["quartic", "cubic2", "atomic4"])
def integral(request):
    if request.param == "quartic":
        return build_number_field([-2, 0, 0, 0, 1], name="quartic")
    return fixture(request.param)


def test_integral_algebras_keep_every_scalar_an_int(integral):
    spec = integral
    assert all(type(v) is int for v in scalars(spec.structure) + scalars(spec.unit))
    for n in range(3):
        mat = index_coboundary_matrix(spec, n)
        assert all(type(v) is int for v in scalars(mat.rows))
        assert all(type(v) is int for v in scalars(kernel(mat)))
    chain = build_J_odd(spec, 2)
    assert all(type(v) is int for v in scalars(chain.rows))
    values = scalars(chain.images(cocycle_space(spec, 1, TAG_FULL)))
    assert values and all(type(v) is int for v in values)


def test_non_integral_structure_constant_stays_a_fraction():
    spec = fixture("qhalf")
    half = spec.structure[1][1][0]
    assert type(half) is F and half == F(1, 2)
    # the integral constants are ints all the same
    assert all(type(v) is int for v in spec.structure[0][1] + spec.unit)
    assert spec.structure[1][1][1] == 0 and type(spec.structure[1][1][1]) is int
