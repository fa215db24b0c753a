from fractions import Fraction

import pytest

from cohomolab.algebra import basis_element, build_atomic, build_number_field, multiply
from oracles import from_coeff_function


def F(*args):
    return Fraction(*args)


def elem(*coords):
    return tuple(Fraction(c) for c in coords)


@pytest.fixture(scope="session")
def q():
    return build_number_field([-5, 1], name="q")


@pytest.fixture(scope="session")
def qsqrt2():
    return build_number_field([-2, 0, 1], name="qsqrt2")


@pytest.fixture(scope="session")
def cubic2():
    return build_number_field([-2, 0, 0, 1], name="cubic2")


@pytest.fixture(scope="session")
def atomic2():
    return build_atomic(2)


@pytest.fixture(scope="session")
def atomic3():
    return build_atomic(3)


@pytest.fixture(scope="session")
def atomic4():
    return build_atomic(4)


def sqrt2_coefficient(e):
    """The functional with f(1) = 0, f(sqrt2) = 1, re-embedded into Q(sqrt2)."""
    return (e[1], Fraction(0))


def psi_f_times_b(spec):
    """Psi(a, b) = f(a) * b on Q(sqrt2)."""
    return from_coeff_function(
        spec, 2,
        lambda idx: multiply(spec, sqrt2_coefficient(basis_element(2, idx[0])),
                             basis_element(2, idx[1])),
    )


def psi_f_of_ab(spec):
    """Psi(a, b) = f(a*b) on Q(sqrt2)."""
    return from_coeff_function(
        spec, 2, lambda idx: sqrt2_coefficient(spec.structure[idx[0]][idx[1]]),
    )


def mult_cochain(spec):
    """The multiplication cochain (a, b) -> a*b."""
    return from_coeff_function(spec, 2, lambda idx: spec.structure[idx[0]][idx[1]])


def operator(spec, matrix):
    """The linear operator x -> matrix @ x as an arity-1 cochain."""
    return from_coeff_function(spec, 1, lambda idx: tuple(F(row[idx[0]]) for row in matrix))
