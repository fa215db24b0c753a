"""Multilinear cochains on an algebra, stored as sparse flat vectors.

An arity-m cochain is determined by its values on basis tuples.  Its flat
vector is indexed by (i_1, ..., i_m, output-coordinate), row-major with the
output coordinate fastest: entry tuple_index(idx) * d + k is coordinate k
of the value on the basis tuple idx.  This fixes the column convention for
every matrix in the chain complex.  Only nonzero entries are stored, each
an exact scalar: an int when integral, else a Fraction, never a float.

MultilinearMap is the record of one cochain that perfbench's tracer
wraps: apply_d and from_flat return it, and the tracer times its flatten.
The package itself computes on flat rows.  Evaluating a cochain at
arguments, reading its value on a basis tuple and the zero test are
test oracles, in tests/oracles.py.
"""

import itertools

from .linalg import Record


def tuple_index(idx: tuple, d: int) -> int:
    flat = 0
    for i in idx:
        flat = flat * d + i
    return flat


def all_tuples(d: int, m: int):
    return itertools.product(range(d), repeat=m)


class MultilinearMap(Record):
    __slots__ = ()
    arity: int
    dim: int
    vec: dict  # flat index -> nonzero exact scalar; a zero is never stored

    def __hash__(self):
        return hash((self.arity, self.dim, frozenset(self.vec.items())))

    def flatten(self) -> dict:
        """Sparse flat vector of length dim**arity * dim."""
        return dict(self.vec)


def from_flat(d: int, arity: int, vec: dict) -> MultilinearMap:
    return MultilinearMap(arity, d, {i: c for i, c in vec.items() if c})
