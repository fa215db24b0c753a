"""Multilinear cochains on an algebra, stored as sparse flat vectors.

An arity-m cochain is determined by its values on basis tuples.  Its flat
vector is indexed by (i_1, ..., i_m, output-coordinate), row-major with the
output coordinate fastest: entry tuple_index(idx) * d + k is coordinate k
of the value on the basis tuple idx.  This fixes the column convention for
every matrix in the chain complex.  Only nonzero entries are stored, each
an exact scalar: an int when integral, else a Fraction, never a float.
"""

import itertools
from typing import NamedTuple

from .algebra import Element


def tuple_index(idx: tuple, d: int) -> int:
    flat = 0
    for i in idx:
        flat = flat * d + i
    return flat


def all_tuples(d: int, m: int):
    return itertools.product(range(d), repeat=m)


class MultilinearMap(NamedTuple):
    arity: int
    dim: int
    vec: dict  # flat index -> nonzero exact scalar; a zero is never stored

    def __hash__(self):
        return hash((self.arity, self.dim, frozenset(self.vec.items())))

    def coeff(self, idx: tuple) -> Element:
        base = tuple_index(idx, self.dim) * self.dim
        return tuple(self.vec.get(base + k, 0) for k in range(self.dim))

    def eval(self, args) -> Element:
        """Multilinear expansion over the stored entries."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        d = self.dim
        for a in args:
            if len(a) != d:
                raise ValueError("argument dimension mismatch")
        out = [0] * d
        for flat, c in self.vec.items():
            rest, k = divmod(flat, d)
            # the last slot's index is the least significant digit
            for a in reversed(args):
                rest, i = divmod(rest, d)
                c *= a[i]
                if not c:
                    break
            else:
                out[k] += c
        return tuple(out)

    def flatten(self) -> dict:
        """Sparse flat vector of length dim**arity * dim."""
        return dict(self.vec)

    def is_zero(self) -> bool:
        return not self.vec


def from_flat(d: int, arity: int, vec: dict) -> MultilinearMap:
    return MultilinearMap(arity, d, {i: c for i, c in vec.items() if c})
