"""Exact rational linear algebra on sparse row matrices.

Matrices are stored as a list of rows, each row a dict {column: Fraction}
holding only nonzero entries.  Everything is computed over the rationals
with no floating point; row-space bases are canonicalized to the reduced
echelon form scaled to primitive integer rows with positive leading entry,
so equal subspaces always produce identical bases.

A Mat's rows may be shared: one dict object can stand at several row
positions (the index-level coboundary in even degree stores equal rows
once).  Nothing mutates a Mat row in place, so sharing is safe, and
`Mat.matmul` and elimination compute each distinct row object once.
Rows are told apart by `id()` only while a list or map holds them, so an
id is never reused by a different row during the loop that tests it.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Row = dict


def axpy(acc: Row, a, x: Row) -> None:
    """acc += a * x in place, keeping only nonzero entries."""
    for c, v in x.items():
        nv = acc.get(c, 0) + a * v
        if nv:
            acc[c] = nv
        else:
            acc.pop(c, None)


@dataclass
class Mat:
    nrows: int
    ncols: int
    rows: list  # list[dict[int, Fraction]]

    @staticmethod
    def from_dense(dense):
        rows = [{j: Fraction(v) for j, v in enumerate(r) if v} for r in dense]
        ncols = len(dense[0]) if dense else 0
        return Mat(len(dense), ncols, rows)

    @staticmethod
    def from_columns(nrows: int, columns) -> "Mat":
        """The matrix whose j-th column is the sparse vector columns[j]."""
        rows = [dict() for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                rows[i][j] = v
        return Mat(nrows, len(columns), rows)

    def to_dense(self):
        return [
            [self.rows[i].get(j, Fraction(0)) for j in range(self.ncols)]
            for i in range(self.nrows)
        ]

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def first_nonzero(self):
        for i, r in enumerate(self.rows):
            if r:
                j = min(r)
                return (i, j, r[j])
        return None

    def matmul(self, other: "Mat") -> "Mat":
        """The product; positions sharing a left row share its product row.

        A left row's coefficients on one shared right-row object are summed
        before any axpy, so terms that cancel cost no Fraction work.
        """
        assert self.ncols == other.nrows
        products = {}  # id(left row) -> product row
        out = []
        for r in self.rows:
            acc = products.get(id(r))
            if acc is None:
                weights = {}  # id(right row) -> (right row, summed coefficient)
                for k, v in r.items():
                    x = other.rows[k]
                    _, w = weights.get(id(x), (x, 0))
                    weights[id(x)] = (x, w + v)
                acc = products[id(r)] = {}
                for x, w in weights.values():
                    if w:
                        axpy(acc, w, x)
            out.append(acc)
        return Mat(self.nrows, other.ncols, out)

    def transpose(self) -> "Mat":
        return Mat.from_columns(self.ncols, self.rows)


def row_to_primitive(row: Row) -> Row:
    """Scale a row to coprime integers with positive leading entry."""
    if not row:
        return {}
    scale = lcm(*(v.denominator for v in row.values()))
    ints = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[min(ints)] < 0:
        g = -g
    return {c: Fraction(v // g) for c, v in ints.items()}


def _reduce(row: Row, pivots: dict) -> Row:
    """Subtract pivot rows to clear every pivot column present in row."""
    r = dict(row)
    for pc in sorted(set(r) & set(pivots)):
        axpy(r, -r[pc], pivots[pc])
    return r


class Echelon:
    """Incremental reduced row echelon form of a growing row set."""

    def __init__(self, rows=()):
        """Feed each distinct row object once: a repeat adds nothing."""
        self.pivots: dict = {}  # pivot column -> row with that pivot == 1
        seen = {}  # id -> row; holding the row keeps its id from being reused
        for r in rows:
            if id(r) not in seen:
                seen[id(r)] = r
                self.add(r)

    def add(self, row: Row) -> bool:
        """Insert a row; True if it increased the rank."""
        r = _reduce(row, self.pivots)
        if not r:
            return False
        lead = min(r)
        lv = r[lead]
        r = {c: v / lv for c, v in r.items()}
        for pr in self.pivots.values():
            if lead in pr:
                axpy(pr, -pr[lead], r)
        self.pivots[lead] = r
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, row: Row) -> bool:
        return not _reduce(row, self.pivots)

    def rows(self):
        """Canonical basis rows: pivot order, primitive integer, lead > 0."""
        return [row_to_primitive(self.pivots[c]) for c in sorted(self.pivots)]


def rref(rows) -> list:
    return Echelon(rows).rows()


def rank(mat: Mat) -> int:
    return Echelon(mat.rows).rank


def kernel(mat: Mat) -> list:
    """Canonical basis of {x : mat @ x = 0}, as rows over mat.ncols."""
    ech = Echelon(mat.rows)
    piv = ech.pivots
    basis = []
    for f in range(mat.ncols):
        if f in piv:
            continue
        vec: Row = {f: Fraction(1)}
        for p, prow in piv.items():
            v = prow.get(f)
            if v:
                vec[p] = -v
        basis.append(row_to_primitive(vec))
    return basis


def column_space(mat: Mat) -> list:
    """Canonical basis of the column space, as rows over mat.nrows."""
    return rref(mat.transpose().rows)


def span_contains(basis_rows, vec: Row) -> bool:
    return Echelon(basis_rows).contains(vec)


def span_leq(sub_rows, super_rows) -> bool:
    ech = Echelon(super_rows)
    return all(ech.contains(r) for r in sub_rows)


def span_dim(rows) -> int:
    return Echelon(rows).rank


def intersection(a_rows, b_rows, ncols: int) -> list:
    """Zassenhaus: basis of span(a) ∩ span(b), rows over ncols."""
    stacked = []
    for r in a_rows:
        row = dict(r)
        row.update({c + ncols: v for c, v in r.items()})
        stacked.append(row)
    stacked.extend(dict(r) for r in b_rows)
    out = []
    for row in rref(stacked):
        if min(row) >= ncols:
            out.append(row_to_primitive({c - ncols: v for c, v in row.items()}))
    return out


def complete_basis(inner_rows, ambient_rows) -> list:
    """Members of ambient (in order) that extend inner to a basis of ambient.

    Used to pick quotient representatives: ambient = cocycles, inner =
    coboundaries; the returned rows are independent modulo inner.
    """
    ech = Echelon(inner_rows)
    reps = []
    for r in ambient_rows:
        if ech.add(r):
            reps.append(dict(r))
    return reps

