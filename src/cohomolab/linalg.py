"""Exact rational linear algebra on sparse row matrices.

Matrices are stored as a list of rows, each row a dict {column: scalar}
holding only nonzero entries.  An exact scalar is an int when it is
integral and a Fraction otherwise, never a float: outside values enter
through `scalar`, and every division goes through `div`, since int / int
would be a float.  Sums and products of ints stay ints, so integral
inputs keep structure constants, cochains, index matrices and chain-map
images ints; mixing in a non-integral Fraction may leave an integral
Fraction, which compares and hashes equal to its int.  `scalar` and `div`
import fractions only for a non-integral value, so work on integral
inputs never loads it.

Elimination is integer-preserving (Bareiss, Math. Comp. 22, 1968): each
fed row is first scaled to a primitive int row, rows are combined by
cross-multiplying, and each pivot row is kept as the primitive int
multiple, lead > 0, of its reduced row echelon form row.
That row is canonical, so equal subspaces always produce identical bases:
rows() and kernel give int rows, whatever the input.

A Mat's rows may be shared: the index-level coboundary in odd degree
n >= 3 gives (a, b, ..) and (b, a, ..) one row, the chain maps share one
block of rows per key, and the even-degree coboundary keeps one row per
multiset of output indices.  Nothing mutates a Mat row in place, so
sharing is safe, and `Mat.matmul` computes each distinct row object
once.  Elimination goes further and feeds each distinct nonzero row
value once, since equal rows that are different objects (an even-degree
coboundary's equal columns, read as rows of its transpose) add nothing
after the first.  Rows are told apart by `id()` only while a list or map
holds them, so an id is never reused by a different row during the loop
that tests it.

`Record` is the base of every record of the package: a tuple whose
fields are read by name.
"""

from math import gcd, lcm
from operator import itemgetter

Row = dict


def scalar(x):
    """The exact-scalar rule: x as an int when integral, else as a Fraction.

    x is an int, a Fraction, or anything else Fraction() reads exactly,
    such as '-7/2'; a float is refused rather than taken at its binary value.
    """
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"exact scalars are never floats, got {x!r}")
    from fractions import Fraction
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def div(a, b):
    """Exact a / b of two scalars, as a scalar."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    from fractions import Fraction
    return scalar(Fraction(a) / b)


def axpy(acc: Row, a, x: Row) -> None:
    """acc += a * x in place, keeping only nonzero entries."""
    for c, v in x.items():
        nv = acc.get(c, 0) + a * v
        if nv:
            acc[c] = nv
        else:
            acc.pop(c, None)


class Record(tuple):
    """A tuple with named fields, written in class syntax:

        class Point(Record):
            __slots__ = ()
            x: int
            y: int = 0  # a default

    The fields are the subclass's annotations, in order; each is read by a
    read-only property, and `__slots__ = ()` keeps any other attribute from
    being set.  A record compares and hashes as the tuple of its fields.
    No code is generated, so making a record class costs little at import.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._filled(args, kwargs)
        return tuple.__new__(cls, args)

    @classmethod
    def _filled(cls, args, kwargs) -> tuple:
        """The field values of cls(*args, **kwargs), defaults filled in."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unknown or repeated fields: "
                            + ", ".join(map(repr, kwargs)))
        return tuple(values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self)) + ")"

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**{**self._asdict(), **changes})


class Mat(Record):
    __slots__ = ()
    nrows: int
    ncols: int
    rows: list  # list[dict[int, scalar]]

    @staticmethod
    def from_columns(nrows: int, columns) -> "Mat":
        """The matrix whose j-th column is the sparse vector columns[j]."""
        rows = [dict() for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                rows[i][j] = v
        return Mat(nrows, len(columns), rows)

    def first_nonzero(self):
        for i, r in enumerate(self.rows):
            if r:
                j = min(r)
                return (i, j, r[j])
        return None

    def matmul(self, other: "Mat") -> "Mat":
        """The product; positions sharing a left row share its product row.

        A left row's coefficients on one shared right-row object are summed
        before any axpy, so terms that cancel cost no arithmetic.
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

    def images(self, vectors) -> list:
        """self @ v for each sparse vector v, by one product with the v as columns."""
        return self.matmul(Mat.from_columns(self.ncols, vectors)).transpose().rows

    def transpose(self) -> "Mat":
        return Mat.from_columns(self.ncols, self.rows)


def _primitive(row: Row) -> Row:
    """A nonzero int row divided by its content, leading entry made positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return {c: v // g for c, v in row.items()}


def row_to_primitive(row: Row) -> Row:
    """Scale a row to coprime ints with positive leading entry."""
    if not row:
        return {}
    scale = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (scale // v.denominator) for c, v in row.items()})


class Echelon:
    """Incremental echelon form of a growing row set, over the ints.

    Each pivot row is the primitive int multiple, lead > 0, of its reduced
    row echelon form row: zero at the other pivot columns, and canonical.
    A fed row is scaled to a primitive int row first; rows are combined by
    cross-multiplying with the gcd of the two entries and divided by their
    content, so no Fraction arises.  No row dict, fed or stored, is ever
    changed in place, so rows() can hand out the pivot rows themselves.
    """

    def __init__(self, rows=()):
        """Feed each distinct nonzero row value once.

        A zero row or a repeat reduces to zero in add and changes nothing,
        so skipping it leaves the same pivots, in the same insertion order.
        A repeated row object is told by its id, a repeated value by the
        frozenset of its items.
        """
        self.pivots: dict = {}  # pivot column -> primitive pivot row
        seen = {}  # id -> row; holding the row keeps its id from being reused
        values = set()
        for r in rows:
            if r and id(r) not in seen:
                seen[id(r)] = r
                value = frozenset(r.items())
                if value not in values:
                    values.add(value)
                    self.add(r)

    def add(self, row: Row) -> bool:
        """Insert a row; True if it increased the rank."""
        r = row_to_primitive(row)
        for pc in sorted(r.keys() & self.pivots.keys()):
            p = self.pivots[pc]
            a, b = r[pc], p[pc]
            g = gcd(a, b)
            if b != g:
                for c in r:
                    r[c] *= b // g
            axpy(r, -(a // g), p)
        if not r:
            return False
        r = _primitive(r)
        lead = min(r)
        lv = r[lead]
        for pc, p in list(self.pivots.items()):
            a = p.get(lead)
            if a:
                g = gcd(a, lv)
                q = {c: v * (lv // g) for c, v in p.items()}
                axpy(q, -(a // g), r)
                self.pivots[pc] = _primitive(q)
        self.pivots[lead] = r
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """D times (row minus its pivot-column entries times the RREF
        rows), D the lcm of the pivot leads, so no entry needs a division.

        The pivot rows are reduced (each is zero at the other pivot
        columns), so the result is linear in row, and it is zero exactly
        when row lies in the span.
        """
        scale = lcm(*(p[c] for c, p in self.pivots.items()))
        r = {c: scale * v for c, v in row.items()}
        for pc in sorted(r.keys() & self.pivots.keys()):
            p = self.pivots[pc]
            axpy(r, -row[pc] * (scale // p[pc]), p)
        return r

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

    def rows(self):
        """Canonical basis rows: pivot order, primitive integer, lead > 0."""
        return [self.pivots[c] for c in sorted(self.pivots)]


def kernel(mat: Mat) -> list:
    """Canonical basis of {x : mat @ x = 0}, as rows over mat.ncols.

    One row per free (non-pivot) column f, in increasing f: it is nonzero
    at f and otherwise only at pivot columns, all below f.  So f = max(row),
    and no other row is nonzero at f.
    """
    piv = Echelon(mat.rows).pivots
    # column -> [(pivot, entry)], in pivot insertion order; one pass over
    # the pivot rows' entries (entries on pivot columns are never read)
    entries = {}
    for p, prow in piv.items():
        for c, v in prow.items():
            entries.setdefault(c, []).append((p, v))
    basis = []
    for f in range(mat.ncols):
        if f in piv:
            continue
        col = entries.get(f, ())
        scale = lcm(*(piv[p][p] for p, _ in col))  # x_p = -entry / lead, times scale
        vec: Row = {f: scale}
        vec.update((p, -v * (scale // piv[p][p])) for p, v in col)
        basis.append(_primitive(vec))
    return basis


def span_dim(rows) -> int:
    return Echelon(rows).rank


def complete_basis(inner_rows, ambient_rows) -> list:
    """Members of ambient (in order) that extend inner to a basis of ambient's span.

    ambient must be a canonical kernel basis (see kernel), and every inner
    row must lie in its span.  Ambient row i alone is nonzero at its free
    column max(row i), so a vector of the span is read in that basis from
    its free-column entries.  Row i extends inner and the rows before it
    exactly when no vector of span(inner) ends, in free-column order, at
    row i's free column: when that column is not a pivot of inner's
    free-column entries eliminated with the column order reversed.  These
    are the rows an echelon of inner fed ambient in order would take.  Used
    to pick quotient representatives: ambient = cocycles, inner = any
    spanning set of the coboundaries.
    """
    free = {max(r) for r in ambient_rows}
    pivots = Echelon({-c: v for c, v in r.items() if c in free} for r in inner_rows).pivots
    return [r for r in ambient_rows if -max(r) not in pivots]
