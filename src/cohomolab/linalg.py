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

Every operator, d_n and the chain maps, comes as a stream of its
distinct rows with their positions, which `Mat.from_distinct` places
with its rows shared and `ColumnSpace` reads as it is.  Odd d_n, n >= 3,
gives (a, b, ..) and (b, a, ..) one row; even d_n and Jeven give one
row, or block of d rows, per key, each scaled once by the key's weight
before it is yielded.  Nothing mutates a row after that, so sharing is
safe.  `Mat.matmul` and `first_nonzero_in_stream` (whose left matrix is
a stream) compute each distinct left row object's product once.
Elimination feeds each distinct nonzero row value once: equal rows that
are different objects (an even d_n's equal columns, read as rows of its
transpose) add nothing after the first.  Rows are told apart by `id()`
only while a list or map holds them, so an id is never reused by a
different row during the loop that tests it.

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


def scale_in_place(row: Row, w) -> None:
    """row *= w, keeping only nonzero entries."""
    for c, v in list(row.items()):
        if v:
            row[c] = v * w
        else:
            del row[c]


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

    @staticmethod
    def from_distinct(nrows: int, ncols: int, distinct) -> "Mat":
        """The matrix of a (positions, row) stream, each row shared by its positions."""
        rows = [None] * nrows
        for positions, row in distinct:
            for i in positions:
                rows[i] = row
        return Mat(nrows, ncols, rows)

    def matmul(self, other: "Mat") -> "Mat":
        """The product; positions sharing a left row share its product row."""
        assert self.ncols == other.nrows
        products = {}  # id(left row) -> product row
        out = []
        for r in self.rows:
            acc = products.get(id(r))
            if acc is None:
                acc = products[id(r)] = _row_times(r, other.rows)
            out.append(acc)
        return Mat(self.nrows, other.ncols, out)

    def transpose(self) -> "Mat":
        return Mat.from_columns(self.ncols, self.rows)


def _row_times(r: Row, rows) -> Row:
    """The row r times the matrix whose rows are rows.

    r's coefficients on one shared row object are summed before any axpy,
    so terms that cancel cost no arithmetic.
    """
    weights = {}  # id(row) -> (row, summed coefficient)
    for k, v in r.items():
        x = rows[k]
        _, w = weights.get(id(x), (x, 0))
        weights[id(x)] = (x, w + v)
    acc = {}
    for x, w in weights.values():
        if w:
            axpy(acc, w, x)
    return acc


def first_nonzero_in_stream(distinct, rows, placed=None):
    """(i, j, value) of the first nonzero entry of A @ B, in row order and
    then column order, or None when the product is zero.

    B is the list of its rows, rows.  A comes as a stream: distinct yields
    each distinct row r of A once as (positions, r), in order of first
    position, positions[0] first, so the first nonzero r @ B found is at
    the first nonzero row of A @ B.  Each product row is formed as its row
    is drawn, and drawing stops there, unless placed is a list of A's
    length: then every row is drawn and placed at its positions, so A is
    built as it is checked.
    """
    found = None
    for positions, r in distinct:
        if found is None:
            acc = _row_times(r, rows)
            if acc:
                j = min(acc)
                found = positions[0], j, acc[j]
                if placed is None:
                    break
        if placed is not None:
            for i in positions:
                placed[i] = r
    return found


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
        A repeated row object is told by its id, a repeated value by
        equality with the rows fed before it whose items hash alike; the
        items are hashed as a frozenset and not kept.
        """
        self.pivots: dict = {}  # pivot column -> primitive pivot row
        self._scale = None  # reduce's lcm of the pivot leads; add resets it
        seen = {}  # id -> row; holding the row keeps its id from being reused
        fed = {}  # hash of a row's items -> the distinct row values fed with it
        for r in rows:
            if r and id(r) not in seen:
                seen[id(r)] = r
                same = fed.setdefault(hash(frozenset(r.items())), [])
                if r not in same:
                    same.append(r)
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
        self._scale = None
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
        scale = self._scale
        if scale is None:
            scale = self._scale = lcm(*(p[c] for c, p in self.pivots.items()))
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


class ColumnSpace:
    """Reduction modulo the column space of an nrows x ncols matrix A given
    as (positions, row) pairs, each distinct row once, as coboundary_rows
    yields them: positions[0] first, all positions partitioning A's rows.

    A vector v of that space is A @ x, so it agrees at every position
    holding one row, and its entries at first positions lie in the column
    space of the distinct rows alone.  reduce keeps each difference from
    the first position holding a row, and reduces the entries at first
    positions by an Echelon of the distinct rows' columns.  Both are
    linear, and both vanish exactly when v lies in the space, so the
    result is linear in v and zero exactly there.
    """

    def __init__(self, distinct, nrows: int, ncols: int):
        self.lead = [None] * nrows  # position -> the first position holding its row
        self.others = {}  # first position -> the later positions holding its row
        columns = [{} for _ in range(ncols)]
        for positions, r in distinct:
            f = positions[0]
            for i in positions:
                self.lead[i] = f
            if len(positions) > 1:
                self.others[f] = positions[1:]
            for c, v in r.items():
                columns[c][f] = v
        self.echelon = Echelon(columns)

    def reduce(self, row: Row) -> Row:
        lead = self.lead
        r = self.echelon.reduce({i: v for i, v in row.items() if lead[i] == i})
        for f in dict.fromkeys(lead[i] for i in row):
            a = row.get(f, 0)
            for i in self.others.get(f, ()):
                v = row.get(i, 0) - a
                if v:
                    r[i] = v
        return r


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


def column_kernel(columns, count: int, height: int) -> list:
    """kernel(Mat.from_columns(height, columns)) for count columns over
    range(height), each read only when the echelon takes it.

    Column j goes into one Echelon as a row tagged by a 1 at column
    height + count - 1 - j.  The echelon rows led by a tag are zero below
    height, so they are the reduced row echelon basis of the kernel with
    its coordinates in reverse order: kernel's row f, whose lead is its
    entry at f = max(row), primitive with that lead positive.  Read back
    in increasing f, each with its lowest entry made positive, they are
    kernel's rows.
    """
    ech = Echelon()
    top = height + count - 1
    for j, col in enumerate(columns):
        ech.add({**col, top - j: 1})
    basis = []
    for lead in sorted(ech.pivots, reverse=True):
        if lead < height:
            break
        row = ech.pivots[lead]
        sign = 1 if row[max(row)] > 0 else -1
        basis.append({top - c: sign * v for c, v in row.items()})
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
