"""The coboundary operator and the complexes it acts on.

Degree bookkeeping: a degree-n cochain is an (n+1)-linear map and the
coboundary takes degree n to degree n+1.  The formulas, by source degree:

  n = 0:        d(f)(x1,x2)      = f(x1*x2)
  n = 1:        d(P)(x1,x2,x3)   = P(x1*x2, x3) - P(x1*x3, x2)
  n odd >= 3:   d(P)(x1..x_{n+2}) = P(x1*x2, x3, .., x_n, x_{n+1}, x_{n+2})
                                   - P(x1*x2, x3, .., x_n, x_{n+2}, x_{n+1})
  n even >= 2:  d(P)(x1..x_{n+2}) = sum over all permutations s of the n+2
                arguments of P(x_{s1}*x_{s2}, x_{s3}, .., x_{s(n+2)})

The coboundary never touches the value coordinate of the cochain (it only
multiplies and permutes arguments), so on flattened cochains it is an
"index-level" matrix, acting on argument index tuples, tensored with the
identity on output coordinates.  That matrix is the only coboundary
operator.  One builder, coboundary_rows, makes it as a stream of its
distinct rows, each with the positions it stands at, in order of first
position.  index_images applies the stream to cochains as it flows, so
applying d places no matrix; index_coboundary_matrix places it for
elimination and products, and verify_dd_zero places only the d_n its
next step needs.  Nothing keeps a d_n between calls: a command builds
the d_n it needs along its own call path and lets them go when it returns.

Every complex is described the same way, degree by degree: d_n as a
matrix in the complex's own coordinates (coboundary), and one map that
turns rows in those coordinates into flat cochains (lift).  The full
complex's coordinates are the index tuples, and lift tensors with the
identity; the ideal and band complexes are spanned by unit cochains at
the flat coordinates tag_coords lists, and lift re-indexes onto them.

Every row (a, b, tail) is built in flat order from the term
P(b_a*b_b, tail): the term itself at n = 0, minus P(b_a*b_tail, b) at
n = 1, and minus the term at swap_last_two(tail) at odd n >= 3.  Only
lawful specs reach it, so for odd n >= 3 tuples that differ by swapping
their first two indices share a row.  At even n >= 2 the permutation sum
depends on the output tuple only through its multiset, its key.  Each
key's row is made once, keys in combinations_with_replacement order: each
arrangement (a, b, tail) of the key adds its own term, and the row is then
scaled once by permutation_weight(key), since each distinct arrangement
is hit by that many permutations.  The arrangements are found from the
tails of length n grouped by multiset once per build, so no output tuple
is sorted.
A naive evaluator, naive_coboundary_images, covers even degrees n >= 2
only: the permutation sum, which the audit compares with the fast images
at every output tuple.  It walks every permutation, but once per multiset
of output indices: sigma -> sigma o pi permutes the symmetric group, so
output tuples that rearrange one another have equal sums.  It counts the
equal permutations of a tuple and expands each distinct one once, times
its count.  Each sum is computed once per call and multiset, as a row
standing at every rearrangement, and applied by index_images to one row
when its image is drawn: the two evaluators share only that product.
"""

import itertools
from collections import Counter
from math import factorial, prod

from .algebra import (
    AlgebraSpec, DOMAIN_ASSERTED, ORDER_ATOMIC, ORDER_NONE, assess_domain,
)
from .fileformat import echo
from .linalg import Mat, Record, axpy, first_nonzero_in_stream, scale_in_place
from .multilinear import MultilinearMap, all_tuples, from_flat, tuple_index

DEFAULT_DEGREE_CAP = 5

TAG_FULL = "full"
TAG_IDEAL = "ideal"
TAG_BAND = "band"
TAGS = (TAG_FULL, TAG_IDEAL, TAG_BAND)


class OrderStructureRequired(ValueError):
    """Operation needs the atomic lattice order."""


class UnsupportedAlgebra(ValueError):
    """Ideal lattice is not representable for this algebra."""


class DegreeCapExceeded(ValueError):
    def __init__(self, degree, cap):
        super().__init__(f"degree {echo(degree)} exceeds the cap {echo(cap)}")
        self.degree = degree
        self.cap = cap


def check_cap(degree: int, cap: int):
    """Reject a command whose top cochain degree exceeds the cap: cohomology,
    audit_chain_map, verify_dd_zero and classify each call it once, before
    any work, and no layer below them takes a cap."""
    if degree > cap:
        raise DegreeCapExceeded(degree, cap)


def permutation_weight(t: tuple) -> int:
    """The number of permutations s with t o s = t: the product of the
    factorials of t's multiplicities."""
    return prod(factorial(t.count(v)) for v in set(t))


def _term_indices(spec: AlgebraSpec, t: tuple, times: int = 1):
    """Expand times * P(b_{t0}*b_{t1}, b_{t2}, ...): pairs (input index tuple, coefficient)."""
    prod = spec.structure[t[0]][t[1]]
    rest = t[2:]
    return [((c,) + rest, times * v) for c, v in enumerate(prod) if v]


def apply_d(spec: AlgebraSpec, f: MultilinearMap) -> MultilinearMap:
    """The coboundary of a degree-(arity-1) cochain, by coboundary_images;
    output arity + 1."""
    (image,) = coboundary_images(spec, f.arity - 1, [f.flatten()])
    return from_flat(spec.dim, f.arity + 1, image)


def swap_last_two(i: int, d: int) -> int:
    """The flat index of a tuple of length >= 2 with its last two indices swapped."""
    return i + (i % d - i // d % d) * (d - 1)


def coboundary_rows(spec: AlgebraSpec, n: int):
    """The index-level d_n, n >= 0, as a stream: yields (positions, row) for
    each distinct row once, in order of its first position, positions[0]
    = min(positions); the positions of all rows partition range(d^{n+2}).

    One helper adds each term w * P(b_a*b_b, tail), tail the flat index of
    the other arguments.  Row (a, b, tail) is the term at n = 0, minus
    P(b_a*b_tail, b) at n = 1, and minus the term at swap_last_two(tail)
    at odd n >= 3, where it also stands at (b, a, tail).  At even n >= 2
    one row per multiset key, in combinations_with_replacement order, sums
    the terms of the key's arrangements and is scaled once by its
    permutation_weight; the tails are grouped by multiset once per call,
    so no output tuple is sorted.  Nothing is kept between rows but the
    product table and, at even n, the tails' groups.  A row may stand at
    several positions, so callers must not mutate it.
    """
    d = spec.dim
    size = d ** n

    # the nonzero coordinates c of each b_a*b_b, as (column of (c, tail 0), value)
    products = [[[(c * size, v) for c, v in enumerate(p) if v] for p in ps]
                for ps in spec.structure]

    def add(row, w, a, b, tail):  # row += w * P(b_a*b_b, tail)
        for c, v in products[a][b]:
            row[c + tail] = row.get(c + tail, 0) + w * v

    if n < 2 or n % 2:
        for a in range(d):
            # at odd n >= 3 the row of (a, b, tail) also stands at (b, a, tail)
            for b in range(a if n > 1 else 0, d):
                first, second = (a * d + b) * size, (b * d + a) * size
                shared = n > 1 and a != b
                for tail in range(size):
                    row = {}
                    add(row, 1, a, b, tail)
                    if n == 1:
                        add(row, -1, a, tail, b)
                    elif n:
                        add(row, -1, a, b, swap_last_two(tail, d))
                    row = {c: v for c, v in row.items() if v}
                    yield (first + tail, second + tail) if shared else (first + tail,), row
        return
    # in even degree >= 2 a row depends on its output tuple only through
    # the multiset of its indices, its key; the arrangements (a, b, tail)
    # of a key are met in flat order
    tails = {}  # multiset of a tail -> the flat indices of its arrangements
    for tail, t in enumerate(all_tuples(d, n)):
        tails.setdefault(tuple(sorted(t)), []).append(tail)
    for key in itertools.combinations_with_replacement(range(d), n + 2):
        row, positions = {}, []
        for a in dict.fromkeys(key):
            rest = list(key)
            rest.remove(a)
            for b in dict.fromkeys(rest):
                others = rest.copy()
                others.remove(b)
                for tail in tails[tuple(others)]:
                    add(row, 1, a, b, tail)
                    positions.append((a * d + b) * size + tail)
        scale_in_place(row, permutation_weight(key))
        yield positions, row


def index_coboundary_matrix(spec: AlgebraSpec, n: int) -> Mat:
    """Index-level matrix of d_n, n >= 0: d^{n+2} rows by d^{n+1} columns,
    each row of coboundary_rows placed at its positions.  coboundary
    rejects a negative n.  Each call builds a new matrix and keeps
    nothing; rows are shared between positions, so callers must not
    mutate them.
    """
    rows = [None] * spec.dim ** (n + 2)
    for positions, row in coboundary_rows(spec, n):
        for i in positions:
            rows[i] = row
    return Mat(len(rows), spec.dim ** (n + 1), rows)


def index_images(d: int, distinct, rows) -> list:
    """(A (x) I_d) x for each flat cochain x in rows, as flat rows.

    The index-level operator A comes as (positions, row) pairs, each
    distinct row once, whose positions partition A's rows, as
    coboundary_rows yields them.  The cochains are indexed by column once;
    each distinct row's products are formed once and written at every
    position, so neither A nor a product matrix is held.
    """
    by_col = {}  # index column c -> {j*d + k: coordinate k of rows[j] at c}
    for j, x in enumerate(rows):
        for col, v in x.items():
            c, k = divmod(col, d)
            by_col.setdefault(c, {})[j * d + k] = v
    images = [{} for _ in rows]
    for positions, row in distinct:
        part = {}
        for c, w in row.items():
            if c in by_col:
                axpy(part, w, by_col[c])
        for jk, v in part.items():
            j, k = divmod(jk, d)
            image = images[j]
            for i in positions:
                image[i * d + k] = v
    return images


def coboundary_images(spec: AlgebraSpec, n: int, rows) -> list:
    """d_n of each flat degree-n cochain in rows, as flat degree-(n+1) rows,
    applied straight from coboundary_rows.  No rows build no d_n."""
    if not rows:
        return []
    return index_images(spec.dim, coboundary_rows(spec, n), rows)


def naive_coboundary_images(spec: AlgebraSpec, n: int, rows):
    """coboundary_images at even n >= 2 by the defining formula, the sum over
    every permutation of the output tuple: the oracle the audit compares
    with coboundary_rows.  Any other n raises ValueError, at the call.

    Returns an iterator of the images, one per row, in order.  The terms
    of d are summed, at the call, into one index-level term dict per
    multiset of output indices, stored with the multiset's arrangements,
    which are found by sorting each output tuple: the permutations of its
    sorted tuple are counted by value, and each distinct one is expanded
    once times its count.  Each row's image is then formed by index_images
    when it is drawn.  It uses neither coboundary_rows nor its rule of one
    term per output tuple scaled by permutation_weight, so it checks both.
    """
    if n < 2 or n % 2:
        raise ValueError(f"the permutation sum is d_n at even n >= 2 only, got n = {echo(n)}")
    d = spec.dim
    arrangements = {}  # multiset of an output tuple -> the flat index of each arrangement
    for flat, t in enumerate(all_tuples(d, n + 2)):
        arrangements.setdefault(tuple(sorted(t)), []).append(flat)
    table = []  # per multiset: (its arrangements, input column -> summed coefficient)
    for key, positions in arrangements.items():
        terms = {}
        for sigma, count in Counter(itertools.permutations(key)).items():
            for idx, v in _term_indices(spec, sigma, count):
                col = tuple_index(idx, d)
                terms[col] = terms.get(col, 0) + v
        table.append((positions, terms))
    return (index_images(d, table, [x])[0] for x in rows)


def tag_coords(spec: AlgebraSpec, degree: int, tag: str):
    """Flat coordinates of the tag complex at `degree`, or None for every cochain.

    This is the one place that decides which complex a tag names.  A field
    has only trivial ideals, so the ideal complex of an asserted domain is
    the full complex.  On an atomic algebra the ideals and the bands are
    coordinate subspaces, and both complexes are spanned by the diagonal
    cochains (b_k, ..., b_k) -> b_k, listed in ascending flat order.
    Raises OrderStructureRequired or UnsupportedAlgebra where the tag is
    not defined for the algebra.
    """
    if tag == TAG_FULL:
        return None
    if tag == TAG_IDEAL:
        if spec.order_mode == ORDER_NONE and assess_domain(spec).status == DOMAIN_ASSERTED:
            return None
        if spec.order_mode != ORDER_ATOMIC:
            raise UnsupportedAlgebra("ideal-preserving subspace is only defined for "
                                     "asserted domains and atomic algebras")
    elif tag == TAG_BAND:
        if spec.order_mode != ORDER_ATOMIC:
            raise OrderStructureRequired("band structure requires atomic order")
    else:
        raise ValueError(f"unknown complex tag {tag!r}")
    d = spec.dim
    return [tuple_index((k,) * (degree + 1), d) * d + k for k in range(d)]


def coboundary(spec: AlgebraSpec, n: int, tag: str) -> Mat:
    """d_n of the tag complex in its own coordinates: degree n+1 rows, degree n columns.

    For every cochain these are index tuples (lift tensors with the
    identity on output coordinates); otherwise they are the positions in
    tag_coords.  Raises ValueError if an image leaves the subcomplex.
    """
    src = tag_coords(spec, n, tag)  # a tag's refusal comes before the degree's
    if n < 0:
        raise ValueError(f"cochain degrees start at 0, so d_{echo(n)} is undefined")
    if src is None:
        return index_coboundary_matrix(spec, n)
    dst = {c: i for i, c in enumerate(tag_coords(spec, n + 1, tag))}
    columns = []
    for image in coboundary_images(spec, n, [{c: 1} for c in src]):
        if not dst.keys() >= image.keys():
            raise ValueError(f"subcomplex {tag} is not closed at degree {n}")
        columns.append({dst[c]: v for c, v in image.items()})
    return Mat.from_columns(len(dst), columns)


def lift(spec: AlgebraSpec, degree: int, tag: str, rows) -> list:
    """Flat degree-`degree` cochains of rows given in the tag complex's coordinates.

    An index-level row gives d flat rows, one per output coordinate.  Both
    maps keep column order, so canonical echelon rows stay canonical.
    """
    coords = tag_coords(spec, degree, tag)
    if coords is None:
        d = spec.dim
        return [{c * d + k: v for c, v in r.items()} for r in rows for k in range(d)]
    return [{coords[c]: v for c, v in r.items()} for r in rows]


class ComplexLawReport(Record):
    __slots__ = ()
    results: tuple  # tuple[(n, first nonzero entry of d_{n+1} d_n or None)]

    @property
    def all_zero(self) -> bool:
        return all(entry is None for _, entry in self.results)


def _distinct_rows(spec: AlgebraSpec, n: int, tag: str):
    """The row count of coboundary(spec, n, tag) and its distinct rows as
    coboundary_rows streams them: a tag complex's d_n is small, so its
    rows come from its Mat, each at its own position."""
    if tag_coords(spec, n, tag) is None:
        return spec.dim ** (n + 2), coboundary_rows(spec, n)
    rows = coboundary(spec, n, tag).rows
    return len(rows), (((i,), row) for i, row in enumerate(rows))


def verify_dd_zero(spec: AlgebraSpec, max_n: int, tag: str = TAG_FULL,
                   cap: int = DEFAULT_DEGREE_CAP) -> ComplexLawReport:
    """The first nonzero entry of each d_{n+1} d_n, n <= max_n, or None.

    d_{n+1} is streamed one distinct row at a time, and each row is
    multiplied by the d_n held from the step before as it is made, so no
    product is stored.  A row is placed in d_{n+1} only when the next
    step needs it: each d_n is built once, at most two are held at once,
    and d_{max_n+1} is never held."""
    if max_n < 0:
        raise ValueError(f"cochain degrees start at 0, so max degree {echo(max_n)} "
                         "checks nothing")
    check_cap(max_n + 2, cap)
    results = []
    lower = coboundary(spec, 0, tag).rows
    for n in range(max_n + 1):
        nrows, distinct = _distinct_rows(spec, n + 1, tag)
        upper = [None] * nrows if n < max_n else None
        results.append((n, first_nonzero_in_stream(distinct, lower, upper)))
        lower = upper
    return ComplexLawReport(tuple(results))
