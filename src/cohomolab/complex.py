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
applying d, or a chain map streamed the same way, places no matrix;
index_coboundary_matrix places it for elimination, and verify_dd_zero
places only the d_n its next step needs.  Nothing keeps a d_n between
calls: a command builds those it needs and lets them go when it returns.

Every complex is the full complex of one algebra, lifted: the spec itself,
or Q for the ideal and band complexes of an atomic algebra, which are d
copies of Q's complex, one on each atom's diagonal.  So coboundary is that
algebra's index-level d_n, and lift turns each of its rows into d flat
cochains: it tensors with the identity on the full complex, and puts copy
k at the k-th flat coordinate tag_coords lists on a tag complex.

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
A naive evaluator, naive_coboundary_row, covers even degrees n >= 2
only: the permutation sum, which the audit compares with each row of
coboundary_rows at every position the row stands at.  It walks every
permutation, but once per multiset of output indices: sigma -> sigma o pi
permutes the symmetric group, so output tuples that rearrange one another
have equal sums.  It counts the equal permutations of a tuple and expands
each distinct one once, times its count.  Where the two rows differ, the
audit multiplies both by the images with times_columns, the product
index_images applies every streamed operator with: the two evaluators
share only that product.
"""

import itertools
from collections import Counter
from math import factorial, prod

from .algebra import (
    AlgebraSpec, DOMAIN_ASSERTED, ORDER_ATOMIC, ORDER_NONE, assess_domain, build_atomic,
)
from .fileformat import echo
from .linalg import Mat, Record, axpy, first_nonzero_in_stream, scale_in_place
from .multilinear import MultilinearMap, all_tuples, from_flat, tuple_index

DEFAULT_DEGREE_CAP = 5

TAG_FULL = "full"
TAG_IDEAL = "ideal"
TAG_BAND = "band"
TAGS = (TAG_FULL, TAG_IDEAL, TAG_BAND)

_Q = build_atomic(1)  # each atom of a tag complex carries Q's complex


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
    """Index-level d_n, n >= 0, placed from coboundary_rows, d^{n+2} x d^{n+1}:
    a new one per call, its rows shared between positions, so callers must
    not mutate them.  coboundary rejects a negative n."""
    return Mat.from_distinct(spec.dim ** (n + 2), spec.dim ** (n + 1), coboundary_rows(spec, n))


def index_columns(d: int, rows) -> dict:
    """The flat cochains rows read by index column, as index_images and
    the audit multiply them: index column c -> {j*d + k: coordinate k of
    rows[j] at c}."""
    by_col = {}
    for j, x in enumerate(rows):
        for col, v in x.items():
            c, k = divmod(col, d)
            by_col.setdefault(c, {})[j * d + k] = v
    return by_col


def times_columns(row: dict, by_col: dict) -> dict:
    """The index-level row times the cochains of index_columns: entry j*d + k
    is coordinate k of row applied to cochain j."""
    part = {}
    for c, w in row.items():
        if c in by_col:
            axpy(part, w, by_col[c])
    return part


def index_images(d: int, distinct, rows) -> list:
    """(A (x) I_d) x for each flat cochain x in rows, as flat rows.

    The index-level operator A comes as (positions, row) pairs, each
    distinct row once, whose positions partition A's rows, as
    coboundary_rows and, at d = 1, the chain maps yield them.  The
    cochains are indexed by column once; each distinct row's products are
    formed once and written at every position under keys formed once per
    row, so neither A nor a product matrix is held.
    """
    by_col = index_columns(d, rows)
    images = [{} for _ in rows]
    for positions, row in distinct:
        keys = [positions] if d == 1 else [None] * d  # k -> each position's flat key
        for jk, v in times_columns(row, by_col).items():
            j, k = divmod(jk, d)
            if keys[k] is None:
                keys[k] = [i * d + k for i in positions]
            image = images[j]
            for i in keys[k]:
                image[i] = v
    return images


def coboundary_images(spec: AlgebraSpec, n: int, rows) -> list:
    """d_n of each flat degree-n cochain in rows, as flat degree-(n+1) rows,
    applied straight from coboundary_rows.  No rows build no d_n."""
    if not rows:
        return []
    return index_images(spec.dim, coboundary_rows(spec, n), rows)


def naive_coboundary_row(spec: AlgebraSpec, key: tuple) -> dict:
    """The index-level row of d_n, n = len(key) - 2 even >= 2, at every
    output tuple whose multiset is key, by the defining formula: the sum
    over every permutation of the output tuple, nonzero entries only, the
    oracle the audit compares with coboundary_rows.

    The permutations of the sorted tuple key are counted by value, and each
    distinct one is expanded once times its count.  It uses neither
    coboundary_rows nor its rule of one term per output tuple scaled by
    permutation_weight, so it checks both.
    """
    d = spec.dim
    terms = {}  # input column -> summed coefficient
    for sigma, count in Counter(itertools.permutations(key)).items():
        for idx, v in _term_indices(spec, sigma, count):
            col = tuple_index(idx, d)
            terms[col] = terms.get(col, 0) + v
    return {c: v for c, v in terms.items() if v}


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


def _algebra(spec: AlgebraSpec, tag: str) -> AlgebraSpec:
    """The algebra whose full complex, lifted, is the tag complex: spec, or Q
    on an atomic algebra's diagonal, where d_n is c_n * I_d."""
    return spec if tag_coords(spec, 0, tag) is None else _Q


def coboundary(spec: AlgebraSpec, n: int, tag: str) -> Mat:
    """d_n of the tag complex in its own coordinates, the index tuples of its
    algebra (see _algebra): degree n+1 rows, degree n columns."""
    algebra = _algebra(spec, tag)  # a tag's refusal comes before the degree's
    if n < 0:
        raise ValueError(f"cochain degrees start at 0, so d_{echo(n)} is undefined")
    return index_coboundary_matrix(algebra, n)


def lift(spec: AlgebraSpec, degree: int, tag: str, rows) -> list:
    """Flat degree-`degree` cochains of rows given in the tag complex's coordinates.

    Each row gives d flat rows: one per output coordinate k on the full
    complex, one per atom k on a tag complex, whose rows are Q's.  Both
    maps keep column order, so canonical echelon rows stay canonical.
    """
    coords = tag_coords(spec, degree, tag)
    d = spec.dim
    if coords is None:
        return [{c * d + k: v for c, v in r.items()} for r in rows for k in range(d)]
    return [{coords[k]: v for v in r.values()} for r in rows for k in range(d)]


class ComplexLawReport(Record):
    __slots__ = ()
    results: tuple  # tuple[(n, first nonzero entry of d_{n+1} d_n or None)]

    @property
    def all_zero(self) -> bool:
        return all(entry is None for _, entry in self.results)


def verify_dd_zero(spec: AlgebraSpec, max_n: int, tag: str = TAG_FULL,
                   cap: int = DEFAULT_DEGREE_CAP) -> ComplexLawReport:
    """The first nonzero entry of each d_{n+1} d_n, n <= max_n, or None, in
    the index tuples of the tag complex's algebra (see _algebra).

    d_{n+1} is streamed one distinct row at a time, and each row is
    multiplied by the d_n held from the step before as it is made, so no
    product is stored.  A row is placed in d_{n+1} only when the next
    step needs it: each d_n is built once, at most two are held at once,
    and d_{max_n+1} is never held."""
    if max_n < 0:
        raise ValueError(f"cochain degrees start at 0, so max degree {echo(max_n)} "
                         "checks nothing")
    check_cap(max_n + 2, cap)
    algebra = _algebra(spec, tag)
    results = []
    lower = index_coboundary_matrix(algebra, 0).rows
    for n in range(max_n + 1):
        upper = [None] * algebra.dim ** (n + 3) if n < max_n else None
        distinct = coboundary_rows(algebra, n + 1)
        results.append((n, first_nonzero_in_stream(distinct, lower, upper)))
        lower = upper
    return ComplexLawReport(tuple(results))
