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
identity on output coordinates.  That matrix, built once per algebra and
degree, is the only coboundary operator: every application of d is a
sparse product with it.

Every complex is described the same way, degree by degree: d_n as a
matrix in the complex's own coordinates (coboundary), and one map that
turns rows in those coordinates into flat cochains (lift).  The full
complex's coordinates are the index tuples, and lift tensors with the
identity; the ideal and band complexes are spanned by unit cochains at
the flat coordinates tag_coords lists, and lift re-indexes onto them.

The symmetric-group sum is evaluated once per multiset of output indices,
by grouping permutations per distinct rearrangement (each arises the same
number of times), and its row is shared by every rearrangement.  Every
other row (a, b, tail) is built in flat order: the term P(b_a*b_b, tail),
minus P(b_a*b_tail, b) at n = 1, or minus the term at swap_last_two(tail)
at odd n >= 3.  Only lawful specs reach it, so for odd n >= 3 tuples
that differ by swapping their first two indices share a row.
A naive evaluator, naive_coboundary_images, covers even degrees n >= 2
only: the permutation sum, which the audit compares with the index matrix
at every output tuple.  It walks every permutation, but once per multiset
of output indices: sigma -> sigma o pi permutes the symmetric group, so
output tuples that rearrange one another have equal sums.  It counts the
equal permutations of a tuple and expands each distinct one once, times
its count.  Each sum, and each row's part of it, is computed once per
multiset and written at every rearrangement.
"""

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial

from .algebra import (
    AlgebraSpec, DOMAIN_ASSERTED, ORDER_ATOMIC, ORDER_NONE, assess_domain,
)
from .fileformat import echo
from .linalg import Mat, Record, axpy
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


@lru_cache(maxsize=None)
def arrangements(sorted_tuple: tuple):
    """Distinct rearrangements of a multiset and the per-arrangement weight.

    Every distinct arrangement is hit by the same number of permutations,
    namely the product of the multiplicities' factorials.  The list is
    lexicographic: each distinct first value, then the rest's arrangements.
    """
    perms = [(v,) + p for i, v in enumerate(sorted_tuple) if i == 0 or v != sorted_tuple[i - 1]
             for p in arrangements(sorted_tuple[:i] + sorted_tuple[i + 1:])[0]] or [()]
    weight = factorial(len(sorted_tuple)) // len(perms)
    return perms, weight


def _term_indices(spec: AlgebraSpec, t: tuple, times: int = 1):
    """Expand times * P(b_{t0}*b_{t1}, b_{t2}, ...): pairs (input index tuple, coefficient)."""
    prod = spec.structure[t[0]][t[1]]
    rest = t[2:]
    return [((c,) + rest, times * v) for c, v in enumerate(prod) if v]


def apply_d(spec: AlgebraSpec, f: MultilinearMap) -> MultilinearMap:
    """The coboundary of a degree-(arity-1) cochain, by the index matrix;
    output arity + 1."""
    (image,) = coboundary_images(spec, f.arity - 1, [f.flatten()])
    return from_flat(spec.dim, f.arity + 1, image)


def swap_last_two(i: int, d: int) -> int:
    """The flat index of a tuple of length >= 2 with its last two indices swapped."""
    return i + (i % d - i // d % d) * (d - 1)


@lru_cache(maxsize=None)
def index_coboundary_matrix(spec: AlgebraSpec, n: int) -> Mat:
    """Index-level matrix of d_n, n >= 0: d^{n+2} rows by d^{n+1} columns.

    One helper adds each term w * P(b_a*b_b, tail), tail the flat index of
    the other arguments.  Row (a, b, tail) is the term at n = 0, minus
    P(b_a*b_tail, b) at n = 1, and minus the term at swap_last_two(tail)
    at odd n >= 3; at even n >= 2 it sums the term over the arrangements
    of its multiset.  coboundary rejects a negative n.  Built once per
    (algebra, degree) and shared: callers must not mutate it.
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
        rows = []
        for a in range(d):
            for b in range(d):
                if n > 1 and a > b:  # the rows of (b, a, tail), the same dicts
                    rows += rows[(b * d + a) * size:(b * d + a + 1) * size]
                    continue
                for tail in range(size):
                    row = {}
                    add(row, 1, a, b, tail)
                    if n == 1:
                        add(row, -1, a, tail, b)
                    elif n:
                        add(row, -1, a, b, swap_last_two(tail, d))
                    rows.append({c: v for c, v in row.items() if v})
        return Mat(len(rows), d * size, rows)
    # in even degree >= 2 a row depends on its output tuple only through
    # the multiset of its indices
    rows = [None] * d ** (n + 2)
    for multiset in itertools.combinations_with_replacement(range(d), n + 2):
        perms, weight = arrangements(multiset)
        row = {}
        flats = []
        for a, b, *rest in perms:
            tail = tuple_index(rest, d)
            flats.append((a * d + b) * size + tail)
            add(row, 1, a, b, tail)
        row = {c: v * weight for c, v in row.items() if v}
        for flat in flats:
            rows[flat] = row
    return Mat(len(rows), d * size, rows)


def per_coordinate(d: int, rows, f) -> list:
    """(an index-level map) (x) I_d applied to flat rows.

    The entries of row j with output coordinate k form index-level part
    j*d + k; f maps the list of all parts in one call, and mapped part
    j*d + k goes back to row j at output coordinate k.
    """
    parts = [{} for _ in range(len(rows) * d)]
    for j, x in enumerate(rows):
        for col, v in x.items():
            c, k = divmod(col, d)
            parts[j * d + k][c] = v
    mapped = f(parts)
    return [{r * d + k: v for k in range(d) for r, v in mapped[j * d + k].items()}
            for j in range(len(rows))]


def coboundary_images(spec: AlgebraSpec, n: int, rows) -> list:
    """d_n of each flat degree-n cochain in rows, as flat degree-(n+1) rows:
    the index matrix (x) I_d, by one Mat.images call.  No rows build no matrix."""
    if not rows:
        return []
    return per_coordinate(spec.dim, rows, index_coboundary_matrix(spec, n).images)


def naive_coboundary_images(spec: AlgebraSpec, n: int, rows) -> list:
    """coboundary_images at even n >= 2 by the defining formula, the sum over
    every permutation of the output tuple: the oracle the audit compares
    with the index matrix.  Any other n raises ValueError.

    The terms of d are summed into an index-level term dict, which is then
    applied to every row.  The permutations of the output tuple are counted
    by value, each distinct one is expanded once times its count, and the
    dict and each row's part of it are built once per multiset, at the
    first output tuple of it met, and written at every rearrangement.
    Neither arrangements nor the index matrix is used.
    """
    if n < 2 or n % 2:
        raise ValueError(f"the permutation sum is d_n at even n >= 2 only, got n = {echo(n)}")
    d = spec.dim
    grouped = []  # per row: input column -> {output coordinate: value}
    for x in rows:
        by_col = {}
        for col, v in x.items():
            c, k = divmod(col, d)
            by_col.setdefault(c, {})[k] = v
        grouped.append(by_col)
    images = [{} for _ in rows]
    shared = {}  # multiset of an output tuple -> its per-row parts
    for t in all_tuples(d, n + 2):
        key = tuple(sorted(t))
        if key not in shared:
            terms = {}  # input column -> summed coefficient
            for sigma, count in Counter(itertools.permutations(t)).items():
                for idx, v in _term_indices(spec, sigma, count):
                    col = tuple_index(idx, d)
                    terms[col] = terms.get(col, 0) + v
            shared[key] = []
            for by_col in grouped:
                part = {}
                for col, w in terms.items():
                    if col in by_col:
                        axpy(part, w, by_col[col])
                shared[key].append(part)
        base = tuple_index(t, d) * d
        for part, image in zip(shared[key], images):
            for k, v in part.items():
                image[base + k] = v
    return images


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


def verify_dd_zero(spec: AlgebraSpec, max_n: int, tag: str = TAG_FULL,
                   cap: int = DEFAULT_DEGREE_CAP) -> ComplexLawReport:
    """Multiply consecutive coboundary matrices and report zero products."""
    if max_n < 0:
        raise ValueError(f"cochain degrees start at 0, so max degree {echo(max_n)} "
                         "checks nothing")
    check_cap(max_n + 2, cap)
    return ComplexLawReport(tuple(
        (n, coboundary(spec, n + 1, tag).matmul(coboundary(spec, n, tag)).first_nonzero())
        for n in range(max_n + 1)))
