"""Cocycle and coboundary spaces, cohomology reports, the multiplier quotient,
chain maps.

Every degree here is a cochain degree: the degree-z group is
ker d_z / im d_{z-1}, and its cocycles are (z+1)-linear.

A chain map is a stream of distinct rows on flat cochains, as d_n is, and
an audit maps all its cochains, ker d_1 and the multiplier coboundaries,
by index_images as the rows stream past.  d_g is then streamed once: each
distinct row is multiplied by every checked image at once, and only each
image's first nonzero entry is kept, so no d_g image is formed; at even g
the naive permutation sum of the row's multiset is multiplied and compared
there too.  Each image is then reduced modulo im d_{g-1}, on d_{g-1}'s
distinct rows, and dropped: a multiplier image once checked, an image of
ker d_1 once one tagged echelon has taken it, which gives the injectivity
kernel.
"""

import itertools

from .algebra import AlgebraSpec, basis_product
from .fileformat import echo
from .linalg import (
    ColumnSpace, Mat, Echelon, Record, axpy, column_kernel, complete_basis, kernel,
    scale_in_place, span_dim,
)
from .multilinear import all_tuples, index_tuple
from .complex import (
    DEFAULT_DEGREE_CAP, TAG_FULL, check_cap, coboundary, coboundary_images, coboundary_rows,
    index_columns, index_images, lift, naive_coboundary_row, permutation_weight, swap_last_two,
    times_columns,
)


def cocycle_space(spec: AlgebraSpec, degree: int, tag: str) -> list:
    """Flat basis rows of the degree-`degree` cocycles of the tag complex."""
    return lift(spec, degree, tag, kernel(coboundary(spec, degree, tag)))


class CohomologyReport(Record):
    __slots__ = ()
    dim_cocycles: int
    dim_coboundaries: int
    dim_H: int
    representatives: Mat  # flat rows, independent modulo coboundaries


def cohomology(spec: AlgebraSpec, degree: int, tag: str = TAG_FULL,
               cap: int = DEFAULT_DEGREE_CAP) -> CohomologyReport:
    """Dimensions and coset representatives of ker d_degree / im d_{degree-1}."""
    check_cap(degree + 1, cap)
    # eliminate in the complex's own coordinates; lift only the representatives.
    # The coboundaries are the raw images of d_{degree-1}; complete_basis reads
    # them in the kernel basis's coordinates, so no basis of them is built.
    z = kernel(coboundary(spec, degree, tag))
    images = coboundary(spec, degree - 1, tag).transpose().rows if degree else []
    reps = lift(spec, degree, tag, complete_basis(images, z))
    dim_z = spec.dim * len(z)  # lift gives d flat rows per row
    return CohomologyReport(
        dim_cocycles=dim_z, dim_coboundaries=dim_z - len(reps),
        dim_H=len(reps), representatives=Mat(len(reps), spec.dim ** (degree + 2), reps),
    )


class DistinguishedQuotient(Record):
    __slots__ = ()
    dim_kernel: int
    dim_image: int
    dim_H: int


def _multiplier_coboundaries(spec: AlgebraSpec) -> list:
    """d_0 of the multipliers x -> x * b_w, one flat row per basis w.

    The multiplier's flat entry i*d + k is coordinate k of b_i * b_w.
    """
    d = spec.dim
    multipliers = [{i * d + k: v for i in range(d)
                    for k, v in enumerate(spec.structure[i][w]) if v}
                   for w in range(d)]
    return coboundary_images(spec, 0, multipliers)


def multiplier_quotient(spec: AlgebraSpec) -> DistinguishedQuotient:
    """ker d_1 over the d_0 image of the multipliers."""
    dim_kernel = spec.dim * len(kernel(coboundary(spec, 1, TAG_FULL)))
    dim_image = span_dim(_multiplier_coboundaries(spec))
    return DistinguishedQuotient(dim_kernel, dim_image, dim_kernel - dim_image)


# ---------------------------------------------------------------------------
# chain maps


def build_K(spec: AlgebraSpec):
    """(x1,x2,x3) -> x1*Psi(x2,x3) - x2*Psi(x1,x3), the n = 1 member of build_J_odd."""
    return build_J_odd(spec, 1)


def build_J(spec: AlgebraSpec):
    """(x1..x4) -> sum over permutations p of slots {2,3,4} of x1*x_{p2}*Psi(x_{p3},x_{p4}),
    the n = 1 member of build_J_even."""
    return build_J_even(spec, 1)


def build_J_even(spec: AlgebraSpec, n: int):
    """Arity 2n+2: sum over permutations p of slots {2..2n+2} of
    x1 * x_{p(2)} ... x_{p(2n)} * Psi(x_{p(2n+1)}, x_{p(2n+2)}).

    build_J is the n = 1 member.  The sum is symmetric in slots 2..2n+2,
    so its key is x1 and the multiset of the other slots: each tuple adds
    its own term, and the key's rows are scaled once by the number of
    permutations of slots 2..2n+2 that fix the tuple.  The tails, slots
    2..2n+2, are grouped by multiset once per build, in flat order, so no
    output tuple is sorted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d, m = spec.dim, 2 * n + 1
    size = d ** m

    def keys():
        tails = {}  # multiset of a tail -> the flat indices of its arrangements
        for tail, t in enumerate(all_tuples(d, m)):
            tails.setdefault(tuple(sorted(t)), []).append(tail)
        for x1 in range(d):
            for rest in itertools.combinations_with_replacement(range(d), m):
                yield [x1 * size + tail for tail in tails[rest]], permutation_weight(rest)

    return _chain_map(spec, 2 * n, keys(), lambda t: ((1, t // d // d, t // d % d, t % d),))


def build_J_odd(spec: AlgebraSpec, n: int):
    """Arity 2n+1: (prod_{i<=2n-2} x_i) * (x_{2n-1}Psi(x_{2n},x_{2n+1})
    - x_{2n}Psi(x_{2n-1},x_{2n+1})), each tuple its own key.

    The empty product is the unit, so n = 1 recovers build_K.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = spec.dim

    def terms(t):
        rest, c = divmod(t, d)
        head, b = divmod(rest, d)  # head: slots 1..2n-1, ending in a
        prefix, a = divmod(head, d)
        return (1, head, b, c), (-1, prefix * d + b, a, c)

    return _chain_map(spec, 2 * n - 1, (([t], 1) for t in range(d ** (2 * n + 1))), terms)


def _chain_map(spec: AlgebraSpec, length: int, keys, terms):
    """The flat operator taking arity-2 cochains Psi to arity-m ones, as a
    stream like coboundary_rows': (positions, row) for each distinct row
    once, in order of first position, the positions partitioning the
    d^{m+1} flat rows.  Row t*d + l sums coordinate l of
    w * b_{m_1}...b_{m_length} * b_c at column (a*d + b)*d + c over the
    terms (w, m, a, b) of terms(t), t and m flat tuple indices.  keys
    yields each key's tuples, in flat order, and weight, keys in order of
    first tuple: the key's d rows sum the terms of all its tuples, times
    the weight, and stand at t*d + l for each of them, so a key must only
    join tuples of equal value.
    """
    d = spec.dim
    products = {}  # m -> b_{m_1}...b_{m_length} * b_c for each c, once per build
    for tuples, weight in keys:
        block = [{} for _ in range(d)]  # the key's rows, one per output coordinate l
        for t in tuples:
            for w, m, a, b in terms(t):
                if m not in products:
                    head = index_tuple(m, d, length)
                    products[m] = [basis_product(spec, head + (c,)) for c in range(d)]
                for c, p in enumerate(products[m]):
                    col = (a * d + b) * d + c
                    for acc, v in zip(block, p):
                        if v:
                            acc[col] = acc.get(col, 0) + w * v
        flats = [t * d for t in tuples]
        for l, acc in enumerate(block):
            scale_in_place(acc, weight)
            yield [f + l for f in flats], acc


CHAIN_MAPS = ("J", "K", "Jeven", "Jodd")


def _chain_map_fn(name: str, n: int):
    """The chain map's builder and the degree its images live in; J and K
    are the n = 1 members of the Jeven and Jodd families."""
    if name in ("J", "K") and n != 1:
        raise ValueError(f"{name} is the n = 1 chain map, got n = {echo(n)}")
    if name in ("J", "Jeven"):
        return lambda spec: build_J_even(spec, n), 2 * n + 1
    if name in ("K", "Jodd"):
        return lambda spec: build_J_odd(spec, n), 2 * n
    raise ValueError(f"unknown chain map {name!r}")


def _swap_symmetric(d: int, row: dict) -> bool:
    """Whether the flat cochain row is symmetric in its last two slots:
    flat entry t*d + k moves to swap_last_two(t)*d + k."""
    return all(row.get(swap_last_two(f // d, d) * d + f % d) == v for f, v in row.items())


class CheckResult(Record):
    __slots__ = ()
    ok: bool
    witness: object = None  # reproducible by direct evaluation


class AuditReport(Record):
    __slots__ = ()
    degree: int  # the cochain degree g the images live in
    cocycle_preservation: CheckResult
    coboundary_preservation: CheckResult
    injectivity: CheckResult
    evaluator_agreement: bool


def _naive_agrees(spec: AlgebraSpec, g: int, positions, row: dict, part: dict, by_col: dict,
                  seen: bytearray) -> bool:
    """Whether part, the distinct row of d_g times the images, is the naive
    permutation sum times the images at each of the row's positions, none
    of which seen holds yet; each position is then marked seen.  The sum is
    formed once for each multiset the positions' output tuples have, and
    multiplied only where it is not the row itself."""
    d = spec.dim
    keys = {}
    for i in positions:
        if seen[i]:
            return False
        seen[i] = 1
        keys[tuple(sorted(index_tuple(i, d, g + 2)))] = None
    for key in keys:
        naive = naive_coboundary_row(spec, key)
        if naive != row and times_columns(naive, by_col) != part:
            return False
    return True


def _cocycle_check(spec: AlgebraSpec, g: int, ker_d1, images) -> tuple:
    """Cocycle preservation, with its witness, and evaluator agreement, for
    the degree-g images of ker d_1: each must be killed by d_g.  At odd g
    only the first image not symmetric in its last two slots is checked.

    One pass over d_g's distinct rows forms each row's product with every
    checked image at once and keeps, per image, only its first nonzero
    entry.  At even g the pass also compares each product with the naive
    permutation sum at every position of the row, and a position that the
    stream skips or repeats is a disagreement, so every output tuple is
    compared.  No d_g image is formed."""
    d = spec.dim
    checked = range(len(images))
    if g % 2:
        checked = [j for j in checked if not _swap_symmetric(d, images[j])][:1]
    by_col = index_columns(d, [images[j] for j in checked])
    even = g % 2 == 0
    seen = bytearray(d ** (g + 2) if even else 0)
    first = {}  # checked index -> (flat, value) of its d_g image's first nonzero entry
    agreement = True
    for positions, row in coboundary_rows(spec, g) if even or checked else ():
        part = times_columns(row, by_col)
        at = positions[0] * d
        for jk, v in part.items():
            j, k = divmod(jk, d)
            if j not in first or at + k < first[j][0]:
                first[j] = at + k, v
        if even and agreement:
            agreement = _naive_agrees(spec, g, positions, row, part, by_col, seen)
    agreement = agreement and 0 not in seen
    if not first:
        return CheckResult(True), agreement
    j = min(first)
    flat, value = first[j]
    return CheckResult(False, {
        "input": ker_d1[checked[j]], "tuple_flat": flat // d, "coord": flat % d, "value": value,
    }), agreement


def audit_chain_map(spec: AlgebraSpec, map_name: str, n: int = 1,
                    cap: int = DEFAULT_DEGREE_CAP) -> AuditReport:
    """Measure cocycle/coboundary preservation and injectivity of a chain map.

    The audited spaces are fixed by the image arity (the unique type-correct
    choice).  Verdicts are measured, never assumed, and evaluator agreement
    compares every output tuple of the degree-g images.

    For odd g >= 3, d_g P = 0 exactly when P is symmetric in its last two
    slots: putting x1 = e in d_g P(x1, ..) = P(x1x2, .., x, y) - P(x1x2, .., y, x)
    gives the symmetry, which in turn makes the difference vanish.  So an
    odd g applies d_g only to the first image that is not symmetric, and
    its witness is d_g's first nonzero entry as in even g.  The spec must
    be lawful, as the CLI's are.  ker d_1 and the multiplier coboundaries
    are mapped together as the chain map's rows stream past, so the chain
    map is never held.  d_g is streamed once, and each of its distinct
    rows is multiplied by every checked image at once, so no d_g image is
    formed; at even g the naive permutation sum of the row's multiset is
    formed and compared there.  Each image is then reduced on its own
    modulo im d_{g-1}; the multiplier images are dropped once checked, and
    each reduced image of ker d_1 goes into one tagged echelon, which gives
    the injectivity kernel, and is dropped.
    """
    fn, g = _chain_map_fn(map_name, n)  # image lives in degree g
    chain = fn(spec)  # a stream, drawn below; a builder rejects n < 1 here
    check_cap(g + 1, cap)
    d = spec.dim

    ker_d1 = cocycle_space(spec, 1, TAG_FULL)
    mult_ech = Echelon(_multiplier_coboundaries(spec))
    mult_rows = mult_ech.rows()
    images = index_images(1, chain, ker_d1 + mult_rows)
    r = len(ker_d1)
    cocycle, agreement = _cocycle_check(spec, g, ker_d1, images[:r])

    # reduce by (im d_{g-1}) (x) I_d one output coordinate at a time: linear,
    # and zero exactly on im d_{g-1}
    space = ColumnSpace(coboundary_rows(spec, g - 1), d ** (g + 1), d ** g)

    def reduced(image):
        parts = [{} for _ in range(d)]  # output coordinate k -> index-level part
        for col, v in image.items():
            c, k = divmod(col, d)
            parts[k][c] = v
        return {c * d + k: v for k, p in enumerate(parts) for c, v in space.reduce(p).items()}

    # coboundary preservation: images of d_0(multipliers) must lie in im d_{g-1}
    failed = next(((row, image) for row, image in zip(mult_rows, images[r:]) if reduced(image)),
                  None)
    cobound = CheckResult(True) if failed is None else \
        CheckResult(False, {"input": failed[0], "image": failed[1]})
    del images[r:]

    # injectivity: {v in ker d_1 : image(v) in im d_{g-1}} must lie in d_0(multipliers).
    # That set is the kernel of the reduced images, read as columns.
    def reduced_images():
        for j in range(r):
            image, images[j] = images[j], None  # each image is dropped once reduced
            yield reduced(image)

    injective = CheckResult(True)
    for kvec in column_kernel(reduced_images(), r, d ** (g + 2)):
        acc = {}
        for j, c in kvec.items():
            axpy(acc, c, ker_d1[j])
        if not mult_ech.contains(acc):
            injective = CheckResult(False, {"cocycle": acc})
            break

    return AuditReport(
        degree=g, cocycle_preservation=cocycle,
        coboundary_preservation=cobound, injectivity=injective,
        evaluator_agreement=agreement,
    )
