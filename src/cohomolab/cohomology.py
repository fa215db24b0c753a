"""Cocycle and coboundary spaces, cohomology reports, the multiplier quotient,
chain maps.

Every degree here is a cochain degree: the degree-z group is
ker d_z / im d_{z-1}, and its cocycles are (z+1)-linear.

A chain map is one sparse Mat on flat cochains, like the coboundary, and
an audit maps all its cochains, ker d_1 and the multiplier coboundaries,
by one product (Mat.images).  It then takes them one at a time: the
naive evaluator forms one image's d_g when the comparison draws it, and
each image is reduced modulo im d_{g-1}, on the distinct rows that
d_{g-1}'s stream yields, to the one vector the checks keep.
"""

from functools import lru_cache

from .algebra import AlgebraSpec, basis_product
from .fileformat import echo
from .linalg import (
    ColumnSpace, Mat, Echelon, Record, axpy, complete_basis, kernel, scale_in_place, span_dim,
)
from .multilinear import all_tuples
from .complex import (
    DEFAULT_DEGREE_CAP, TAG_FULL, check_cap, coboundary, coboundary_images, coboundary_rows,
    lift, naive_coboundary_images, permutation_weight, swap_last_two,
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
    per_row = len(lift(spec, degree, tag, [{}]))  # flat rows per coordinate row
    reps = lift(spec, degree, tag, complete_basis(images, z))
    dim_z = per_row * len(z)
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


def build_K(spec: AlgebraSpec) -> Mat:
    """(x1,x2,x3) -> x1*Psi(x2,x3) - x2*Psi(x1,x3), the n = 1 member of build_J_odd."""
    return build_J_odd(spec, 1)


def build_J(spec: AlgebraSpec) -> Mat:
    """(x1..x4) -> sum over permutations p of slots {2,3,4} of x1*x_{p2}*Psi(x_{p3},x_{p4}),
    the n = 1 member of build_J_even."""
    return build_J_even(spec, 1)


def build_J_even(spec: AlgebraSpec, n: int) -> Mat:
    """Arity 2n+2: sum over permutations p of slots {2..2n+2} of
    x1 * x_{p(2)} ... x_{p(2n)} * Psi(x_{p(2n+1)}, x_{p(2n+2)}).

    build_J is the n = 1 member.  The sum is symmetric in slots 2..2n+2,
    so its key is x1 and the multiset of the other slots: each tuple adds
    its own term, and the key's rows are scaled once by the number of
    permutations of slots 2..2n+2 that fix the tuple.
    """
    return _chain_map(spec, n, 2 * n + 2,
                      lambda t: ((1, t[:2 * n], t[2 * n:]),),
                      key=lambda t: (t[0],) + tuple(sorted(t[1:])),
                      weight=lambda k: permutation_weight(k[1:]))


def build_J_odd(spec: AlgebraSpec, n: int) -> Mat:
    """Arity 2n+1: (prod_{i<=2n-2} x_i) * (x_{2n-1}Psi(x_{2n},x_{2n+1})
    - x_{2n}Psi(x_{2n-1},x_{2n+1})).

    The empty product is the unit, so n = 1 recovers build_K.
    """
    def terms(t):
        a, b, c = t[2 * n - 2:]
        return ((1, t[:2 * n - 2] + (a,), (b, c)),
                (-1, t[:2 * n - 2] + (b,), (a, c)))

    return _chain_map(spec, n, 2 * n + 1, terms)


def _chain_map(spec: AlgebraSpec, n: int, arity: int, terms,
               key=lambda t: t, weight=lambda k: 1) -> Mat:
    """The Mat taking flat arity-2 cochains Psi to arity-`arity` ones: the
    value at the basis tuple t sums w * b_{m_1}...b_{m_k} * Psi(b_a, b_b)
    over the terms (w, m, (a, b)) of terms(t) and of every tuple with t's
    key, times weight(key(t)), so row t*d + l holds coordinate l of
    w * b_{m_1}...b_{m_k} * b_c at column (a*d + b)*d + c.

    Tuples with equal key share one block of d rows, one per output
    coordinate: every tuple adds its terms into its key's block, and once
    all are in each block is scaled by its weight.  So key must only join
    tuples on which the family's sum is equal.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = spec.dim

    @lru_cache(maxsize=None)
    def products(m):  # b_{m_1}...b_{m_k} * b_c for each c, once per build
        return [basis_product(spec, m + (c,)) for c in range(d)]

    blocks = {}  # key -> its d rows, one per output coordinate l
    rows = []
    for t in all_tuples(d, arity):
        k = key(t)
        block = blocks.get(k)
        if block is None:
            block = blocks[k] = [{} for _ in range(d)]
        for w, m, (a, b) in terms(t):
            for c, p in enumerate(products(m)):
                col = (a * d + b) * d + c
                for acc, v in zip(block, p):
                    if v:
                        acc[col] = acc.get(col, 0) + w * v
        rows += block
    for k, block in blocks.items():
        w = weight(k)
        for acc in block:
            scale_in_place(acc, w)
    return Mat(len(rows), d ** 3, rows)


CHAIN_MAPS = ("J", "K", "Jeven", "Jodd")


def _chain_map_fn(name: str, n: int):
    """The chain map's builder and the degree its images live in.

    J and K are the n = 1 members of the Jeven and Jodd families.
    """
    if name in ("J", "K") and n != 1:
        raise ValueError(f"{name} is the n = 1 chain map, got n = {echo(n)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if name in ("J", "Jeven"):
        return lambda spec: build_J_even(spec, n), 2 * n + 1
    if name in ("K", "Jodd"):
        return lambda spec: build_J_odd(spec, n), 2 * n
    raise ValueError(f"unknown chain map {name!r}")


def _evaluator_agreement(spec: AlgebraSpec, g: int, rows, images) -> bool:
    """Whether the naive evaluator gives d_g of rows as images, the fast
    path's, at every output tuple, compared one row at a time.  Only even g
    has a permutation sum to check; odd g returns True."""
    return g % 2 == 1 or all(
        a == b for a, b in zip(naive_coboundary_images(spec, g, rows), images))


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


def _cocycle_check(spec: AlgebraSpec, g: int, ker_d1, images) -> tuple:
    """Cocycle preservation, with its witness, and evaluator agreement, for
    the degree-g images of ker d_1: each must be killed by d_g.  At odd g
    only the first image not symmetric in its last two slots is checked.
    The d_g images are dropped when it returns."""
    d = spec.dim
    checked = range(len(images))
    if g % 2:
        checked = [j for j in checked if not _swap_symmetric(d, images[j])][:1]
    dd_rows = coboundary_images(spec, g, [images[j] for j in checked])
    cocycle = CheckResult(True)
    for j, dd in zip(checked, dd_rows):
        if dd:
            first = min(dd)
            flat, coord = divmod(first, d)
            cocycle = CheckResult(False, {
                "input": ker_d1[j], "tuple_flat": flat, "coord": coord, "value": dd[first],
            })
            break
    return cocycle, _evaluator_agreement(spec, g, images, dd_rows)


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
    are mapped by one product, and the chain map is dropped after it.  At
    even g the naive evaluator's d_g images are formed and compared one at
    a time.  Each image is then reduced on its own modulo im d_{g-1}, and
    only the reduced vectors of ker d_1's images are kept, for the
    injectivity kernel over the coordinates they use.
    """
    fn, g = _chain_map_fn(map_name, n)  # image lives in degree g
    check_cap(g + 1, cap)
    d = spec.dim

    ker_d1 = cocycle_space(spec, 1, TAG_FULL)
    mult_ech = Echelon(_multiplier_coboundaries(spec))
    mult_rows = mult_ech.rows()
    images = fn(spec).images(ker_d1 + mult_rows)
    img_rows, mult_images = images[:len(ker_d1)], images[len(ker_d1):]

    cocycle, agreement = _cocycle_check(spec, g, ker_d1, img_rows)

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
    cobound = CheckResult(True)
    for row, img_flat in zip(mult_rows, mult_images):
        if reduced(img_flat):
            cobound = CheckResult(False, {"input": row, "image": img_flat})
            break

    # injectivity: {v in ker d_1 : image(v) in im d_{g-1}} must lie in d_0(multipliers).
    # That set is the kernel of the reduced images, read as columns over the
    # coordinates where any of them is nonzero.
    by_coord = {}  # coordinate -> {j: entry of reduced image j}
    for j, img in enumerate(img_rows):
        for c, v in reduced(img).items():
            by_coord.setdefault(c, {})[j] = v
    injective = CheckResult(True)
    for kvec in kernel(Mat(len(by_coord), len(ker_d1), list(by_coord.values()))):
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
