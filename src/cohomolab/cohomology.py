"""Cocycle and coboundary spaces, cohomology reports, the multiplier quotient,
chain maps.

Every degree here is a cochain degree: the degree-z group is
ker d_z / im d_{z-1}, and its cocycles are (z+1)-linear.

A chain map is one sparse Mat on flat cochains, like the coboundary, and
an audit maps all its cochains, ker d_1 and the multiplier coboundaries,
by one product (Mat.images) and reduces them by one call.
"""

from functools import lru_cache

from .algebra import AlgebraSpec, basis_product
from .fileformat import echo
from .linalg import Mat, Echelon, Record, axpy, complete_basis, kernel, span_dim
from .multilinear import all_tuples
from .complex import (
    DEFAULT_DEGREE_CAP, TAG_FULL, arrangements, check_cap,
    coboundary, coboundary_images, lift, naive_coboundary_images, per_coordinate,
    swap_last_two,
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
    so it runs once per multiset of their indices, over its distinct
    arrangements, each weighted by how many permutations give it.
    """
    def terms(t):
        perms, weight = arrangements(t[1:])
        for p in perms:
            yield weight, (t[0],) + p[:2 * n - 1], p[2 * n - 1:]

    return _chain_map(spec, n, 2 * n + 2, terms,
                      key=lambda t: (t[0],) + tuple(sorted(t[1:])))


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


def _chain_map(spec: AlgebraSpec, n: int, arity: int, terms, key=lambda t: t) -> Mat:
    """The Mat taking flat arity-2 cochains Psi to arity-`arity` ones: the
    value at the basis tuple t sums w * b_{m_1}...b_{m_k} * Psi(b_a, b_b)
    over the terms (w, m, (a, b)) of terms(key(t)), so row t*d + l holds
    coordinate l of w * b_{m_1}...b_{m_k} * b_c at column (a*d + b)*d + c.

    The d rows of a key are built in one pass over its terms, and tuples
    with equal key share those row objects, so key must only join tuples
    on which the family's sum is equal.
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
            accs = [{} for _ in range(d)]
            for w, m, (a, b) in terms(k):
                for c, p in enumerate(products(m)):
                    col = (a * d + b) * d + c
                    for acc, v in zip(accs, p):
                        if v:
                            acc[col] = acc.get(col, 0) + w * v
            block = blocks[k] = [{c: v for c, v in acc.items() if v} for acc in accs]
        rows += block
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
    path's, at every output tuple.  Only even g has a permutation sum to
    check; odd g returns True."""
    return g % 2 == 1 or naive_coboundary_images(spec, g, rows) == images


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
    are mapped by one product and reduced by one call.
    """
    fn, g = _chain_map_fn(map_name, n)  # image lives in degree g
    check_cap(g + 1, cap)
    d = spec.dim

    chain = fn(spec)
    ker_d1 = cocycle_space(spec, 1, TAG_FULL)
    mult_ech = Echelon(_multiplier_coboundaries(spec))
    mult_rows = mult_ech.rows()
    images = chain.images(ker_d1 + mult_rows)
    img_rows, mult_images = images[:len(ker_d1)], images[len(ker_d1):]

    # cocycle preservation: images of ker d_1 must be killed by d_g.  At odd
    # g only the first image not symmetric in its last two slots is checked
    checked = range(len(img_rows))
    if g % 2:
        checked = [j for j in checked if not _swap_symmetric(d, img_rows[j])][:1]
    dd_rows = coboundary_images(spec, g, [img_rows[j] for j in checked])
    cocycle = CheckResult(True)
    for j, dd in zip(checked, dd_rows):
        if dd:
            first = min(dd)
            flat, coord = divmod(first, d)
            cocycle = CheckResult(False, {
                "input": ker_d1[j], "tuple_flat": flat, "coord": coord, "value": dd[first],
            })
            break
    agreement = _evaluator_agreement(spec, g, img_rows, dd_rows)

    # one index-level echelon of im d_{g-1}, fed the raw index-level images of d_{g-1}
    b_ech = Echelon(coboundary(spec, g - 1, TAG_FULL).transpose().rows)

    # reduce by (im d_{g-1}) (x) I_d, whose reduced echelon basis is b_ech's
    # rows (x) e_k: it equals the lifted rows' echelon reduce entry for entry.
    # It is linear and zero exactly on im d_{g-1}.
    reduced = per_coordinate(d, images, lambda parts: [b_ech.reduce(p) for p in parts])

    # coboundary preservation: images of d_0(multipliers) must lie in im d_{g-1}
    cobound = CheckResult(True)
    for row, img_flat, left in zip(mult_rows, mult_images, reduced[len(ker_d1):]):
        if left:
            cobound = CheckResult(False, {"input": row, "image": img_flat})
            break

    # injectivity: {v in ker d_1 : image(v) in im d_{g-1}} must lie in d_0(multipliers).
    # That set is the kernel of the reduced images.
    injective = CheckResult(True)
    for kvec in kernel(Mat.from_columns(d ** (g + 2), reduced[:len(ker_d1)])):
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
