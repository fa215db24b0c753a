"""Finite-dimensional commutative unital algebras over Q, from structure constants.

An algebra is a dimension d, a structure tensor c[i][j] giving the product
of basis elements b_i * b_j as a coordinate vector, and a unit element.
Two constructors cover the representable families: number fields Q[t]/(p)
in the power basis, and atomic pointwise algebras (idempotent atoms,
all-ones unit) carrying the lattice order.  `assess_domain` attaches what
is known of the algebra's shape: whether it is a domain, and, when it is a
product of number fields, the rational roots of a primitive element's
minimal polynomial, which count its factors Q.
"""

from math import isqrt
from typing import NamedTuple

from .linalg import Echelon, Mat, div, kernel, scalar
from .rng import Lcg64

Element = tuple  # exact scalars: an int when integral, else a Fraction, never a float

ORDER_NONE = "none"
ORDER_ATOMIC = "atomic"

DOMAIN_ASSERTED = "asserted"
DOMAIN_REFUTED = "refuted"
DOMAIN_UNCHECKED = "unchecked"

ROOT_SEARCH_STEPS = 10_000  # the budget of rational_roots above degree 2


class ShapeError(ValueError):
    """Structure tensor has the wrong shape."""


def zero_element(d: int) -> Element:
    return (0,) * d


def basis_element(d: int, i: int) -> Element:
    return tuple(1 if j == i else 0 for j in range(d))


def is_zero(x: Element) -> bool:
    return not any(x)


class AlgebraSpec(NamedTuple):
    name: str
    dim: int
    structure: tuple  # structure[i][j] = Element, the product b_i * b_j
    unit: Element
    order_mode: str = ORDER_NONE
    domain_status: str = DOMAIN_UNCHECKED
    rational_roots: tuple = None  # see assess_domain; None unless known


class Violation(NamedTuple):
    law: str  # commutativity | associativity | unit | atomic
    indices: tuple
    detail: str


def _check_shape(spec: AlgebraSpec):
    d = spec.dim
    if d < 1:
        raise ShapeError("dim must be >= 1")
    if len(spec.structure) != d:
        raise ShapeError(f"structure has {len(spec.structure)} rows, expected {d}")
    for i, row in enumerate(spec.structure):
        if len(row) != d:
            raise ShapeError(f"structure row {i} has {len(row)} entries, expected {d}")
        for j, e in enumerate(row):
            if len(e) != d:
                raise ShapeError(f"structure entry ({i},{j}) has length {len(e)}, expected {d}")
    if len(spec.unit) != d:
        raise ShapeError(f"unit has length {len(spec.unit)}, expected {d}")


def multiply(spec: AlgebraSpec, x: Element, y: Element) -> Element:
    """Bilinear expansion sum_{i,j} x_i y_j c[i][j]."""
    d = spec.dim
    if len(x) != d or len(y) != d:
        raise ValueError("element dimension mismatch")
    out = [0] * d
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = spec.structure[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            cij = row[j]
            f = xi * yj
            for k, ck in enumerate(cij):
                if ck:
                    out[k] += f * ck
    return tuple(out)


def basis_product(spec: AlgebraSpec, idx: tuple) -> Element:
    """b_{i_1} ... b_{i_m} multiplied left to right; the unit when idx is empty."""
    acc = spec.unit
    for i in idx:
        acc = multiply(spec, acc, basis_element(spec.dim, i))
    return acc


def validate_algebra(spec: AlgebraSpec) -> list:
    """All violated algebra laws, each with a witnessing index tuple."""
    _check_shape(spec)
    d = spec.dim
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            if spec.structure[i][j] != spec.structure[j][i]:
                out.append(Violation("commutativity", (i, j),
                                     f"c[{i}][{j}] != c[{j}][{i}]"))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = multiply(spec, spec.structure[i][j], basis_element(d, k))
                right = multiply(spec, basis_element(d, i), spec.structure[j][k])
                if left != right:
                    out.append(Violation("associativity", (i, j, k),
                                         f"(b{i}b{j})b{k} != b{i}(b{j}b{k})"))
    for i in range(d):
        if multiply(spec, spec.unit, basis_element(d, i)) != basis_element(d, i):
            out.append(Violation("unit", (i,), f"e*b{i} != b{i}"))
    if spec.order_mode == ORDER_ATOMIC:
        for i in range(d):
            for j in range(d):
                want = basis_element(d, i) if i == j else zero_element(d)
                if spec.structure[i][j] != want:
                    out.append(Violation("atomic", (i, j),
                                         f"atomic law fails at c[{i}][{j}]"))
        if spec.unit != (1,) * d:
            out.append(Violation("atomic", (), "atomic unit must be all-ones"))
    return out


def build_number_field(min_poly, name: str = "", trials: int = 64, seed: int = 0) -> AlgebraSpec:
    """Q[t]/(p) in the power basis 1, t, ..., t^{d-1}.

    min_poly is the coefficient list of p in ascending degree order,
    including the leading coefficient, which must be 1.
    """
    coeffs = [scalar(c) for c in min_poly]
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("minimal polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    # powers[k] = coordinates of t^k, k up to 2d-2, via the companion recurrence
    powers = [basis_element(d, k) for k in range(d)]
    for _ in range(d, 2 * d - 1):
        prev = powers[-1]
        shifted = [0] + list(prev[: d - 1])
        top = prev[d - 1]
        nxt = [shifted[k] - top * coeffs[k] for k in range(d)]
        powers.append(tuple(nxt))
    structure = tuple(
        tuple(powers[i + j] for j in range(d)) for i in range(d)
    )
    spec = AlgebraSpec(
        name=name or f"numberfield_deg{d}",
        dim=d,
        structure=structure,
        unit=basis_element(d, 0),
        order_mode=ORDER_NONE,
    )
    return assess_domain(spec, trials=trials, seed=seed)


def build_atomic(d: int, name: str = "") -> AlgebraSpec:
    """Pointwise algebra on d atoms: b_i b_j = delta_ij b_i, unit all-ones."""
    if d < 1:
        raise ValueError("atomic algebra needs at least one atom")
    structure = tuple(
        tuple(basis_element(d, i) if i == j else zero_element(d) for j in range(d))
        for i in range(d)
    )
    return assess_domain(AlgebraSpec(
        name=name or f"atomic_{d}",
        dim=d,
        structure=structure,
        unit=(1,) * d,
        order_mode=ORDER_ATOMIC,
    ))


def zero_divisor_falsifier(spec: AlgebraSpec, trials: int = 64, seed: int = 0):
    """Search for nonzero x, y with x*y = 0.

    Checks all basis pairs, then `trials` pseudorandom pairs with
    coordinates in [-8, 8].  Returns the witness pair or None; None is
    refutation-only evidence, not a proof of domain-hood.
    """
    d = spec.dim
    for i in range(d):
        for j in range(d):
            if is_zero(spec.structure[i][j]):
                return (basis_element(d, i), basis_element(d, j))
    rng = Lcg64(seed)
    for _ in range(trials):
        x = tuple(rng.randint(-8, 8) for _ in range(d))
        y = tuple(rng.randint(-8, 8) for _ in range(d))
        if is_zero(x) or is_zero(y):
            continue
        if is_zero(multiply(spec, x, y)):
            return (x, y)
    return None


def rational_roots(m: list):
    """The rational roots, in increasing order, of the integer polynomial m
    (ascending, m[-1] != 0), or None if finding them would take more than
    ROOT_SEARCH_STEPS steps.

    At degree <= 2 the roots are exact at any size, with no search: a
    quadratic a t^2 + b t + c has rational roots exactly when its
    discriminant b^2 - 4ac is a square s^2, and they are (-b ± s) / 2a.
    Above, a nonzero root p/q in lowest terms has p | m_low, the lowest
    nonzero coefficient, and q | m_d.  Their divisors are found by trial
    division up to the square root, a step per trial, and each candidate
    ±p/q is a step more.  Both counts are known before the search, which
    starts only within budget, so a coefficient of 40 digits costs nothing.
    """
    if len(m) == 2:
        return (div(-m[0], m[1]),)
    if len(m) == 3:
        c, b, a = m
        disc = b * b - 4 * a * c
        s = isqrt(max(disc, 0))
        if s * s != disc:
            return ()
        return tuple(sorted({div(-b - s, 2 * a), div(-b + s, 2 * a)}))
    ends = (abs(next(c for c in m if c)), abs(m[-1]))
    steps = sum(map(isqrt, ends))
    if steps > ROOT_SEARCH_STEPS:
        return None
    tops, bottoms = ({k for i in range(1, isqrt(n) + 1) if n % i == 0 for k in (i, n // i)}
                     for n in ends)
    if steps + 2 * len(tops) * len(bottoms) > ROOT_SEARCH_STEPS:
        return None
    candidates = {div(s * p, q) for p in tops for q in bottoms for s in (1, -1)} | {0}
    return tuple(sorted(r for r in candidates if not sum(c * r ** i for i, c in enumerate(m))))


def primitive_minimal_polynomial(spec: AlgebraSpec) -> list:
    """The integer minimal polynomial m, ascending, of a primitive element
    x of an étale spec: b_1, or else the first primitive x_k = sum_j k^j b_j.

    x is primitive when the kernel of [1 x ... x^d] is one row, m.  Two
    embeddings into C agree on x_k at the roots in k of a nonzero
    polynomial of degree < d, so one of k = 0, ..., (d-1)·C(d,2) is primitive.
    """
    d = spec.dim
    tries = [basis_element(d, 1)] if d > 1 else []
    tries += [tuple(k ** j for j in range(d)) for k in range((d - 1) ** 2 * d // 2 + 1)]
    for x in tries:
        powers = [spec.unit]
        for _ in range(d):
            powers.append(multiply(spec, powers[-1], x))
        rows = kernel(Mat.from_columns(d, [{i: v for i, v in enumerate(p) if v}
                                           for p in powers]))
        if len(rows) == 1:
            return [rows[0].get(j, 0) for j in range(d + 1)]


def assess_domain(spec: AlgebraSpec, trials: int = 64, seed: int = 0) -> AlgebraSpec:
    """Attach the domain status and, on an étale spec, the rational roots.

    In characteristic 0 a singular trace form Tr(b_i b_j) means A is not
    reduced, so a nilpotent refutes domain-hood exactly.  A nonsingular one
    makes A étale: a product of number fields, isomorphic to Q[t]/(m) for
    the minimal polynomial m of a primitive element, with one field per
    irreducible factor of m.  So a rational root refutes domain-hood at
    d >= 2, and no root proves a field at d <= 3, where a reducible m has
    a linear factor.  The falsifier, which can only refute, decides the
    rest: an atomic order (its atoms prove the algebra split), a root
    search past its budget (only at d >= 3; rational_roots stays None)
    and a rootless d >= 4, which may be two quadratic fields.  This is the
    only code that sets either field; both mean something only on a lawful
    spec.
    """
    d = spec.dim
    trace = [sum(spec.structure[l][k][k] for k in range(d)) for l in range(d)]  # of x -> b_l x
    form = Echelon({j: v for j, e in enumerate(row)  # Tr(b_i b_j)
                    if (v := sum(a * t for a, t in zip(e, trace)))} for row in spec.structure)
    roots = None
    if form.rank == d and spec.order_mode != ORDER_ATOMIC:
        roots = rational_roots(primitive_minimal_polynomial(spec))
    refuted = form.rank < d or (d > 1 and bool(roots))
    if not refuted and (roots is None or d >= 4):
        refuted = zero_divisor_falsifier(spec, trials=trials, seed=seed) is not None
    return spec._replace(domain_status=DOMAIN_REFUTED if refuted else DOMAIN_ASSERTED,
                         rational_roots=roots)
