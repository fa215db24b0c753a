"""Finite-dimensional commutative unital algebras over Q, from structure constants.

An algebra is a dimension d, a structure tensor c[i][j] giving the product
of basis elements b_i * b_j as a coordinate vector, and a unit element.
Two constructors cover the representable families: number fields Q[t]/(p)
in the power basis, and atomic pointwise algebras (idempotent atoms,
all-ones unit) carrying the lattice order.  A spec is the structure
alone; `assess_domain` derives, once per algebra, what is proved of its
shape: whether it is a domain, or unchecked where no exact rule decides,
and, when it is a product of number fields, the rational roots of a
primitive element's minimal polynomial, which count its factors Q.
Nothing here samples.
"""

from functools import lru_cache
from math import isqrt

from .linalg import Echelon, Mat, Record, div, kernel, scalar

Element = tuple  # exact scalars: an int when integral, else a Fraction, never a float

ORDER_NONE = "none"
ORDER_ATOMIC = "atomic"

DOMAIN_ASSERTED = "asserted"
DOMAIN_REFUTED = "refuted"
DOMAIN_UNCHECKED = "unchecked"


class ShapeError(ValueError):
    """Structure tensor has the wrong shape."""


def zero_element(d: int) -> Element:
    return (0,) * d


def basis_element(d: int, i: int) -> Element:
    return tuple(1 if j == i else 0 for j in range(d))


class AlgebraSpec(Record):
    __slots__ = ()
    name: str
    dim: int
    structure: tuple  # structure[i][j] = Element, the product b_i * b_j
    unit: Element
    order_mode: str = ORDER_NONE


class Domain(Record):
    __slots__ = ()
    status: str  # asserted | refuted | unchecked
    roots: tuple  # see assess_domain; None exactly on a singular trace form


class Violation(Record):
    __slots__ = ()
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


def build_number_field(min_poly, name: str = "") -> AlgebraSpec:
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
    return AlgebraSpec(
        name=name or f"numberfield_deg{d}",
        dim=d,
        structure=structure,
        unit=basis_element(d, 0),
        order_mode=ORDER_NONE,
    )


def build_atomic(d: int, name: str = "") -> AlgebraSpec:
    """Pointwise algebra on d atoms: b_i b_j = delta_ij b_i, unit all-ones."""
    if d < 1:
        raise ValueError("atomic algebra needs at least one atom")
    zero = zero_element(d)  # one tuple for every off-diagonal cell
    structure = tuple(
        tuple(basis_element(d, i) if i == j else zero for j in range(d))
        for i in range(d)
    )
    return AlgebraSpec(
        name=name or f"atomic_{d}",
        dim=d,
        structure=structure,
        unit=(1,) * d,
        order_mode=ORDER_ATOMIC,
    )


def rational_roots(m: list) -> tuple:
    """The rational roots, in increasing order, of the squarefree integer
    polynomial m (ascending, m[-1] != 0), by p-adic lifting (Loos 1983):
    u/a for the integer roots u of the monic M(u) = a^(d-1) m(u/a), where
    a = m[-1], d = deg m and |u| < B = 1 + max|M_i| (Cauchy).  At the first
    odd prime p where every root of M mod p is simple, Newton's step lifts
    each until p^k > 2B; the symmetric residues that are roots of M are
    the u.  A rejected p divides disc M, which is at most d^d·||M||^(2d-1)
    (Hadamard, 2-norm) when nonzero: once the product of the rejected
    primes passes that, m is not squarefree, a ValueError.
    """
    a, d = m[-1], len(m) - 1
    monic = [c * a ** (d - 1 - i) for i, c in enumerate(m[:-1])] + [1]  # M
    deriv = [i * c for i, c in enumerate(monic)][1:]  # M'

    def at(f, u):
        return sum(c * u ** i for i, c in enumerate(f))

    bound2, rejected, p = d ** (2 * d) * sum(c * c for c in monic) ** (2 * d - 1), 1, 1
    while True:
        p += 2
        if any(p % k == 0 for k in range(3, isqrt(p) + 1, 2)):
            continue
        roots = [r for r in range(p) if at(monic, r) % p == 0]
        if all(at(deriv, r) % p for r in roots):
            break
        rejected *= p
        if rejected ** 2 > bound2:  # the square of Hadamard's bound
            raise ValueError("m is not squarefree")
    q = p
    while q <= 2 * (1 + max(map(abs, monic[:-1]))):
        q *= q
        roots = [(r - at(monic, r) * pow(at(deriv, r), -1, q)) % q for r in roots]
    residues = [r - q if 2 * r > q else r for r in roots]
    return tuple(sorted(div(u, a) for u in residues if not at(monic, u)))


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


@lru_cache(maxsize=None)
def assess_domain(spec: AlgebraSpec) -> Domain:
    """The domain status, decided only by proof, and, on an étale spec,
    the rational roots.

    In characteristic 0 a singular trace form Tr(b_i b_j) means A is not
    reduced, so a nilpotent refutes domain-hood exactly.  A nonsingular one
    makes A étale: a product of number fields, isomorphic to Q[t]/(m) for
    the minimal polynomial m of a primitive element, with one field per
    irreducible factor of m.  So at d >= 2 a rational root refutes, as does
    a zero basis product b_i b_j (the atoms of an atomic order).  At d = 1
    a lawful unital algebra is Q, and no root proves a field at d <= 3,
    where a reducible m has a linear factor.  The rest stays unchecked: a
    rootless d >= 4, which may be two quadratic fields.  The roots are None
    exactly on a singular trace form.  Both fields mean something only on a
    lawful spec.
    """
    d = spec.dim
    trace = [sum(spec.structure[l][k][k] for k in range(d)) for l in range(d)]  # of x -> b_l x
    form = Echelon({j: v for j, e in enumerate(row)  # Tr(b_i b_j)
                    if (v := sum(a * t for a, t in zip(e, trace)))} for row in spec.structure)
    roots = rational_roots(primitive_minimal_polynomial(spec)) if form.rank == d else None
    zero_product = any(not any(e) for row in spec.structure for e in row)
    if form.rank < d or (d > 1 and (roots or zero_product)):
        status = DOMAIN_REFUTED
    elif d == 1 or (roots == () and d <= 3):
        status = DOMAIN_ASSERTED
    else:
        status = DOMAIN_UNCHECKED
    return Domain(status, roots)
