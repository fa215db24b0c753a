"""Test-only references: plain helpers that the package itself never needs.

Each is written directly from its definition, so a test can check the
package against it.
"""

import itertools
from fractions import Fraction

from cohomolab.algebra import (
    ORDER_ATOMIC, AlgebraSpec, Element, basis_element, basis_product, multiply,
)
from cohomolab.cohomology import CheckResult, cocycle_space
from cohomolab.complex import (
    TAG_BAND, TAG_FULL, _term_indices, apply_d, coboundary, coboundary_images, index_images,
    lift, naive_coboundary_row, tag_coords,
)
from cohomolab.fileformat import echo
from cohomolab.linalg import Mat, axpy, row_to_primitive, scalar
from cohomolab.multilinear import MultilinearMap, all_tuples, from_flat, tuple_index
from cohomolab.operators import NO, UNKNOWN, YES, OperatorVerdict


# sample_elements draws from this generator, so that its elements are
# bit-reproducible across platforms and Python versions.  Multiplier and
# increment are Knuth's MMIX constants.
_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg64:
    """x_{k+1} = (a*x_k + c) mod 2^64, seeded explicitly."""

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; span must be tiny vs 2^64."""
        span = hi - lo + 1
        return lo + (self.next_u64() >> 16) % span


def add(x: Element, y: Element) -> Element:
    return tuple(a + b for a, b in zip(x, y))


def coeff(m: MultilinearMap, idx: tuple) -> Element:
    """The value of m on the basis tuple idx."""
    base = tuple_index(idx, m.dim) * m.dim
    return tuple(m.vec.get(base + k, 0) for k in range(m.dim))


def evaluate(m: MultilinearMap, args) -> Element:
    """m at the arguments args, by multilinear expansion over the stored entries."""
    if len(args) != m.arity:
        raise ValueError(f"expected {m.arity} arguments, got {len(args)}")
    d = m.dim
    for a in args:
        if len(a) != d:
            raise ValueError("argument dimension mismatch")
    out = [0] * d
    for flat, c in m.vec.items():
        rest, k = divmod(flat, d)
        # the last slot's index is the least significant digit
        for a in reversed(args):
            rest, i = divmod(rest, d)
            c *= a[i]
            if not c:
                break
        else:
            out[k] += c
    return tuple(out)


def is_zero(m: MultilinearMap) -> bool:
    return not m.vec


def from_coeff_function(spec: AlgebraSpec, arity: int, fn) -> MultilinearMap:
    """Build a cochain from its values on basis tuples."""
    d = spec.dim
    vec = {}
    for flat, idx in enumerate(all_tuples(d, arity)):
        for k, c in enumerate(fn(idx)):
            if c:
                vec[flat * d + k] = c
    return MultilinearMap(arity, d, vec)


def apply_matrix(distinct, psi, arity):
    """The arity-`arity` cochain A @ psi's flat vector, A the flat operator
    whose (positions, row) stream is distinct, as a chain-map builder
    yields it: placed by Mat.from_distinct and summed row by row, so it
    checks complex.index_images as well as the rows."""
    mat = Mat.from_distinct(psi.dim ** (arity + 1), psi.dim ** 3, distinct)
    return from_flat(psi.dim, arity, {i: sum(v * psi.vec.get(c, 0) for c, v in row.items())
                                      for i, row in enumerate(mat.rows)})


def rebase(spec: AlgebraSpec, P) -> AlgebraSpec:
    """spec in the basis c_j = sum_i P[i][j] b_i, the columns of the
    invertible rational P: each product c_i c_j and the unit in c
    coordinates, through P^-1 by Gauss-Jordan elimination of [P | I]."""
    d = spec.dim
    aug = [[Fraction(v) for v in row] + [int(i == j) for j in range(d)] for i, row in enumerate(P)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(d):
            if r != c:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]

    def coords(x):
        return tuple(scalar(sum(aug[k][d + i] * x[i] for i in range(d))) for k in range(d))

    cols = [tuple(scalar(P[i][j]) for i in range(d)) for j in range(d)]
    structure = tuple(tuple(coords(multiply(spec, ci, cj)) for cj in cols) for ci in cols)
    return spec._replace(structure=structure, unit=coords(spec.unit))


class RrefEchelon:
    """Incremental reduced row echelon form in Fractions, each pivot row
    divided by its lead: the reference for the integer linalg.Echelon."""

    def __init__(self, rows=()):
        """Feed each distinct row object once: a repeat adds nothing."""
        self.pivots: dict = {}  # pivot column -> row with that pivot == 1
        seen = {}  # id -> row; holding the row keeps its id from being reused
        for r in rows:
            if id(r) not in seen:
                seen[id(r)] = r
                self.add(r)

    def add(self, row) -> bool:
        """Insert a row; True if it increased the rank."""
        r = self.reduce(row)
        if not r:
            return False
        lead = min(r)
        r = {c: Fraction(v) / r[lead] for c, v in r.items()}
        for pr in self.pivots.values():
            if lead in pr:
                axpy(pr, -pr[lead], r)
        self.pivots[lead] = r
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row):
        """row minus its pivot-column entries times the pivot rows."""
        r = dict(row)
        for pc in sorted(set(r) & set(self.pivots)):
            axpy(r, -r[pc], self.pivots[pc])
        return r

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def rows(self):
        """Canonical basis rows: pivot order, primitive integer, lead > 0."""
        return [row_to_primitive(self.pivots[c]) for c in sorted(self.pivots)]


def principal_ideal_contains(spec: AlgebraSpec, a: Element, y: Element) -> bool:
    """Exact membership test y in a*A, the span of the products a*b_j."""
    d = spec.dim
    ech = RrefEchelon({i: v for i, v in enumerate(multiply(spec, a, basis_element(d, j))) if v}
                      for j in range(d))
    return ech.contains({i: v for i, v in enumerate(y) if v})


def _check_shape(spec: AlgebraSpec, psi: MultilinearMap, arity_one: bool = False):
    if psi.dim != spec.dim or psi.arity < 1 or (arity_one and psi.arity != 1):
        want = "1" if arity_one else ">= 1"
        raise ValueError(f"operator must be a cochain of dim {spec.dim} and arity {want}, "
                         f"got dim {psi.dim} and arity {psi.arity}")


def sample_elements(spec: AlgebraSpec, trials: int, seed: int) -> list:
    """The basis, each pairwise basis sum, then `trials` seeded random
    elements with coordinates in [-8, 8]."""
    d = spec.dim
    basis = [basis_element(d, i) for i in range(d)]
    rng = Lcg64(seed)
    return (basis + [add(basis[i], basis[j]) for i in range(d) for j in range(i + 1, d)]
            + [tuple(rng.randint(-8, 8) for _ in range(d)) for _ in range(trials)])


def is_multiplier(spec: AlgebraSpec, psi: MultilinearMap) -> OperatorVerdict:
    """T(b_i) = b_i * T(e) for every basis element, so T(a) = a * T(e).

    psi is the operator T as an arity-1 cochain.  The witness names the
    first failing basis element, the certificate is T(e).
    """
    _check_shape(spec, psi, arity_one=True)
    d = spec.dim
    te = evaluate(psi, [spec.unit])
    for i in range(d):
        if coeff(psi, (i,)) != multiply(spec, basis_element(d, i), te):
            return OperatorVerdict(NO, witness={"slot": 1, "tuple": (), "basis": i})
    return OperatorVerdict(YES, certificate=te)


def is_local_multiplier(spec: AlgebraSpec, psi: MultilinearMap, trials: int = 64,
                        seed: int = 0) -> OperatorVerdict:
    """T(a) in a*A for each sampled a (see sample_elements), by exact ideal
    membership; the witness is the tuple (a,) of the first a that fails.

    Sampling can only refute, except on an atomic order: there the basis
    passes exactly when T is diagonal, and a diagonal T is the multiplier
    by T(e).  Elsewhere a pass is "unknown_sampled".
    """
    _check_shape(spec, psi, arity_one=True)
    for a in sample_elements(spec, trials, seed):
        if not principal_ideal_contains(spec, a, evaluate(psi, [a])):
            return OperatorVerdict(NO, witness=(a,))
    return OperatorVerdict(YES if spec.order_mode == ORDER_ATOMIC else UNKNOWN)


def from_dense(dense) -> Mat:
    """The matrix with these dense rows, each entry read through linalg.scalar."""
    rows = [{j: scalar(v) for j, v in enumerate(r) if v} for r in dense]
    return Mat(len(dense), len(dense[0]) if dense else 0, rows)


def to_dense(mat):
    """The matrix as a list of dense rows, zeros included."""
    return [[mat.rows[i].get(j, 0) for j in range(mat.ncols)] for i in range(mat.nrows)]


def unit_tensor(d: int, arity: int, flat: int, coord: int) -> MultilinearMap:
    """The cochain with value b_coord on the basis tuple at `flat`, zero elsewhere."""
    return MultilinearMap(arity, d, {flat * d + coord: 1})


def kernel_double_loop(mat) -> list:
    """Kernel basis by probing every RREF pivot row for every free column."""
    piv = RrefEchelon(mat.rows).pivots
    basis = []
    for f in range(mat.ncols):
        if f in piv:
            continue
        vec = {f: 1}
        for p, prow in piv.items():
            v = prow.get(f)
            if v:
                vec[p] = -v
        basis.append(row_to_primitive(vec))
    return basis


def complete_basis_greedy(inner_rows, ambient_rows) -> list:
    """Members of ambient (in order) that extend inner to a basis of ambient:
    each row that grows an echelon of inner and the rows kept before it."""
    ech = RrefEchelon(inner_rows)
    return [dict(r) for r in ambient_rows if ech.add(r)]


def rref(rows) -> list:
    """Canonical basis of the span of rows."""
    return RrefEchelon(rows).rows()


def coboundary_space(spec: AlgebraSpec, degree: int, tag: str) -> list:
    """Canonical flat basis rows of d(degree-1 cochains) inside degree `degree`."""
    if degree == 0:
        return []
    return lift(spec, degree, tag, rref(coboundary(spec, degree - 1, tag).transpose().rows))


def diagonal_coboundary(spec: AlgebraSpec, n: int, tag: str) -> Mat:
    """d_n of an atomic algebra's band or ideal complex on its d diagonal
    unit cochains, the flat coordinates tag_coords lists: the full d_n is
    applied to each unit, every image must stay on the diagonal at degree
    n+1, and column k of the d x d matrix is the image of unit k."""
    dst = {c: i for i, c in enumerate(tag_coords(spec, n + 1, tag))}
    columns = []
    for image in coboundary_images(spec, n, [{c: 1} for c in tag_coords(spec, n, tag)]):
        assert dst.keys() >= image.keys(), f"the {tag} complex is not closed at degree {n}"
        columns.append({dst[c]: v for c, v in image.items()})
    return Mat.from_columns(len(dst), columns)


def lifted_coboundary_echelon(spec: AlgebraSpec, g: int) -> RrefEchelon:
    """Echelon of im d_{g-1} in flat coordinates, fed the lifted images:
    d flat rows per index-level image of d_{g-1}."""
    return RrefEchelon(lift(spec, g, TAG_FULL, coboundary(spec, g - 1, TAG_FULL).transpose().rows))


def keyed(ncols: int, keys, terms) -> Mat:
    """Row i sums the (column, value) pairs terms(keys[i]), zeros dropped;
    terms runs once per distinct key, and equal keys share one row object."""
    by_key = {}
    rows = []
    for key in keys:
        if key not in by_key:
            acc = {}
            for c, v in terms(key):
                acc[c] = acc.get(c, 0) + v
            by_key[key] = {c: v for c, v in acc.items() if v}
        rows.append(by_key[key])
    return Mat(len(rows), ncols, rows)


def output_terms(spec: AlgebraSpec, n: int, t: tuple):
    """Signed index-level terms of d at source degree n = 0 or odd n, output
    tuple t: pairs (input index tuple, coefficient), the input tuples
    indexing the source cochain's coefficient tensor."""
    yield from _term_indices(spec, t)
    if n % 2 == 1:  # n = 1 included: swapping t[1] and t[2] gives P(x1*x3, x2)
        for idx, v in _term_indices(spec, t[:n] + (t[n + 1], t[n])):
            yield idx, -v


def index_matrix_by_tuples(spec: AlgebraSpec, n: int) -> Mat:
    """The index-level d_n with one row per output tuple, summed from the
    tuple-level terms of the defining formula: in even degree >= 2 over
    every permutation of the tuple."""
    d = spec.dim

    def terms(t):
        if n % 2 or n == 0:
            pairs = output_terms(spec, n, t)
        else:
            pairs = (p for sigma in itertools.permutations(t) for p in _term_indices(spec, sigma))
        return ((tuple_index(idx, d), v) for idx, v in pairs)

    return keyed(d ** (n + 1), all_tuples(d, n + 2), terms)


def images_by_tuples(spec: AlgebraSpec, n: int, rows) -> list:
    """d_n of flat rows, in any degree: index_matrix_by_tuples tensored with
    the identity on output coordinates, summed entry by entry."""
    d = spec.dim
    matrix = index_matrix_by_tuples(spec, n)
    return [{i * d + k: v for i, row in enumerate(matrix.rows) for k in range(d)
             if (v := sum(w * x.get(c * d + k, 0) for c, w in row.items()))}
            for x in rows]


def by_coordinate(d: int, x: dict, f) -> dict:
    """f applied to the index-level part of the flat row x at each output
    coordinate k, each result put back at coordinate k."""
    parts = [{} for _ in range(d)]
    for col, v in x.items():
        c, k = divmod(col, d)
        parts[k][c] = v
    return {c * d + k: v for k, part in enumerate(parts) for c, v in f(part).items()}


def naive_coboundary_images(spec: AlgebraSpec, n: int, rows):
    """coboundary_images at even n >= 2 by the defining formula, the sum over
    every permutation of the output tuple, from the package's
    naive_coboundary_row.  Any other n raises ValueError, at the call.

    Returns an iterator of the images, one per row, in order.  The sums
    are formed at the call, one per multiset of output indices, stored with
    the multiset's arrangements, which are found by sorting each output
    tuple; each row's image is formed by index_images when it is drawn.
    """
    if n < 2 or n % 2:
        raise ValueError(f"the permutation sum is d_n at even n >= 2 only, got n = {echo(n)}")
    d = spec.dim
    arrangements = {}  # multiset of an output tuple -> the flat index of each arrangement
    for flat, t in enumerate(all_tuples(d, n + 2)):
        arrangements.setdefault(tuple(sorted(t)), []).append(flat)
    table = [(positions, naive_coboundary_row(spec, key))
             for key, positions in arrangements.items()]
    return (index_images(d, table, [x])[0] for x in rows)


def per_permutation_coboundary_images(spec: AlgebraSpec, n: int, rows) -> list:
    """d_n of flat rows for even n >= 2, each output value summed one
    permutation at a time: the oracle for the counting naive evaluator.

    sigma -> sigma o pi permutes the symmetric group, so the output tuples
    that rearrange one multiset share a value, formed once per multiset.
    """
    d = spec.dim
    images = [{} for _ in rows]
    for multiset in itertools.combinations_with_replacement(range(d), n + 2):
        terms = {}  # flat input tuple -> summed coefficient
        for sigma in itertools.permutations(multiset):
            for c, v in enumerate(spec.structure[sigma[0]][sigma[1]]):
                col = tuple_index((c,) + sigma[2:], d)
                terms[col] = terms.get(col, 0) + v
        for x, image in zip(rows, images):
            value = [sum(w * x.get(col * d + k, 0) for col, w in terms.items())
                     for k in range(d)]
            for t in set(itertools.permutations(multiset)):
                image.update((tuple_index(t, d) * d + k, v) for k, v in enumerate(value) if v)
    return images


def product_cochain_subspace(spec: AlgebraSpec, arity: int) -> tuple:
    """A basis of the space {(x_1..x_m) -> (prod x_i) * w}, one cochain per basis w."""
    d = spec.dim
    products = {idx: basis_product(spec, idx) for idx in all_tuples(d, arity)}
    return tuple(
        from_coeff_function(spec, arity,
                            lambda idx, w=basis_element(d, k): multiply(spec, products[idx], w))
        for k in range(d)
    )


def audit_stacked(spec: AlgebraSpec, fn, g: int) -> tuple:
    """The cocycle, coboundary and injectivity checks of the chain map
    fn(spec) into degree g, as CheckResults, each from a canonical basis
    of im d_{g-1}.

    The map is placed and applied one cochain at a time, row by row.
    Injectivity takes the kernel of [images of ker d_1 | that basis] and
    keeps each kernel vector's part on the images.
    """
    d = spec.dim
    chain = list(fn(spec))  # the stream, drawn once and applied to each row

    def image(row):
        return apply_matrix(chain, from_flat(d, 2, row), g + 1).flatten()

    ker_d1 = cocycle_space(spec, 1, TAG_FULL)
    mult_ech = RrefEchelon(apply_d(spec, m).flatten() for m in product_cochain_subspace(spec, 1))
    img_rows = [image(row) for row in ker_d1]
    cocycle = CheckResult(True)
    for row, img in zip(ker_d1, img_rows):
        dd = apply_d(spec, from_flat(d, g + 1, img)).flatten()
        if dd:
            flat, coord = divmod(min(dd), d)
            cocycle = CheckResult(False, {"input": row, "tuple_flat": flat,
                                          "coord": coord, "value": dd[min(dd)]})
            break
    b_target = coboundary_space(spec, g, TAG_FULL)
    b_ech = RrefEchelon(b_target)
    cobound = CheckResult(True)
    for row in mult_ech.rows():
        img = image(row)
        if not b_ech.contains(img):
            cobound = CheckResult(False, {"input": row, "image": img})
            break
    r = len(ker_d1)
    injective = CheckResult(True)
    for kvec in kernel_double_loop(Mat.from_columns(d ** (g + 2), img_rows + b_target)):
        acc = {}
        for j, c in kvec.items():
            if j < r:
                axpy(acc, c, ker_d1[j])
        if not mult_ech.contains(acc):
            injective = CheckResult(False, {"cocycle": acc})
            break
    return cocycle, cobound, injective


def span_contains(basis_rows, vec) -> bool:
    return RrefEchelon(basis_rows).contains(vec)


def span_leq(sub_rows, super_rows) -> bool:
    ech = RrefEchelon(super_rows)
    return all(ech.contains(r) for r in sub_rows)


def intersection(a_rows, b_rows, ncols: int) -> list:
    """Zassenhaus: basis of span(a) ∩ span(b), rows over ncols."""
    stacked = []
    for r in a_rows:
        row = dict(r)
        row.update({c + ncols: v for c, v in r.items()})
        stacked.append(row)
    stacked.extend(dict(r) for r in b_rows)
    out = []
    for row in rref(stacked):
        if min(row) >= ncols:
            out.append(row_to_primitive({c - ncols: v for c, v in row.items()}))
    return out


def symmetry_check(m: MultilinearMap, positions: tuple) -> str:
    """Classify behavior under swapping two slots: symmetric/antisymmetric/neither.

    positions are 1-based slot indices.
    """
    p, q = positions
    if not (1 <= p <= m.arity and 1 <= q <= m.arity and p != q):
        raise ValueError(f"invalid slot pair {positions} for arity {m.arity}")
    sym = True
    antisym = True
    for idx in all_tuples(m.dim, m.arity):
        swapped = list(idx)
        swapped[p - 1], swapped[q - 1] = swapped[q - 1], swapped[p - 1]
        a = coeff(m, idx)
        b = coeff(m, tuple(swapped))
        if a != b:
            sym = False
        if a != tuple(-v for v in b):
            antisym = False
        if not sym and not antisym:
            return "neither"
    return "symmetric" if sym else "antisymmetric"


def is_hochschild_2cocycle(spec: AlgebraSpec, psi: MultilinearMap):
    """Check a*Psi(b,c) + Psi(a,bc) - Psi(ab,c) - c*Psi(a,b) = 0 on basis triples.

    Returns (True, None) or (False, first_failing_triple).
    """
    if psi.arity != 2:
        raise ValueError("Hochschild 2-cocycle test needs an arity-2 cochain")
    d = spec.dim
    for i, j, k in all_tuples(d, 3):
        a, b, c = (basis_element(d, t) for t in (i, j, k))
        lhs = add(
            multiply(spec, a, coeff(psi, (j, k))),
            evaluate(psi, [a, spec.structure[j][k]]),
        )
        rhs = add(
            evaluate(psi, [spec.structure[i][j], c]),
            multiply(spec, c, coeff(psi, (i, j))),
        )
        if lhs != rhs:
            return (False, (i, j, k))
    return (True, None)


def is_band_preserving(spec: AlgebraSpec, psi: MultilinearMap) -> OperatorVerdict:
    """Psi(x_1, .., x_m) disjoint from y whenever some x_l is disjoint from y:
    psi lies in the band complex's coordinates, the diagonal cochains.

    The witness (b_{j_1}, .., b_{j_m}, b_i) names the first basis tuple, in
    flat order, whose value has a nonzero b_i coordinate off the diagonal.
    """
    _check_shape(spec, psi)
    d = spec.dim
    band = set(tag_coords(spec, psi.arity - 1, TAG_BAND))
    outside = [flat for flat in psi.vec if flat not in band]
    if outside:
        flat, i = divmod(min(outside), d)
        m = psi.arity
        idx = [flat // d ** (m - 1 - s) % d for s in range(m)] + [i]
        return OperatorVerdict(NO, witness=tuple(basis_element(d, k) for k in idx))
    return OperatorVerdict(YES)


def is_orthomorphism(spec: AlgebraSpec, psi: MultilinearMap) -> OperatorVerdict:
    """Order bounded band preserving; in the finite atomic setting the
    entrywise absolute cochain always certifies order boundedness."""
    bp = is_band_preserving(spec, psi)
    if bp.verdict != YES:
        return OperatorVerdict(NO, witness=bp.witness)
    bound = MultilinearMap(psi.arity, psi.dim, {i: abs(v) for i, v in psi.vec.items()})
    return OperatorVerdict(YES, certificate=bound)
