"""Test-only references: plain helpers that the package itself never needs.

Each is written directly from its definition, so a test can check the
package against it.
"""

from cohomolab.linalg import Echelon, rref, row_to_primitive
from cohomolab.multilinear import MultilinearMap, all_tuples


def to_dense(mat):
    """The matrix as a list of dense rows, zeros included."""
    return [[mat.rows[i].get(j, 0) for j in range(mat.ncols)] for i in range(mat.nrows)]


def unit_tensor(d: int, arity: int, flat: int, coord: int) -> MultilinearMap:
    """The cochain with value b_coord on the basis tuple at `flat`, zero elsewhere."""
    return MultilinearMap(arity, d, {flat * d + coord: 1})


def kernel_double_loop(mat) -> list:
    """Kernel basis by probing every pivot row for every free column."""
    piv = Echelon(mat.rows).pivots
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


def span_contains(basis_rows, vec) -> bool:
    return Echelon(basis_rows).contains(vec)


def span_leq(sub_rows, super_rows) -> bool:
    ech = Echelon(super_rows)
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
        a = m.coeff(idx)
        b = m.coeff(tuple(swapped))
        if a != b:
            sym = False
        if a != tuple(-v for v in b):
            antisym = False
        if not sym and not antisym:
            return "neither"
    return "symmetric" if sym else "antisymmetric"
