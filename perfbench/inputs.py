"""Seeded benchmark inputs, written as `.alg` files with stdlib code only.

Every number field is Q[t]/(p) in the power basis with p Eisenstein at 2
(all lower coefficients even, constant term 2 mod 4), so it is provably
irreducible whatever the package's own domain check says.  Split étale
algebras are Q[t]/((t-r_1)...(t-r_k)) with distinct integer roots, drawn
from [-12, 12] so that some lie outside the [-8, 8] box the package's
zero-divisor falsifier samples.
"""

import os

MASK = (1 << 64) - 1

# Constant terms of the binomials t^d + c used by the index-matrix workloads.
# All are 2 mod 4 and the sparsity pattern never changes, so the work per
# command does not depend on the seed.  Index 0 gives the reference t^d - 2.
BINOMIAL_CONSTANTS = (-2, 2, -6, 6, -10, 10, -14, 14)


class SplitMix64:
    """Small seeded generator, so that inputs do not depend on `random`."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def choice(self, items):
        return items[self.below(len(items))]

    def shuffle(self, items: list) -> list:
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def polymul(a, b):
    """Product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def is_eisenstein_at_2(coeffs) -> bool:
    """Monic, lower coefficients even, constant term not divisible by 4."""
    return (coeffs[-1] == 1 and all(c % 2 == 0 for c in coeffs[:-1])
            and coeffs[0] % 4 != 0)


def binomial(d: int, c: int) -> list:
    """Ascending coefficients of t^d + c."""
    return [c] + [0] * (d - 1) + [1]


def random_eisenstein(rng: SplitMix64, d: int) -> list:
    lower = [rng.choice((-2, 0, 2)) for _ in range(d - 1)]
    return [rng.choice((-6, -2, 2, 6))] + lower + [1]


def split_polynomial(roots) -> list:
    p = [1]
    for r in roots:
        p = polymul(p, [-r, 1])
    return p


def random_roots(rng: SplitMix64, k: int) -> list:
    roots = []
    while len(roots) < k:
        r = rng.below(25) - 12
        if r not in roots:
            roots.append(r)
    return sorted(roots)


def quotient_ring_text(name: str, coeffs, comment: str) -> str:
    """Q[t]/(p) in the basis 1, t, ..., t^(d-1), for monic integer p."""
    d = len(coeffs) - 1
    powers = [[int(j == k) for j in range(d)] for k in range(d)]
    for _ in range(d, 2 * d - 1):
        prev = powers[-1]
        top = prev[-1]
        powers.append([(prev[k - 1] if k else 0) - top * coeffs[k]
                       for k in range(d)])
    lines = [f"# {comment}", f"name {name}", f"dim {d}",
             "unit " + " ".join(["1"] + ["0"] * (d - 1)), "order none"]
    for i in range(d):
        for j in range(i, d):
            lines.append(f"mult {i} {j} = " + " ".join(map(str, powers[i + j])))
    return "\n".join(lines) + "\n"


def atomic_text(d: int) -> str:
    lines = [f"name atomic_{d}", f"dim {d}", "unit " + " ".join(["1"] * d),
             "order atomic"]
    for i in range(d):
        lines.append(f"mult {i} {i} = " + " ".join(str(int(j == i)) for j in range(d)))
    return "\n".join(lines) + "\n"


def poly_str(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if k and c in (1, -1):
            body = mono
        else:
            body = f"{abs(c)}{mono}"
        terms.append(("-" if c < 0 else "+") + body)
    s = "".join(terms)
    return s[1:] if s.startswith("+") else s


class Algebra:
    """One input file: where it lives and what the checker needs to know."""

    def __init__(self, label: str, path: str, dim: int, kind: str, text=None):
        self.label = label  # names the contents, e.g. "quartic[t^4-2]"
        self.path = path    # path handed to the CLI, relative to the root
        self.dim = dim
        self.kind = kind    # "field" (degree >= 2) | "split" | "atomic"
        self.text = text    # file contents to write, None for fixtures


FIXTURES = {
    "q": (1, "split"),
    "qsqrt2": (2, "field"),
    "cubic2": (3, "field"),
    "atomic2": (2, "atomic"),
    "atomic3": (3, "atomic"),
    "atomic4": (4, "atomic"),
}


def fixture(key: str) -> Algebra:
    dim, kind = FIXTURES[key]
    return Algebra(key, f"fixtures/{key}.alg", dim, kind)


def number_field(key: str, workdir: str, coeffs) -> Algebra:
    assert is_eisenstein_at_2(coeffs), coeffs
    poly = poly_str(coeffs)
    text = quotient_ring_text(key, coeffs, f"Q[t]/({poly})")
    return Algebra(f"{key}[{poly}]", f"{workdir}/{key}.alg", len(coeffs) - 1,
                   "field", text)


def split_algebra(key: str, workdir: str, roots) -> Algebra:
    poly = poly_str(split_polynomial(roots))
    text = quotient_ring_text(key, split_polynomial(roots), f"Q[t]/({poly})")
    return Algebra(f"{key}[{poly}]", f"{workdir}/{key}.alg", len(roots),
                   "split", text)


def atomic_algebra(d: int, workdir: str) -> Algebra:
    key = f"atomic{d}"
    return Algebra(key, f"{workdir}/{key}.alg", d, "atomic", atomic_text(d))


def reference_binomial_constant(rng: SplitMix64, seed: int) -> int:
    """Seed 0 keeps the ROADMAP's reference t^d - 2; other seeds draw."""
    return BINOMIAL_CONSTANTS[0] if seed == 0 else rng.choice(BINOMIAL_CONSTANTS)


def write_algebras(algebras, root: str):
    """Write every generated algebra's file below root."""
    for alg in algebras:
        if alg.text is not None:
            path = os.path.join(root, alg.path)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(alg.text)
