"""Operator predicates (multiplier, local multiplier) and algebra-level
classification verdicts.

A linear operator T is the arity-1 cochain x -> T(x), a MultilinearMap
like every other cochain, and the n-ary properties are the same
predicates at arity n.  Wickstead's question is answered by h0oo, the
cohomology at cochain degree 1 of the band complex (its 0-cochains are
the orthomorphisms).

Local properties quantify over all elements, so a sampled search can only
refute.  A "yes" is a finite proof from an exhaustive basis check or the
atomic structure, except on a field: there it rests on the sampled
invertibility probe, over a domain that is only asserted by sampling.  A
search that proves nothing returns "unknown_sampled".
"""

from typing import NamedTuple

from .algebra import (
    AlgebraSpec, DOMAIN_ASSERTED, ORDER_ATOMIC, ORDER_NONE,
    add, basis_element, is_zero, multiply, principal_ideal_contains,
)
from .multilinear import MultilinearMap, all_tuples, from_coeff_function
from .rng import Lcg64
from .complex import DEFAULT_DEGREE_CAP, TAG_BAND, check_cap
from .cohomology import cohomology, multiplier_quotient

YES = "yes"
NO = "no"
UNKNOWN = "unknown_sampled"


class OperatorVerdict(NamedTuple):
    verdict: str  # yes | no | unknown_sampled
    witness: object = None
    certificate: object = None


def _check_shape(spec: AlgebraSpec, psi: MultilinearMap):
    if psi.dim != spec.dim or psi.arity < 1:
        raise ValueError(f"operator must be a cochain of dim {spec.dim} and arity >= 1, "
                         f"got dim {psi.dim} and arity {psi.arity}")


def sample_tuples(spec: AlgebraSpec, m: int, trials: int, seed: int):
    """Deterministic argument m-tuples: the basis tuples, each pairwise basis
    sum in every slot, then `trials` tuples of m seeded random elements."""
    d = spec.dim
    basis = [basis_element(d, i) for i in range(d)]
    out = [tuple(basis[i] for i in idx) for idx in all_tuples(d, m)]
    out.extend((add(basis[i], basis[j]),) * m for i in range(d) for j in range(i + 1, d))
    rng = Lcg64(seed)
    for _ in range(trials):
        out.append(tuple(tuple(rng.randint(-8, 8) for _ in range(d))
                         for _ in range(m)))
    return out


def is_multiplier(spec: AlgebraSpec, psi: MultilinearMap) -> OperatorVerdict:
    """Psi(.., a, ..) = a * Psi(.., e, ..) in every slot; by multilinearity
    the basis suffices, with the other slots frozen at basis tuples.

    At arity 1 this is T(a) = a * T(e).  The certificate is Psi(e, .., e).
    """
    _check_shape(spec, psi)
    d = spec.dim
    for slot in range(psi.arity):
        for frozen in all_tuples(d, psi.arity - 1):
            args = [basis_element(d, i) for i in frozen]
            args.insert(slot, spec.unit)
            unit_val = psi.eval(args)
            for i in range(d):
                idx = frozen[:slot] + (i,) + frozen[slot:]
                if psi.coeff(idx) != multiply(spec, basis_element(d, i), unit_val):
                    return OperatorVerdict(NO, witness={"slot": slot + 1, "tuple": frozen,
                                                        "basis": i})
    return OperatorVerdict(YES, certificate=psi.eval([spec.unit] * psi.arity))


def is_local_multiplier(spec: AlgebraSpec, psi: MultilinearMap, trials: int = 64,
                        seed: int = 0) -> OperatorVerdict:
    """Psi(a_1, .., a_m) in (a_1 ... a_m) * A for all arguments; a decision
    ladder per algebra structure.

    Fields: membership cannot fail when the product is invertible, so
    locality is automatic once the sampled invertibility probe backs the
    domain assertion; a is a unit exactly when e lies in a * A.  Atomic:
    the basis tuples decide, since they pass exactly when psi is diagonal,
    and a diagonal psi is the multiplier (a_1, .., a_m) -> (a_1 ... a_m) *
    psi(e, .., e).  Otherwise: sampled membership tests, refutation-only;
    the witness is the argument tuple.
    """
    _check_shape(spec, psi)
    samples = sample_tuples(spec, psi.arity, trials, seed)
    if spec.order_mode == ORDER_NONE and spec.domain_status == DOMAIN_ASSERTED:
        elements = dict.fromkeys(a for args in samples for a in args)
        if all(is_zero(a) or principal_ideal_contains(spec, a, spec.unit) for a in elements):
            return OperatorVerdict(YES)
    decided = spec.order_mode == ORDER_ATOMIC
    if decided:
        samples = samples[:spec.dim ** psi.arity]  # the basis tuples
    for args in samples:
        prod = spec.unit
        for a in args:
            prod = multiply(spec, prod, a)
        if not principal_ideal_contains(spec, prod, psi.eval(list(args))):
            return OperatorVerdict(NO, witness=args)
    return OperatorVerdict(YES if decided else UNKNOWN)


class ClassificationReport(NamedTuple):
    kadison: OperatorVerdict
    wickstead: OperatorVerdict  # None when the order is trivial
    h0mc_dim: int
    h0oo_dim: int  # None when the order is trivial


def _conjugation_like(d: int):
    """Identity with the second basis direction negated."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    m[1][1] = -1
    return m


def classify(spec: AlgebraSpec, trials: int = 64, seed: int = 0,
             cap: int = DEFAULT_DEGREE_CAP) -> ClassificationReport:
    """Kadison/Wickstead verdicts with operator witnesses and quotient dims."""
    check_cap(2, cap)  # d_1 maps degree-1 cochains to degree 2
    d = spec.dim
    h0mc = multiplier_quotient(spec).dim_H
    h0oo = None
    wickstead = None
    if spec.order_mode == ORDER_ATOMIC:
        h0oo = cohomology(spec, 1, TAG_BAND).dim_H
        wickstead = OperatorVerdict(YES if h0oo == 0 else NO, certificate={"h0oo_dim": h0oo})

    if spec.order_mode == ORDER_ATOMIC:
        # local multipliers are diagonal, hence multipliers
        kadison = OperatorVerdict(YES)
    elif d == 1:
        kadison = OperatorVerdict(YES)
    elif spec.domain_status == DOMAIN_ASSERTED:
        witness = _conjugation_like(d)
        psi = from_coeff_function(spec, 1, lambda idx: tuple(row[idx[0]] for row in witness))
        local = is_local_multiplier(spec, psi, trials, seed)
        mult = is_multiplier(spec, psi)
        if local.verdict == YES and mult.verdict == NO:
            kadison = OperatorVerdict(NO, witness=witness)
        else:
            kadison = OperatorVerdict(UNKNOWN)
    else:
        kadison = OperatorVerdict(UNKNOWN)

    return ClassificationReport(kadison=kadison, wickstead=wickstead, h0mc_dim=h0mc,
                                h0oo_dim=h0oo)
