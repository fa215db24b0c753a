"""Algebra-level classification verdicts.

Kadison's question asks whether every local multiplier (T(a) in a·A for
every a) is a multiplier (T(a) = a·T(e)).  On an étale algebra, a product
of number fields, the answer is exact: yes when every factor is Q, which
`assess_domain`'s rational roots count, and no when a factor has degree
>= 2, since every operator of a field is local.  Wickstead's question is
answered by h0oo, the cohomology at cochain degree 1 of the band complex
(its 0-cochains are the orthomorphisms).  Where neither the atoms nor
the roots decide, the verdict is "unknown_sampled".
"""

from typing import NamedTuple

from .algebra import AlgebraSpec, ORDER_ATOMIC
from .complex import DEFAULT_DEGREE_CAP, TAG_BAND, check_cap
from .cohomology import cohomology, multiplier_quotient

YES = "yes"
NO = "no"
UNKNOWN = "unknown_sampled"


class OperatorVerdict(NamedTuple):
    verdict: str  # yes | no | unknown_sampled
    witness: object = None
    certificate: object = None


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


def classify(spec: AlgebraSpec, cap: int = DEFAULT_DEGREE_CAP) -> ClassificationReport:
    """Kadison/Wickstead verdicts with operator witnesses and quotient dims.

    Kadison is yes on an atomic order and when the rational roots number d
    (A is Q^d, whose local multipliers are diagonal, hence multipliers),
    and no for any other root count, which leaves a factor of degree >= 2.
    Only a rootless d <= 3, a field, gets the witness: the identity with
    the second basis direction negated, local like every operator of a
    field, and no multiplier, having eigenvalues 1 and -1.
    """
    check_cap(2, cap)  # d_1 maps degree-1 cochains to degree 2
    d = spec.dim
    h0mc = multiplier_quotient(spec).dim_H
    h0oo = None
    wickstead = None
    if spec.order_mode == ORDER_ATOMIC:
        h0oo = cohomology(spec, 1, TAG_BAND).dim_H
        wickstead = OperatorVerdict(YES if h0oo == 0 else NO, certificate={"h0oo_dim": h0oo})

    roots = spec.rational_roots
    if spec.order_mode == ORDER_ATOMIC or (roots is not None and len(roots) == d):
        kadison = OperatorVerdict(YES)
    elif roots is None:
        kadison = OperatorVerdict(UNKNOWN)
    elif not roots and d <= 3:
        kadison = OperatorVerdict(NO, witness=_conjugation_like(d))
    else:
        kadison = OperatorVerdict(NO)

    return ClassificationReport(kadison=kadison, wickstead=wickstead, h0mc_dim=h0mc,
                                h0oo_dim=h0oo)
