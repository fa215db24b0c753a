"""Exact cohomology of finite-dimensional commutative unital algebras.

Everything is computed over the rationals with exact arithmetic; all
pseudorandom sampling is seeded and bit-reproducible.
"""

from .algebra import (
    AlgebraSpec, assess_domain, build_atomic, build_number_field, invert,
    multiply, regular_representation, validate_algebra, zero_divisor_falsifier,
)
from .multilinear import (
    MultilinearMap, is_hochschild_2cocycle, product_cochain_subspace,
)
from .complex import DEFAULT_DEGREE_CAP, DegreeCapExceeded, apply_d, verify_dd_zero
from .cohomology import (
    audit_chain_map, build_J, build_J_even, build_J_odd, build_K, cohomology,
    distinguished_quotient,
)
from .operators import (
    classify, is_band_preserving, is_local_multiplier, is_multiplier, is_orthomorphism,
)
from .fileformat import parse_algebra_file, parse_algebra_text, serialize_algebra
