"""Deterministic 64-bit linear congruential generator.

The package samples in one place, the audit's evaluator-agreement check,
and draws its sample from this generator so that reports are
bit-reproducible across platforms and Python versions.
Multiplier and increment are Knuth's MMIX constants.
"""

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
