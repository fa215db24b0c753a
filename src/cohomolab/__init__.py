"""Exact cohomology of finite-dimensional commutative unital algebras.

Everything is computed over the rationals with exact arithmetic, and
nothing is sampled: a verdict is decided by a finite check or reads
unknown.
"""
