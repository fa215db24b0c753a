"""Exact cohomology of finite-dimensional commutative unital algebras.

Everything is computed over the rationals with exact arithmetic; all
pseudorandom sampling is seeded and bit-reproducible.
"""
