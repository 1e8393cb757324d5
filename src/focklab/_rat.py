"""Exact rational scalar used in the cyclotomic/Hecke hot paths."""

from fractions import Fraction as RAT

__all__ = ["RAT"]
