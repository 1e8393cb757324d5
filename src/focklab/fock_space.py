"""The level-l Fock space over exact rationals: sparse vectors indexed by
multipartitions, Chevalley operator actions, depth filtrations and primitive
subspaces.  `primitive_basis` and `kernel_dimension_by_weight` (in
`structure_analysis`) reduce the same sparse rows, `_removal_rows`; the dense
`operator_matrix` serves test oracles and the benchmark tracer only.

e_i and f_i make one pass per term, moving each listed residue-i box
unchecked under the trust rule of the `multipartition` docstring.  They
never truncate, so sweeps on a finite slice are exact on basis vectors.
Nothing is memoized across calls; the `structure_analysis` sweeps keep
per-call rows of `apply_e`/`apply_f`, looked up at call time.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from . import _linalg
from .multipartition import (
    Multicharge,
    Multipartition,
    _moved,
    _with_component,
    addable_boxes,
    enumerate_multipartitions,
    parse_multipartition,
    removable_boxes,
)
from .weight_lattice import pair_coroot, wt


class FockVector:
    """Sparse exact-rational linear combination of multipartitions.

    Zero coefficients are never stored and all keys share one level.  Values
    are immutable in practice: every operation returns a fresh vector.
    """

    __slots__ = ("terms",)
    _one = Fraction(1)  # immutable, so every basis vector shares it

    def __init__(self, terms: dict[Multipartition, Fraction] | None = None):
        clean: dict[Multipartition, Fraction] = {}
        level = None
        for mp, coeff in (terms or {}).items():
            if not isinstance(coeff, Fraction):
                if isinstance(coeff, float):
                    raise TypeError(f"inexact float coefficient {coeff!r}")
                coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if level is None:
                level = mp.level
            elif mp.level != level:
                raise ValueError("mixed levels in one Fock vector")
            clean[mp] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "FockVector":
        return cls({})

    @classmethod
    def basis(cls, mp: Multipartition) -> "FockVector":
        return cls._trusted({mp: cls._one})

    @classmethod
    def _trusted(cls, terms: dict[Multipartition, Fraction]) -> "FockVector":
        """A vector on terms that are clean already: nonzero Fractions, one level."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mp: Multipartition) -> Fraction:
        return self.terms.get(mp, Fraction(0))

    def items(self) -> list[tuple[Multipartition, Fraction]]:
        """Terms in the deterministic enumeration order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].serialize())

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for mp, c in other.terms.items():
            prev = out.get(mp)
            out[mp] = c if prev is None else prev + c
        return FockVector(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def __neg__(self) -> "FockVector":
        return FockVector({mp: -c for mp, c in self.terms.items()})

    def scaled(self, f) -> "FockVector":
        return FockVector({mp: f * c for mp, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, FockVector) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{mp}" for mp, c in self.items())

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(c), "mp": mp.to_lists()} for mp, c in self.items()
        ]

    @classmethod
    def from_json(cls, data: list, level: int | None = None) -> "FockVector":
        terms: dict[Multipartition, Fraction] = {}
        for entry in data:
            if not isinstance(entry, dict) or entry.keys() != {"mp", "coeff"}:
                raise ValueError(f'term {entry!r} is not {{"mp": ..., "coeff": ...}}')
            mp = Multipartition.from_lists(entry["mp"])
            if level is not None and mp.level != level:
                raise ValueError(f"expected level {level}, got {mp.level}")
            coeff = entry["coeff"]
            if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction, str)):
                raise ValueError(f"coefficient {coeff!r} is not an exact rational")
            try:
                terms[mp] = terms.get(mp, Fraction(0)) + _exact(coeff)
            except ZeroDivisionError:
                raise ValueError(f"coefficient {coeff!r} has a zero denominator") from None
        return cls(terms)


def _exact(value) -> Fraction:
    """An int, Fraction, or decimal or "p/q" string as a Fraction; ValueError,
    unexpanded, when its digits + |exponent| pass `sys.get_int_max_str_digits()`."""
    digits, _, exponent = str(value).lower().partition("e")
    numeric = exponent.lstrip("+-").replace("_", "").isdigit()  # else Fraction refuses it
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) + (abs(int(exponent)) if numeric else 0) > limit:
        raise ValueError(f"coefficient {value!s:.40} expands past {limit} digits")
    return Fraction(value)


def parse_vector(text: str, level: int | None = None) -> FockVector:
    """Accept either a multipartition document or a Fock vector document."""
    data = json.loads(text, parse_float=_exact)  # decimals read exactly
    if isinstance(data, list) and data and all(isinstance(x, dict) for x in data):
        return FockVector.from_json(data, level)
    if isinstance(data, list) and not data:
        return FockVector.zero()
    return FockVector.basis(parse_multipartition(text, level))


def apply_e(i: int, v: FockVector, charge: Multicharge) -> FockVector:
    """Remove one residue-i box in every admissible way, extended linearly.
    Raises ValueError for a residue outside 0..e-1 or another level."""
    return _move_boxes(removable_boxes, -1, i, v, charge)


def apply_f(i: int, v: FockVector, charge: Multicharge) -> FockVector:
    """Add one residue-i box in every admissible way, extended linearly.
    Raises ValueError for a residue outside 0..e-1 or another level."""
    return _move_boxes(addable_boxes, 1, i, v, charge)


def _move_boxes(listing, step: int, i: int, v: FockVector, charge: Multicharge):
    """One pass per term of v, targets built by the trusted move: they keep v's
    level and Fraction sums, so the image is not re-validated; zero sums (only
    across terms) are dropped; a higher level raises at its first extra component."""
    if not 0 <= i < charge.e:
        raise ValueError(f"residue {i} out of 0..{charge.e - 1}")
    if v.terms and (level := len(next(iter(v.terms)).components)) != charge.level:
        raise ValueError(f"level mismatch: {level} vs {charge.level}" if level < charge.level
                         else f"component {charge.level + 1} out of 1..{charge.level}")
    out: dict[Multipartition, Fraction] = {}
    for mp, c in v.terms.items():
        for box in listing(mp, charge, i):
            target = _with_component(mp, box, step)
            prev = out.get(target)
            out[target] = c if prev is None else prev + c
    return FockVector._trusted({t: c for t, c in out.items() if c} if len(v.terms) > 1 else out)


def apply_h(i: int, v: FockVector, charge: Multicharge) -> FockVector:
    """Diagonal action: each basis term scaled by its coroot pairing."""
    if not 0 <= i < charge.e:
        raise ValueError(f"residue {i} out of 0..{charge.e - 1}")
    out: dict[Multipartition, Fraction] = {}
    for mp, c in v.terms.items():
        out[mp] = c * pair_coroot(i, wt(mp, charge))
    return FockVector(out)


def depth(i: int, v: FockVector, charge: Multicharge) -> int | float:
    """Largest k with e_i^k v nonzero; -inf for the zero vector.

    Terminates because each application strictly lowers every term's rank.
    """
    if v.is_zero():
        return -math.inf
    k = 0
    current = v
    while True:
        current = apply_e(i, current, charge)
        if current.is_zero():
            return k
        k += 1


def operator_matrix(
    i: int,
    charge: Multicharge,
    domain: tuple[Multipartition, ...],
    codomain: tuple[Multipartition, ...],
) -> list[list[Fraction | int]]:
    """Matrix of e_i, rows indexed by codomain, columns by domain."""
    index = {mp: r for r, mp in enumerate(codomain)}
    rows = [[0] * len(domain) for _ in codomain]  # int zeros: cheap truth tests
    for c, mp in enumerate(domain):
        for target, coeff in apply_e(i, FockVector.basis(mp), charge).terms.items():
            rows[index[target]][c] = coeff
    return rows


def _removal_rows(n: int, charge: Multicharge):
    """(mp, wt(mp), {index of mp minus a removable box: 1}) per rank-n shape
    in enumeration order: mp's image under e = sum e_i on the rank-(n-1)
    slice.  e_i moves weight tau to tau + alpha_i, so on one weight slice the
    e_i land in distinct weight spaces and their joint kernel is the kernel
    of e; across weights e mixes images, so callers reduce per weight."""
    codomain = enumerate_multipartitions(n - 1, charge.level) if n > 0 else ()
    index = {mp.components: r for r, mp in enumerate(codomain)}
    for mp in enumerate_multipartitions(n, charge.level):
        yield mp, wt(mp, charge), {
            index[_moved(mp.components, box, -1)]: 1 for box in removable_boxes(mp, charge)}


def primitive_basis(n: int, charge: Multicharge) -> list[FockVector]:
    """Deterministic echelon basis of the joint kernel of all e_i on rank n:
    one exact `SpanTracker` per weight `express`es its `_removal_rows` in
    order; a shape mp whose row is sum_j c_j row(gen_j) over the shapes gen_j
    that joined before it gives mp - sum_j c_j gen_j, the reduced-echelon
    kernel vector of mp's free column in the stacked e_i matrices."""
    spans: dict[object, tuple[_linalg.SpanTracker, list[Multipartition]]] = {}
    basis = []
    for mp, weight, row in _removal_rows(n, charge):
        tracker, gens = spans.setdefault(weight, (_linalg.SpanTracker(), []))
        if (coords := tracker.express(row)) is None:
            gens.append(mp)
        else:
            basis.append(FockVector({mp: 1, **{gens[j]: -c for j, c in coords.items()}}))
    return basis
