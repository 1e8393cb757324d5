"""The level-l Fock space over exact rationals: sparse vectors indexed by
multipartitions, Chevalley operator actions, depth filtrations and primitive
subspaces.

Operators never truncate: applying a raising operator to a rank-n vector
produces honest rank-(n+1) terms, so commutator and Serre sweeps on a finite
slice are exact as long as the caller evaluates on basis vectors.  Nothing
is memoized across calls.  `structure_analysis.check_fock_relations` and
`check_perfect_basis` keep per-call rows of `apply_e`/`apply_f` on basis
vectors, filled through the names they look up at call time, so a tracer or
a fault-injection test that rebinds them still sees every image that is
checked; their products, Serre sums and depth walks are loops over those
rows, with the swept e_i, not through `depth` here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import _linalg
from .multipartition import (
    Multicharge,
    Multipartition,
    add_box,
    addable_boxes,
    enumerate_multipartitions,
    parse_multipartition,
    remove_box,
    removable_boxes,
)
from .weight_lattice import pair_coroot, wt


class FockVector:
    """Sparse exact-rational linear combination of multipartitions.

    Zero coefficients are never stored and all keys share one level.  Values
    are immutable in practice: every operation returns a fresh vector.
    """

    __slots__ = ("terms",)

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
        return cls({mp: Fraction(1)})

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
        out = dict(self.terms)
        for mp, c in other.terms.items():
            prev = out.get(mp)
            out[mp] = -c if prev is None else prev - c
        return FockVector(out)

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
            mp = Multipartition.from_lists(entry["mp"])
            if level is not None and mp.level != level:
                raise ValueError(f"expected level {level}, got {mp.level}")
            coeff = entry["coeff"]
            if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction, str)):
                raise ValueError(f"coefficient {coeff!r} is not an exact rational")
            terms[mp] = terms.get(mp, Fraction(0)) + Fraction(coeff)
        return cls(terms)


def parse_vector(text: str, level: int | None = None) -> FockVector:
    """Accept either a multipartition document or a Fock vector document."""
    data = json.loads(text, parse_float=Fraction)  # decimals read exactly
    if isinstance(data, list) and data and all(isinstance(x, dict) for x in data):
        return FockVector.from_json(data, level)
    if isinstance(data, list) and not data:
        return FockVector.zero()
    return FockVector.basis(parse_multipartition(text, level))


def apply_e(i: int, v: FockVector, charge: Multicharge) -> FockVector:
    """Remove one residue-i box in every admissible way, extended linearly."""
    return _move_boxes(removable_boxes, remove_box, i, v, charge)


def apply_f(i: int, v: FockVector, charge: Multicharge) -> FockVector:
    """Add one residue-i box in every admissible way, extended linearly."""
    return _move_boxes(addable_boxes, add_box, i, v, charge)


def _move_boxes(listing, move, i: int, v: FockVector, charge: Multicharge):
    out: dict[Multipartition, Fraction] = {}
    for mp, c in v.terms.items():
        for box in listing(mp, charge, i):
            target = move(mp, box)
            prev = out.get(target)
            out[target] = c if prev is None else prev + c
    return FockVector(out)


def apply_h(i: int, v: FockVector, charge: Multicharge) -> FockVector:
    """Diagonal action: each basis term scaled by its coroot pairing."""
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


def in_filtration(i: int, bound: int, v: FockVector, charge: Multicharge) -> bool:
    """Membership in the sub-bound depth filtration layer."""
    return depth(i, v, charge) < bound


def slice_basis(n: int, charge: Multicharge) -> tuple[Multipartition, ...]:
    """The rank-n basis slice in enumeration order."""
    return enumerate_multipartitions(n, charge.level)


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


def primitive_basis(n: int, charge: Multicharge) -> list[FockVector]:
    """Deterministic echelon basis of the joint kernel of all e_i on rank n."""
    domain = slice_basis(n, charge)
    if not domain:
        return []
    if n == 0:
        return [FockVector.basis(domain[0])]
    codomain = slice_basis(n - 1, charge)
    rows: list[list[Fraction | int]] = []
    for i in range(charge.e):
        rows.extend(operator_matrix(i, charge, domain, codomain))
    kernel = _linalg.kernel_basis(rows, len(domain), Fraction(0), Fraction(1))
    return [
        FockVector({mp: c for mp, c in zip(domain, vec) if c}) for vec in kernel
    ]


def verify_pieri(mp: Multipartition, charge: Multicharge) -> bool:
    """Residue-summed operators match the unfiltered one-box rules."""
    v = FockVector.basis(mp)
    e_expected = FockVector(
        {remove_box(mp, box): Fraction(1) for box in removable_boxes(mp, charge)}
    )
    f_expected = FockVector(
        {add_box(mp, box): Fraction(1) for box in addable_boxes(mp, charge)}
    )
    zero = FockVector.zero()
    e_sum = sum((apply_e(i, v, charge) for i in range(charge.e)), zero)
    f_sum = sum((apply_f(i, v, charge) for i in range(charge.e)), zero)
    return e_sum == e_expected and f_sum == f_expected
