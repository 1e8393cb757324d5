"""Integer arithmetic in the affine weight lattice of sl_e^(1).

Weights are integer vectors over the fundamental weights L_0..L_{e-1} plus
one explicit null-root coordinate delta; adjoining delta makes subtraction of
simple roots well-defined (alpha_i = i-th Cartan column, plus delta when
i = 0) and coroots pair delta to 0.

`AffineWeight(...)` and `scaled` check a caller's coordinates; `wt`, `+`,
`-` and negation build ints by construction, unchecked (`_trusted`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .multipartition import Multicharge, Multipartition


@dataclass(frozen=True)
class AffineWeight:
    """Coefficients over L_0..L_{e-1} plus a delta coordinate."""

    lam: tuple[int, ...]
    delta: int

    def __post_init__(self) -> None:
        if len(self.lam) < 2:
            raise ValueError("need at least two fundamental-weight coordinates")
        if any(type(v) is not int for v in (*self.lam, self.delta)):  # bools, floats too
            raise ValueError(f"coordinates must be integers, got {self.lam!r}, {self.delta!r}")
        object.__setattr__(self, "lam", tuple(self.lam))

    @property
    def e(self) -> int:
        return len(self.lam)

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        self._check(other)
        return _trusted(tuple(a + b for a, b in zip(self.lam, other.lam)), self.delta + other.delta)

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        self._check(other)
        return _trusted(tuple(a - b for a, b in zip(self.lam, other.lam)), self.delta - other.delta)

    def __neg__(self) -> "AffineWeight":
        return _trusted(tuple(-a for a in self.lam), -self.delta)

    def scaled(self, k: int) -> "AffineWeight":
        return AffineWeight(tuple(k * a for a in self.lam), k * self.delta)

    def _check(self, other: "AffineWeight") -> None:
        if self.e != other.e:
            raise ValueError(f"mixed lattice ranks {self.e} and {other.e}")

    def to_json(self) -> dict:
        return {"lambda": list(self.lam), "delta": self.delta}

    def __str__(self) -> str:
        return f"({','.join(str(a) for a in self.lam)};{self.delta})"


def _trusted(lam: tuple[int, ...], delta: int) -> AffineWeight:
    """AffineWeight(lam, delta) unchecked: e >= 2 int coordinates."""
    out = object.__new__(AffineWeight)
    object.__setattr__(out, "lam", lam)
    object.__setattr__(out, "delta", delta)
    return out


def fundamental(i: int, e: int) -> AffineWeight:
    """The fundamental weight L_i."""
    if not 0 <= i < e:
        raise ValueError(f"residue {i} out of 0..{e - 1}")
    lam = [0] * e
    lam[i] = 1
    return AffineWeight(tuple(lam), 0)


def cartan_entry(i: int, j: int, e: int) -> int:
    """Affine Cartan matrix of type A^(1)_{e-1}; e = 2 degenerates to -2
    off-diagonal."""
    if i == j:
        return 2
    if e == 2:
        return -2
    if (i - j) % e in (1, e - 1):
        return -1
    return 0


def simple_root(i: int, e: int) -> AffineWeight:
    """alpha_i expanded over the fundamentals, with delta coefficient [i = 0]."""
    if not 0 <= i < e:
        raise ValueError(f"residue {i} out of 0..{e - 1}")
    lam = tuple(cartan_entry(j, i, e) for j in range(e))
    return AffineWeight(lam, 1 if i == 0 else 0)


def null_root(e: int) -> AffineWeight:
    return AffineWeight((0,) * e, 1)


def pair_coroot(i: int, w: AffineWeight) -> int:
    """<alpha_i^vee, w>; coroots pair the delta coordinate to 0."""
    if not 0 <= i < w.e:
        raise ValueError(f"residue {i} out of 0..{w.e - 1}")
    return w.lam[i]


def lambda_s(charge: Multicharge) -> AffineWeight:
    """L_{s_1} + ... + L_{s_l}, the weight of the empty shape."""
    return wt(Multipartition.empty(charge.level), charge)


def wt(mp: Multipartition, charge: Multicharge) -> AffineWeight:
    """Lambda_s minus the residue-counted sum of simple roots."""
    if mp.level != charge.level:
        raise ValueError(f"level mismatch: {mp.level} vs {charge.level}")
    e = charge.e
    counts = [0] * e  # boxes of each residue, row by row
    lam = [0] * e  # Lambda_s
    # each run of e residues in a row subtracts alpha_0 + ... + alpha_{e-1} = delta:
    # O(e) per row, as fast as a box walk on small shapes, so every row takes it
    turns = 0
    for comp, s in zip(mp.components, charge.s):
        lam[s % e] += 1
        for width in comp:  # s: residue of the row's first box
            turns += width // e
            for r in range(s, s + width % e):
                counts[r % e] += 1
            s -= 1
    # alpha_i = 2 L_i - L_{i-1} - L_{i+1} (+ delta if i = 0); at e = 2 the
    # two neighbours coincide, giving the -2 off-diagonal Cartan entry.
    for i, n_i in enumerate(counts):
        lam[i] -= 2 * n_i
        lam[(i - 1) % e] += n_i
        lam[(i + 1) % e] += n_i
    return _trusted(tuple(lam), -counts[0] - turns)
