"""Core combinatorics of l-partitions: boxes, residues, addable and removable
cells, enumeration and serialization.

Conventions: rows, columns and components are 1-based.  A box is the triple
(row, col, comp) and belongs to the diagram of ``mp`` when
``0 < col <= mp.components[comp-1][row-1]``.  All values here are immutable
and every operation is a pure function.  `Multipartition(...)`, `from_lists`,
`parse_multipartition`, `add_box` and `remove_box` validate a caller's input;
`_trusted`, `_moved`/`_with_component` on a listed box, `enumerate_multipartitions`
and `crystal.signatures` build unchecked, their values canonical by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple


class BoxCoord(NamedTuple):
    """A cell (row, col, comp) of an l-partition diagram, all 1-based."""

    row: int
    col: int
    comp: int


@dataclass(frozen=True)
class Multicharge:
    """The pair (e, (s_1, ..., s_l)) fixing residues mod e and the level l."""

    e: int
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(type(v) is not int for v in (self.e, *self.s)):
            raise ValueError(f"e and s must be integers, got {self.e!r}, {self.s!r}")
        if self.e < 2:
            raise ValueError(f"e must be >= 2, got {self.e}")
        if len(self.s) < 1:
            raise ValueError("multicharge needs at least one component")
        object.__setattr__(self, "s", tuple(self.s))

    @property
    def level(self) -> int:
        return len(self.s)

    def to_json(self) -> dict:
        return {"e": self.e, "s": list(self.s)}

    @classmethod
    def from_json(cls, data: dict) -> "Multicharge":
        if (not isinstance(data, dict) or set(data) != {"e", "s"}
                or not isinstance(data["s"], list)):
            raise ValueError(f"expected {{'e':..,'s':[..]}}, got {data!r}")
        return cls(data["e"], tuple(data["s"]))


def _validate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Canonicalize one partition: strip trailing zeros, reject bad parts."""
    if any(type(p) is not int for p in parts):  # bools and floats included
        raise ValueError(f"parts must be integers, got {parts!r}")
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {parts}")
    if parts and parts[-1] <= 0:
        raise ValueError(f"parts must be positive: {parts}")
    return parts


@dataclass(frozen=True)
class Multipartition:
    """An l-tuple of integer partitions, stored in canonical form.

    Two multipartitions are equal iff their canonical forms (trailing zero
    parts stripped) are equal.
    """

    components: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise ValueError("a multipartition needs at least one component")
        object.__setattr__(
            self, "components", tuple(_validate_parts(c) for c in self.components)
        )

    @classmethod
    def from_lists(cls, data: list) -> "Multipartition":
        if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
            raise ValueError(f"expected a list of lists, got {data!r}")
        return cls(tuple(tuple(c) for c in data))

    @classmethod
    def empty(cls, level: int) -> "Multipartition":
        return cls(((),) * level)

    @property
    def level(self) -> int:
        return len(self.components)

    @property
    def rank(self) -> int:
        return sum(sum(c) for c in self.components)

    def to_lists(self) -> list[list[int]]:
        return [list(c) for c in self.components]

    def serialize(self) -> str:
        """Compact JSON text, joined directly; the enumeration sort key."""
        return "[[" + "],[".join(",".join(map(str, c)) for c in self.components) + "]]"

    def __str__(self) -> str:
        return self.serialize()


def parse_multipartition(text: str, level: int | None = None) -> Multipartition:
    """Parse a nested-integer-array document like ``[[2,1],[1]]``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a valid multipartition document: {exc}") from exc
    mp = Multipartition.from_lists(data)
    if level is not None and mp.level != level:
        raise ValueError(f"expected {level} components, got {mp.level}")
    return mp


def boxes(mp: Multipartition) -> set[BoxCoord]:
    """All cells of the diagram; cardinality equals the rank."""
    out: set[BoxCoord] = set()
    for j, comp in enumerate(mp.components, start=1):
        for a, width in enumerate(comp, start=1):
            for b in range(1, width + 1):
                out.add(BoxCoord(a, b, j))
    return out


def residue(box: BoxCoord, charge: Multicharge) -> int:
    """(col - row + s_comp) mod e."""
    return (box.col - box.row + _charge_of(box.comp, charge)) % charge.e


def _charge_of(j: int, charge: Multicharge) -> int:
    """s_j, or ValueError for a component outside 1..level."""
    if not 1 <= j <= len(charge.s):
        raise ValueError(f"component {j} out of 1..{len(charge.s)}")
    return charge.s[j - 1]


def removable_boxes(
    mp: Multipartition, charge: Multicharge, i: int | None = None
) -> list[BoxCoord]:
    """Boxes whose removal leaves a valid multipartition, optionally filtered
    to residue i, in canonical (comp, row, col) order.  The filter reads
    s_comp only for a component with a candidate box, so a component beyond
    the charge's level raises ValueError there, as `residue` would."""
    found = []
    for j, comp in enumerate(mp.components, start=1):
        if i is not None and comp:
            base = _charge_of(j, charge)
        for a, width in enumerate(comp, start=1):
            below = comp[a] if a < len(comp) else 0
            if width > below and (i is None or (base + width - a) % charge.e == i):
                found.append(BoxCoord(a, width, j))
    return found


def addable_boxes(
    mp: Multipartition, charge: Multicharge, i: int | None = None
) -> list[BoxCoord]:
    """Boxes whose addition gives a valid multipartition, dual to
    removable_boxes (every component has one to filter)."""
    found = []
    for j, comp in enumerate(mp.components, start=1):
        if i is not None:
            base = _charge_of(j, charge)
        above = None
        for a, width in enumerate(comp + (0,), start=1):
            if (above is None or above > width) and (
                i is None or (base + width + 1 - a) % charge.e == i
            ):
                found.append(BoxCoord(a, width + 1, j))
            above = width
    return found


def add_box(mp: Multipartition, box: BoxCoord) -> Multipartition:
    """The multipartition differing from mp by exactly the given addable box."""
    a, b, j = box
    if not 1 <= j <= mp.level:
        raise ValueError(f"component {j} out of 1..{mp.level}")
    comp = mp.components[j - 1]
    width = comp[a - 1] if 1 <= a <= len(comp) else 0
    if not (1 <= a <= len(comp) + 1 and width + 1 == b and (a == 1 or comp[a - 2] > width)):
        raise ValueError(f"box {box} is not addable for {mp}")
    return _with_component(mp, box, 1)


def remove_box(mp: Multipartition, box: BoxCoord) -> Multipartition:
    """The multipartition differing from mp by removing the given box."""
    a, b, j = box
    if not 1 <= j <= mp.level:
        raise ValueError(f"component {j} out of 1..{mp.level}")
    comp = mp.components[j - 1]
    below = comp[a] if 1 <= a < len(comp) else 0
    if not (1 <= a <= len(comp) and comp[a - 1] == b and b > below):
        raise ValueError(f"box {box} is not removable for {mp}")
    return _with_component(mp, box, -1)


def _trusted(components: tuple[tuple[int, ...], ...]) -> Multipartition:
    """Multipartition(components) unchecked: parts canonical already."""
    out = object.__new__(Multipartition)
    object.__setattr__(out, "components", components)
    return out


def _moved(components: tuple[tuple[int, ...], ...], box: BoxCoord, step: int):
    """components with the box's row grown by `step` (1 adds, -1 removes;
    an emptied row, the last, is dropped)."""
    a, _, j = box
    comp = components[j - 1]
    width = (comp[a - 1] if a <= len(comp) else 0) + step
    return components[: j - 1] + (
        comp[: a - 1] + ((width,) if width else ()) + comp[a:],) + components[j:]


def _with_component(mp: Multipartition, box: BoxCoord, step: int) -> Multipartition:
    return _trusted(_moved(mp.components, box, step))


@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples."""

    def gen(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


@lru_cache(maxsize=None)
def enumerate_multipartitions(n: int, level: int) -> tuple[Multipartition, ...]:
    """All l-partitions of n, each once, sorted by serialized canonical form."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if level < 1:
        raise ValueError("level must be at least 1")

    def gen(remaining: int, comps_left: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if comps_left == 1:
            for p in _partitions_of(remaining):
                yield (p,)
            return
        for head in range(remaining + 1):
            for p in _partitions_of(head):
                for rest in gen(remaining - head, comps_left - 1):
                    yield (p,) + rest

    result = [_trusted(c) for c in gen(n, level)]
    result.sort(key=Multipartition.serialize)
    return tuple(result)
