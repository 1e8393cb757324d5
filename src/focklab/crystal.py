"""Crystal operators on multipartitions via the signature rule, and crystal
graph construction with DOT/JSON export.

The signature rule: list the addable (+) and removable (-) residue-i boxes in
a fixed box order, repeatedly cancel every '+' immediately left of a '-',
then act at the rightmost surviving '-' (lowering) or the leftmost surviving
'+' (raising).  The box order depends only on (component, row), never on the
shape itself, so orders are consistent along strings; both the ascending
default and its descending mirror are supported.

`signatures` applies the rule to every residue from one walk over the rows,
with no sort; `signature` is one residue of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .multipartition import (
    BoxCoord,
    Multicharge,
    Multipartition,
    _charge_of,
    _with_component,
    enumerate_multipartitions,
)
from .weight_lattice import AffineWeight, wt


class BoxOrder(enum.Enum):
    """Reading order of signature boxes: (component, row) ascending or the
    descending mirror."""

    ASC = "asc"
    DESC = "desc"


@dataclass(frozen=True)
class SignatureReport:
    """Raw and reduced i-signature of one multipartition."""

    symbols: tuple[tuple[str, BoxCoord], ...]
    reduced: tuple[tuple[str, BoxCoord], ...]
    epsilon: int
    phi: int
    good_removable: BoxCoord | None
    good_addable: BoxCoord | None

    @property
    def word(self) -> str:
        return "".join(sign for sign, _ in self.symbols)

    @property
    def reduced_word(self) -> str:
        return "".join(sign for sign, _ in self.reduced)


def signatures(
    mp: Multipartition,
    charge: Multicharge,
    order: BoxOrder = BoxOrder.ASC,
) -> tuple[SignatureReport, ...]:
    """The i-signature of mp for each residue 0..e-1 from one walk, no sort:
    each row gives its removable, then its addable box (the ASC order; DESC
    reverses each residue's list); ValueError for another level or order."""
    if len(mp.components) < len(charge.s):  # a higher level fails at its first extra component
        raise ValueError(f"level mismatch: {mp.level} vs {charge.level}")
    e = charge.e
    by_residue: list[list[tuple[str, BoxCoord]]] = [[] for _ in range(e)]
    for j, comp in enumerate(mp.components, start=1):
        base = _charge_of(j, charge)
        for a, (width, below) in enumerate(zip(comp + (0,), comp[1:] + (0, 0)), start=1):
            if width > below:
                by_residue[(base + width - a) % e].append(("-", BoxCoord(a, width, j)))
            if a == 1 or comp[a - 2] > width:
                by_residue[(base + width + 1 - a) % e].append(("+", BoxCoord(a, width + 1, j)))
    if order is not BoxOrder.ASC:
        if order is not BoxOrder.DESC:
            raise ValueError(f"order must be a BoxOrder, got {order!r}")
        for symbols in by_residue:
            symbols.reverse()
    reports = []
    for symbols in by_residue:
        stack: list[tuple[str, BoxCoord]] = []  # '-' * epsilon + '+' * phi
        epsilon = 0
        for symbol in symbols:
            if symbol[0] == "+":
                stack.append(symbol)
            elif len(stack) > epsilon:
                stack.pop()
            else:
                stack.append(symbol)
                epsilon += 1
        phi = len(stack) - epsilon
        report = object.__new__(SignatureReport)  # unchecked: the multipartition trust rule
        report.__dict__.update(
            symbols=tuple(symbols), reduced=tuple(stack), epsilon=epsilon, phi=phi,
            good_removable=stack[epsilon - 1][1] if epsilon > 0 else None,
            good_addable=stack[epsilon][1] if phi > 0 else None)
        reports.append(report)
    return tuple(reports)


def signature(
    i: int,
    mp: Multipartition,
    charge: Multicharge,
    order: BoxOrder = BoxOrder.ASC,
) -> SignatureReport:
    """The i-signature of mp under the given box order: residue i of
    `signatures`.  Raises ValueError for a residue outside 0..e-1."""
    if not 0 <= i < charge.e:
        raise ValueError(f"residue {i} out of 0..{charge.e - 1}")
    return signatures(mp, charge, order)[i]


def crystal_e(
    i: int,
    mp: Multipartition,
    charge: Multicharge,
    order: BoxOrder = BoxOrder.ASC,
) -> Multipartition | None:
    """Remove the good removable box, or None when epsilon_i = 0."""
    box = signature(i, mp, charge, order).good_removable
    return None if box is None else _with_component(mp, box, -1)


def crystal_f(
    i: int,
    mp: Multipartition,
    charge: Multicharge,
    order: BoxOrder = BoxOrder.ASC,
) -> Multipartition | None:
    """Add the good addable box, or None when phi_i = 0."""
    box = signature(i, mp, charge, order).good_addable
    return None if box is None else _with_component(mp, box, 1)


@dataclass(frozen=True)
class CrystalGraph:
    """All multipartitions of rank <= max_rank with their f-edges.

    Edges raise rank by exactly one; at most one incoming and one outgoing
    i-edge exists per node and residue.  An edge whose target would exceed
    max_rank is kept as a boundary mark instead of being dropped.
    """

    charge: Multicharge
    order: BoxOrder
    max_rank: int
    nodes: tuple[Multipartition, ...]
    weights: dict[Multipartition, AffineWeight]
    eps: dict[Multipartition, tuple[int, ...]]
    phi: dict[Multipartition, tuple[int, ...]]
    edges: tuple[tuple[Multipartition, int, Multipartition], ...]
    boundary: tuple[tuple[Multipartition, int, Multipartition], ...]

    def to_json(self) -> dict:
        def arrows(edges):
            return [{"from": a.to_lists(), "i": i, "to": b.to_lists()} for a, i, b in edges]
        nodes = [{"mp": mp.to_lists(), "wt": self.weights[mp].to_json(),
                  "eps": list(self.eps[mp]), "phi": list(self.phi[mp])} for mp in self.nodes]
        return {"nodes": nodes, "edges": arrows(self.edges), "boundary": arrows(self.boundary)}

    def to_dot(self) -> str:
        lines = ["digraph crystal {"]
        for mp in self.nodes:
            label = f"{mp.serialize()}\\nwt={self.weights[mp]}"
            lines.append(f'  "{mp.serialize()}" [label="{label}"];')
        for a, i, b in self.edges:
            lines.append(f'  "{a.serialize()}" -> "{b.serialize()}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(
    charge: Multicharge, max_rank: int, order: BoxOrder = BoxOrder.ASC
) -> CrystalGraph:
    """Build the crystal on all multipartitions of rank <= max_rank."""
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    nodes: list[Multipartition] = []
    weights: dict[Multipartition, AffineWeight] = {}
    eps: dict[Multipartition, tuple[int, ...]] = {}
    phi: dict[Multipartition, tuple[int, ...]] = {}
    edges: list[tuple[Multipartition, int, Multipartition]] = []
    boundary: list[tuple[Multipartition, int, Multipartition]] = []

    for n in range(max_rank + 1):
        shapes = enumerate_multipartitions(n, charge.level)
        nodes.extend(shapes)
        arrows = edges if n < max_rank else boundary  # every target has rank n + 1
        for mp in shapes:
            weights[mp] = wt(mp, charge)
            sigs = signatures(mp, charge, order)
            eps[mp] = tuple(sig.epsilon for sig in sigs)
            phi[mp] = tuple(sig.phi for sig in sigs)
            for i, sig in enumerate(sigs):
                if sig.good_addable is not None:
                    arrows.append((mp, i, _with_component(mp, sig.good_addable, 1)))

    return CrystalGraph(
        charge=charge,
        order=order,
        max_rank=max_rank,
        nodes=tuple(nodes),
        weights=weights,
        eps=eps,
        phi=phi,
        edges=tuple(edges),
        boundary=tuple(boundary),
    )


def hw_elements(
    graph: CrystalGraph,
) -> dict[tuple[int, AffineWeight], list[Multipartition]]:
    """Nodes with no defined raising operator, grouped by (rank, weight)."""
    out: dict[tuple[int, AffineWeight], list[Multipartition]] = {}
    for mp in graph.nodes:
        if all(v == 0 for v in graph.eps[mp]):
            out.setdefault((mp.rank, graph.weights[mp]), []).append(mp)
    for members in out.values():
        members.sort(key=Multipartition.serialize)
    return out
