"""Verifiers: Fock-space relation checker, crystal-axiom checker,
perfect-basis checker, and the comparison between crystal-primitive nodes
and exact kernel dimensions.

Every check returns witness lists rather than booleans; a check passes iff
its witness list is empty.  Two checks are measurements expected to produce
findings on the standard multipartition basis (`support_iff` and
`residual_strict`) and are treated as informational by the verification
drivers, never as failures.

`check_fock_relations` and `check_perfect_basis` ask `apply_e`/`apply_f`
for the image of each basis vector they meet once, keep it in tables that
live for one call, and evaluate every other vector of the sweep (e_i f_j v,
f_j e_i v, the depth walks, the Pieri sums, each Serre word once per basis
vector, the perfect-basis residuals) as an {int id: coeff} dict by linear
extension through them.  They look the operators up at call time, so
rebinding them (a tracer, a fault-injection test) changes what is checked,
depths included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb, inf

from . import _linalg
from .crystal import BoxOrder, CrystalGraph, build_graph, hw_elements, signatures
from .fock_space import FockVector, apply_e, apply_f, slice_basis
from .multipartition import (
    Multicharge,
    Multipartition,
    add_box,
    addable_boxes,
    enumerate_multipartitions,
    remove_box,
    removable_boxes,
)
from .weight_lattice import cartan_entry, pair_coroot, simple_root, wt

#: Axioms whose findings are reported but never fail a verification run.
INFORMATIONAL_AXIOMS = frozenset({"support_iff", "residual_strict"})


@dataclass(frozen=True)
class AxiomReport:
    """One named check with its counterexample witnesses."""

    axiom: str
    witnesses: tuple[dict, ...]

    @property
    def status(self) -> str:
        return "pass" if not self.witnesses else "fail"

    @property
    def informational(self) -> bool:
        return self.axiom in INFORMATIONAL_AXIOMS

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "status": self.status,
            "witnesses": list(self.witnesses),
        }


def reports_ok(reports: list[AxiomReport]) -> bool:
    """True when every non-informational check passed."""
    return all(r.status == "pass" for r in reports if not r.informational)


def check_fock_relations(charge: Multicharge, max_rank: int) -> list[AxiomReport]:
    """Chevalley relations on every basis vector up to `max_rank`.

    `weight_step`: e_i and f_i move weights by +-alpha_i; `sl2_commutators`:
    [e_i, f_j] = delta_ij h_i; `serre`: the Serre relations among the e_i
    and among the f_i; `pieri`: summed over residues, e_i and f_i remove and
    add every box once; `depth_bound`: the e_i-depth is at most the rank;
    `positivity`: no negative coefficients.  The depth is measured with the
    swept e_i, and the walk stops at the first value above the rank, so a
    faulty e_i that never lowers the rank is witnessed with depth rank + 1.
    Raises ValueError on a negative `max_rank`.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    bad = {axiom: [] for axiom in ("weight_step", "sl2_commutators", "serre",
                                   "pieri", "depth_bound", "positivity")}
    alphas = [simple_root(i, charge.e) for i in range(charge.e)]
    images = _BasisImages(charge)
    act = images.act
    for n in range(max_rank + 1):
        for mp in enumerate_multipartitions(n, charge.level):
            k = images.intern(mp)
            v, weight = {k: 1}, images.weight(k)
            ups = [dict(images.image("f", i, k)) for i in range(charge.e)]
            downs = [dict(images.image("e", i, k)) for i in range(charge.e)]
            for i, (up, down) in enumerate(zip(ups, downs)):
                for op, image, target_weight in (
                    ("f", up, weight - alphas[i]), ("e", down, weight + alphas[i])
                ):
                    for target in image:
                        if images.weight(target) != target_weight:
                            bad["weight_step"].append({"mp": mp.to_lists(), "i": i, "op": op})
                if any(c < 0 for c in (*up.values(), *down.values())):
                    bad["positivity"].append({"mp": mp.to_lists(), "i": i})
                d = images.depth(i, v, n)
                if d > n:
                    bad["depth_bound"].append({"mp": mp.to_lists(), "i": i, "depth": d})
                h = pair_coroot(i, weight)
                for j, fj in enumerate(ups):
                    if _combine([(1, act("e", i, fj)), (-1, act("f", j, down)),
                                 (-h if i == j else 0, v)]):
                        bad["sl2_commutators"].append({"mp": mp.to_lists(), "i": i, "j": j})
            removed = {images.intern(remove_box(mp, b)): 1
                       for b in removable_boxes(mp, charge)}
            added = {images.intern(add_box(mp, b)): 1
                     for b in addable_boxes(mp, charge)}
            if (_combine((1, x) for x in downs) != removed
                    or _combine((1, x) for x in ups) != added):
                bad["pieri"].append({"mp": mp.to_lists()})
            sums = [_serre_sums(act, "e", downs), _serre_sums(act, "f", ups)]
            for i, j in sums[0]:
                if any(s[i, j] for s in sums):
                    bad["serre"].append({"mp": mp.to_lists(), "i": i, "j": j})
    return [AxiomReport(axiom, tuple(found)) for axiom, found in bad.items()]


class _BasisImages:
    """One sweep's tables of e_i and f_i on basis vectors, over int ids.

    `intern` numbers the multipartitions the sweep meets (`mps[id]` maps
    back).  `image(op, i, id)` is e_i (op "e") or f_i (op "f") of a basis
    vector as a tuple of (id, coeff) pairs: asked of the module-level
    `apply_e`/`apply_f` the first time, then kept, integral coefficients as
    ints.  `act` extends it linearly to any {id: coeff} vector, and `depth`
    walks e_i on one.
    """

    def __init__(self, charge: Multicharge):
        self.charge = charge
        self.ids: dict[Multipartition, int] = {}
        self.mps: list[Multipartition] = []
        self._weights: dict[int, object] = {}
        self._rows = {op: [{} for _ in range(charge.e)] for op in "ef"}

    def intern(self, mp: Multipartition) -> int:
        k = self.ids.get(mp)
        if k is None:
            k = self.ids[mp] = len(self.mps)
            self.mps.append(mp)
        return k

    def weight(self, k: int):
        if k not in self._weights:
            self._weights[k] = wt(self.mps[k], self.charge)
        return self._weights[k]

    def image(self, op: str, i: int, k: int) -> tuple:
        rows = self._rows[op][i]
        if k not in rows:
            apply = apply_e if op == "e" else apply_f
            terms = apply(i, FockVector.basis(self.mps[k]), self.charge).terms
            rows[k] = tuple((self.intern(mp), int(c) if c.denominator == 1 else c)
                            for mp, c in terms.items())
        return rows[k]

    def act(self, op: str, i: int, vec: dict) -> dict:
        rows, total = self._rows[op][i], {}
        for k, c in vec.items():
            row = rows.get(k)
            for t, a in self.image(op, i, k) if row is None else row:
                total[t] = total.get(t, 0) + c * a
        return {t: c for t, c in total.items() if c}

    def depth(self, i: int, vec: dict, bound: int) -> int | float:
        """Largest d with e_i^d vec nonzero, -inf for the zero vector, walked
        through the tables; the walk stops at the first d above `bound`."""
        if not vec:
            return -inf
        d, walk = 0, self.act("e", i, vec)
        while walk and d <= bound:
            d += 1
            walk = self.act("e", i, walk)
        return d


def _combine(scaled) -> dict:
    """The sum of c * vec over the (c, vec) pairs, zeros dropped."""
    total: dict = {}
    for scale, vec in scaled:
        for t, c in vec.items():
            total[t] = total.get(t, 0) + scale * c
    return {t: c for t, c in total.items() if c}


def _serre_sums(act, op: str, ones: list[dict]) -> dict[tuple[int, int], dict]:
    """{(i, j): sum_k (-1)^k C(m, k) op_i^(m-k) op_j op_i^k v} over i != j,
    m = 1 - a_ij.  Each word op_{a_1}...op_{a_k} v is built once, right to
    left from the words `ones[i]` = op_i v, and shared by the sums it is in."""
    e = len(ones)
    words = {(i,): one for i, one in enumerate(ones)}

    def word(letters: tuple[int, ...]) -> dict:
        # a loop, not recursion: a self-referencing closure would be a
        # reference cycle keeping every word alive until the next gc pass
        for start in range(len(letters) - 2, -1, -1):
            if letters[start:] not in words:
                words[letters[start:]] = act(
                    op, letters[start], words[letters[start + 1:]])
        return words[letters]

    sums = {}
    for i, j in permutations(range(e), 2):
        m = 1 - cartan_entry(i, j, e)
        sums[i, j] = _combine(
            ((-1) ** k * comb(m, k), word((i,) * (m - k) + (j,) + (i,) * k))
            for k in range(m + 1))
    return sums


def check_crystal_axioms(graph: CrystalGraph) -> list[AxiomReport]:
    """Verify the crystal axioms on a built graph, from its cached data.

    The checks use only the stored nodes, edges, statistics and weights, so
    a mutated graph (edge deleted or redirected) is detectable.  Boundary
    marks excuse missing top-rank outgoing edges.
    """
    e = graph.charge.e
    alphas = [simple_root(i, e) for i in range(e)]

    pairing_bad = []
    for mp in graph.nodes:
        for i in range(e):
            expected = graph.eps[mp][i] + pair_coroot(i, graph.weights[mp])
            if graph.phi[mp][i] != expected:
                pairing_bad.append(
                    {"mp": mp.to_lists(), "i": i,
                     "observed": graph.phi[mp][i], "expected": expected}
                )

    e_step_bad = []
    f_step_bad = []
    for a, i, b in graph.edges:
        if b.rank != a.rank + 1 or graph.weights[b] != graph.weights[a] - alphas[i]:
            f_step_bad.append(
                {"mp": a.to_lists(), "i": i, "to": b.to_lists(),
                 "observed": str(graph.weights[b]),
                 "expected": str(graph.weights[a] - alphas[i])}
            )
        if (
            graph.eps[b][i] != graph.eps[a][i] + 1
            or graph.phi[b][i] != graph.phi[a][i] - 1
        ):
            f_step_bad.append(
                {"mp": a.to_lists(), "i": i, "to": b.to_lists(),
                 "observed": [graph.eps[b][i], graph.phi[b][i]],
                 "expected": [graph.eps[a][i] + 1, graph.phi[a][i] - 1]}
            )
        if (
            graph.weights[a] != graph.weights[b] + alphas[i]
            or graph.eps[a][i] != graph.eps[b][i] - 1
            or graph.phi[a][i] != graph.phi[b][i] + 1
        ):
            e_step_bad.append(
                {"mp": b.to_lists(), "i": i, "to": a.to_lists()}
            )

    uniq_bad = []
    out_seen: dict[tuple[Multipartition, int], int] = {}
    in_seen: dict[tuple[Multipartition, int], int] = {}
    for a, i, b in graph.edges:
        out_seen[(a, i)] = out_seen.get((a, i), 0) + 1
        in_seen[(b, i)] = in_seen.get((b, i), 0) + 1
    for seen, direction in ((out_seen, "outgoing"), (in_seen, "incoming")):
        repeated = [(key, count) for key, count in seen.items() if count > 1]
        for (mp, i), count in sorted(
            repeated, key=lambda kv: (kv[0][0].serialize(), kv[0][1])
        ):
            uniq_bad.append({"mp": mp.to_lists(), "i": i, direction: count})

    boundary_set = {(a, i) for a, i, _ in graph.boundary}
    completeness_bad = []
    for mp in graph.nodes:
        for i in range(e):
            has_out = (mp, i) in out_seen
            has_boundary = (mp, i) in boundary_set
            if (graph.phi[mp][i] > 0) != (has_out or has_boundary) or (
                has_out and has_boundary
            ):
                completeness_bad.append(
                    {"mp": mp.to_lists(), "i": i, "phi": graph.phi[mp][i],
                     "outgoing": has_out, "boundary": has_boundary}
                )
            has_in = (mp, i) in in_seen
            if (graph.eps[mp][i] > 0) != has_in:
                completeness_bad.append(
                    {"mp": mp.to_lists(), "i": i, "eps": graph.eps[mp][i],
                     "incoming": has_in}
                )

    return [
        AxiomReport("phi_eps_pairing", tuple(pairing_bad)),
        AxiomReport("e_step", tuple(e_step_bad)),
        AxiomReport("f_step", tuple(f_step_bad)),
        AxiomReport("mutual_inverse", tuple(uniq_bad)),
        AxiomReport("string_completeness", tuple(completeness_bad)),
        AxiomReport("neg_infinity_clause", ()),
    ]


def check_perfect_basis(
    charge: Multicharge, max_rank: int, order: BoxOrder = BoxOrder.ASC
) -> list[AxiomReport]:
    """Measure the perfect-basis conditions on the multipartition basis.

    `mutual_inverse` and `leading_term` are hard requirements.  The iff
    bullet (`support_iff`) and the strict residual bound (`residual_strict`,
    residual depth < depth - 1) are measurements: the standard basis is
    known to produce findings there, which are reported with witnesses and
    must never be silently aggregated away.  `residual_within` asserts the
    weaker bound that subtracting the leading term never reaches depth.
    Each multipartition's signatures are computed once per call; depths are
    measured with the swept e_i, and a walk stops at the first value above
    the rank, as in `check_fock_relations`.  Raises ValueError on a negative
    `max_rank`.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    bad = {axiom: [] for axiom in ("mutual_inverse", "support_iff", "leading_term",
                                   "residual_within", "residual_strict")}
    images = _BasisImages(charge)
    sigs: dict[Multipartition, tuple] = {}

    def crystal(op: str, i: int, mp: Multipartition) -> Multipartition | None:
        # crystal_e (op "e") or crystal_f (op "f"), one `signatures` per mp
        if mp not in sigs:
            sigs[mp] = signatures(mp, charge, order)
        sig = sigs[mp][i]
        if op == "e":
            return None if sig.good_removable is None else remove_box(mp, sig.good_removable)
        return None if sig.good_addable is None else add_box(mp, sig.good_addable)

    for n in range(max_rank + 1):
        for mp in enumerate_multipartitions(n, charge.level):
            k = images.intern(mp)
            for i in range(charge.e):
                up, down = crystal("f", i, mp), crystal("e", i, mp)
                if up is not None and crystal("e", i, up) != mp:
                    bad["mutual_inverse"].append(
                        {"mp": mp.to_lists(), "i": i, "f_image": up.to_lists()})
                if down is not None and crystal("f", i, down) != mp:
                    bad["mutual_inverse"].append(
                        {"mp": mp.to_lists(), "i": i, "e_image": down.to_lists()})
                image = dict(images.image("e", i, k))
                if (down is not None) != bool(image):
                    bad["support_iff"].append(
                        {"mp": mp.to_lists(), "i": i, "crystal_e_defined": down is not None,
                         "e_nonzero": bool(image)})
                if down is None:
                    continue
                scalar = image.pop(images.intern(down), 0)
                if scalar == 0:
                    bad["leading_term"].append(
                        {"mp": mp.to_lists(), "i": i, "good_box_coeff": "0"})
                    continue
                # with the leading term popped, `image` is the residual
                d_mp, d_res = images.depth(i, {k: 1}, n), images.depth(i, image, n)
                if not d_res < d_mp:
                    bad["residual_within"].append(
                        {"mp": mp.to_lists(), "i": i, "scalar": str(scalar),
                         "residual_depth": d_res, "depth": d_mp})
                if not d_res < d_mp - 1:
                    bad["residual_strict"].append(
                        {"mp": mp.to_lists(), "i": i, "scalar": str(scalar),
                         "residual_depth": str(d_res), "depth": d_mp})
    return [AxiomReport(axiom, tuple(found)) for axiom, found in bad.items()]


def kernel_dimension_by_weight(
    n: int, charge: Multicharge
) -> dict[tuple[int, object], int]:
    """Exact dimension of the joint kernel of all e_i per (rank, weight).

    e_i moves a shape of weight tau to shapes of weight tau + alpha_i, so on
    a weight slice the e_i land in distinct weight spaces and their joint
    kernel is the kernel of e = sum e_i.  e sends a shape to each shape with
    one removable box less, with coefficient 1: one sparse int row per shape
    holds that image, the transpose of e's slice matrix, of the same rank.
    """
    codomain = slice_basis(n - 1, charge) if n > 0 else ()
    index = {mp: r for r, mp in enumerate(codomain)}
    by_weight: dict[object, list[dict]] = {}
    for mp in slice_basis(n, charge):
        row = {index[remove_box(mp, box)]: 1 for box in removable_boxes(mp, charge)}
        by_weight.setdefault(wt(mp, charge), []).append(row)
    return {(n, tau): len(rows) - len(_linalg.echelon(rows)[0])
            for tau, rows in by_weight.items()}


def compare_components(
    charge: Multicharge, max_rank: int, order: BoxOrder = BoxOrder.ASC
) -> list[AxiomReport]:
    """Crystal-primitive node counts against kernel dimensions, slicewise."""
    graph = build_graph(charge, max_rank, order)
    hw = hw_elements(graph)
    witnesses = []
    for n in range(max_rank + 1):
        kernel_dims = kernel_dimension_by_weight(n, charge)
        seen_keys = set(kernel_dims) | {k for k in hw if k[0] == n}
        for key in sorted(
            seen_keys, key=lambda k: (k[0], tuple(k[1].lam), k[1].delta)
        ):
            crystal_count = len(hw.get(key, []))
            kernel_dim = kernel_dims.get(key, 0)
            if crystal_count != kernel_dim:
                witnesses.append(
                    {"rank": key[0], "wt": key[1].to_json(),
                     "crystal_primitive": crystal_count,
                     "kernel_dim": kernel_dim}
                )
    return [AxiomReport("component_count", tuple(witnesses))]
