"""Verifiers: Fock-space relation checker, crystal-axiom checker,
perfect-basis checker, and the comparison between crystal-primitive nodes
and exact kernel dimensions.

Every check returns witness lists rather than booleans; a check passes iff
its witness list is empty.  Two checks are measurements expected to produce
findings on the standard multipartition basis (`support_iff` and
`residual_strict`) and are treated as informational by the verification
drivers, never as failures.

`check_fock_relations` and `check_perfect_basis` ask `apply_e`/`apply_f`
for the image of each basis vector they meet once, as a row of (int id,
coeff) pairs kept for one call, and form every product of the sweep (e_i f_j
v - f_j e_i v - h_i v into one dict, the Pieri sums, the depth walks, the
perfect-basis residuals) as flat loops over those rows.  Each Serre sum is
evaluated grouped by leading letter, sum_a op_a(sum_k c_k suffix_k v), on
suffix words kept per basis vector.  They look the operators up at call
time, so rebinding them (a tracer, a fault-injection test) changes what is
checked, depths included.  `check_crystal_axioms` and `compare_components`
read a `CrystalGraph` they are given and build none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb, inf

from . import _linalg
from .crystal import BoxOrder, CrystalGraph, hw_elements, signatures
from .fock_space import FockVector, _removal_rows, apply_e, apply_f
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
    Products are summed by `_add` over the basis images' rows, Serre sums
    by `_serre_sum`.  Raises ValueError on a negative `max_rank`.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    bad = {axiom: [] for axiom in ("weight_step", "sl2_commutators", "serre",
                                   "pieri", "depth_bound", "positivity")}
    alphas = [simple_root(i, charge.e) for i in range(charge.e)]
    images = _BasisImages(charge)
    E, F = ([_Rows(images, op, i) for i in range(charge.e)] for op in "ef")
    serre, suffixes = _serre_groups(charge.e)
    for n in range(max_rank + 1):
        for mp in enumerate_multipartitions(n, charge.level):
            k = images.intern(mp)
            v, weight = ((k, 1),), images.weight(k)
            ups, downs = [F[i][k] for i in range(charge.e)], [E[i][k] for i in range(charge.e)]
            for i, (up, down) in enumerate(zip(ups, downs)):
                for op, image, target_weight in (
                    ("f", up, weight - alphas[i]), ("e", down, weight + alphas[i])
                ):
                    for target, _ in image:
                        if images.weight(target) != target_weight:
                            bad["weight_step"].append({"mp": mp.to_lists(), "i": i, "op": op})
                if any(c < 0 for _, c in (*up, *down)):
                    bad["positivity"].append({"mp": mp.to_lists(), "i": i})
                d = _depth(E[i], v, n)
                if d > n:
                    bad["depth_bound"].append({"mp": mp.to_lists(), "i": i, "depth": d})
                h = pair_coroot(i, weight)
                for j, up_j in enumerate(ups):
                    total = _add({k: -h} if i == j else {}, 1, E[i], up_j)
                    if any(_add(total, -1, F[j], down).values()):
                        bad["sl2_commutators"].append({"mp": mp.to_lists(), "i": i, "j": j})
            removed = {images.intern(remove_box(mp, b)): -1
                       for b in removable_boxes(mp, charge)}
            added = {images.intern(add_box(mp, b)): -1
                     for b in addable_boxes(mp, charge)}
            for total, ones in ((removed, downs), (added, ups)):
                for t, a in (pair for one in ones for pair in one):
                    total[t] = total.get(t, 0) + a
            if any(removed.values()) or any(added.values()):
                bad["pieri"].append({"mp": mp.to_lists()})
            words = [_serre_words(E, downs, suffixes), _serre_words(F, ups, suffixes)]
            for (i, j), groups in serre.items():
                sums = [_serre_sum(rows, w, groups) for rows, w in zip((E, F), words)]
                if any(c for total in sums for c in total.values()):
                    bad["serre"].append({"mp": mp.to_lists(), "i": i, "j": j})
    return [AxiomReport(axiom, tuple(found)) for axiom, found in bad.items()]


class _BasisImages:
    """One sweep's numbering of the multipartitions it meets by int ids
    (`mps[id]` maps back), with their weights.  The sweep holds its `_Rows`,
    one per operator and residue; they point here, not the reverse."""

    def __init__(self, charge: Multicharge):
        self.charge = charge
        self.ids: dict[Multipartition, int] = {}
        self.mps: list[Multipartition] = []
        self._weights: dict[int, object] = {}

    def intern(self, mp: Multipartition) -> int:
        k = self.ids.setdefault(mp, len(self.mps))
        if k == len(self.mps):
            self.mps.append(mp)
        return k

    def weight(self, k: int):
        if k not in self._weights:
            self._weights[k] = wt(self.mps[k], self.charge)
        return self._weights[k]


class _Rows(dict):
    """op_i on basis vectors, {id: ((id, coeff), ...)}: asked of the
    module-level `apply_e` (op "e") or `apply_f` (op "f") the first time an
    id is looked up, then kept, integral coefficients as ints."""

    def __init__(self, images: _BasisImages, op: str, i: int):
        self.images, self.op, self.i = images, op, i

    def __missing__(self, k: int) -> tuple:
        images, apply = self.images, apply_e if self.op == "e" else apply_f
        terms = apply(self.i, FockVector.basis(images.mps[k]), images.charge).terms
        row = self[k] = tuple((images.intern(mp), int(c) if c.denominator == 1 else c)
                              for mp, c in terms.items())
        return row


def _add(total: dict, scale, rows: _Rows, vec) -> dict:
    """total += scale * op_i(vec), op_i given by its `rows` and vec by its
    (id, coeff) pairs; entries that sum to zero are kept."""
    for k, c in vec:
        c *= scale
        for t, a in rows[k]:
            total[t] = total.get(t, 0) + c * a
    return total


def _depth(rows: _Rows, vec, bound: int) -> int | float:
    """Largest d with e_i^d vec nonzero (-inf for zero), e_i given by its
    `rows`, vec by its pairs; the walk stops at the first d above `bound`."""
    d, walk = -inf, dict(vec)  # d runs -inf, 0, 1, ...
    while any(walk.values()) and d <= bound:
        d, walk = max(d + 1, 0), _add({}, 1, rows, walk.items())
    return d


def _serre_groups(e: int) -> tuple[dict, list]:
    """{(i, j): groups} over i != j: the Serre sum sum_k (-1)^k C(m, k)
    op_i^(m-k) op_j op_i^k, m = 1 - a_ij, with its words grouped by leading
    letter a into (a, [(c_k, rest of word k), ...]); and the suffixes of
    length >= 2 of those rests, shortest first."""
    sums = {}
    for i, j in permutations(range(e), 2):
        m, groups = 1 - cartan_entry(i, j, e), {}
        for k in range(m + 1):
            word = (i,) * (m - k) + (j,) + (i,) * k
            groups.setdefault(word[0], []).append(((-1) ** k * comb(m, k), word[1:]))
        sums[i, j] = tuple(groups.items())
    rests = {rest for groups in sums.values() for _, terms in groups for _, rest in terms}
    return sums, sorted({rest[r:] for rest in rests for r in range(len(rest) - 1)}, key=len)


def _serre_words(rows: list[_Rows], ones: list[tuple], suffixes: list) -> dict:
    """{letters: op_{a_1}...op_{a_r} v} on one basis vector v, from its images
    `ones` under op_0, op_1, ... and the `suffixes` of `_serre_groups`."""
    words = {(i,): dict(one) for i, one in enumerate(ones)}
    for letters in suffixes:
        words[letters] = _add({}, 1, rows[letters[0]], words[letters[1:]].items())
    return words


def _serre_sum(rows: list[_Rows], words: dict, groups: tuple) -> dict:
    """One Serre sum on a basis vector v, sum_a op_a(sum_k c_k suffix_k v)
    over `groups` of `_serre_groups`, on the `_serre_words` of v; zero
    entries kept."""
    total: dict = {}
    for a, terms in groups:
        inner: dict = {}
        for c, suffix in terms:
            for t, x in words[suffix].items():
                inner[t] = inner.get(t, 0) + c * x
        _add(total, 1, rows[a], inner.items())
    return total


def check_crystal_axioms(graph: CrystalGraph) -> list[AxiomReport]:
    """Verify the crystal axioms on a built graph, from its cached data.

    The checks use only the stored nodes, edges, statistics and weights, so
    a mutated graph (edge deleted or redirected) is detectable.  One pass
    over the edges tests each edge a -i-> b once: `f_step` asks that the
    rank rise by one and the weight drop by alpha_i, and that eps_i rise
    and phi_i drop by one; `e_step` witnesses, from b, every edge that
    breaks the weight or statistics law (the same laws read backwards).
    The pass also counts each node's outgoing and incoming i-edges for
    `mutual_inverse`; one pass over the nodes then checks `phi_eps_pairing`
    and `string_completeness`, where boundary marks excuse missing top-rank
    outgoing edges.
    """
    e, weights, eps, phi = graph.charge.e, graph.weights, graph.eps, graph.phi
    alphas = [simple_root(i, e) for i in range(e)]
    bad = {axiom: [] for axiom in ("phi_eps_pairing", "e_step", "f_step", "mutual_inverse",
                                   "string_completeness", "neg_infinity_clause")}
    out_seen: dict[tuple[Multipartition, int], int] = {}
    in_seen: dict[tuple[Multipartition, int], int] = {}
    for a, i, b in graph.edges:
        out_seen[a, i] = out_seen.get((a, i), 0) + 1
        in_seen[b, i] = in_seen.get((b, i), 0) + 1
        expected = weights[a] - alphas[i]
        moved = weights[b] != expected
        stats = eps[b][i] != eps[a][i] + 1 or phi[b][i] != phi[a][i] - 1
        if b.rank != a.rank + 1 or moved:
            bad["f_step"].append(
                {"mp": a.to_lists(), "i": i, "to": b.to_lists(),
                 "observed": str(weights[b]), "expected": str(expected)})
        if stats:
            bad["f_step"].append(
                {"mp": a.to_lists(), "i": i, "to": b.to_lists(),
                 "observed": [eps[b][i], phi[b][i]],
                 "expected": [eps[a][i] + 1, phi[a][i] - 1]})
        if moved or stats:
            bad["e_step"].append({"mp": b.to_lists(), "i": i, "to": a.to_lists()})

    for seen, direction in ((out_seen, "outgoing"), (in_seen, "incoming")):
        repeated = [(key, count) for key, count in seen.items() if count > 1]
        for (mp, i), count in sorted(repeated, key=lambda kv: (kv[0][0].serialize(), kv[0][1])):
            bad["mutual_inverse"].append({"mp": mp.to_lists(), "i": i, direction: count})

    boundary = {(a, i) for a, i, _ in graph.boundary}
    for mp in graph.nodes:
        for i in range(e):
            expected = eps[mp][i] + pair_coroot(i, weights[mp])
            if phi[mp][i] != expected:
                bad["phi_eps_pairing"].append(
                    {"mp": mp.to_lists(), "i": i, "observed": phi[mp][i], "expected": expected})
            has_out, has_boundary = (mp, i) in out_seen, (mp, i) in boundary
            if (phi[mp][i] > 0) != (has_out or has_boundary) or (has_out and has_boundary):
                bad["string_completeness"].append(
                    {"mp": mp.to_lists(), "i": i, "phi": phi[mp][i],
                     "outgoing": has_out, "boundary": has_boundary})
            has_in = (mp, i) in in_seen
            if (eps[mp][i] > 0) != has_in:
                bad["string_completeness"].append(
                    {"mp": mp.to_lists(), "i": i, "eps": eps[mp][i], "incoming": has_in})
    return [AxiomReport(axiom, tuple(found)) for axiom, found in bad.items()]


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
    E = [_Rows(images, "e", i) for i in range(charge.e)]
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
                image = dict(E[i][k])
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
                d_mp, d_res = _depth(E[i], ((k, 1),), n), _depth(E[i], image.items(), n)
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
    """Exact dimension of the joint kernel of all e_i per (rank, weight): per
    weight, the number of `_removal_rows` (the columns of e = sum e_i, see
    there) less their rank, taken by `_linalg.echelon`."""
    by_weight: dict[object, list[dict]] = {}
    for _, tau, row in _removal_rows(n, charge):
        by_weight.setdefault(tau, []).append(row)
    return {(n, tau): len(rows) - len(_linalg.echelon(rows)[0])
            for tau, rows in by_weight.items()}


def compare_components(graph: CrystalGraph) -> list[AxiomReport]:
    """Crystal-primitive node counts of a built graph against the kernel
    dimensions of its charge, slicewise up to its `max_rank`."""
    hw = hw_elements(graph)
    witnesses = []
    for n in range(graph.max_rank + 1):
        dims = kernel_dimension_by_weight(n, graph.charge)
        for key in sorted(dims.keys() | {k for k in hw if k[0] == n},
                          key=lambda k: (k[1].lam, k[1].delta)):
            count, dim = len(hw.get(key, ())), dims.get(key, 0)
            if count != dim:
                witnesses.append({"rank": n, "wt": key[1].to_json(),
                                  "crystal_primitive": count, "kernel_dim": dim})
    return [AxiomReport("component_count", tuple(witnesses))]
