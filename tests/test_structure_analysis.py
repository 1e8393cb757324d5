from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction
from math import comb, inf

import pytest

from focklab import (
    AxiomReport,
    BoxOrder,
    FockVector,
    Multicharge,
    Multipartition,
    apply_e,
    apply_f,
    build_graph,
    check_crystal_axioms,
    check_fock_relations,
    check_perfect_basis,
    compare_components,
    crystal_e,
    crystal_f,
    depth,
    enumerate_multipartitions,
    parse_multipartition,
    primitive_basis,
    reports_ok,
)
from focklab import structure_analysis
from focklab.fock_space import operator_matrix
from focklab.structure_analysis import kernel_dimension_by_weight
from focklab.multipartition import add_box, addable_boxes, remove_box, removable_boxes
from focklab.weight_lattice import cartan_entry, pair_coroot, simple_root, wt
from test_linalg import dense_rref

CONFIGS = (
    Multicharge(2, (0,)),
    Multicharge(2, (0, 1)),
    Multicharge(3, (0, 1)),
)


def by_axiom(reports):
    return {r.axiom: r for r in reports}


def test_axioms_pass_on_built_graphs():
    for charge in CONFIGS:
        for order in BoxOrder:
            reports = check_crystal_axioms(build_graph(charge, 6, order))
            assert all(r.status == "pass" for r in reports), [
                (r.axiom, r.witnesses[:1]) for r in reports if r.witnesses
            ]


def test_axioms_pass_on_single_node_graph():
    graph = build_graph(Multicharge(2, (0,)), 0)
    assert all(r.status == "pass" for r in check_crystal_axioms(graph))


def drop_edge(graph, k: int):
    edges = list(graph.edges)
    del edges[k]
    return dataclasses.replace(graph, edges=tuple(edges))


def redirect_edge(graph, k: int, new_target):
    edges = list(graph.edges)
    a, i, _ = edges[k]
    edges[k] = (a, i, new_target)
    return dataclasses.replace(graph, edges=tuple(edges))


def test_every_single_edge_deletion_detected():
    graph = build_graph(Multicharge(2, (0,)), 4)
    for k in range(len(graph.edges)):
        mutated = drop_edge(graph, k)
        reports = check_crystal_axioms(mutated)
        assert any(r.status == "fail" for r in reports), f"deletion {k} missed"


def test_single_label_mutations_detected():
    graph = build_graph(Multicharge(2, (0,)), 3)
    target = parse_multipartition("[[2]]")
    for field, bump in (("eps", 1), ("phi", 1)):
        stats = dict(getattr(graph, field))
        values = list(stats[target])
        values[0] += bump
        stats[target] = tuple(values)
        mutated = dataclasses.replace(graph, **{field: stats})
        assert any(r.status == "fail" for r in check_crystal_axioms(mutated)), field
    weights = dict(graph.weights)
    weights[target] = weights[Multipartition.empty(1)]
    mutated = dataclasses.replace(graph, weights=weights)
    assert any(r.status == "fail" for r in check_crystal_axioms(mutated))


def test_edge_redirection_detected():
    graph = build_graph(Multicharge(2, (0,)), 4)
    nodes_by_rank = {}
    for node in graph.nodes:
        nodes_by_rank.setdefault(node.rank, []).append(node)
    found = 0
    for k, (a, i, b) in enumerate(graph.edges):
        for target in nodes_by_rank.get(b.rank, []):
            if target == b:
                continue
            mutated = redirect_edge(graph, k, target)
            reports = check_crystal_axioms(mutated)
            assert any(r.status == "fail" for r in reports), (
                f"redirect {k} -> {target} missed"
            )
            found += 1
    assert found > 0


def crystal_mutations(graph):
    """(label, graph): the graph itself, then one fault each: an edge
    dropped, relabelled, reversed or duplicated; one eps or phi entry
    bumped; the vacuum's weight copied onto a node; a boundary mark dropped."""
    e, edges, boundary = graph.charge.e, list(graph.edges), list(graph.boundary)
    yield "clean", graph
    for k, (a, i, b) in enumerate(edges):
        for label, changed in (("drop", []), ("relabel", [(a, (i + 1) % e, b)]),
                               ("reverse", [(b, i, a)]), ("duplicate", [(a, i, b)] * 2)):
            yield f"{label} {k}", dataclasses.replace(
                graph, edges=tuple(edges[:k] + changed + edges[k + 1:]))
    for field in ("eps", "phi"):
        for node in graph.nodes:
            for i in range(e):
                stats = dict(getattr(graph, field))
                stats[node] = tuple(v + (r == i) for r, v in enumerate(stats[node]))
                yield f"{field} {node} {i}", dataclasses.replace(graph, **{field: stats})
    for node in graph.nodes[1:]:
        weights = dict(graph.weights)
        weights[node] = weights[graph.nodes[0]]
        yield f"weight {node}", dataclasses.replace(graph, weights=weights)
    for k in range(len(boundary)):
        yield f"boundary {k}", dataclasses.replace(
            graph, boundary=tuple(boundary[:k] + boundary[k + 1:]))


# sha256 of the JSON list of (label, [report.to_json() ...]) over
# `crystal_mutations` of the rank-4 graph, with the number of graphs that
# fail some axiom; the reports' order, witness lists and key order are pinned
CRYSTAL_MUTATION_PINS = {
    ((2, (0,)), "asc"): (
        "bd8d87ef29d72d5855d156cbe843b19fb6efbc3e95aa08379ab3388a3fd4ab0c", 96),
    ((2, (0,)), "desc"): (
        "882a4a9ece055dba780bc5cb4045f7f14c744dc2ba929d9c6ff0f5b859679c87", 96),
    ((3, (0, 1)), "asc"): (
        "6ba507725177b67f63d5a25f427bad9636be2fc075b19e4c9cd3d6531186b492", 450),
    ((3, (0, 1)), "desc"): (
        "7584540123b4b96d77934c9feabfa5e743781fa10b6990de6e8c572f9aa6901d", 450),
}


@pytest.mark.parametrize("key", CRYSTAL_MUTATION_PINS, ids=str)
def test_crystal_axiom_reports_on_mutations_pinned(key):
    (e, s), order = key
    graph = build_graph(Multicharge(e, s), 4, BoxOrder(order))
    results, failing = [], 0
    for label, mutated in crystal_mutations(graph):
        reports = check_crystal_axioms(mutated)
        results.append((label, [r.to_json() for r in reports]))
        failing += not all(r.status == "pass" for r in reports)
        # e_step reads f_step's weight and statistics laws from the target
        found = by_axiom(reports)
        f_edges = {(str(w["mp"]), w["i"], str(w["to"])) for w in found["f_step"].witnesses}
        e_edges = {(str(w["to"]), w["i"], str(w["mp"])) for w in found["e_step"].witnesses}
        assert e_edges == f_edges, label
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert (digest, failing) == CRYSTAL_MUTATION_PINS[key]


def test_perfect_basis_hard_bullets_pass():
    for charge in CONFIGS:
        for order in BoxOrder:
            reports = by_axiom(check_perfect_basis(charge, 5, order))
            assert reports["mutual_inverse"].status == "pass"
            assert reports["leading_term"].status == "pass"
            assert reports["residual_within"].status == "pass"


def test_two_node_string_satisfies_all_bullets():
    # rank <= 1 gives the basis {empty, (1)} where e_0 equals the crystal map
    reports = by_axiom(check_perfect_basis(Multicharge(2, (0,)), 1))
    assert all(r.status == "pass" for r in reports.values())


def test_iff_bullet_findings_at_rank_two():
    # exactly one of (2), (1,1) depending on the box order
    charge = Multicharge(2, (0,))
    expected = {
        BoxOrder.ASC: [[1, 1]],
        BoxOrder.DESC: [[2]],
    }
    for order in BoxOrder:
        reports = by_axiom(check_perfect_basis(charge, 2, order))
        findings = reports["support_iff"]
        assert findings.informational
        assert [w["mp"] for w in findings.witnesses] == [expected[order]]
        assert all(w["i"] == 1 for w in findings.witnesses)


def test_strict_residual_finding_is_measured():
    # the strict depth bound genuinely fails for the standard basis: at rank
    # three the two removals of (2,1) both sit one level below the depth
    charge = Multicharge(2, (0,))
    reports = by_axiom(check_perfect_basis(charge, 3))
    strict = reports["residual_strict"]
    assert strict.informational
    assert [(w["mp"], w["i"]) for w in strict.witnesses] == [([[2, 1]], 1)]
    # while the weaker residual bound still holds everywhere
    assert reports["residual_within"].status == "pass"


def test_reports_ok_ignores_informational():
    charge = Multicharge(2, (0,))
    reports = check_perfect_basis(charge, 3)
    assert any(r.status == "fail" and r.informational for r in reports)
    assert reports_ok(reports)


def test_report_json_shape():
    (report,) = compare_components(build_graph(Multicharge(2, (0,)), 2))
    doc = report.to_json()
    assert doc == {"axiom": "component_count", "status": "pass", "witnesses": []}


def test_compare_components_examples():
    charge = Multicharge(2, (0,))
    (report,) = compare_components(build_graph(charge, 2))
    assert report.status == "pass"
    dims = kernel_dimension_by_weight(2, charge)
    assert sum(dims.values()) == 1  # spanned by (2) - (1,1)
    (report2,) = compare_components(build_graph(Multicharge(2, (0, 1)), 3))
    assert report2.status == "pass"


def test_kernel_slices_refine_primitive_basis():
    for charge in CONFIGS:
        for n in range(5):
            dims = kernel_dimension_by_weight(n, charge)
            assert sum(dims.values()) == len(primitive_basis(n, charge))


# e in {2, 3, 4}, levels 1 to 3, one negative charge; (3, (0, 1)) further
SLICE_CASES = [
    *((Multicharge(e, s), 6) for e in (2, 3, 4)
      for s in ((0,), (0, 1), (0, 1, e - 1))),
    (Multicharge(3, (-2, 0)), 6),
    (Multicharge(3, (0, 1)), 8),
]


@pytest.mark.parametrize("charge,max_rank", SLICE_CASES, ids=str)
def test_kernel_slices_match_dense_stacked_ranks(charge, max_rank):
    # oracle: the joint kernel as defined, the dense e_i matrices of each
    # weight slice stacked, its rank taken by the test-local dense oracle
    for n in range(max_rank + 1):
        codomain = enumerate_multipartitions(n - 1, charge.level) if n else ()
        by_weight = {}
        for mp in enumerate_multipartitions(n, charge.level):
            by_weight.setdefault(wt(mp, charge), []).append(mp)
        expected = {}
        for tau, members in by_weight.items():
            domain = tuple(members)
            rows = [row for i in range(charge.e)
                    for row in operator_matrix(i, charge, domain, codomain)]
            expected[(n, tau)] = len(domain) - len(dense_rref(rows, len(domain))[1])
        assert kernel_dimension_by_weight(n, charge) == expected, (charge, n)


def test_compare_components_detects_mismatch():
    # zeroing eps on a node that is not highest weight makes it one more
    # crystal-primitive node in its slice than the kernel has dimensions
    charge = Multicharge(2, (0,))
    graph = build_graph(charge, 4)
    (report,) = compare_components(graph)
    assert report.status == "pass"
    node = parse_multipartition("[[2,1]]")
    assert any(graph.eps[node])
    k = kernel_dimension_by_weight(3, charge)[3, graph.weights[node]]
    mutated = dataclasses.replace(graph, eps={**graph.eps, node: (0,) * charge.e})
    (report,) = compare_components(mutated)
    assert report.witnesses == ({"rank": 3, "wt": graph.weights[node].to_json(),
                                 "crystal_primitive": k + 1, "kernel_dim": k},)


def test_fock_relations_pass():
    for charge in CONFIGS:
        reports = check_fock_relations(charge, 3)
        assert [r.axiom for r in reports] == [
            "weight_step", "sl2_commutators", "serre", "pieri", "depth_bound",
            "positivity",
        ]
        assert all(r.status == "pass" for r in reports), charge


def test_fock_relations_witness_sign_flipped_e0(monkeypatch):
    true_e = structure_analysis.apply_e

    def flipped(i, v, charge):
        image = true_e(i, v, charge)
        return image.scaled(Fraction(-1)) if i == 0 else image

    monkeypatch.setattr(structure_analysis, "apply_e", flipped)
    reports = by_axiom(check_fock_relations(Multicharge(2, (0,)), 3))
    # [e_0, f_0] = -h_0 now: caught on the vacuum, and only for i = j = 0
    comm = reports["sl2_commutators"].witnesses
    assert comm[0] == {"mp": [[]], "i": 0, "j": 0}
    assert all(w["i"] == w["j"] == 0 for w in comm)
    assert reports["weight_step"].status == "pass"
    # pieri sums the swept images, so it sees the flip wherever e_0 acts
    assert reports["pieri"].witnesses == (
        {"mp": [[1]]}, {"mp": [[1, 1, 1]]}, {"mp": [[3]]},
    )


def serre_sum_per_term(op, i, j, v, charge):
    """Oracle: sum_k (-1)^k C(m, k) op_i^(m-k) op_j op_i^k v, m = 1 - a_ij,
    each term built from v on its own."""
    m = 1 - cartan_entry(i, j, charge.e)
    total = FockVector.zero()
    for k in range(m + 1):
        term = v
        for _ in range(k):
            term = op(i, term, charge)
        term = op(j, term, charge)
        for _ in range(m - k):
            term = op(i, term, charge)
        total = total + term.scaled(Fraction((-1) ** k * comb(m, k)))
    return total


def shared_serre_sums(op, v, charge):
    """The sweep's Serre sums for op "e" or "f" on the basis vector v, from
    its coefficient table by Horner's rule, read back as Fock vectors."""
    images = structure_analysis._BasisImages(charge)
    rows = [structure_analysis._Rows(images, op, i) for i in range(charge.e)]
    (mp,) = v.terms
    vec = ((images.intern(mp), 1),)
    return {
        (i, j): FockVector({images.mps[t]: c for t, c in
                            structure_analysis._serre_sum(rows, vec, i, j, coeffs).items()})
        for (i, j), coeffs in structure_analysis._serre_table(charge.e).items()
    }


SERRE_CHARGES = (
    Multicharge(2, (0,)),  # m = 3
    Multicharge(3, (0, 1)),  # m = 2
    Multicharge(4, (0, 2)),  # m = 2 for neighbours, m = 1 otherwise
    Multicharge(5, (0, -3, 7)),  # m = 1 and 2, a negative charge and one >= e
)


def test_shared_serre_sums_match_per_term_oracle():
    assert {1 - cartan_entry(0, j, 4) for j in (1, 2, 3)} == {1, 2}
    for charge in SERRE_CHARGES:
        pairs = [(i, j) for i in range(charge.e) for j in range(charge.e) if i != j]
        for n in range(5):
            for mp in enumerate_multipartitions(n, charge.level):
                v = FockVector.basis(mp)
                for name, op in (("e", apply_e), ("f", apply_f)):
                    sums = shared_serre_sums(name, v, charge)
                    assert list(sums) == pairs
                    for i, j in pairs:
                        assert sums[i, j] == serre_sum_per_term(op, i, j, v, charge)


def test_shared_serre_sums_witness_a_broken_f(monkeypatch):
    # f_1 forgets the term [[2],...] of f_1 [[1],...]: still linear, but the
    # Serre relations among the f_i now fail at every m = 1 - a_ij of the
    # charge, odd m included, and both evaluations agree on the nonzero sums
    for charge in SERRE_CHARGES:
        rest = [[]] * (charge.level - 1)
        chosen, lost = (Multipartition.from_lists([[a], *rest]) for a in (1, 2))
        assert apply_f(1, FockVector.basis(chosen), charge).coeff(lost) == 1

        def broken_f(i, v, charge):
            image = apply_f(i, v, charge)
            if i != 1:
                return image
            return image - FockVector.basis(lost).scaled(v.coeff(chosen))

        monkeypatch.setattr(structure_analysis, "apply_f", broken_f)
        expected = []
        broken_m = set()
        for n in range(5):
            for mp in enumerate_multipartitions(n, charge.level):
                v = FockVector.basis(mp)
                shared = shared_serre_sums("f", v, charge)
                for i, j in shared:
                    f_sum = serre_sum_per_term(broken_f, i, j, v, charge)
                    e_sum = serre_sum_per_term(apply_e, i, j, v, charge)
                    assert shared[i, j] == f_sum
                    if not f_sum.is_zero():
                        broken_m.add(1 - cartan_entry(i, j, charge.e))
                    if not (e_sum.is_zero() and f_sum.is_zero()):
                        expected.append({"mp": mp.to_lists(), "i": i, "j": j})
        assert broken_m == {1 - cartan_entry(0, j, charge.e) for j in range(1, charge.e)}
        reports = by_axiom(check_fock_relations(charge, 4))
        assert list(reports["serre"].witnesses) == expected


def test_depth_walk_stops_above_the_rank(monkeypatch):
    # e_0 = identity never lowers the rank: the walk must still end, and
    # every vector is witnessed at depth rank + 1
    true_e = structure_analysis.apply_e

    def identity_e0(i, v, charge):
        return v if i == 0 else true_e(i, v, charge)

    monkeypatch.setattr(structure_analysis, "apply_e", identity_e0)
    reports = by_axiom(check_fock_relations(Multicharge(2, (0,)), 3))
    expected = [
        {"mp": mp.to_lists(), "i": 0, "depth": n + 1}
        for n in range(4)
        for mp in enumerate_multipartitions(n, 1)
    ]
    assert list(reports["depth_bound"].witnesses) == expected


def test_each_basis_image_is_asked_for_once(monkeypatch):
    calls = []

    def counted(name, op):
        def wrapped(i, v, charge):
            assert list(v.terms.values()) == [1], v
            calls.append((name, i, *v.terms))
            return op(i, v, charge)
        return wrapped

    monkeypatch.setattr(structure_analysis, "apply_e", counted("e", apply_e))
    monkeypatch.setattr(structure_analysis, "apply_f", counted("f", apply_f))
    for charge in SERRE_CHARGES:
        calls.clear()
        check_fock_relations(charge, 5)
        assert 0 < len(calls) == len(set(calls))
    # the distinct images the sweep needs at (3, (0, 1)) to rank 8
    calls.clear()
    check_fock_relations(Multicharge(3, (0, 1)), 8)
    assert len(calls) == 5834


def per_vector_sweep(charge, max_rank):
    """Oracle: `check_fock_relations` with every vector a FockVector, every
    image asked of the operators afresh and each Serre sum built per term;
    the depth is measured with the true e_i."""
    e_op, f_op = structure_analysis.apply_e, structure_analysis.apply_f
    bad = {name: [] for name in ("weight_step", "sl2_commutators", "serre",
                                 "pieri", "depth_bound", "positivity")}
    alphas = [simple_root(i, charge.e) for i in range(charge.e)]
    zero = FockVector.zero()
    for n in range(max_rank + 1):
        for mp in enumerate_multipartitions(n, charge.level):
            v = FockVector.basis(mp)
            weight = wt(mp, charge)
            ups = [f_op(i, v, charge) for i in range(charge.e)]
            downs = [e_op(i, v, charge) for i in range(charge.e)]
            for i, (up, down) in enumerate(zip(ups, downs)):
                for target in up.terms:
                    if wt(target, charge) != weight - alphas[i]:
                        bad["weight_step"].append({"mp": mp.to_lists(), "i": i, "op": "f"})
                for target in down.terms:
                    if wt(target, charge) != weight + alphas[i]:
                        bad["weight_step"].append({"mp": mp.to_lists(), "i": i, "op": "e"})
                if any(c < 0 for c in up.terms.values()) or any(
                    c < 0 for c in down.terms.values()
                ):
                    bad["positivity"].append({"mp": mp.to_lists(), "i": i})
                d = 0 if down.is_zero() else 1 + depth(i, down, charge)
                if d > mp.rank:
                    bad["depth_bound"].append({"mp": mp.to_lists(), "i": i, "depth": d})
                for j, fj in enumerate(ups):
                    bracket = e_op(i, fj, charge) - f_op(j, down, charge)
                    if bracket != v.scaled(pair_coroot(i, weight) if i == j else 0):
                        bad["sl2_commutators"].append({"mp": mp.to_lists(), "i": i, "j": j})
            removed = FockVector({remove_box(mp, b): 1 for b in removable_boxes(mp, charge)})
            added = FockVector({add_box(mp, b): 1 for b in addable_boxes(mp, charge)})
            if sum(downs, zero) != removed or sum(ups, zero) != added:
                bad["pieri"].append({"mp": mp.to_lists()})
            for i in range(charge.e):
                for j in range(charge.e):
                    if i != j and not (
                        serre_sum_per_term(e_op, i, j, v, charge).is_zero()
                        and serre_sum_per_term(f_op, i, j, v, charge).is_zero()
                    ):
                        bad["serre"].append({"mp": mp.to_lists(), "i": i, "j": j})
    return [AxiomReport(name, tuple(w)) for name, w in bad.items()]


LOST_FROM = parse_multipartition("[[1],[]]")
LOST = parse_multipartition("[[2],[]]")


def e0_negated(i, v, charge):
    image = apply_e(i, v, charge)
    return -image if i == 0 else image


def f1_loses_a_term(i, v, charge):
    image = apply_f(i, v, charge)
    if i != 1 or not v.coeff(LOST_FROM):
        return image
    return image - FockVector.basis(LOST).scaled(v.coeff(LOST_FROM))


def f2_doubled(i, v, charge):
    image = apply_f(i, v, charge)
    return image.scaled(2) if i == 2 else image


def e_drops_leading_one(i, v, charge):
    image = apply_e(i, v, charge)
    return FockVector({mp: c for mp, c in image.terms.items()
                       if mp.components[0][:1] != (1,)})


FAULTS = {
    "true": {},
    "e0_negated": {"apply_e": e0_negated},
    "f1_loses_a_term": {"apply_f": f1_loses_a_term},
    "f2_doubled": {"apply_f": f2_doubled},
    "e_drops_leading_one": {"apply_e": e_drops_leading_one},
}


@pytest.mark.parametrize("fault", FAULTS)
def test_sweep_matches_per_vector_oracle(monkeypatch, fault):
    for name, op in FAULTS[fault].items():
        monkeypatch.setattr(structure_analysis, name, op)
    verdicts = []
    for charge, rank in ((Multicharge(3, (0, 1)), 5), (Multicharge(2, (0,)), 5),
                         (Multicharge(4, (0, 2)), 4)):
        reports = check_fock_relations(charge, rank)
        assert reports == per_vector_sweep(charge, rank), (fault, charge)
        verdicts.append(reports_ok(reports))
    assert all(verdicts) == (fault == "true")


def per_vector_perfect(charge, max_rank, order):
    """Oracle: `check_perfect_basis` with `crystal_e`/`crystal_f` per (mp, i),
    each e_i image asked of the swept operator afresh as a FockVector, and
    depths walked on FockVectors with that same operator."""
    e_op = structure_analysis.apply_e

    def swept_depth(i, v):
        if v.is_zero():
            return -inf
        k = 0
        while True:
            v = e_op(i, v, charge)
            if v.is_zero():
                return k
            k += 1

    bad = {name: [] for name in ("mutual_inverse", "support_iff", "leading_term",
                                 "residual_within", "residual_strict")}
    for n in range(max_rank + 1):
        for mp in enumerate_multipartitions(n, charge.level):
            for i in range(charge.e):
                up = crystal_f(i, mp, charge, order)
                if up is not None and crystal_e(i, up, charge, order) != mp:
                    bad["mutual_inverse"].append({"mp": mp.to_lists(), "i": i,
                                                  "f_image": up.to_lists()})
                down = crystal_e(i, mp, charge, order)
                if down is not None and crystal_f(i, down, charge, order) != mp:
                    bad["mutual_inverse"].append({"mp": mp.to_lists(), "i": i,
                                                  "e_image": down.to_lists()})
                image = e_op(i, FockVector.basis(mp), charge)
                if (down is not None) != (not image.is_zero()):
                    bad["support_iff"].append(
                        {"mp": mp.to_lists(), "i": i,
                         "crystal_e_defined": down is not None,
                         "e_nonzero": not image.is_zero()})
                if down is None:
                    continue
                scalar = image.coeff(down)
                if scalar == 0:
                    bad["leading_term"].append({"mp": mp.to_lists(), "i": i,
                                                "good_box_coeff": "0"})
                    continue
                residual = image - FockVector.basis(down).scaled(scalar)
                d_mp = swept_depth(i, FockVector.basis(mp))
                d_res = swept_depth(i, residual)
                if not d_res < d_mp:
                    bad["residual_within"].append(
                        {"mp": mp.to_lists(), "i": i, "scalar": str(scalar),
                         "residual_depth": d_res, "depth": d_mp})
                if not d_res < d_mp - 1:
                    bad["residual_strict"].append(
                        {"mp": mp.to_lists(), "i": i, "scalar": str(scalar),
                         "residual_depth": str(d_res), "depth": d_mp})
    return [AxiomReport(name, tuple(w)) for name, w in bad.items()]


PERFECT_CONFIGS = ((Multicharge(2, (0,)), 6), (Multicharge(3, (0, 1)), 5),
                   (Multicharge(4, (0, 2)), 5), (Multicharge(3, (0, 1, 2)), 3))


@pytest.mark.parametrize("fault", ["true", "e0_negated", "e_drops_leading_one"])
def test_perfect_basis_matches_per_vector_oracle(monkeypatch, fault):
    baseline = [check_perfect_basis(charge, rank, order)
                for charge, rank in PERFECT_CONFIGS for order in BoxOrder]
    for name, op in FAULTS[fault].items():
        monkeypatch.setattr(structure_analysis, name, op)
    found = []
    for charge, rank in PERFECT_CONFIGS:
        for order in BoxOrder:
            reports = check_perfect_basis(charge, rank, order)
            assert reports == per_vector_perfect(charge, rank, order), (fault, charge, order)
            found.append(reports)
    # the faults change what is measured, so the comparison is not vacuous
    assert (found != baseline) == (fault != "true")


def test_perfect_basis_asks_each_e_image_once(monkeypatch):
    calls = []

    def counted(i, v, charge):
        assert list(v.terms.values()) == [1], v
        calls.append((i, *v.terms))
        return apply_e(i, v, charge)

    monkeypatch.setattr(structure_analysis, "apply_e", counted)
    for charge, rank in PERFECT_CONFIGS:
        for order in BoxOrder:
            calls.clear()
            check_perfect_basis(charge, rank, order)
            assert sorted(calls, key=str) == sorted(
                ((i, mp) for n in range(rank + 1)
                 for mp in enumerate_multipartitions(n, charge.level)
                 for i in range(charge.e)), key=str)
