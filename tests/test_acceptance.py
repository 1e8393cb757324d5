"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact arithmetic; the only tolerances are the
stated runtime caps.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

import focklab
from focklab import (
    BoxOrder,
    FockVector,
    Multicharge,
    a_poly,
    addable_boxes,
    apply_e,
    apply_f,
    apply_h,
    boxes,
    build_graph,
    check_crystal_axioms,
    check_perfect_basis,
    check_relations,
    compare_components,
    enumerate_multipartitions,
    hw_elements,
    jm_elements,
    pair_coroot,
    removable_boxes,
    residue,
    symmetric_jm,
    wt,
)
from focklab.cyclotomic import Cyc, mul_rows
from focklab.structure_analysis import kernel_dimension_by_weight
from focklab.weight_lattice import cartan_entry

CONFIGS = (
    Multicharge(2, (0,)),
    Multicharge(2, (0, 1)),
    Multicharge(3, (0, 1)),
)

HECKE_SET = tuple(
    (l, n, e) for (l, n) in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
    for e in (2, 3)
)


def report(number: int, label: str, started: float) -> None:
    print(f"[criterion {number}] PASS {label} ({time.time() - started:.1f}s)")


def specht_dimension(mp) -> int:
    """dim S^lambda = n!/prod |lambda^(j)|! * prod f^(lambda^(j)), f by hook lengths."""
    out = factorial(mp.rank)
    for part in mp.components:
        size = sum(part)
        width = max(part, default=0)
        columns = [sum(1 for row in part if row > c) for c in range(width)]
        hooks = 1
        for r, row in enumerate(part):
            for c in range(row):
                hooks *= row - c + columns[c] - r - 1
        out = out // factorial(size) * (factorial(size) // hooks)
    return out


def all_shapes(charge: Multicharge, bound: int):
    for n in range(bound + 1):
        yield from enumerate_multipartitions(n, charge.level)


def test_criterion_1_weight_identity():
    started = time.time()
    for charge, bound in ((CONFIGS[0], 8), (CONFIGS[1], 6), (CONFIGS[2], 6)):
        for mp in all_shapes(charge, bound):
            weight = wt(mp, charge)
            for i in range(charge.e):
                counted = len(addable_boxes(mp, charge, i)) - len(
                    removable_boxes(mp, charge, i)
                )
                assert counted == pair_coroot(i, weight), (mp, i)
    elapsed = time.time() - started
    assert elapsed < 10, f"runtime cap exceeded: {elapsed:.1f}s"
    report(1, "combinatorial weight identity", started)


def test_criterion_2_affine_relations():
    started = time.time()
    for charge in CONFIGS:
        for mp in all_shapes(charge, 6):
            v = FockVector.basis(mp)
            for i in range(charge.e):
                for j in range(charge.e):
                    bracket = apply_e(i, apply_f(j, v, charge), charge) - apply_f(
                        j, apply_e(i, v, charge), charge
                    )
                    expected = (
                        apply_h(i, v, charge) if i == j else FockVector.zero()
                    )
                    assert bracket == expected, (mp, i, j)
                    if i == j:
                        continue
                    order = 1 - cartan_entry(i, j, charge.e)
                    for op in (apply_e, apply_f):
                        total = FockVector.zero()
                        for k in range(order + 1):
                            term = v
                            for _ in range(k):
                                term = op(i, term, charge)
                            term = op(j, term, charge)
                            for _ in range(order - k):
                                term = op(i, term, charge)
                            total = total + term.scaled(
                                Fraction((-1) ** k * comb(order, k))
                            )
                        assert total.is_zero(), (mp, i, j, op.__name__)
    elapsed = time.time() - started
    assert elapsed < 60, f"runtime cap exceeded: {elapsed:.1f}s"
    report(2, "affine sl_e relations on truncated slices", started)


def test_criterion_3_pieri_decomposition():
    started = time.time()
    for charge in CONFIGS:
        for mp in all_shapes(charge, 7):
            v = FockVector.basis(mp)
            e_total = FockVector.zero()
            f_total = FockVector.zero()
            for i in range(charge.e):
                e_total = e_total + apply_e(i, v, charge)
                f_total = f_total + apply_f(i, v, charge)
            mine = boxes(mp)
            e_expected = {}
            if mp.rank:
                for other in enumerate_multipartitions(mp.rank - 1, charge.level):
                    if boxes(other) <= mine:
                        e_expected[other] = Fraction(1)
            f_expected = {}
            for other in enumerate_multipartitions(mp.rank + 1, charge.level):
                if mine <= boxes(other):
                    f_expected[other] = Fraction(1)
            assert e_total == FockVector(e_expected), mp
            assert f_total == FockVector(f_expected), mp
    report(3, "Pieri decomposition against one-box enumeration", started)


def test_criterion_4_crystal_axioms_and_mutations():
    started = time.time()
    for charge in CONFIGS:
        for order in BoxOrder:
            graph = build_graph(charge, 6, order)
            reports = check_crystal_axioms(graph)
            assert all(r.status == "pass" for r in reports), (
                charge, order,
                [(r.axiom, r.witnesses[:1]) for r in reports if r.witnesses],
            )

    graph = build_graph(Multicharge(2, (0,)), 4)
    for k in range(len(graph.edges)):
        edges = list(graph.edges)
        del edges[k]
        mutated = dataclasses.replace(graph, edges=tuple(edges))
        assert any(r.status == "fail" for r in check_crystal_axioms(mutated)), (
            f"edge deletion {k} undetected"
        )
    nodes_by_rank: dict[int, list] = {}
    for node in graph.nodes:
        nodes_by_rank.setdefault(node.rank, []).append(node)
    for k, (a, i, b) in enumerate(graph.edges):
        for target in nodes_by_rank.get(b.rank, []):
            if target == b:
                continue
            edges = list(graph.edges)
            edges[k] = (a, i, target)
            mutated = dataclasses.replace(graph, edges=tuple(edges))
            assert any(
                r.status == "fail" for r in check_crystal_axioms(mutated)
            ), f"edge redirection {k} -> {target} undetected"
    report(4, "crystal axioms and mutation detection", started)


def test_criterion_5_component_counting():
    started = time.time()
    for charge in CONFIGS:
        for order in BoxOrder:
            graph = build_graph(charge, 5, order)
            (result,) = compare_components(graph)
            assert result.status == "pass", (charge, order, result.witnesses[:2])
            # the counts themselves, slice by slice
            hw = hw_elements(graph)
            for n in range(6):
                dims = kernel_dimension_by_weight(n, charge)
                for key, dim in dims.items():
                    assert len(hw.get(key, [])) == dim
    report(5, "component counting per (rank, weight) slice", started)


def test_criterion_6_perfect_basis_checker():
    started = time.time()
    for charge in CONFIGS:
        for order in BoxOrder:
            reports = {r.axiom: r for r in check_perfect_basis(charge, 5, order)}
            assert reports["mutual_inverse"].status == "pass", (charge, order)
            assert reports["leading_term"].status == "pass", (charge, order)
            assert reports["residual_within"].status == "pass", (charge, order)
            # measured findings are emitted with explicit witnesses
            assert reports["support_iff"].informational
            assert reports["residual_strict"].informational

    expected_by_order = {BoxOrder.ASC: [[1, 1]], BoxOrder.DESC: [[2]]}
    for order, expected in expected_by_order.items():
        reports = {
            r.axiom: r
            for r in check_perfect_basis(Multicharge(2, (0,)), 2, order)
        }
        found = [w["mp"] for w in reports["support_iff"].witnesses]
        assert found == [expected], (order, found)
    report(6, "perfect-basis checker with pinned iff findings", started)


def test_criterion_7_hecke_workbench(hecke_reps):
    started = time.time()
    for l, n, e in HECKE_SET:
        rep = hecke_reps(l, n, e)
        assert rep.dimension == l**n * factorial(n), (l, n, e)
        (relations,) = check_relations(rep)
        assert relations.status == "pass", (l, n, e, relations.witnesses[:1])
        # sparse rows store no zero, so equal matrices have equal rows
        jms = jm_elements(rep)
        q = Cyc.zeta(rep.charge.e)
        for i in range(1, n):
            twisted = mul_rows(mul_rows(rep.gens[i], jms[i - 1]), rep.gens[i])
            scaled = [{c: x * q for c, x in row.items()} for row in jms[i]]
            assert twisted == scaled, (l, n, e, i)
        for k in range(1, n + 1):
            ek = symmetric_jm(rep, k)
            for gen in rep.gens:
                assert mul_rows(ek, gen) == mul_rows(gen, ek), (l, n, e, k)
    elapsed = time.time() - started
    assert elapsed < 300, f"runtime cap exceeded: {elapsed:.1f}s"
    report(7, "Hecke workbench saturation, relations, JM centrality", started)


def test_criterion_8_block_correspondence(hecke_reps):
    from focklab import central_characters

    started = time.time()
    for l, n, e in HECKE_SET:
        if n > 3:
            continue
        charge = Multicharge(e, tuple(range(l)))
        rep = hecke_reps(l, n, e)
        spectrum = central_characters(rep, n, charge)
        assert all(r.status == "pass" for r in spectrum.reports), (l, n, e)
        assert sum(a.dimension for a in spectrum.attained) == rep.dimension
        weights = {wt(mp, charge) for mp in enumerate_multipartitions(n, l)}
        assert len(spectrum.attained) == len(weights), (l, n, e)
        for block in spectrum.attained:
            cellular = sum(specht_dimension(mp) ** 2 for mp in block.members)
            assert block.dimension == cellular, (l, n, e, block.dimension, cellular)

    for l in (1, 2, 3):
        for e in (2, 3):
            charge = Multicharge(e, tuple(range(l)))
            for n in range(7):
                shapes = enumerate_multipartitions(n, l)
                chars = [a_poly(mp, charge) for mp in shapes]
                weights = [wt(mp, charge) for mp in shapes]
                for a in range(len(shapes)):
                    for b in range(a + 1, len(shapes)):
                        assert (chars[a] == chars[b]) == (
                            weights[a] == weights[b]
                        ), (l, e, shapes[a], shapes[b])
    report(8, "block correspondence and character-weight equivalence", started)


def test_criterion_9_determinism():
    started = time.time()

    # the child imports the focklab under test, also from a bare checkout
    src = os.path.dirname(os.path.dirname(focklab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(seed: str, *argv: str) -> bytes:
        # each run its own string-hash seed, whatever the runner's environment fixes
        proc = subprocess.run(
            [sys.executable, "-m", "focklab", *argv],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        return proc.stdout

    graph_args = ("--e", "2", "--s", "0,1", "--max-rank", "3", "crystal-graph")
    assert run("1", *graph_args) == run("2", *graph_args)
    verify_args = (
        "--e", "2", "--s", "0", "--max-rank", "3", "--n", "2", "verify", "all",
    )
    first = run("1", *verify_args)
    assert first == run("2", *verify_args)
    assert first.strip(), "verify all produced no report lines"
    for line in first.decode().splitlines():
        json.loads(line)
    report(9, "byte-identical repeated runs", started)
