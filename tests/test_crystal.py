from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from focklab import (
    BoxCoord,
    BoxOrder,
    FockVector,
    Multicharge,
    Multipartition,
    SignatureReport,
    addable_boxes,
    apply_e,
    build_graph,
    crystal_e,
    crystal_f,
    depth,
    enumerate_multipartitions,
    hw_elements,
    pair_coroot,
    parse_multipartition,
    removable_boxes,
    signature,
    signatures,
    wt,
)

CONFIGS = (
    Multicharge(2, (0,)),
    Multicharge(2, (0, 1)),
    Multicharge(3, (0, 1)),
)


def mp(text: str) -> Multipartition:
    return parse_multipartition(text)


def test_signature_examples():
    c = Multicharge(2, (0,))
    sig = signature(0, Multipartition.empty(1), c)
    assert (sig.word, sig.epsilon, sig.phi) == ("+", 0, 1)

    sig = signature(1, mp("[[1]]"), c)
    assert (sig.word, sig.epsilon, sig.phi) == ("++", 0, 2)
    assert [s[1] for s in sig.symbols] == [BoxCoord(1, 2, 1), BoxCoord(2, 1, 1)]

    sig = signature(0, mp("[[2,2]]"), c)
    assert (sig.word, sig.reduced_word, sig.epsilon, sig.phi) == ("+-+", "+", 0, 1)


def test_signature_shape_invariant():
    for charge in CONFIGS:
        for n in range(6):
            for m in enumerate_multipartitions(n, charge.level):
                for i in range(charge.e):
                    for order in BoxOrder:
                        sig = signature(i, m, charge, order)
                        # reduced word is always minuses then pluses
                        word = sig.reduced_word
                        assert word == "-" * sig.epsilon + "+" * sig.phi
                        assert (sig.good_removable is not None) == (sig.epsilon > 0)
                        assert (sig.good_addable is not None) == (sig.phi > 0)


def box_key(order, box):
    """The box order as a sort key: (comp, row, col) ascending, or its mirror."""
    if order is BoxOrder.ASC:
        return (box.comp, box.row, box.col)
    return (-box.comp, -box.row, -box.col)


def signature_oracle(i, m, charge, order):
    """The signature rule for one residue, from its own filtered listing."""
    marked = [("+", box) for box in addable_boxes(m, charge, i)]
    marked += [("-", box) for box in removable_boxes(m, charge, i)]
    marked.sort(key=lambda sb: box_key(order, sb[1]))
    stack = []
    for sign, box in marked:
        if sign == "-" and stack and stack[-1][0] == "+":
            stack.pop()
        else:
            stack.append((sign, box))
    epsilon = sum(1 for sign, _ in stack if sign == "-")
    phi = len(stack) - epsilon
    return SignatureReport(
        symbols=tuple(marked),
        reduced=tuple(stack),
        epsilon=epsilon,
        phi=phi,
        good_removable=stack[epsilon - 1][1] if epsilon > 0 else None,
        good_addable=stack[epsilon][1] if phi > 0 else None,
    )


def assert_signatures_match_oracle(m, charge):
    for order in BoxOrder:
        sigs = signatures(m, charge, order)
        assert len(sigs) == charge.e
        for i, sig in enumerate(sigs):
            assert sig == signature_oracle(i, m, charge, order), (m, charge, order, i)
            assert signature(i, m, charge, order) == sig


def test_signatures_match_single_residue_oracle():
    # charges with negative entries and entries above e wrap their residues
    for charge in (Multicharge(2, (0,)), Multicharge(3, (0, 1)),
                   Multicharge(4, (0, 2)), Multicharge(3, (0, 1, 2)),
                   Multicharge(3, (-4, 7)), Multicharge(4, (5, -1, 2))):
        for n in range(8):
            for m in enumerate_multipartitions(n, charge.level):
                assert_signatures_match_oracle(m, charge)


@st.composite
def shape_and_charge(draw, max_rank=25):
    """A shape of level 1..3 and rank <= max_rank, rows up to 12 wide (wider
    than e; widths may repeat), and a charge of its level with e in 2..5."""
    level = draw(st.integers(min_value=1, max_value=3))
    budget, comps = max_rank, []
    for _ in range(level):
        kept = []
        for part in sorted(draw(st.lists(st.integers(1, 12), max_size=6)), reverse=True):
            if part <= budget:
                kept.append(part)
                budget -= part
        comps.append(tuple(kept))
    s = draw(st.lists(st.integers(-9, 9), min_size=level, max_size=level))
    return Multipartition(tuple(comps)), Multicharge(draw(st.integers(2, 5)), tuple(s))


@given(shape_and_charge())
def test_signatures_match_oracle_on_random_shapes(case):
    assert_signatures_match_oracle(*case)


def test_signature_residue_out_of_range():
    c = Multicharge(2, (0,))
    for i in (-1, 2):
        with pytest.raises(ValueError, match="residue"):
            signature(i, mp("[[1]]"), c)


def test_signatures_refuse_a_level_below_the_charge():
    # a level-1 shape at a level-2 charge has no second component to read:
    # every signature and crystal move raises, as wt does
    c = Multicharge(2, (0, 1))
    with pytest.raises(ValueError, match="level mismatch: 1 vs 2"):
        signatures(mp("[[1]]"), c)
    for op in (signature, crystal_e, crystal_f):
        for i in range(c.e):
            with pytest.raises(ValueError, match="level mismatch: 1 vs 2"):
                op(i, mp("[[1]]"), c)


def test_signatures_refuse_a_level_above_the_charge():
    # the walk reads s_j per component: the first one past the charge raises
    for shape in ("[[1],[]]", "[[],[2,1]]", "[[1],[1],[1]]"):
        with pytest.raises(ValueError, match=r"component 2 out of 1\.\.1"):
            signatures(mp(shape), Multicharge(3, (0,)), BoxOrder.DESC)


def test_crystal_e_examples():
    c = Multicharge(2, (0,))
    for i in range(2):
        assert crystal_e(i, Multipartition.empty(1), c) is None
    assert crystal_e(0, mp("[[1]]"), c) == Multipartition.empty(1)
    assert crystal_e(1, mp("[[2]]"), c) == mp("[[1]]")


def test_crystal_f_examples():
    c = Multicharge(2, (0,))
    assert crystal_f(0, Multipartition.empty(1), c) == mp("[[1]]")
    assert crystal_f(1, mp("[[1]]"), c) == mp("[[2]]")
    assert crystal_f(0, mp("[[1]]"), c) is None


def test_build_graph_examples():
    c = Multicharge(2, (0,))
    g0 = build_graph(c, 0)
    assert len(g0.nodes) == 1 and len(g0.edges) == 0

    g2 = build_graph(c, 2)
    assert set(g2.nodes) == {
        Multipartition.empty(1),
        mp("[[1]]"),
        mp("[[2]]"),
        mp("[[1,1]]"),
    }
    assert set(g2.edges) == {
        (Multipartition.empty(1), 0, mp("[[1]]")),
        (mp("[[1]]"), 1, mp("[[2]]")),
    }

    c2 = Multicharge(2, (0, 1))
    g1 = build_graph(c2, 1)
    assert set(g1.edges) == {
        (Multipartition.empty(2), 0, mp("[[1],[]]")),
        (Multipartition.empty(2), 1, mp("[[],[1]]")),
    }


def test_boundary_marks_not_dropped():
    c = Multicharge(2, (0,))
    g = build_graph(c, 2)
    boundary = {(a, i) for a, i, _ in g.boundary}
    assert (mp("[[2]]"), 0) in boundary
    assert (mp("[[2]]"), 1) in boundary
    assert (mp("[[1,1]]"), 0) in boundary
    # every rank-2 node with positive phi contributes an edge or a mark
    for node in g.nodes:
        for i in range(c.e):
            if g.phi[node][i] > 0:
                has_edge = any(a == node and j == i for a, j, _ in g.edges)
                assert has_edge or (node, i) in boundary


def test_hw_elements_examples():
    c = Multicharge(2, (0,))
    g = build_graph(c, 2)
    hw = hw_elements(g)
    by_rank = {}
    for (rank, _), members in hw.items():
        by_rank.setdefault(rank, []).extend(members)
    assert by_rank[0] == [Multipartition.empty(1)]
    assert 1 not in by_rank
    assert by_rank[2] == [mp("[[1,1]]")]


def test_unreduced_count_identity():
    for charge in CONFIGS:
        for n in range(6):
            for m in enumerate_multipartitions(n, charge.level):
                weight = wt(m, charge)
                for i in range(charge.e):
                    sig = signature(i, m, charge)
                    assert sig.phi - sig.epsilon == len(
                        addable_boxes(m, charge, i)
                    ) - len(removable_boxes(m, charge, i))
                    assert sig.phi - sig.epsilon == pair_coroot(i, weight)


def test_crystal_support_in_operator_image():
    for charge in CONFIGS:
        for order in BoxOrder:
            for n in range(6):
                for m in enumerate_multipartitions(n, charge.level):
                    v = FockVector.basis(m)
                    for i in range(charge.e):
                        image = apply_e(i, v, charge)
                        target = crystal_e(i, m, charge, order)
                        sig = signature(i, m, charge, order)
                        if target is not None:
                            assert image.coeff(target) >= 1
                        assert sig.epsilon <= depth(i, v, charge)


def test_mutual_inverse_exhaustive():
    for charge in CONFIGS:
        for order in BoxOrder:
            for n in range(6):
                for m in enumerate_multipartitions(n, charge.level):
                    for i in range(charge.e):
                        up = crystal_f(i, m, charge, order)
                        if up is not None:
                            assert crystal_e(i, up, charge, order) == m
                        down = crystal_e(i, m, charge, order)
                        if down is not None:
                            assert crystal_f(i, down, charge, order) == m


def test_string_lengths():
    charge = Multicharge(2, (0, 1))
    for n in range(5):
        for m in enumerate_multipartitions(n, 2):
            for i in range(charge.e):
                sig = signature(i, m, charge)
                steps_up = 0
                cur = m
                while True:
                    nxt = crystal_e(i, cur, charge)
                    if nxt is None:
                        break
                    cur = nxt
                    steps_up += 1
                assert steps_up == sig.epsilon
                steps_down = 0
                cur = m
                while True:
                    nxt = crystal_f(i, cur, charge)
                    if nxt is None:
                        break
                    cur = nxt
                    steps_down += 1
                assert steps_down == sig.phi


def test_graph_determinism():
    for charge in CONFIGS:
        for order in BoxOrder:
            a = json.dumps(build_graph(charge, 4, order).to_json())
            b = json.dumps(build_graph(charge, 4, order).to_json())
            assert a == b


def test_exports():
    c = Multicharge(2, (0,))
    g = build_graph(c, 2)
    doc = g.to_json()
    assert {"nodes", "edges", "boundary"} <= set(doc)
    assert doc["edges"][0] == {"from": [[]], "i": 0, "to": [[1]]}
    assert all({"mp", "wt", "eps", "phi"} <= set(node) for node in doc["nodes"])
    dot = g.to_dot()
    assert dot.startswith("digraph crystal {")
    assert '"[[1]]" -> "[[2]]" [label="1"];' in dot


partition = st.lists(st.integers(min_value=1, max_value=5), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@given(partition, st.sampled_from([0, 1]), st.sampled_from(list(BoxOrder)))
def test_mutual_inverse_random(parts, i, order):
    m = Multipartition((parts,))
    charge = Multicharge(2, (0,))
    up = crystal_f(i, m, charge, order)
    if up is not None:
        assert crystal_e(i, up, charge, order) == m
