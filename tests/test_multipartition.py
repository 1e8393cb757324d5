from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from focklab import (
    BoxCoord,
    Multicharge,
    Multipartition,
    add_box,
    addable_boxes,
    boxes,
    enumerate_multipartitions,
    parse_multipartition,
    remove_box,
    removable_boxes,
    residue,
)


def mp(text: str) -> Multipartition:
    return parse_multipartition(text)


def count_multipartitions(n: int, level: int) -> int:
    """Independent oracle: coefficient of the l-fold partition generating
    function, by dynamic programming over parts."""
    single = [0] * (n + 1)
    single[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            single[total] += single[total - part]
    counts = [1] + [0] * n
    for _ in range(level):
        counts = [
            sum(counts[k] * single[total - k] for k in range(total + 1))
            for total in range(n + 1)
        ]
    # after l convolutions of the empty product with p(n)
    return counts[n]


def test_boxes_examples():
    assert boxes(Multipartition.empty(1)) == set()
    assert boxes(mp("[[2,1]]")) == {
        BoxCoord(1, 1, 1),
        BoxCoord(1, 2, 1),
        BoxCoord(2, 1, 1),
    }
    assert boxes(mp("[[1],[1]]")) == {BoxCoord(1, 1, 1), BoxCoord(1, 1, 2)}


def test_boxes_cardinality_is_rank():
    for n in range(7):
        for m in enumerate_multipartitions(n, 2):
            assert len(boxes(m)) == m.rank == n


def test_residue_examples():
    assert residue(BoxCoord(1, 1, 1), Multicharge(2, (0,))) == 0
    assert residue(BoxCoord(1, 3, 1), Multicharge(3, (0,))) == 2
    assert residue(BoxCoord(2, 1, 2), Multicharge(2, (0, 1))) == 0


def test_residue_component_range():
    with pytest.raises(ValueError):
        residue(BoxCoord(1, 1, 3), Multicharge(2, (0, 1)))
    with pytest.raises(ValueError):
        residue(BoxCoord(1, 1, 0), Multicharge(2, (0,)))


def test_removable_examples():
    c = Multicharge(2, (0,))
    assert removable_boxes(mp("[[2,2]]"), c) == [BoxCoord(2, 2, 1)]
    assert removable_boxes(mp("[[1]]"), c, i=0) == [BoxCoord(1, 1, 1)]
    assert removable_boxes(mp("[[2,2]]"), c, i=1) == []


def test_addable_examples():
    c = Multicharge(2, (0,))
    assert addable_boxes(mp("[[1]]"), c, i=1) == [
        BoxCoord(1, 2, 1),
        BoxCoord(2, 1, 1),
    ]
    c2 = Multicharge(2, (0, 1))
    assert addable_boxes(Multipartition.empty(2), c2, i=0) == [BoxCoord(1, 1, 1)]
    assert addable_boxes(mp("[[2,2]]"), c, i=0) == [
        BoxCoord(1, 3, 1),
        BoxCoord(3, 1, 1),
    ]


def test_add_remove_examples():
    assert add_box(Multipartition.empty(2), BoxCoord(1, 1, 1)) == mp("[[1],[]]")
    assert remove_box(mp("[[2,2]]"), BoxCoord(2, 2, 1)) == mp("[[2,1]]")
    with pytest.raises(ValueError):
        add_box(mp("[[1]]"), BoxCoord(3, 1, 1))
    with pytest.raises(ValueError):
        remove_box(mp("[[2,2]]"), BoxCoord(1, 2, 1))


def test_remove_then_readd_roundtrip():
    c = Multicharge(3, (0, 1))
    for n in range(6):
        for m in enumerate_multipartitions(n, 2):
            for box in removable_boxes(m, c):
                assert add_box(remove_box(m, box), box) == m
            for box in addable_boxes(m, c):
                assert remove_box(add_box(m, box), box) == m


def test_addable_removable_disjoint():
    c = Multicharge(2, (0, 1))
    for n in range(7):
        for m in enumerate_multipartitions(n, 2):
            add = addable_boxes(m, c)
            rem = removable_boxes(m, c)
            assert not set(add) & set(rem)
            cells = add + rem
            assert len(cells) == len(set(cells))
            # per residue class, each (component, row) carries one box at most
            for i in range(c.e):
                keyed = [
                    (b.comp, b.row)
                    for b in addable_boxes(m, c, i) + removable_boxes(m, c, i)
                ]
                assert len(keyed) == len(set(keyed))


def test_enumerate_counts_against_oracle():
    for level in (1, 2, 3):
        for n in range(11):
            assert len(enumerate_multipartitions(n, level)) == count_multipartitions(
                n, level
            )


def test_enumerate_examples():
    assert len(enumerate_multipartitions(2, 1)) == 2
    assert len(enumerate_multipartitions(2, 2)) == 5
    assert enumerate_multipartitions(0, 3) == (Multipartition.empty(3),)


def test_enumerate_unique_and_sorted():
    for level in (1, 2):
        for n in range(7):
            listed = [m.serialize() for m in enumerate_multipartitions(n, level)]
            assert listed == sorted(listed)
            assert len(listed) == len(set(listed))


def test_serialize_is_compact_json_with_two_digit_parts():
    for shape in ([[12, 3], [10]], [[10, 10, 1], [], [11]], [[]], [[], []], [[25]]):
        m = Multipartition.from_lists(shape)
        assert m.serialize() == json.dumps(m.to_lists(), separators=(",", ":"))
    assert mp("[[12,3],[10]]").serialize() == "[[12,3],[10]]"


@pytest.mark.parametrize("n, level, count, digest", [
    (12, 1, 77, "03dd3cbb266fbf33879db84f9fc95b803438cc8a648ab80ebb013d36b48225f6"),
    (10, 2, 481, "bbd46ee9a33d750b66a80749b92137effab2a13a19b048d35d567b5d4e8a3154"),
])
def test_enumeration_order_sorts_two_digit_parts_as_text(n, level, count, digest):
    # the sort key is the JSON text, so a part "10" sorts before "2"
    listed = [m.serialize() for m in enumerate_multipartitions(n, level)]
    assert len(listed) == count
    assert listed == sorted(json.dumps(m.to_lists(), separators=(",", ":"))
                            for m in enumerate_multipartitions(n, level))
    assert hashlib.sha256("\n".join(listed).encode()).hexdigest() == digest
    ten, two = ("[[10,2]]", "[[2,2,2,2,2,2]]") if level == 1 else ("[[10],[]]", "[[2,2,2,2,2],[]]")
    assert listed.index(ten) < listed.index(two)


def test_parse_format_examples():
    assert mp("[[2,1],[1]]").components == ((2, 1), (1,))
    assert mp("[[ ]]") == Multipartition.empty(1)
    with pytest.raises(ValueError):
        parse_multipartition("[[1,2]]")


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_multipartition("not json")
    with pytest.raises(ValueError):
        parse_multipartition("[1,2]")
    with pytest.raises(ValueError):
        parse_multipartition("[[1],[1]]", level=1)
    with pytest.raises(ValueError):
        parse_multipartition("[[1.5]]")
    with pytest.raises(ValueError):
        parse_multipartition("[[-1]]")


def test_canonical_form_strips_trailing_zeros():
    assert mp("[[2,1,0,0]]") == mp("[[2,1]]")
    assert mp("[[3,0],[0]]").serialize() == "[[3],[]]"


def test_multicharge_json_roundtrip():
    charge = Multicharge(2, (0, 1))
    assert charge.to_json() == {"e": 2, "s": [0, 1]}
    assert Multicharge.from_json({"e": 2, "s": [0, 1]}) == charge
    with pytest.raises(ValueError):
        Multicharge.from_json({"e": 2})
    with pytest.raises(ValueError, match="expected"):  # was a TypeError from tuple(3)
        Multicharge.from_json({"e": 2, "s": 3})
    with pytest.raises(ValueError):
        Multicharge(1, (0,))


@pytest.mark.parametrize("build", [
    lambda: Multicharge.from_json({"e": 2.7, "s": [0, 1.9]}),
    lambda: Multicharge.from_json({"e": 3, "s": [0, 1.0]}),
    lambda: Multicharge(3, (0, 1.5)),
    lambda: Multicharge(3.0, (0, 1)),
    lambda: Multicharge(True, (0,)),
    lambda: Multicharge(3, (0, False)),
    lambda: Multicharge(3, ("1",)),
    lambda: Multipartition(((2.5, 1),)),
    lambda: Multipartition(((2, 1.0),)),
    lambda: Multipartition(((True,),)),
    lambda: Multipartition.from_lists([[2], [1.5]]),
])
def test_constructors_reject_non_integers(build):
    # int() used to truncate these silently: e = 2.7 became 2, s = 1.5 became 1
    with pytest.raises(ValueError, match="must be integers"):
        build()


partitions = st.lists(st.integers(min_value=1, max_value=6), max_size=5).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@given(st.lists(partitions, min_size=1, max_size=3))
def test_serialization_roundtrip(components):
    m = Multipartition(tuple(components))
    assert parse_multipartition(m.serialize()) == m


@given(st.lists(partitions, min_size=1, max_size=2), st.integers(0, 2))
def test_random_add_remove_roundtrip(components, e_shift):
    m = Multipartition(tuple(components))
    c = Multicharge(2 + e_shift, tuple(range(m.level)))
    for box in removable_boxes(m, c):
        assert add_box(remove_box(m, box), box) == m


@given(st.lists(partitions, min_size=1, max_size=3))
def test_box_moves_are_canonical(components):
    # add_box and remove_box skip validation: their results must be the
    # multipartitions that validation builds, rows emptied by a removal gone
    m = Multipartition(tuple(components))
    c = Multicharge(2, (0,) * m.level)
    moved = [add_box(m, box) for box in addable_boxes(m, c)]
    moved += [remove_box(m, box) for box in removable_boxes(m, c)]
    for out in moved:
        validated = Multipartition(out.components)
        assert out == validated and hash(out) == hash(validated)
        assert out.components == validated.components
        assert all(part > 0 for comp in out.components for part in comp)


def canonical(box: BoxCoord) -> tuple[int, int, int]:
    return (box.comp, box.row, box.col)


@given(
    st.lists(partitions, min_size=1, max_size=3),
    st.integers(2, 5),
    st.lists(st.integers(-4, 6), min_size=3, max_size=3),
)
def test_filtered_boxes_are_residue_filtered_in_canonical_order(components, e, s):
    m = Multipartition(tuple(components))
    c = Multicharge(e, tuple(s[: m.level]))
    for listing in (addable_boxes, removable_boxes):
        every = listing(m, c)
        assert every == sorted(every, key=canonical)
        for i in range(e):
            filtered = listing(m, c, i)
            assert filtered == [box for box in every if residue(box, c) == i]
            assert filtered == sorted(filtered, key=canonical)


def test_filtered_boxes_level_mismatch():
    # a residue is asked for only where a component has a candidate box: a
    # component beyond the charge's level raises then, and only then
    short = Multicharge(2, (0,))
    spilled = mp("[[1],[1]]")
    for listing in (addable_boxes, removable_boxes):
        with pytest.raises(ValueError, match=r"component 2 out of 1\.\.1"):
            listing(spilled, short, 0)
        assert len(listing(spilled, short)) == (4 if listing is addable_boxes else 2)
    empty_tail = mp("[[1],[]]")
    assert removable_boxes(empty_tail, short, 0) == [BoxCoord(1, 1, 1)]
    with pytest.raises(ValueError, match=r"component 2 out of 1\.\.1"):
        addable_boxes(empty_tail, short, 1)
    long = Multicharge(2, (0, 1, 1))
    assert addable_boxes(spilled, long, 0) == [BoxCoord(1, 2, 2), BoxCoord(2, 1, 2)]
    assert removable_boxes(spilled, long, 0) == [BoxCoord(1, 1, 1)]
