from __future__ import annotations

import json

import pytest

from focklab import (
    AffineWeight,
    Multicharge,
    addable_boxes,
    boxes,
    enumerate_multipartitions,
    fundamental,
    lambda_s,
    null_root,
    pair_coroot,
    parse_multipartition,
    removable_boxes,
    residue,
    simple_root,
    wt,
)
from focklab.weight_lattice import cartan_entry


def test_fundamental_examples():
    assert fundamental(0, 2) == AffineWeight((1, 0), 0)
    assert fundamental(1, 3) == AffineWeight((0, 1, 0), 0)
    with pytest.raises(ValueError, match="out of 0..1"):  # callers reduce mod e
        fundamental(5, 2)


def test_simple_root_examples():
    assert simple_root(1, 3) == AffineWeight((-1, 2, -1), 0)
    assert simple_root(0, 2) == AffineWeight((2, -2), 1)
    for e in range(2, 7):
        for i in range(e):
            assert pair_coroot(i, simple_root(i, e)) == 2


def test_pair_coroot_examples():
    assert pair_coroot(0, fundamental(0, 2)) == 1
    assert pair_coroot(1, null_root(2)) == 0
    c = Multicharge(2, (0,))
    assert pair_coroot(0, wt(parse_multipartition("[[1]]"), c)) == -1


def test_lambda_s_examples():
    assert lambda_s(Multicharge(2, (0, 1))) == AffineWeight((1, 1), 0)
    assert lambda_s(Multicharge(2, (0,))) == fundamental(0, 2)
    assert lambda_s(Multicharge(3, (0, 0))) == AffineWeight((2, 0, 0), 0)
    assert sum(lambda_s(Multicharge(3, (2, 5, 1))).lam) == 3


def test_wt_examples():
    c = Multicharge(2, (0,))
    assert wt(parse_multipartition("[[]]"), c) == lambda_s(c)
    assert wt(parse_multipartition("[[1]]"), c) == AffineWeight((-1, 2), -1)
    c2 = Multicharge(2, (0, 1))
    assert wt(parse_multipartition("[[1],[1]]"), c2) == AffineWeight((1, 1), -1)


def test_level_examples():
    for e in range(2, 7):
        for i in range(e):
            assert sum(simple_root(i, e).lam) == 0
    assert sum(null_root(4).lam) == 0


def test_delta_identity():
    for e in range(2, 7):
        total = simple_root(0, e)
        for i in range(1, e):
            total = total + simple_root(i, e)
        assert total == null_root(e)


def test_cartan_matrix_reproduced():
    for e in range(2, 7):
        for i in range(e):
            for j in range(e):
                assert pair_coroot(i, simple_root(j, e)) == cartan_entry(i, j, e)
    assert cartan_entry(0, 1, 2) == -2
    assert cartan_entry(0, 2, 5) == 0


def test_pairing_counts_boxes():
    # coroot pairing of the weight equals addable minus removable box counts
    for charge, bound in (
        (Multicharge(2, (0,)), 8),
        (Multicharge(2, (0, 1)), 6),
        (Multicharge(3, (0, 1)), 6),
    ):
        for n in range(bound + 1):
            for m in enumerate_multipartitions(n, charge.level):
                weight = wt(m, charge)
                for i in range(charge.e):
                    diff = len(addable_boxes(m, charge, i)) - len(
                        removable_boxes(m, charge, i)
                    )
                    assert diff == pair_coroot(i, weight)


def test_wt_step_under_adding_box():
    from focklab import add_box, residue

    charge = Multicharge(3, (0, 1))
    for n in range(5):
        for m in enumerate_multipartitions(n, 2):
            base = wt(m, charge)
            for box in addable_boxes(m, charge):
                i = residue(box, charge)
                assert wt(add_box(m, box), charge) == base - simple_root(i, charge.e)


def test_level_of_weights_is_level():
    for charge in (Multicharge(2, (0,)), Multicharge(3, (0, 1, 2))):
        for n in range(5):
            for m in enumerate_multipartitions(n, charge.level):
                assert sum(wt(m, charge).lam) == charge.level


def test_delta_truncation_records_both():
    c = Multicharge(2, (0,))
    w = wt(parse_multipartition("[[1]]"), c)
    assert w.delta == -1
    assert AffineWeight(w.lam, 0) == AffineWeight((-1, 2), 0)


def test_weight_arithmetic_and_json():
    w = AffineWeight((1, -2), 3)
    assert (-w) + w == AffineWeight((0, 0), 0)
    assert w.scaled(2) == AffineWeight((2, -4), 6)
    assert w.to_json() == {"lambda": [1, -2], "delta": 3}
    with pytest.raises(ValueError):
        w + AffineWeight((1, 0, 0), 0)


def test_weight_sums_and_differences_equal_validated_weights():
    # + and - build their result unchecked; it must equal a checked one
    charge = Multicharge(3, (0, 1))
    weights = [wt(m, charge) for n in range(4) for m in enumerate_multipartitions(n, 2)]
    weights += [simple_root(1, 3), null_root(3).scaled(-2), -fundamental(2, 3)]
    for a in weights:
        for b in weights[::3]:
            for got, lam, delta in (
                (a + b, [x + y for x, y in zip(a.lam, b.lam)], a.delta + b.delta),
                (a - b, [x - y for x, y in zip(a.lam, b.lam)], a.delta - b.delta),
            ):
                fresh = AffineWeight(tuple(lam), delta)
                assert got == fresh and hash(got) == hash(fresh)
                assert type(got.lam) is tuple and all(type(v) is int for v in (*got.lam, got.delta))
                assert str(got) == str(fresh) and got.to_json() == fresh.to_json()


@pytest.mark.parametrize("build", [
    lambda: AffineWeight((1.5, 0), 0.9),
    lambda: AffineWeight((1, 0), 0).scaled(0.5),
    lambda: AffineWeight((True, 0), 0),
])
def test_weight_rejects_non_integers(build):
    # int() used to truncate these silently: (1.5, 0; 0.9) became (1,0;0)
    with pytest.raises(ValueError, match="must be integers"):
        build()


def wt_by_roots(m, charge) -> AffineWeight:
    """Oracle: Lambda_s - sum_i n_i alpha_i, counting residues box by box."""
    counts = [0] * charge.e
    for box in boxes(m):
        counts[residue(box, charge)] += 1
    w = AffineWeight((0,) * charge.e, 0)
    for s in charge.s:
        w = w + fundamental(s % charge.e, charge.e)
    for i, n_i in enumerate(counts):
        w = w - simple_root(i, charge.e).scaled(n_i)
    return w


def test_wt_matches_root_formula():
    charges = [
        Multicharge(e, s)
        for e in (2, 3, 4, 5)
        for s in ((0,), (e - 1,), (0, 1), (-1, 2), (0, 2, 5), (1, 1, -3))
    ]
    for charge in charges:
        for n in range(9):
            for m in enumerate_multipartitions(n, charge.level):
                assert wt(m, charge) == wt_by_roots(m, charge), (charge, m)
    with pytest.raises(ValueError, match="level mismatch"):
        wt(parse_multipartition("[[1]]"), Multicharge(3, (0, 1)))


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_wt_of_wide_rows_matches_root_formula(e):
    # rows of width e and more take their whole turns through the residues at once
    for s in ((0,), (-7, e), (e + 2, -1, 2 * e)):
        charge = Multicharge(e, s)
        for w in range(5 * e + 4):
            rows = sorted({w, w - 1, w // 2, e, 1} - {0, -1}, reverse=True)
            comps = [rows[j:] for j in range(charge.level)]
            m = parse_multipartition(json.dumps(comps))
            assert wt(m, charge) == wt_by_roots(m, charge), (charge, comps)
