from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import (
    FockVector,
    Multicharge,
    Multipartition,
    apply_e,
    apply_f,
    apply_h,
    boxes,
    depth,
    enumerate_multipartitions,
    pair_coroot,
    parse_multipartition,
    primitive_basis,
    residue,
    simple_root,
    wt,
)
from focklab.fock_space import operator_matrix, parse_vector
from test_linalg import dense_rref

CONFIGS = (
    Multicharge(2, (0,)),
    Multicharge(2, (0, 1)),
    Multicharge(3, (0, 1)),
)


def basis(text: str) -> FockVector:
    return FockVector.basis(parse_multipartition(text))


def brute_e(i: int, m: Multipartition, charge: Multicharge) -> FockVector:
    """Independent oracle: enumerate all shapes one box below and keep those
    whose single-box difference has residue i."""
    if m.rank == 0:
        return FockVector.zero()
    mine = boxes(m)
    terms = {}
    for candidate in enumerate_multipartitions(m.rank - 1, m.level):
        other = boxes(candidate)
        if other <= mine:
            (diff,) = tuple(mine - other)
            if residue(diff, charge) == i:
                terms[candidate] = Fraction(1)
    return FockVector(terms)


def brute_f(i: int, m: Multipartition, charge: Multicharge) -> FockVector:
    mine = boxes(m)
    terms = {}
    for candidate in enumerate_multipartitions(m.rank + 1, m.level):
        other = boxes(candidate)
        if mine <= other:
            (diff,) = tuple(other - mine)
            if residue(diff, charge) == i:
                terms[candidate] = Fraction(1)
    return FockVector(terms)


def test_apply_e_examples():
    c = Multicharge(2, (0,))
    assert apply_e(0, basis("[[1]]"), c) == basis("[[]]")
    assert apply_e(0, basis("[[2,2]]"), c) == basis("[[2,1]]")
    two = basis("[[2]]") + basis("[[1,1]]")
    assert apply_e(1, two, c) == basis("[[1]]").scaled(2)
    # both terms reach [[1]] and cancel: no zero coefficient is kept
    assert apply_e(1, basis("[[2]]") - basis("[[1,1]]"), c).terms == {}


def test_apply_f_examples():
    c = Multicharge(2, (0,))
    assert apply_f(0, FockVector.basis(Multipartition.empty(1)), c) == basis("[[1]]")
    assert apply_f(1, basis("[[1]]"), c) == basis("[[2]]") + basis("[[1,1]]")
    c2 = Multicharge(2, (0, 1))
    assert apply_f(0, FockVector.basis(Multipartition.empty(2)), c2) == basis(
        "[[1],[]]"
    )


def test_operators_refuse_components_beyond_the_charge():
    # a basis vector with more components than the charge has no residues
    # there: e_i and f_i raise instead of reading a missing s_j
    short = Multicharge(2, (0,))
    for op in (apply_e, apply_f):
        for i in range(short.e):
            with pytest.raises(ValueError, match=r"component 2 out of 1\.\.1"):
                op(i, basis("[[1],[1]]"), short)
    with pytest.raises(ValueError, match=r"component 2 out of 1\.\.1"):
        apply_f(0, basis("[[1],[]]"), short)


def test_operators_refuse_a_level_below_the_charge():
    # as apply_h and wt do, rather than act as if the charge were shorter
    c = Multicharge(2, (0, 1))
    for op in (apply_e, apply_f, apply_h):
        for i in range(c.e):
            with pytest.raises(ValueError, match="level mismatch: 1 vs 2"):
                op(i, basis("[[1]]"), c)
            with pytest.raises(ValueError, match="level mismatch: 1 vs 3"):
                op(i, basis("[[1]]") + basis("[[2]]"), Multicharge(2, (0, 1, 1)))
    assert apply_e(0, FockVector.zero(), c) == FockVector.zero()


def test_operators_refuse_a_residue_outside_0_to_e_minus_1():
    # as apply_h and crystal.signature do, rather than return the zero vector
    c = Multicharge(2, (0,))
    for op in (apply_e, apply_f):
        for i in (5, -1):
            with pytest.raises(ValueError, match=rf"residue {i} out of 0\.\.1"):
                op(i, basis("[[1]]"), c)


def test_apply_h_examples():
    c2 = Multicharge(2, (0, 1))
    empty2 = FockVector.basis(Multipartition.empty(2))
    assert apply_h(0, empty2, c2) == empty2
    c = Multicharge(2, (0,))
    assert apply_h(0, basis("[[1]]"), c) == basis("[[1]]").scaled(-1)
    assert apply_h(1, FockVector.zero(), c) == FockVector.zero()


def test_depth_examples():
    c = Multicharge(2, (0,))
    assert depth(0, FockVector.zero(), c) == -math.inf
    assert depth(0, basis("[[1]]"), c) == 1
    assert depth(1, basis("[[2,2]]"), c) == 0


def test_primitive_basis_examples():
    c = Multicharge(2, (0,))
    rank0 = primitive_basis(0, c)
    assert rank0 == [FockVector.basis(Multipartition.empty(1))]
    assert primitive_basis(1, c) == []
    (vec,) = primitive_basis(2, c)
    two, oneone = parse_multipartition("[[2]]"), parse_multipartition("[[1,1]]")
    assert set(vec.terms) == {two, oneone}
    assert vec.coeff(two) == -vec.coeff(oneone)


def test_primitive_basis_killed_by_every_operator():
    for charge in CONFIGS:
        for n in range(5):
            for vec in primitive_basis(n, charge):
                for i in range(charge.e):
                    assert apply_e(i, vec, charge).is_zero()


def dense_primitive_basis(n, charge):
    """The joint kernel of all e_i on the rank-n slice by the dense route:
    every e_i matrix stacked, reduced by the test-local Gauss-Jordan oracle,
    one vector per free column f with x_f = 1 and x_pc = -red[r][f]."""
    domain = enumerate_multipartitions(n, charge.level)
    codomain = enumerate_multipartitions(n - 1, charge.level) if n else ()
    rows = [row for i in range(charge.e)
            for row in operator_matrix(i, charge, domain, codomain)]
    red, pivots = dense_rref(rows, len(domain))
    basis = []
    for f in (c for c in range(len(domain)) if c not in pivots):
        x = {domain[f]: Fraction(1)}
        for r, pc in enumerate(pivots):
            x[domain[pc]] = -red[r][f]
        basis.append(FockVector(x))
    return basis


# e = 2..5; levels 1 to 3, a reversed and a negative charge
PRIMITIVE_CHARGES = [Multicharge(e, s) for e in (2, 3, 4, 5)
                     for s in ((0,), (0, 1), (0, 1, e - 1), (1, 0), (-2, 0))]


@pytest.mark.parametrize("charge", PRIMITIVE_CHARGES, ids=str)
def test_primitive_basis_matches_dense_oracle(charge):
    # equal vectors in the same order, ranks 0-6 (0-4 at level 3)
    for n in range(7 if charge.level < 3 else 5):
        assert primitive_basis(n, charge) == dense_primitive_basis(n, charge), n


@st.composite
def basis_combinations(draw):
    """(charge, v): v a random integer combination of basis vectors of rank
    at most 4, for e in {2, 3, 4} and levels 1-2."""
    e = draw(st.sampled_from([2, 3, 4]))
    level = draw(st.integers(1, 2))
    charge = Multicharge(e, tuple(draw(st.lists(st.integers(-2, 2),
                                                min_size=level, max_size=level))))
    shapes = [mp for n in range(5) for mp in enumerate_multipartitions(n, level)]
    v = FockVector.zero()
    for mp, c in draw(st.lists(st.tuples(st.sampled_from(shapes), st.integers(-3, 3)),
                               max_size=6)):
        v = v + FockVector.basis(mp).scaled(c)
    return charge, v


@settings(max_examples=80, deadline=None)
@given(basis_combinations())
def test_operators_are_linear_on_basis_combinations(case):
    # check_fock_relations extends the basis images linearly, so it relies on this
    charge, v = case
    for op in (apply_e, apply_f):
        for i in range(charge.e):
            expected = FockVector.zero()
            for mp, c in v.terms.items():
                expected = expected + op(i, FockVector.basis(mp), charge).scaled(c)
            assert op(i, v, charge) == expected


#: (charge, top rank) beyond CONFIGS: e = 4 and 5, negative and large
#: charges, level 3
WIDE_ORACLE_CASES = (
    (Multicharge(4, (0, 2)), 6),
    (Multicharge(5, (-3, 7)), 6),
    (Multicharge(3, (0, 1, 2)), 4),
    (Multicharge(4, (-5, 9, 2)), 4),
)


def test_operators_match_brute_force_oracle():
    # spot check of the one-box rules for both operator directions
    for charge, top in tuple((c, 6) for c in CONFIGS) + WIDE_ORACLE_CASES:
        for n in range(top + 1):
            for m in enumerate_multipartitions(n, charge.level):
                v = FockVector.basis(m)
                for i in range(charge.e):
                    assert apply_e(i, v, charge) == brute_e(i, m, charge)
                    if n <= 5:
                        assert apply_f(i, v, charge) == brute_f(i, m, charge)


def test_weight_step():
    for charge in CONFIGS:
        for n in range(5):
            for m in enumerate_multipartitions(n, charge.level):
                base = wt(m, charge)
                for i in range(charge.e):
                    for target in apply_e(i, FockVector.basis(m), charge).terms:
                        assert wt(target, charge) == base + simple_root(i, charge.e)
                    for target in apply_f(i, FockVector.basis(m), charge).terms:
                        assert wt(target, charge) == base - simple_root(i, charge.e)


def commutator_ok(i: int, j: int, m: Multipartition, charge: Multicharge) -> bool:
    v = FockVector.basis(m)
    bracket = apply_e(i, apply_f(j, v, charge), charge) - apply_f(
        j, apply_e(i, v, charge), charge
    )
    if i == j:
        return bracket == apply_h(i, v, charge)
    return bracket.is_zero()


def test_sl2_triples():
    # [e_i, f_i] = h_i and [e_i, f_j] = 0 on rank slices, exactly
    for charge, bound in ((Multicharge(2, (0,)), 8), (Multicharge(2, (0, 1)), 6)):
        for n in range(bound + 1):
            for m in enumerate_multipartitions(n, charge.level):
                for i in range(charge.e):
                    for j in range(charge.e):
                        assert commutator_ok(i, j, m, charge)


def serre_ok(i: int, j: int, m: Multipartition, charge: Multicharge) -> bool:
    from math import comb

    from focklab.weight_lattice import cartan_entry

    order = 1 - cartan_entry(i, j, charge.e)
    v = FockVector.basis(m)
    for op in (apply_e, apply_f):
        total = FockVector.zero()
        for k in range(order + 1):
            term = v
            for _ in range(k):
                term = op(i, term, charge)
            term = op(j, term, charge)
            for _ in range(order - k):
                term = op(i, term, charge)
            total = total + term.scaled(Fraction((-1) ** k * comb(order, k)))
        if not total.is_zero():
            return False
    return True


def test_serre_relations():
    for charge in CONFIGS:
        for n in range(6):
            for m in enumerate_multipartitions(n, charge.level):
                for i in range(charge.e):
                    for j in range(charge.e):
                        if i != j:
                            assert serre_ok(i, j, m, charge)


def test_integrability_and_positivity():
    for charge in CONFIGS:
        for n in range(6):
            for m in enumerate_multipartitions(n, charge.level):
                v = FockVector.basis(m)
                for i in range(charge.e):
                    assert depth(i, v, charge) <= m.rank
                    up = apply_f(i, v, charge)
                    down = apply_e(i, v, charge)
                    assert all(c > 0 for c in up.terms.values())
                    assert all(c > 0 for c in down.terms.values())
                    assert all(t.rank == n + 1 for t in up.terms)
                    assert all(t.rank == n - 1 for t in down.terms)


def test_vector_invariants():
    with pytest.raises(ValueError):
        FockVector(
            {
                Multipartition.empty(1): Fraction(1),
                Multipartition.empty(2): Fraction(1),
            }
        )
    v = basis("[[1]]") - basis("[[1]]")
    assert v.is_zero() and v.terms == {}
    with pytest.raises(TypeError):
        FockVector({Multipartition.empty(1): 0.5})
    with pytest.raises(TypeError):
        basis("[[1]]").scaled(0.1)


def test_vector_json_roundtrip():
    v = basis("[[2]]").scaled(Fraction(-3, 2)) + basis("[[1,1]]")
    doc = v.to_json()
    assert doc[0]["coeff"] == "1" and doc[1]["coeff"] == "-3/2"
    assert FockVector.from_json(doc) == v
    assert parse_vector("[]").is_zero()
    assert parse_vector("[[1]]") == basis("[[1]]")


def test_vector_json_coefficients_are_exact():
    # JSON decimals are read as the decimal fractions they spell, never
    # through a binary float; booleans, null and NaN are not coefficients
    v = parse_vector('[{"coeff": 0.1, "mp": [[1]]}, {"coeff": 2.5e-1, "mp": [[2]]}]')
    assert v.terms == {parse_multipartition("[[1]]"): Fraction(1, 10),
                       parse_multipartition("[[2]]"): Fraction(1, 4)}
    for bad in ("true", "false", "null", "NaN", "Infinity", "[1]"):
        with pytest.raises(ValueError):
            parse_vector(f'[{{"coeff": {bad}, "mp": [[1]]}}]')


def test_vector_json_refuses_coefficients_past_the_digit_limit():
    # a decimal or string coefficient whose digits plus |exponent| pass
    # Python's int digit limit is refused from its text, before expanding it
    limit = sys.get_int_max_str_digits()
    at_limit = parse_vector(f'[{{"coeff": 1e{limit - 1}, "mp": [[1]]}}]')
    assert at_limit.terms == {parse_multipartition("[[1]]"): Fraction(10) ** (limit - 1)}
    assert parse_vector('[{"coeff": "2.5e-3", "mp": [[1]]}]') == basis("[[1]]").scaled(
        Fraction(1, 400))
    for coeff in (f"1e{limit}", f"1e-{limit}", "1e4000000", "1.5E+4000000",
                  '"1e4000000"', '"1e4_000_000"'):
        with pytest.raises(ValueError, match=f"expands past {limit} digits"):
            parse_vector(f'[{{"coeff": {coeff}, "mp": [[1]]}}]')
