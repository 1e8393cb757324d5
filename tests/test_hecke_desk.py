from __future__ import annotations

import ast
import collections
import dataclasses
import hashlib
import io
import itertools
import json
import math
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from focklab import (
    Multicharge,
    a_poly,
    build_algebra,
    central_characters,
    check_block_weights,
    check_jm,
    check_relations,
    enumerate_multipartitions,
    hecke_desk,
    jm_elements,
    parse_multipartition,
    removable_boxes,
    residue,
    symmetric_jm,
    wt,
)
from focklab._linalg import SpanTracker, mat_mul, matrix_rank
from focklab.cyclotomic import (
    Cyc,
    matrix_rank_cyc,
    mod_p,
    mul_rows,
    reduction_primes,
)
from focklab.hecke_desk import (
    AttainedCharacter,
    CharacterSpectrum,
    _minimal_polynomial,
    _split_root,
)
from focklab.multipartition import Multipartition, remove_box
from focklab.structure_analysis import AxiomReport
from test_acceptance import specht_dimension
from test_cyclotomic import dense_rows
from test_linalg import realify


def test_rep_stores_only_charge_words_and_gens(hecke_reps):
    fields = [f.name for f in dataclasses.fields(hecke_desk.FinDimAlgebraRep)]
    assert fields == ["charge", "words", "gens", "_jm_cache"]
    rep = hecke_reps(3, 2, 3)
    assert (rep.l, rep.n, rep.dimension) == (3, 2, 18)
    for e in range(2, 9):  # q^-1 of jm_elements
        assert Cyc.zeta(e, -1).coeffs == Cyc.zeta(e).inverse().coeffs


def test_dimensions(hecke_reps):
    assert hecke_reps(1, 2, 2).dimension == 2
    assert hecke_reps(2, 2, 2).dimension == 8
    assert hecke_reps(3, 2, 2).dimension == 18
    assert hecke_reps(1, 3, 3).dimension == 6


def test_degenerate_t0_is_scalar(hecke_reps):
    # level one: the cyclotomic relation has degree one, so T_0 = q_1
    rep = hecke_reps(1, 2, 2)
    q1 = Cyc.zeta(rep.charge.e, rep.charge.s[0])
    assert rep.gens[0] == [{r: q1} for r in range(rep.dimension)]


def test_relations_pass(hecke_reps):
    for l, n, e in [(1, 2, 2), (1, 3, 2), (2, 2, 2), (3, 2, 3), (2, 3, 2)]:
        (report,) = check_relations(hecke_reps(l, n, e))
        assert report.status == "pass", (l, n, e, report.witnesses[:1])


# check_relations witnesses with T_1 scaled by 2, and with 1 added to the
# entry (0, 1) of T_0; taken when every relation was checked as a difference
# of whole matrices, scalars included
PERTURBED_WITNESSES = {
    (2, 3, 2): (
        ({"relation": "quadratic_T1", "row": 0, "col": 0, "entry": "-3"},
         {"relation": "braid_T1T2", "row": 0, "col": 14, "entry": "-2"}),
        ({"relation": "cyclotomic_T0", "row": 0, "col": 0, "entry": "1"},
         {"relation": "braid_T0T1", "row": 0, "col": 16, "entry": "1"},
         {"relation": "commute_T0T2", "row": 0, "col": 5, "entry": "-1"}),
    ),
    (2, 3, 3): (
        ({"relation": "quadratic_T1", "row": 0, "col": 0, "entry": "3*z3"},
         {"relation": "braid_T1T2", "row": 0, "col": 14, "entry": "2"}),
        ({"relation": "cyclotomic_T0", "row": 0, "col": 0, "entry": "1"},
         {"relation": "braid_T0T1", "row": 0, "col": 16, "entry": "-1"},
         {"relation": "commute_T0T2", "row": 0, "col": 5, "entry": "z3"}),
    ),
}


@pytest.mark.parametrize("config", PERTURBED_WITNESSES)
def test_check_relations_witnesses_perturbed_generators(hecke_reps, config):
    rep = hecke_reps(*config)
    scaled, shifted = PERTURBED_WITNESSES[config]
    gens = list(rep.gens)
    gens[1] = hecke_desk._scale(gens[1], 2)
    (report,) = check_relations(dataclasses.replace(rep, gens=gens))
    assert report.witnesses == scaled
    t0 = list(rep.gens[0])
    t0[0] = hecke_desk._add(t0[0], {1: rep.one()})
    (report,) = check_relations(dataclasses.replace(rep, gens=[t0, *rep.gens[1:]]))
    assert report.witnesses == shifted


def test_generators_invertible(hecke_reps):
    rep = hecke_reps(2, 2, 3)
    for gen in rep.gens:
        dense = dense_rows(gen, rep.dimension, rep.zero())
        assert matrix_rank_cyc(dense, rep.dimension) == rep.dimension


def test_identity_word_first(hecke_reps):
    rep = hecke_reps(2, 2, 2)
    assert rep.words[0] == ()
    assert rep.word_labels()[0] == "Id"


def test_dimension_bound():
    charge = Multicharge(2, (0, 1))
    with pytest.raises(ValueError):
        build_algebra(2, 2, charge, max_dim=7)
    with pytest.raises(ValueError):
        build_algebra(1, 2, Multicharge(2, (0, 1)))  # level mismatch


# Sparse rows store no zero (test_hecke_coefficients_are_ints), so equal
# matrices have equal rows and the identities below are checked with ==.
def test_jm_recursion(hecke_reps):
    rep = hecke_reps(1, 3, 2)
    jms = jm_elements(rep)
    q = Cyc.zeta(rep.charge.e)
    t = rep.gens
    assert jms[0] == t[0]
    j1 = mul_rows(mul_rows(t[1], t[0]), t[1])
    assert jms[1] == hecke_desk._scale(j1, q.inverse())
    j2 = reduce(mul_rows, [t[2], t[1], t[0], t[1], t[2]])
    assert jms[2] == hecke_desk._scale(j2, (q * q).inverse())


def test_jm_pairwise_commute(hecke_reps):
    rep = hecke_reps(2, 3, 2)
    jms = jm_elements(rep)
    for i in range(len(jms)):
        for j in range(i + 1, len(jms)):
            assert mul_rows(jms[i], jms[j]) == mul_rows(jms[j], jms[i])


def test_jm_twist_identity(hecke_reps):
    # T_i J_{i-1} T_i = q J_i, the defining recursion read as matrices
    for l, n, e in [(2, 2, 2), (2, 3, 3), (3, 2, 3)]:
        rep = hecke_reps(l, n, e)
        jms = jm_elements(rep)
        for i in range(1, rep.n):
            lhs = mul_rows(mul_rows(rep.gens[i], jms[i - 1]), rep.gens[i])
            assert lhs == hecke_desk._scale(jms[i], Cyc.zeta(rep.charge.e))


def test_symmetric_jm_examples(hecke_reps):
    rep = hecke_reps(1, 2, 2)
    assert symmetric_jm(rep, 0) == [{r: rep.one()} for r in range(rep.dimension)]
    e1 = symmetric_jm(rep, 1)
    for gen in rep.gens:
        assert mul_rows(e1, gen) == mul_rows(gen, e1)
    # negative control: a single Jucys-Murphy element is not central
    rep22 = hecke_reps(2, 2, 2)
    j0 = jm_elements(rep22)[0]
    assert any(mul_rows(j0, g) != mul_rows(g, j0) for g in rep22.gens)


def test_symmetric_jm_central(hecke_reps):
    for l, n, e in [(1, 3, 2), (2, 2, 3), (3, 2, 2)]:
        rep = hecke_reps(l, n, e)
        for k in range(1, n + 1):
            ek = symmetric_jm(rep, k)
            for gen in rep.gens:
                assert mul_rows(ek, gen) == mul_rows(gen, ek)


def test_a_poly_examples():
    c = Multicharge(2, (0,))
    one_box = a_poly(parse_multipartition("[[1]]"), c)
    assert one_box.values == (Cyc.one(2),)  # a(z) = z - 1
    row = a_poly(parse_multipartition("[[2]]"), c)
    assert row.values == (Cyc.zero(2), Cyc.from_rational(-1, 2))  # z^2 - 1
    c2 = Multicharge(2, (0, 1))
    pair = a_poly(parse_multipartition("[[1],[1]]"), c2)
    assert pair.values == (Cyc.zero(2), Cyc.from_rational(-1, 2))
    assert row.to_json() == [["0"], ["-1"]]  # the digested text form


def test_character_equals_weight_equivalence():
    for charge in (Multicharge(2, (0,)), Multicharge(3, (0, 1))):
        for n in range(5):
            shapes = enumerate_multipartitions(n, charge.level)
            for a in range(len(shapes)):
                for b in range(a + 1, len(shapes)):
                    same_char = a_poly(shapes[a], charge) == a_poly(shapes[b], charge)
                    same_wt = wt(shapes[a], charge) == wt(shapes[b], charge)
                    assert same_char == same_wt


def test_central_characters_examples(hecke_reps):
    c = Multicharge(2, (0,))
    spec2 = central_characters(hecke_reps(1, 2, 2), 2, c)
    assert len(spec2.attained) == 1
    assert spec2.attained[0].dimension == 2
    members = {tuple(m.to_lists()[0]) for m in spec2.attained[0].members}
    assert members == {(2,), (1, 1)}

    spec3 = central_characters(hecke_reps(1, 3, 2), 3, c)
    assert len(spec3.attained) == 2
    groups = {
        frozenset(tuple(m.to_lists()[0]) for m in a.members): a.dimension
        for a in spec3.attained
    }
    assert frozenset({(3,), (1, 1, 1)}) in groups
    assert frozenset({(2, 1)}) in groups

    spec1 = central_characters(hecke_reps(1, 1, 2), 1, c)
    assert len(spec1.attained) == 1 and spec1.attained[0].dimension == 1


def test_spectrum_reports_pass(hecke_reps):
    for l, n, e in [(1, 2, 2), (2, 2, 3), (3, 2, 2)]:
        charge = Multicharge(e, tuple(range(l)))
        spectrum = central_characters(hecke_reps(l, n, e), n, charge)
        assert all(r.status == "pass" for r in spectrum.reports)
        assert sum(a.dimension for a in spectrum.attained) == spectrum.dimension
        weights = {wt(m, charge) for m in enumerate_multipartitions(n, l)}
        assert len(spectrum.attained) == len(weights)


def test_library_checks_pass(hecke_reps):
    for l, n, e in [(1, 3, 2), (2, 2, 3), (3, 2, 2)]:
        charge = Multicharge(e, tuple(range(l)))
        rep = hecke_reps(l, n, e)
        jm = check_jm(rep)
        assert [r.axiom for r in jm] == ["jm_twist", "jm_commute", "jm_centrality"]
        spectrum = central_characters(rep, n, charge)
        blocks = check_block_weights(spectrum, n, charge)
        assert all(r.status == "pass" for r in jm + blocks), (l, n, e)


def test_check_jm_witnesses_scaled_generator(hecke_reps):
    # JM matrices of the true algebra against a generator scaled by 2
    rep = hecke_reps(2, 2, 2)
    gens = list(rep.gens)
    gens[1] = hecke_desk._scale(gens[1], 2)
    bad = dataclasses.replace(rep, gens=gens, _jm_cache=jm_elements(rep))
    by_axiom = {r.axiom: r for r in check_jm(bad)}
    assert by_axiom["jm_twist"].witnesses == ({"i": 1},)
    assert by_axiom["jm_commute"].status == "pass"


def formed_sym_rows(rep):
    """The former `_sym_rows`: e_0..e_n of the JM matrices formed as sparse
    rows, e_k(J_0..J_i) = e_k(J_0..J_(i-1)) + e_(k-1)(J_0..J_(i-1)) J_i."""
    table = [[{r: rep.one()} for r in range(rep.dimension)]]
    for m in jm_elements(rep):
        prods = [mul_rows(t, m) for t in table]
        sums = [list(map(hecke_desk._add, t, prod)) for t, prod in zip(table[1:], prods)]
        table = table[:1] + sums + prods[-1:]
    return table


@pytest.mark.parametrize("l,n,e,g,col", [(1, 3, 2, 0, 1), (2, 3, 2, 1, 3), (2, 3, 3, 1, 3)])
def test_check_jm_centrality_matches_formed_symmetric_jm(hecke_reps, l, n, e, g, col):
    # 1 added at (0, col) of T_g, JM matrices recomputed: the J_i no longer
    # commute, and e_k applied through them must still be the formed e_k
    rep = hecke_reps(l, n, e)
    gens = list(rep.gens)
    gens[g] = [hecke_desk._add(gens[g][0], {col: rep.one()}), *gens[g][1:]]
    bad = dataclasses.replace(rep, gens=gens, _jm_cache=None)
    syms = formed_sym_rows(bad)
    assert [symmetric_jm(bad, k) for k in range(n + 1)] == syms
    unit = [{0: rep.one()}] + [{} for _ in range(rep.dimension - 1)]
    central_bad = tuple(
        {"k": k, "generator": h}
        for k in range(1, n + 1)
        for h, gen in enumerate(bad.gens)
        if mul_rows(syms[k], mul_rows(gen, unit)) != mul_rows(gen, mul_rows(syms[k], unit))
    )
    by_axiom = {r.axiom: r for r in check_jm(bad)}
    assert by_axiom["jm_commute"].witnesses
    assert by_axiom["jm_centrality"].witnesses == central_bad


def test_check_block_weights_witnesses_dropped_block(hecke_reps):
    charge = Multicharge(2, (0, 1))
    spectrum = central_characters(hecke_reps(2, 2, 2), 2, charge)
    k = len(spectrum.attained)
    dropped = dataclasses.replace(spectrum, attained=spectrum.attained[1:])
    (report,) = check_block_weights(dropped, 2, charge)
    assert report.witnesses == (
        {"attained_characters": k - 1, "distinct_weights": k},
    )


def test_spectrum_reports_witness_foreign_charge(hecke_reps):
    # reps built on s = (0, 1) and (0,), against another charge's candidates
    spectrum = central_characters(hecke_reps(2, 2, 3), 2, Multicharge(3, (0, 0)))
    mass, support = spectrum.reports
    assert mass.axiom == "spectral_mass" and support.axiom == "spectral_support"
    assert mass.witnesses == ({"total_generalized_dim": 7, "expected": 8},)
    # k = 2 passes while the mass fails: support is not read off the mass
    assert support.witnesses == ({"k": 1, "nilpotent": False},)

    spectrum = central_characters(hecke_reps(1, 2, 3), 2, Multicharge(3, (1,)))
    assert spectrum.reports[1].witnesses == (
        {"k": 1, "nilpotent": False},
        {"k": 2, "nilpotent": False},
    )


def test_spectrum_refuses_a_charge_of_another_level_or_e(hecke_reps):
    # a charge of level 3 would read the rank-2 shapes of level 2 and drop
    # the third component; one over e = 4 mixes Q(zeta_3) and Q(zeta_4)
    rep = hecke_reps(2, 2, 3)
    with pytest.raises(ValueError, match="asked for n=2, l=3, e=3"):
        central_characters(rep, 2, Multicharge(3, (0, 1, 2)))
    with pytest.raises(ValueError, match="asked for n=2, l=2, e=4"):
        central_characters(rep, 2, Multicharge(4, (0, 1)))


@pytest.mark.parametrize("l,n,e", [(2, 2, 3), (1, 3, 2)])
def test_minimal_polynomial_reduces_each_krylov_vector_once(hecke_reps, monkeypatch, l, n, e):
    # deg + 1 inserts, the last one refused, and one express for the first
    # dependent vector
    calls = collections.Counter()

    class Counting(SpanTracker):
        def insert(self, vec):
            calls["insert"] += 1
            return super().insert(vec)

        def express(self, vec):
            calls["express"] += 1
            return super().express(vec)

    rep = hecke_reps(l, n, e)
    monkeypatch.setattr(hecke_desk._linalg, "SpanTracker", Counting)
    for k in range(n):
        calls.clear()
        minimal = _minimal_polynomial(symmetric_jm(rep, k + 1), rep.one())
        assert calls == {"insert": len(minimal), "express": 1}, k


@pytest.mark.parametrize("l,n,e", [(2, 2, 2), (1, 3, 2)])
def test_spectrum_reports_witness_scaled_generator(hecke_reps, l, n, e):
    # T_1 scaled by 2 and the JM matrices recomputed: J_1 has roots that are
    # no power of zeta, so no tuple is a character, as with the formed e_k
    rep = hecke_reps(l, n, e)
    gens = list(rep.gens)
    gens[1] = hecke_desk._scale(gens[1], 2)
    bad = dataclasses.replace(rep, gens=gens, _jm_cache=None)
    spectrum = central_characters(bad, n, Multicharge(e, tuple(range(l))))
    assert spectrum.attained == ()
    mass, support = spectrum.reports
    assert mass.witnesses == ({"total_generalized_dim": 0, "expected": rep.dimension},)
    assert support.witnesses == tuple({"k": k, "nilpotent": False} for k in range(1, n + 1))


def _poly_at(coeffs, rows):
    """Exact Horner evaluation of an ascending polynomial at sparse rows."""
    out = [{} for _ in rows]
    for c in reversed(coeffs):
        out = [hecke_desk._add(row, {r: c}) for r, row in enumerate(mul_rows(out, rows))]
    return out


def test_add_stores_no_zero():
    zero, one = Cyc.zero(3), Cyc.one(3)
    assert hecke_desk._add({}, {0: zero}) == {}
    assert hecke_desk._add({0: zero, 1: one}, {}) == {1: one}
    assert hecke_desk._add({0: one, 1: one}, {0: -one, 2: zero}) == {1: one}


def _times_power(poly, c, a):
    """(x - c)^a * poly, ascending coefficients."""
    for _ in range(a):
        poly = [y - c * x for x, y in zip(poly + [0], [0] + poly)]
    return poly


def test_minimal_polynomial_annihilates_exactly(hecke_reps):
    # the Krylov polynomial on the identity word, checked on whole matrices
    for l, n, e in [(1, 3, 2), (2, 2, 3), (3, 2, 2)]:
        rep = hecke_reps(l, n, e)
        values = {
            a_poly(mp, rep.charge).values for mp in enumerate_multipartitions(n, l)
        }
        for k in range(n):
            mat = symmetric_jm(rep, k + 1)
            minimal = _minimal_polynomial(mat, rep.one())
            assert not any(_poly_at(minimal, mat)), (l, n, e, k)
            degree = 0
            for c in {v[k] for v in values}:
                a, cofactor = _split_root(minimal, c)
                degree += a
                assert _times_power(cofactor, c, a) == minimal, (l, n, e, k, c)
                if a:  # m_k / (x - c) does not annihilate e_k
                    lower = _times_power(cofactor, c, a - 1)
                    assert any(_poly_at(lower, mat)), (l, n, e, k, c)
            assert degree == len(minimal) - 1, (l, n, e, k)


def _mul_mod(a, b, m):
    """a * b modulo the monic m, as deg m ascending coefficients."""
    d = len(m) - 1
    out = [m[0] * 0] * max(len(a) + len(b) - 1, d)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > d:  # x^d = -(m_0 + m_1 x + ... + m_(d-1) x^(d-1))
        f = out.pop()
        for i, y in enumerate(m[:-1], len(out) - d):
            out[i] -= f * y
    return out


def exact_idempotents(minimal, values):
    """The idempotent polynomials over Q(zeta_e): pi_c = 1 - (1 - g/g(c))^a
    mod m for m = (x - c)^a g, and pi_None = 1 - sum of the pi_c when
    nonzero."""
    one = minimal[-1]
    rest = [one] + [one * 0] * (len(minimal) - 2)
    pis = {}
    for c in dict.fromkeys(values):
        a, g = _split_root(minimal, c)
        if a:
            inv = 1 / sum(x * c**i for i, x in enumerate(g))
            power, h = [one], [1 - g[0] * inv] + [-x * inv for x in g[1:]]
            for _ in range(a):
                power = _mul_mod(power, h, minimal)
            pis[c] = [1 - power[0]] + [-x for x in power[1:]]
            rest = [x - y for x, y in zip(rest, pis[c])]
    if any(rest):
        pis[None] = rest
    return pis


@pytest.mark.parametrize("l,n,e,s", [
    (1, 3, 2, (0,)), (2, 2, 3, (0, 1)), (3, 2, 2, (0, 1, 2)),
    (2, 2, 3, (0, 0)),  # a foreign charge: e_1 has a root that is no candidate's
])
def test_idempotents_mod_p_match_exact_oracle(hecke_reps, monkeypatch, l, n, e, s):
    # the F_p idempotents that reach the traces are the images of the exact
    # ones of the J_k at the targets zeta^r; every root of a J_k is one, so no
    # pi_None, and a foreign charge shows only in the folded tuples
    rep, charge = hecke_reps(l, n, e), Multicharge(e, s)
    traces, seen = hecke_desk._traces, []

    def recording(rep, mats, pis, p, omega):
        seen.append((pis, p, omega))
        return traces(rep, mats, pis, p, omega)

    monkeypatch.setattr(hecke_desk, "_traces", recording)
    spectrum = central_characters(rep, n, charge)
    ((pis, p, omega),) = seen
    zetas = [Cyc.zeta(e, r) for r in range(e)]
    for fp, jm in zip(pis, jm_elements(rep), strict=True):
        exact = exact_idempotents(_minimal_polynomial(jm, rep.one()), zetas)
        assert fp == {c: [mod_p(x, p, omega) for x in pi] for c, pi in exact.items()}
        assert None not in fp
    support = spectrum.reports[1]
    assert support.witnesses == (({"k": 1, "nilpotent": False},) if s == (0, 0) else ())


def test_idempotents_raise_where_the_cofactor_vanishes_mod_p():
    # m = (x - 1)(x - 1 - p): the root 1 is simple over Q, double mod p
    p, omega = next(reduction_primes(2))
    one = Cyc.one(2)
    minimal = [one * (1 + p), -one * (2 + p), one]
    roots = {one: _split_root(minimal, one)}
    assert roots[one] == (1, [-one * (1 + p), one])
    with pytest.raises(ZeroDivisionError):
        hecke_desk._idempotents(minimal, roots, True, p, omega)


def _stabilized_power(m, ncols):
    power, rank = m, matrix_rank(m, ncols)
    while True:
        nxt = mat_mul(power, m, Fraction(0))
        nxt_rank = matrix_rank(nxt, ncols)
        if nxt_rank == rank:
            return power, rank
        power, rank = nxt, nxt_rank


def realified_spectrum(rep, n, charge):
    """The former exact path: stacked rank-stabilized powers of the realified
    e_k - c over Q, and per k the nullities over the values of e_k."""
    d = Cyc.degree(charge.e)
    dim_r = rep.dimension * d
    candidates = {}
    for mp in enumerate_multipartitions(n, rep.l):
        candidates.setdefault(a_poly(mp, charge), []).append(mp)
    table = []
    for k in range(n):
        sym = dense_rows(symmetric_jm(rep, k + 1), rep.dimension, rep.zero())
        table.append({
            c: _stabilized_power(realify(
                [[x - c if i == j else x for j, x in enumerate(row)]
                 for i, row in enumerate(sym)]
            ), dim_r)
            for c in dict.fromkeys(char.values[k] for char in candidates)
        })
    attained, total = [], 0
    for char, members in candidates.items():
        stacked = [row for k in range(n) for row in table[k][char.values[k]][0]]
        d_chi = (dim_r - matrix_rank(stacked, dim_r)) // d
        total += d_chi
        if d_chi:
            attained.append(AttainedCharacter(char, d_chi, tuple(members)))
    mass = [] if total == rep.dimension else [
        {"total_generalized_dim": total, "expected": rep.dimension}
    ]
    support = [
        {"k": k + 1, "nilpotent": False}
        for k, powers in enumerate(table)
        if sum(dim_r - rank for _, rank in powers.values()) != dim_r
    ]
    return CharacterSpectrum(
        rep.dimension,
        tuple(attained),
        (AxiomReport("spectral_mass", tuple(mass)),
         AxiomReport("spectral_support", tuple(support))),
    )


# every configuration of dimension <= 18 at every shift, and foreign charges:
# (l, n, the charge the rep is built on, the charge of the candidates or None)
ORACLE_CASES = [
    (l, n, Multicharge(e, tuple(c + j for j in range(l))), None)
    for l in (1, 2, 3) for n in (1, 2, 3) for e in (2, 3) for c in range(e)
    if l**n * [1, 1, 2, 6][n] <= 18
] + [(2, 2, Multicharge(3, (0, 1)), Multicharge(3, (0, 0))),
     (1, 2, Multicharge(3, (0,)), Multicharge(3, (1,)))]


def test_spectrum_matches_realified_oracle():
    for l, n, built, charge in ORACLE_CASES:
        rep = build_algebra(l, n, built)
        charge = charge or built
        expected = realified_spectrum(rep, n, charge)
        assert central_characters(rep, n, charge) == expected, (l, n, built, charge)


@pytest.mark.parametrize(
    "l,n,e", [(1, 3, 2), (2, 2, 2), (2, 2, 3), (3, 2, 3), (3, 3, 2)]
)
def test_joint_eigenspaces_of_last_jm_restrict(hecke_reps, l, n, e):
    # the generalized zeta^i-eigenspace of J_{n-1} is i-Res of the regular
    # module: sum over lambda of dim S^lambda times the dimensions of the
    # S^(lambda - gamma), gamma a removable node of residue i
    rep = hecke_reps(l, n, e)
    zetas = [Cyc.zeta(e, i) for i in range(e)]
    last = jm_elements(rep)[-1]
    dims = hecke_desk.joint_eigenspaces(rep, [last], [zetas])
    expected = {}
    for mp in enumerate_multipartitions(n, l):
        for box in removable_boxes(mp, rep.charge):
            key = (zetas[residue(box, rep.charge)],)
            restricted = specht_dimension(mp) * specht_dimension(remove_box(mp, box))
            expected[key] = expected.get(key, 0) + restricted
    assert dims == expected
    if (l, n, e) == (2, 2, 3):
        assert [dims[(z,)] for z in zetas] == [3, 3, 2]


def residue_tableaux(mp, charge):
    """Residue sequences of the standard tableaux of shape mp, with their
    counts |Std(mp, i)|: the box holding the largest entry is removable."""
    if not any(mp.components):
        return collections.Counter({(): 1})
    out = collections.Counter()
    for box in removable_boxes(mp, charge):
        for seq, count in residue_tableaux(remove_box(mp, box), charge).items():
            out[seq + (residue(box, charge),)] += count
    return out


@pytest.mark.parametrize("l,n,charge", [
    (2, 3, Multicharge(3, (0, 1))),
    (3, 3, Multicharge(2, (0, 1, 1))),
], ids=["2-3-3-s01", "3-3-2-s011"])
def test_residue_sequence_dimensions(l, n, charge):
    # dim A e(i) = sum over lambda of dim S^lambda |Std(lambda, i)|, for the
    # residue sequences i that the block spectrum sums
    rep = build_algebra(l, n, charge)
    zetas = [Cyc.zeta(charge.e, r) for r in range(charge.e)]
    dims = hecke_desk.joint_eigenspaces(rep, jm_elements(rep), [zetas] * n)
    expected = collections.Counter()
    for mp in enumerate_multipartitions(n, l):
        for seq, count in residue_tableaux(mp, charge).items():
            expected[tuple(zetas[r] for r in seq)] += specht_dimension(mp) * count
    assert dims == expected
    assert sum(dims.values()) == rep.dimension


def tree_traces(rep, mats, pis, p, omega):
    """The former `_traces`: per tuple t, the images b_i e_t along the word
    tree and d = sum_i (b_i e_t)_i."""
    def sparse(rows):
        return [(tuple(row), tuple(mod_p(x, p, omega) for x in row.values())) for row in rows]

    def apply(rows, v):
        return [sum(a * v[c] for c, a in zip(cols, vals)) % p for cols, vals in rows]

    vectors = {(): [1] + [0] * (rep.dimension - 1)}
    for mat, pi_of in zip(mats, pis):
        rows, grown = sparse(mat), {}
        for prefix, v in vectors.items():
            powers = [v]
            for _ in range(max(map(len, pi_of.values())) - 1):
                powers.append(apply(rows, powers[-1]))
            for t, pi in pi_of.items():
                w = [sum(a * x for a, x in zip(pi, col)) % p for col in zip(*powers)]
                if any(w):
                    grown[prefix + (t,)] = w
        vectors = grown
    gens = [sparse(g) for g in rep.gens]
    parent = {word: j for j, word in enumerate(rep.words)}
    dims = {}
    for t, e in vectors.items():
        images = [e]
        for word in rep.words[1:]:
            images.append(apply(gens[word[0]], images[parent[word[1:]]]))
        dims[t] = sum(b_e[i] for i, b_e in enumerate(images)) % p
    return dims


def _recorded_traces(monkeypatch, rep, n, charge):
    """central_characters' spectrum and the input it hands to `_traces`."""
    traces, seen = hecke_desk._traces, []

    def recording(*args):
        seen.append(args)
        return traces(*args)

    monkeypatch.setattr(hecke_desk, "_traces", recording)
    spectrum = central_characters(rep, n, charge)
    monkeypatch.undo()
    (args,) = seen
    return spectrum, args


def test_trace_functional_matches_word_tree_oracle(monkeypatch):
    # rho(v) = sum_i (b_i v)_i on every prefix vector e_t * 1
    for l, n, built, charge in ORACLE_CASES:
        rep = build_algebra(l, n, built)
        _, (_, mats, pis, p, omega) = _recorded_traces(monkeypatch, rep, n, charge or built)
        for k in range(1, n + 1):
            prefix = (rep, mats[:k], pis[:k], p, omega)
            assert hecke_desk._traces(*prefix) == tree_traces(*prefix), (l, n, built, k)


@pytest.mark.parametrize("l,n,e", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_trace_functional_follows_every_word_tree_edge(hecke_reps, l, n, e):
    # mutation: the last word, a leaf, hangs off another word; some d moves
    # or the mass no longer adds up
    rep = hecke_reps(l, n, e)
    charge = Multicharge(e, tuple(range(l)))
    spectrum = central_characters(rep, n, charge)
    g, tail = rep.words[-1][0], rep.words[-1][1:]
    other = next(w for w in rep.words if w != tail and (g,) + w not in rep.words)
    mutated = dataclasses.replace(rep, words=rep.words[:-1] + ((g,) + other,))
    moved = central_characters(mutated, n, charge)
    assert moved.attained != spectrum.attained or moved.reports[0].witnesses


@pytest.mark.parametrize("l,n,charge", [
    (3, 3, Multicharge(2, (0, 1, 2))),
    # the configurations of test_cli's VERIFY_HECKE_PINS, whose streams are
    # the same bytes whatever the block dimensions
    (3, 3, Multicharge(2, (0, 1, 1))),
    (2, 3, Multicharge(4, (0, 1))),
    (2, 2, Multicharge(5, (0, 2))),
    # dimension 384, at e = 5 and e = 2
    (2, 4, Multicharge(5, (0, 2))),
    (2, 4, Multicharge(2, (0, 1))),
], ids=["3-3-2-s012", "3-3-2-s011", "2-3-4-s01", "2-2-5-s02", "2-4-5-s02", "2-4-2-s01"])
def test_block_dimensions_match_cellular_formula(l, n, charge):
    # each block B has dimension sum over B of (dim S^lambda)^2
    rep = build_algebra(l, n, charge, max_dim=384)
    spectrum = central_characters(rep, n, charge)
    assert all(r.status == "pass" for r in spectrum.reports)
    dims = [block.dimension for block in spectrum.attained]
    assert dims == [
        sum(specht_dimension(mp) ** 2 for mp in block.members)
        for block in spectrum.attained
    ]
    assert sum(dims) == rep.dimension == l**n * math.factorial(n)


def _spectrum_input(hecke_reps):
    rep = hecke_reps(2, 2, 3)
    mats = [symmetric_jm(rep, k + 1) for k in range(rep.n)]
    return rep, mats, [[Cyc.zeta(3, i) for i in range(3)]] * rep.n


def _non_reducing(monkeypatch, count):
    """Patch in the first three primes of reduction_primes(3), of which the
    first `count` reduce no input; returns them and the list of primes tried."""
    primes = list(itertools.islice(hecke_desk.reduction_primes(3), 3))
    failing, tried = {p for p, _ in primes[:count]}, []

    def reduction_primes(e):
        for p, omega in primes:
            tried.append(p)
            yield p, omega

    def failing_mod_p(x, p, omega):
        if p in failing:
            raise ZeroDivisionError(p)
        return mod_p(x, p, omega)

    monkeypatch.setattr(hecke_desk, "reduction_primes", reduction_primes)
    monkeypatch.setattr(hecke_desk, "mod_p", failing_mod_p)
    return [p for p, _ in primes], tried


def test_joint_eigenspaces_skip_a_non_reducing_prime(hecke_reps, monkeypatch):
    rep, mats, targets = _spectrum_input(hecke_reps)
    expected = hecke_desk.joint_eigenspaces(rep, mats, targets)
    assert sum(expected.values()) == rep.dimension
    primes, tried = _non_reducing(monkeypatch, 1)
    assert min(primes) > rep.dimension  # the trace mod p determines d_t
    assert hecke_desk.joint_eigenspaces(rep, mats, targets) == expected
    assert tried == primes[:2]


def test_joint_eigenspaces_without_a_reducing_prime_raise(hecke_reps, monkeypatch):
    rep, mats, targets = _spectrum_input(hecke_reps)
    primes, tried = _non_reducing(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="none of 3 primes reduces"):
        hecke_desk.joint_eigenspaces(rep, mats, targets)
    assert tried == primes


def exact_saturation(l, n, charge):
    """The former exact path: one SpanTracker over Q(zeta_e) on the whole
    ambient space, every product expressed over all the words, with `Cyc`
    constants at every e (the build runs on ints when phi(e) = 1)."""
    engine = hecke_desk._Engine(l, n, charge)
    engine.q, engine.one = Cyc.zeta(charge.e), Cyc.one(charge.e)
    engine.qm1 = engine.q - 1
    engine.sigma = a_poly(Multipartition(((1,),) * l), charge).values
    index = {lab: k for k, lab in enumerate(hecke_desk._all_labels(l, n))}
    one = Cyc.one(charge.e)
    gens = [[{} for _ in index] for _ in range(n)]

    def sparse(element):
        return {index[lab]: c for lab, c in element.items()}

    tracker = SpanTracker()
    words, elements = [()], [engine.identity_element()]
    tracker.insert(sparse(elements[0]))
    queue = collections.deque((g, 0) for g in range(n))
    while queue:
        g, k = queue.popleft()
        product = engine.mult_gen(g, elements[k])
        coords = tracker.express(sparse(product))
        if coords is None:
            tracker.insert(sparse(product))
            coords = {len(words): one}
            queue.extend((h, len(words)) for h in range(n))
            words.append((g,) + words[k])
            elements.append(product)
        for r, c in coords.items():
            gens[g][r][k] = c
    return tuple(words), gens


def test_saturation_matches_exact_oracle():
    # every configuration of dimension <= 48 at every shift, phi(e) = 1, 2, 2, 4;
    # at e = 2 the build runs over Z and the oracle over Q(zeta_2)
    cases = [
        (l, n, Multicharge(e, tuple(c + j for j in range(l))))
        for e in (2, 3, 4, 5) for l in (1, 2, 3) for n in (1, 2, 3, 4)
        for c in range(e) if l**n * math.factorial(n) <= 48
    ]
    cases.append((3, 3, Multicharge(2, (0, 1, 2))))
    for l, n, charge in cases:
        rep = build_algebra(l, n, charge)
        assert (rep.words, rep.gens) == exact_saturation(l, n, charge), (l, n, charge)


class _FakeEngine(hecke_desk._Engine):
    """Level two, n = 1, with T_0 * 1 = 1 + 5x and T_0 * x = x on the labels
    1 and x = J_0: mod 5 the product looks like the word 1."""

    def mult_gen(self, g, element):
        one, x = ((0,), (0,)), ((1,), (0,))
        a, b = (element.get(lab, Cyc.zero(self.e)) for lab in (one, x))
        return {lab: c for lab, c in ((one, a), (x, 5 * a + b)) if c}


def test_saturation_is_exact_where_a_prime_would_fail(monkeypatch):
    # mod 5, T_0 * 1 = 1 + 5x would look like the word 1; exactly it is a new word
    charge = Multicharge(2, (0, 1))
    monkeypatch.setattr(hecke_desk, "_Engine", _FakeEngine)
    rep = build_algebra(2, 1, charge)
    assert rep.words == ((), (0,))
    # T_0 (1 + 5x) = 1 + 10x = 2 (1 + 5x) - 1
    assert rep.gens[0] == [
        {1: Cyc.from_rational(-1, 2)},
        {0: Cyc.one(2), 1: Cyc.from_rational(2, 2)},
    ]


def test_build_reduces_nothing_mod_p(monkeypatch):
    # the build is exact: it never asks for a prime or reduces an entry
    charge = Multicharge(2, (0, 1, 2))
    expected = build_algebra(3, 3, charge)

    def refuse(*args):
        raise AssertionError("the build reduced mod p")

    monkeypatch.setattr(hecke_desk, "mod_p", refuse)
    monkeypatch.setattr(hecke_desk, "reduction_primes", refuse)
    rep = build_algebra(3, 3, charge)
    assert (rep.words, rep.gens) == (expected.words, expected.gens)


class _ClashEngine(hecke_desk._Engine):
    """Level one, n = 2, on the labels 1 and t = T_1: T_0 (a + b t) =
    2a + 9b t and T_1 (a + b t) = b + a t.  The columns of T_0 at 1 and at t
    have exact coordinates 2 and 9, both 2 mod 7."""

    def mult_gen(self, g, element):
        one, t = ((0, 0), (0, 1)), ((0, 0), (1, 0))
        a, b = (element.get(lab, Cyc.zero(self.e)) for lab in (one, t))
        image = ((one, 2 * a), (t, 9 * b)) if g == 0 else ((one, b), (t, a))
        return {lab: c for lab, c in image if c}


def test_saturation_refuses_a_wrong_lift(monkeypatch):
    # the columns of T_0 at 1 and at t agree mod 7 (2 and 9): the exact build
    # keeps 9, where a guess lifted from 7 would give 2
    charge = Multicharge(2, (0,))
    monkeypatch.setattr(hecke_desk, "_Engine", _ClashEngine)
    monkeypatch.setattr(hecke_desk, "reduction_primes", lambda e: itertools.repeat((7, 6)))
    rep = build_algebra(1, 2, charge)
    assert rep.words == ((), (1,))
    assert rep.gens[0] == [{0: Cyc.from_rational(2, 2)}, {1: Cyc.from_rational(9, 2)}]
    assert (rep.words, rep.gens) == exact_saturation(1, 2, charge)



@pytest.mark.parametrize("l, n, charge", [
    (3, 3, Multicharge(2, (0, 1, 2))),
    (2, 3, Multicharge(5, (0, 2))),
])
def test_saturation_asks_each_generator_row_once(monkeypatch, l, n, charge):
    # T_g x is the linear extension of the rows T_g (label): each is asked of
    # mult_gen on one term, once per (g, label), so at most n * dim times
    calls = []

    class Counting(hecke_desk._Engine):
        def mult_gen(self, g, element):
            calls.append((g, tuple(element)))
            return super().mult_gen(g, element)

    monkeypatch.setattr(hecke_desk, "_Engine", Counting)
    rep = build_algebra(l, n, charge)
    assert calls and all(len(labels) == 1 for _, labels in calls)
    assert len(set(calls)) == len(calls) <= n * rep.dimension

@pytest.mark.parametrize("l, n, charge", [
    (3, 3, Multicharge(2, (0, 1, 2))),
    (2, 3, Multicharge(5, (0, 2))),
])
def test_saturation_builds_one_span_tracker(monkeypatch, l, n, charge):
    # one exact tracker per build: every product is expressed once, and each
    # word, the identity first, inserted once
    trackers, calls = [], collections.Counter()

    class Counting(SpanTracker):
        def __init__(self):
            super().__init__()
            trackers.append(self)

        def insert(self, vec):
            calls["insert"] += 1
            return super().insert(vec)

        def express(self, vec):
            calls["express"] += 1
            return super().express(vec)

    monkeypatch.setattr(hecke_desk._linalg, "SpanTracker", Counting)
    rep = build_algebra(l, n, charge)
    assert [tracker.dim for tracker in trackers] == [rep.dimension]
    assert calls == {"insert": rep.dimension, "express": n * rep.dimension}


def _record_trackers(monkeypatch) -> list:
    """Every SpanTracker that hecke_desk makes from now on, in order."""
    trackers = []

    class Recording(SpanTracker):
        def __init__(self):
            super().__init__()
            trackers.append(self)

    monkeypatch.setattr(hecke_desk._linalg, "SpanTracker", Recording)
    return trackers


_ORDER_CASES = [
    (3, 3, Multicharge(2, (0, 1, 2))),  # 105 distinct top labels for 162 words
    (2, 4, Multicharge(2, (0, 1))),
    (2, 3, Multicharge(5, (0, 2))),
]


@pytest.mark.parametrize("l, n, charge", _ORDER_CASES)
def test_saturation_does_not_depend_on_the_label_order(monkeypatch, l, n, charge):
    # the order picks only each echelon row's pivot column: membership in
    # the span and the coordinates over the independent words are unique
    expected = build_algebra(l, n, charge, max_dim=384)

    def lexicographic(l, n):
        return sorted(itertools.product(
            itertools.product(range(l), repeat=n), itertools.permutations(range(n))))

    assert hecke_desk._all_labels(l, n) != lexicographic(l, n)
    monkeypatch.setattr(hecke_desk, "_all_labels", lexicographic)
    rep = build_algebra(l, n, charge, max_dim=384)
    assert (rep.words, rep.gens) == (expected.words, expected.gens)


@pytest.mark.parametrize(
    "l, n, charge, per_word", [(*case, bound) for case, bound in zip(_ORDER_CASES, (2, 1, 1))])
def test_saturation_in_degree_order_has_little_fill_in(monkeypatch, l, n, charge, per_word):
    # each echelon row's combination over the words holds its own word; in
    # lexicographic label order they held 1084, 1929 and 100 entries here
    trackers = _record_trackers(monkeypatch)
    rep = build_algebra(l, n, charge, max_dim=384)
    (tracker,) = trackers
    assert len(tracker._combos) == rep.dimension
    assert sum(map(len, tracker._combos.values())) <= per_word * rep.dimension


def dense_document(rep):
    """The former `to_json`: the document with dense nested generator lists."""
    seen = {}  # coeffs -> JSON, once per distinct entry: most are zero
    return {
        "e": rep.charge.e,
        "s": list(rep.charge.s),
        "l": rep.l,
        "n": rep.n,
        "dimension": rep.dimension,
        "words": rep.word_labels(),
        "generators": [
            [[seen.get(x.coeffs) or seen.setdefault(x.coeffs, x.to_json()) for x in row]
             for row in dense_rows(mat, rep.dimension, rep.zero())]
            for mat in rep.gens
        ],
    }


def written(rep) -> str:
    out = io.StringIO()
    rep.write_json(out)
    return out.getvalue()


def test_to_json_shape(hecke_reps):
    doc = json.loads(written(hecke_reps(1, 2, 2)))
    assert doc["dimension"] == 2
    assert len(doc["generators"]) == 2
    assert doc["generators"][0][0][0] == ["1"]  # T_0 = identity scalar here


def _fraction_rep():
    # entries with a true denominator, which no saturation stores
    charge = Multicharge(3, (0,))
    return hecke_desk.FinDimAlgebraRep(
        charge=charge, words=((), (0,)),
        gens=[[{0: Cyc(3, (Fraction(1, 2), -1))}, {0: Cyc(3, (0, Fraction(-3, 4))), 1: Cyc.one(3)}]],
    )


@pytest.mark.parametrize("make", [
    lambda: build_algebra(2, 3, Multicharge(5, (0, 2))),  # phi(e) = 4
    lambda: build_algebra(3, 2, Multicharge(3, (0, 1, 2))),
    lambda: build_algebra(3, 3, Multicharge(2, (0, 1, 2))),
    _fraction_rep,
], ids=["2-3-5", "3-2-3", "3-3-2", "fractions"])
def test_write_json_matches_dense_document(make):
    rep = make()
    expected = json.dumps(dense_document(rep), separators=(",", ":")) + "\n"
    assert written(rep) == expected


@pytest.mark.parametrize("l, n, charge", [
    (3, 3, Multicharge(2, (0, 1, 2))),
    (2, 4, Multicharge(2, (0, 1))),
])
def test_saturation_over_z_stores_cyc_entries(monkeypatch, l, n, charge):
    # at phi(e) = 1 the saturation computes on ints: the tracker holds no
    # integral Fraction; rep.gens keeps Cyc entries of int coefficients: no
    # bare int, no integral Fraction
    trackers = _record_trackers(monkeypatch)
    assert type(hecke_desk._Engine(l, n, charge).q) is int
    rep = build_algebra(l, n, charge, max_dim=384)
    (tracker,) = trackers
    stored = [x for table in (tracker._rows, tracker._combos)
              for row in table.values() for x in row.values()]
    assert int in {type(x) for x in stored}
    assert not [x for x in stored if type(x) is Fraction and x.denominator == 1]
    entries = [x for rows in rep.gens for row in rows for x in row.values()]
    assert {type(x) for x in entries} == {Cyc}
    assert {type(c) for x in entries for c in x.coeffs} == {int}



class _Sha256Stream:
    """A text stream that hashes what is written to it and keeps none of it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self.hash.update(text.encode())


@pytest.mark.parametrize("l, n, charge, digest", [
    (2, 4, Multicharge(5, (0, 2)),  # 10.6 MB
     "897352d1ff68688190ed51a86c7bfd06047bc088e390ff50deeb7288ab212354"),
    (2, 4, Multicharge(2, (0, 1)),  # 3.6 MB
     "08d4b71d8736917a0c0909ada6d4dd0d3384e80c9b61c710e1523a36efc97cd4"),
], ids=["2-4-5", "2-4-2"])
def test_write_json_byte_identity_at_dim_384(l, n, charge, digest):
    # pinned before the saturation formed products from per-label rows; the
    # exact oracle stops at dim 162, and no CLI pin reaches the cyclotomic
    # saturation above dim 48
    out = _Sha256Stream()
    build_algebra(l, n, charge, max_dim=384).write_json(out)
    assert out.hash.hexdigest() == digest

def test_build_reaches_dim_384():
    # above the default FOCK_MAX_DIM bound
    rep = build_algebra(2, 4, Multicharge(2, (0, 1)), max_dim=384)
    assert rep.dimension == 384
    assert len(set(rep.words)) == 384
    (report,) = check_relations(rep)
    assert report.status == "pass", report.witnesses[:1]
    assert all(r.status == "pass" for r in check_jm(rep)), check_jm(rep)


# the dense-matrix helpers, kept for the tests and the benchmark tracer; the
# dense wrapper may name the product it is written with
DENSE_NAMES = frozenset({"rref", "kernel_basis", "matrix_rank", "mat_mul", "mat_mul_cyc",
                         "matrix_rank_cyc", "sparse_rows", "dense_rows", "operator_matrix"})
DENSE_WRAPPERS = {"mat_mul_cyc": {"mat_mul"}}


def _names(nodes):
    """Every name and attribute read anywhere under the given AST nodes."""
    names = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_hecke_desk_multiplies_sparse_rows_only():
    # every library matrix is sparse rows: no function body in focklab names a
    # dense helper, as a dense product, conversion or elimination would touch
    # every zero entry of the matrix again; Hecke products go through mul_rows
    found = []
    for source in sorted((Path(__file__).parents[1] / "src" / "focklab").glob("*.py")):
        tree = ast.parse(source.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                allowed = DENSE_WRAPPERS.get(fn.name, set())
                found += [(source.name, fn.name, name)
                          for name in sorted(_names(fn.body) & DENSE_NAMES - allowed)]
        if source.name == "hecke_desk.py":
            assert "mul_rows" in _names([tree])
    assert found == []


@pytest.mark.parametrize("l,n,e", [(3, 3, 2), (2, 3, 3), (2, 2, 5)])
def test_hecke_coefficients_are_ints(hecke_reps, l, n, e):
    # the Hecke side lies in Z[zeta_e]: every coefficient of the generators
    # and the (symmetric) JM matrices is an int, which keeps their products
    # off the Fraction operators
    rep = hecke_reps(l, n, e)
    entries = []
    syms = [symmetric_jm(rep, k) for k in range(rep.n + 1)]
    for rows in rep.gens + jm_elements(rep) + syms:
        entries += [x for row in rows for x in row.values()]
    assert {type(c) for x in entries for c in x.coeffs} == {int}
    # and none is a stored zero, which the == of check_relations and
    # check_jm relies on
    assert all(entries)
