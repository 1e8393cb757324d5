from __future__ import annotations

import collections
import dataclasses
import itertools
import math
from fractions import Fraction

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
    params_from_charge,
    parse_multipartition,
    removable_boxes,
    residue,
    symmetric_jm,
    wt,
)
from focklab._linalg import (
    SpanTracker,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    matrix_rank,
)
from focklab.cyclotomic import Cyc, mat_mul_cyc, matrix_rank_cyc, mod_p
from focklab.hecke_desk import (
    AttainedCharacter,
    CharacterSpectrum,
    _minimal_polynomial,
    _split_root,
)
from focklab.multipartition import remove_box
from focklab.structure_analysis import AxiomReport
from test_acceptance import specht_dimension
from test_linalg import realify


def test_params_examples():
    p = params_from_charge(Multicharge(2, (0, 1)))
    assert p.q == -1
    assert p.q_list == (Cyc.one(2), Cyc.from_rational(-1, 2))

    p3 = params_from_charge(Multicharge(3, (0,)))
    assert p3.q == Cyc.zeta(3)
    assert p3.q_list == (Cyc.one(3),)

    p1 = params_from_charge(Multicharge(2, (0,)))
    assert p1.q == -1 and p1.q_list == (Cyc.one(2),)


def test_dimensions(hecke_reps):
    assert hecke_reps(1, 2, 2).dimension == 2
    assert hecke_reps(2, 2, 2).dimension == 8
    assert hecke_reps(3, 2, 2).dimension == 18
    assert hecke_reps(1, 3, 3).dimension == 6


def test_degenerate_t0_is_scalar(hecke_reps):
    # level one: the cyclotomic relation has degree one, so T_0 = q_1
    rep = hecke_reps(1, 2, 2)
    q1 = rep.params.q_list[0]
    assert mat_is_zero(mat_sub(rep.gens[0], mat_scale(rep.identity_matrix(), q1)))


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
    gens[1] = mat_scale(gens[1], 2)
    (report,) = check_relations(dataclasses.replace(rep, gens=gens))
    assert report.witnesses == scaled
    t0 = [list(row) for row in rep.gens[0]]
    t0[0][1] = t0[0][1] + 1
    (report,) = check_relations(dataclasses.replace(rep, gens=[t0, *rep.gens[1:]]))
    assert report.witnesses == shifted


def test_generators_invertible(hecke_reps):
    rep = hecke_reps(2, 2, 3)
    for gen in rep.gens:
        assert matrix_rank_cyc(gen, rep.dimension) == rep.dimension


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


def test_jm_recursion(hecke_reps):
    rep = hecke_reps(1, 3, 2)
    jms = jm_elements(rep)
    q = rep.params.q
    t = rep.gens
    assert jms[0] == t[0]
    j1 = mat_mul_cyc(mat_mul_cyc(t[1], t[0]), t[1])
    assert mat_is_zero(mat_sub(jms[1], mat_scale(j1, q.inverse())))
    j2 = mat_mul_cyc(
        mat_mul_cyc(mat_mul_cyc(mat_mul_cyc(t[2], t[1]), t[0]), t[1]), t[2]
    )
    assert mat_is_zero(mat_sub(jms[2], mat_scale(j2, (q * q).inverse())))


def test_jm_pairwise_commute(hecke_reps):
    rep = hecke_reps(2, 3, 2)
    jms = jm_elements(rep)
    for i in range(len(jms)):
        for j in range(i + 1, len(jms)):
            assert mat_is_zero(
                mat_sub(mat_mul_cyc(jms[i], jms[j]), mat_mul_cyc(jms[j], jms[i]))
            )


def test_jm_twist_identity(hecke_reps):
    # T_i J_{i-1} T_i = q J_i, the defining recursion read as matrices
    for l, n, e in [(2, 2, 2), (2, 3, 3), (3, 2, 3)]:
        rep = hecke_reps(l, n, e)
        jms = jm_elements(rep)
        for i in range(1, rep.n):
            lhs = mat_mul_cyc(mat_mul_cyc(rep.gens[i], jms[i - 1]), rep.gens[i])
            assert mat_is_zero(mat_sub(lhs, mat_scale(jms[i], rep.params.q)))


def test_symmetric_jm_examples(hecke_reps):
    rep = hecke_reps(1, 2, 2)
    assert symmetric_jm(rep, 0) == rep.identity_matrix()
    e1 = symmetric_jm(rep, 1)
    for gen in rep.gens:
        assert mat_is_zero(mat_sub(mat_mul_cyc(e1, gen), mat_mul_cyc(gen, e1)))
    # negative control: a single Jucys-Murphy element is not central
    rep22 = hecke_reps(2, 2, 2)
    j0 = jm_elements(rep22)[0]
    assert any(
        not mat_is_zero(mat_sub(mat_mul_cyc(j0, g), mat_mul_cyc(g, j0)))
        for g in rep22.gens
    )


def test_symmetric_jm_central(hecke_reps):
    for l, n, e in [(1, 3, 2), (2, 2, 3), (3, 2, 2)]:
        rep = hecke_reps(l, n, e)
        for k in range(1, n + 1):
            ek = symmetric_jm(rep, k)
            for gen in rep.gens:
                assert mat_is_zero(
                    mat_sub(mat_mul_cyc(ek, gen), mat_mul_cyc(gen, ek))
                )


def test_a_poly_examples():
    c = Multicharge(2, (0,))
    one_box = a_poly(parse_multipartition("[[1]]"), c)
    assert one_box.values == (Cyc.one(2),)  # a(z) = z - 1
    row = a_poly(parse_multipartition("[[2]]"), c)
    assert row.values == (Cyc.zero(2), Cyc.from_rational(-1, 2))  # z^2 - 1
    c2 = Multicharge(2, (0, 1))
    pair = a_poly(parse_multipartition("[[1],[1]]"), c2)
    assert pair.values == (Cyc.zero(2), Cyc.from_rational(-1, 2))
    assert "z^2" in row.poly_string()


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
    gens[1] = mat_scale(gens[1], 2)
    bad = dataclasses.replace(rep, gens=gens, _jm_cache=jm_elements(rep))
    by_axiom = {r.axiom: r for r in check_jm(bad)}
    assert by_axiom["jm_twist"].witnesses == ({"i": 1},)
    assert by_axiom["jm_commute"].status == "pass"


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


def _poly_at(coeffs, mat, ident):
    """Exact Horner evaluation of an ascending polynomial at a matrix."""
    out = mat_scale(ident, 0)
    for c in reversed(coeffs):
        out = mat_sub(mat_mul_cyc(out, mat), mat_scale(ident, -c))
    return out


def _times_power(poly, c, a):
    """(x - c)^a * poly, ascending coefficients."""
    for _ in range(a):
        poly = [y - c * x for x, y in zip(poly + [0], [0] + poly)]
    return poly


def test_minimal_polynomial_annihilates_exactly(hecke_reps):
    # the Krylov polynomial on the identity word, checked on whole matrices
    for l, n, e in [(1, 3, 2), (2, 2, 3), (3, 2, 2)]:
        rep = hecke_reps(l, n, e)
        ident = rep.identity_matrix()
        values = {
            a_poly(mp, rep.charge).values for mp in enumerate_multipartitions(n, l)
        }
        for k in range(n):
            mat = symmetric_jm(rep, k + 1)
            minimal = _minimal_polynomial(mat, rep.one())
            assert mat_is_zero(_poly_at(minimal, mat, ident)), (l, n, e, k)
            degree = 0
            for c in {v[k] for v in values}:
                a, cofactor = _split_root(minimal, c)
                degree += a
                assert _times_power(cofactor, c, a) == minimal, (l, n, e, k, c)
                if a:  # m_k / (x - c) does not annihilate e_k
                    lower = _times_power(cofactor, c, a - 1)
                    assert not mat_is_zero(_poly_at(lower, mat, ident)), (l, n, e, k, c)
            assert degree == len(minimal) - 1, (l, n, e, k)


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
        sym = symmetric_jm(rep, k + 1)
        table.append({
            c: _stabilized_power(
                realify(mat_sub(sym, mat_scale(rep.identity_matrix(), c))), dim_r
            )
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


def test_spectrum_matches_realified_oracle():
    # every configuration of dimension <= 18 at every shift, and foreign charges
    cases = [
        (l, n, Multicharge(e, tuple(c + j for j in range(l))), None)
        for l in (1, 2, 3) for n in (1, 2, 3) for e in (2, 3) for c in range(e)
        if l**n * [1, 1, 2, 6][n] <= 18
    ]
    cases += [(2, 2, Multicharge(3, (0, 1)), Multicharge(3, (0, 0))),
              (1, 2, Multicharge(3, (0,)), Multicharge(3, (1,)))]
    for l, n, built, charge in cases:
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
    dims = hecke_desk.joint_eigenspaces(rep, [jm_elements(rep)[-1]], [zetas])
    expected = {}
    for mp in enumerate_multipartitions(n, l):
        for box in removable_boxes(mp, rep.charge):
            key = (zetas[residue(box, rep.charge)],)
            restricted = specht_dimension(mp) * specht_dimension(remove_box(mp, box))
            expected[key] = expected.get(key, 0) + restricted
    assert dims == expected
    if (l, n, e) == (2, 2, 3):
        assert [dims[(z,)] for z in zetas] == [3, 3, 2]


def test_block_dimensions_match_cellular_formula_at_level_three(hecke_reps):
    # l = n = 3, dim 162: each block B has dimension sum over B of (dim S^lambda)^2
    rep = hecke_reps(3, 3, 2)
    spectrum = central_characters(rep, 3, rep.charge)
    assert all(r.status == "pass" for r in spectrum.reports)
    dims = [block.dimension for block in spectrum.attained]
    assert dims == [
        sum(specht_dimension(mp) ** 2 for mp in block.members)
        for block in spectrum.attained
    ]
    assert sum(dims) == rep.dimension == 162


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
    ambient space, every product expressed over all the words."""
    engine = hecke_desk._Engine(l, n, charge)
    index = {lab: k for k, lab in enumerate(hecke_desk._all_labels(l, n))}
    zero, one = Cyc.zero(charge.e), Cyc.one(charge.e)
    gens = [[[zero] * len(index) for _ in index] for _ in range(n)]

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
    # every configuration of dimension <= 48 at every shift, phi(e) = 1, 2, 2, 4
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


def test_saturation_certificate_moves_past_failing_prime(monkeypatch):
    charge = Multicharge(2, (0, 1))
    monkeypatch.setattr(hecke_desk, "_Engine", _FakeEngine)
    expected = build_algebra(2, 1, charge)
    assert expected.words == ((), (0,))
    # T_0 (1 + 5x) = 1 + 10x = 2 (1 + 5x) - 1
    assert expected.gens[0] == [
        [Cyc.from_rational(x, 2) for x in row] for row in ((0, -1), (1, 2))
    ]

    tried = []

    def primes(e):
        for p in (5, 7):
            tried.append(p)
            yield p, p - 1  # zeta_2 = -1

    monkeypatch.setattr(hecke_desk, "reduction_primes", primes)
    assert build_algebra(2, 1, charge) == expected
    assert tried == [5, 7]
    monkeypatch.setattr(hecke_desk, "reduction_primes", lambda e: itertools.repeat((5, 4)))
    with pytest.raises(RuntimeError, match="not certified"):
        build_algebra(2, 1, charge)


def test_to_json_shape(hecke_reps):
    doc = hecke_reps(1, 2, 2).to_json()
    assert doc["dimension"] == 2
    assert len(doc["generators"]) == 2
    assert doc["generators"][0][0][0] == ["1"]  # T_0 = identity scalar here


def test_build_reaches_dim_384():
    # above the default FOCK_MAX_DIM bound; the relations are left to slower runs
    rep = build_algebra(2, 4, Multicharge(2, (0, 1)), max_dim=384)
    assert rep.dimension == 384
    assert len(set(rep.words)) == 384
