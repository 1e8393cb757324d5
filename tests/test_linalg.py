from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab._linalg import (
    SpanTracker,
    echelon,
    mat_mul,
    matrix_rank,
    rref,
)
from focklab.cyclotomic import Cyc, mat_mul_cyc, matrix_rank_cyc, mod_p, reduction_primes

small = st.integers(-2, 2)
rationals = small.map(Fraction)
cyclotomics = st.tuples(small, small).map(
    lambda ab: Cyc(3, (Fraction(ab[0]), Fraction(ab[1])))
)


@st.composite
def vector_runs(draw, entries, factors=None):
    """Vectors of one width; later ones are often combinations of earlier
    ones, with coefficients drawn from `factors` (default `entries`)."""
    factors = entries if factors is None else factors
    ncols = draw(st.integers(1, 5))
    vectors: list[list] = []
    for _ in range(draw(st.integers(1, 8))):
        if vectors and draw(st.booleans()):
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            f, g = draw(factors), draw(factors)
            vectors.append([f * x + g * y for x, y in zip(a, b)])
        else:
            vectors.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return ncols, vectors


def _check_run(ncols, vectors, zero, rank):
    tracker = SpanTracker()
    gens: list[list] = []
    for seen, v in enumerate(vectors, start=1):
        sparse = {c: x for c, x in enumerate(v) if x}
        coords = tracker.express(sparse)
        inserted = tracker.insert(sparse)
        assert inserted == (coords is None)
        if inserted:
            gens.append(v)
            coords = tracker.express(sparse)
        total = [zero] * ncols
        for k, f in coords.items():
            total = [t + f * x for t, x in zip(total, gens[k])]
        assert total == v
        assert tracker.dim == len(gens) == rank(vectors[:seen], ncols)


@settings(max_examples=150, deadline=None)
@given(vector_runs(rationals))
def test_span_tracker_over_q(run):
    ncols, vectors = run
    _check_run(ncols, vectors, Fraction(0), matrix_rank)


@settings(max_examples=100, deadline=None)
@given(vector_runs(cyclotomics))
def test_span_tracker_over_q_zeta3(run):
    ncols, vectors = run
    _check_run(ncols, vectors, Cyc.zero(3), matrix_rank_cyc)


@settings(max_examples=150, deadline=None)
@given(
    vector_runs(st.integers(-9, 9), st.integers(-1, 1)),
    st.sampled_from([7, 2**61 - 1]),
)
def test_span_tracker_mod_p(run, p):
    # entries stay below 9 * 2^7, so by Hadamard's bound no nonzero minor of
    # at most 5 columns reaches 2^61 - 1: at that p the F_p tracker accepts
    # exactly what the exact one does.  At p = 7, every expressed vector is
    # its coordinates' combination mod p.
    ncols, vectors = run
    exact, modular, gens = SpanTracker(), SpanTracker(p), []
    for v in vectors:
        sparse = {c: x for c, x in enumerate(v) if x}
        inserted = modular.insert(sparse)
        if p > 7:
            assert inserted == exact.insert({c: Fraction(x) for c, x in sparse.items()})
        if inserted:
            gens.append(v)
        coords = modular.express(sparse)
        assert all(0 < f < p for f in coords.values())
        total = [0] * ncols
        for k, f in coords.items():
            total = [t + f * x for t, x in zip(total, gens[k])]
        assert [(t - x) % p for t, x in zip(total, v)] == [0] * ncols
    assert modular.dim == len(gens)


def dense_rref(rows, ncols):
    """Dense Gauss-Jordan oracle: first nonzero column, first available row."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pick = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        pinv = rows[r][c] ** (-1)
        rows[r] = [v * pinv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@st.composite
def matrices(draw, entries, zero):
    """Wide, tall or square; sparse rows, zero rows and repeated rows."""
    ncols = draw(st.integers(1, 6))
    rows: list[list] = []
    for _ in range(draw(st.integers(0, 8))):
        kinds = ("sparse", "zero", "repeat") if rows else ("sparse",)
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            rows.append([zero] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            row = st.one_of(st.just(zero), entries)
            rows.append(draw(st.lists(row, min_size=ncols, max_size=ncols)))
    return ncols, rows


def _check_elimination(ncols, rows):
    red, pivots = rref(rows, ncols)
    assert (red, pivots) == dense_rref(rows, ncols)
    assert rref(rows[::-1], ncols) == (red, pivots)
    assert matrix_rank(rows, ncols) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(matrices(rationals, Fraction(0)))
def test_rref_matches_dense_oracle_over_q(matrix):
    ncols, rows = matrix
    _check_elimination(ncols, rows)


@settings(max_examples=100, deadline=None)
@given(matrices(cyclotomics, Cyc.zero(3)))
def test_rref_matches_dense_oracle_over_q_zeta3(matrix):
    ncols, rows = matrix
    _check_elimination(ncols, rows)


def cyc_matrices(rows, cols):
    return st.lists(
        st.lists(cyclotomics, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )


@st.composite
def cyc_factors(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(cyc_matrices(n, k)), draw(cyc_matrices(k, m))


def realify(m):
    """Rational realification oracle Q(zeta_e)^{n x m} -> Q^{nd x md}.

    Each entry x becomes the d x d matrix of multiplication by x on the power
    basis, whose column s is x * zeta^s: a ring homomorphism, so rational
    ranks are d times the cyclotomic ones.
    """
    e, d = m[0][0].e, len(m[0][0].coeffs)
    out = []
    for row in m:
        cols = [(x * Cyc.zeta(e, s)).coeffs for x in row for s in range(d)]
        out.extend([col[r] for col in cols] for r in range(d))
    return out


@settings(max_examples=100, deadline=None)
@given(cyc_factors())
def test_realify_is_multiplicative(factors):
    a, b = factors
    assert realify(mat_mul_cyc(a, b)) == mat_mul(realify(a), realify(b), 0)


@settings(max_examples=100, deadline=None)
@given(matrices(cyclotomics, Cyc.zero(3)))
def test_realified_rank_matches_direct_rank(matrix):
    # matrix_rank_cyc eliminates over Q(zeta_3) itself; the oracle over Q
    ncols, rows = matrix
    if rows:
        assert matrix_rank_cyc(rows, ncols) == matrix_rank(realify(rows), ncols * 2) // 2


# (p, omega): primes p = 1 (mod 3) and cube roots of unity omega != 1 in F_p
SMALL, LARGE = (7, 2), next(reduction_primes(3))


@settings(max_examples=100, deadline=None)
@given(cyc_factors(), st.sampled_from([SMALL, (13, 3), LARGE]))
def test_reduction_mod_p_is_a_homomorphism(factors, prime):
    a, b = factors
    p, omega = prime
    red = lambda m: [[mod_p(x, p, omega) for x in row] for row in m]
    product = mat_mul(red(a), red(b), 0)
    assert red(mat_mul_cyc(a, b)) == [[x % p for x in row] for row in product]
    x, y = a[0][0], b[0][0]
    assert mod_p(x + y, p, omega) == (mod_p(x, p, omega) + mod_p(y, p, omega)) % p
    assert mod_p(Cyc.zeta(3), p, omega) == omega != 1 == pow(omega, 3, p)


def _exact(value):
    """No float anywhere in a nested result of lists, tuples and dicts."""
    if isinstance(value, dict):
        return all(map(_exact, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_exact, value))
    return type(value) in (int, Fraction)


def test_int_entries_eliminate_exactly():
    # plain ints are rationals: an int pivot is inverted as Fraction(1, x),
    # where x ** -1 would be a float
    results = []
    for form in (int, Fraction):
        tracker = SpanTracker()
        assert tracker.insert({0: form(3), 1: form(1)})
        results.append((
            rref([[form(2), form(1)], [form(4), form(3)]], 2),
            tracker.express({0: form(6), 1: form(2)}),
        ))
    assert _exact(results) and results[0] == results[1]
    assert results[0][1:] == ({0: 2},)


def cyclotomics_over(e):
    degree = len(Cyc.zero(e).coeffs)
    return st.lists(small, min_size=degree, max_size=degree).map(lambda cs: Cyc(e, tuple(cs)))


# entry kinds for the elimination oracles: ints whose pivots need not be units
# (so some multipliers are true Fractions), Fractions, and Q(zeta_3), Q(zeta_5)
KINDS = {
    "int": (st.integers(-3, 3), 0),
    "fraction": (st.fractions(-3, 3, max_denominator=4), Fraction(0)),
    "zeta3": (cyclotomics_over(3), Cyc.zero(3)),
    "zeta5": (cyclotomics_over(5), Cyc.zero(5)),
}


def _field(rows):
    """Ints as Fractions, for the oracle: an int's x ** -1 is a float."""
    return [[Fraction(x) if type(x) is int else x for x in row] for row in rows]


def _in_span(v, red, pivots):
    """v is in the row space of the reduced rows iff subtracting v[pc] times
    the row of each pivot pc leaves 0."""
    for row, pc in zip(red, pivots):
        f = v[pc]
        v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


@contextmanager
def terminates(seconds=5):
    """Fail, not hang: a wrong multiplier never clears the pivot entry, and
    the elimination loop would then spin forever."""
    def expire(*_):
        raise TimeoutError("elimination did not terminate")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_echelon_matches_dense_oracle(kind, data):
    entries, zero = KINDS[kind]
    ncols, rows = data.draw(matrices(entries, zero))
    red, pivots = dense_rref(_field(rows), ncols)
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    before = [dict(row) for row in sparse]
    with terminates():
        ech, pinvs = echelon(sparse)
        rank = matrix_rank(rows, ncols)
    assert sparse == before
    assert sorted(ech) == sorted(pinvs) == pivots and rank == len(pivots)
    # independent (distinct leading columns), as many as the rank, each in
    # the row space: the echelon rows are a basis of it
    for pc, row in ech.items():
        assert min(row) == pc and all(row.values())
        assert row[pc] * pinvs[pc] == 1
        assert _in_span([row.get(c, zero) for c in range(ncols)], red, pivots)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_span_tracker_express_matches_dense_oracle(kind, data):
    entries, zero = KINDS[kind]
    ncols, vectors = data.draw(vector_runs(entries))
    tracker, gens = SpanTracker(), []
    for v in vectors:
        sparse = {c: x for c, x in enumerate(v) if x}
        with terminates():
            coords = tracker.express(sparse)
            inserted = tracker.insert(sparse)
        assert (coords is None) == inserted
        assert (coords is not None) == _in_span(_field([v])[0], *dense_rref(_field(gens), ncols))
        if coords is not None:
            total = [zero] * ncols
            for k, f in coords.items():
                total = [t + f * x for t, x in zip(total, gens[k])]
            assert total == v
        if inserted:
            gens.append(v)
    assert tracker.dim == len(gens) == len(dense_rref(_field(vectors), ncols)[1])


@settings(max_examples=150, deadline=None)
@given(matrices(st.sampled_from([-1, 1]), 0))
def test_unit_pivot_echelon_rows_stay_integral(matrix):
    # reduced against +-1 pivots only, a 0/+-1 matrix is eliminated in Z:
    # every multiplier, and so every entry, is an int
    ncols, rows = matrix
    with terminates():
        ech, pinvs = echelon(dict(enumerate(row)) for row in rows)
    if all(pinv in (1, -1) for pinv in pinvs.values()):
        entries = [*pinvs.values(), *(v for row in ech.values() for v in row.values())]
        assert all(type(v) is int for v in entries)
