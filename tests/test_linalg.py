from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from focklab._linalg import SpanTracker, matrix_rank
from focklab.cyclotomic import Cyc, matrix_rank_cyc

small = st.integers(-2, 2)
rationals = small.map(Fraction)
cyclotomics = st.tuples(small, small).map(
    lambda ab: Cyc(3, (Fraction(ab[0]), Fraction(ab[1])))
)


@st.composite
def vector_runs(draw, entries):
    """Vectors of one width; later ones are often combinations of earlier ones."""
    ncols = draw(st.integers(1, 5))
    vectors: list[list] = []
    for _ in range(draw(st.integers(1, 8))):
        if vectors and draw(st.booleans()):
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            f, g = draw(entries), draw(entries)
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
