"""Exact Gaussian elimination over any field type supporting +,-,*,/ and
truthiness (Fraction, cyclotomic numbers), and over plain ints read as
rationals: +-1 is its own inverse, another int pivot becomes a Fraction.

Every library matrix is sparse dicts (column -> nonzero entry); the dense
`rref`, `matrix_rank` and `mat_mul` serve only tests and the benchmark tracer,
also over Q(zeta_e) as `cyclotomic.matrix_rank_cyc` and `mat_mul_cyc`.

`echelon`, the exact forward elimination, never scales a row: the pivot's
inverse enters only each step's multiplier, so entries stay in Z or Z[zeta_e]
while the multipliers do.  An integral Fraction, as a multiplier or as an
entry `SpanTracker` stores, becomes an int, which keeps int arithmetic on ints
past a pivot other than +-1.  `rref` scales once, then back-substitutes;
reduced forms are canonical, so `rref` and ranks do not depend on the order of
the rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def echelon(rows: Iterable[dict]) -> tuple[dict[int, dict], dict[int, object]]:
    """(pivot column -> echelon row, pivot column -> 1 / pivot entry): each
    row, in order, reduced against the echelon rows before it and kept under
    its first nonzero column unless it vanishes.  The input is not modified."""
    rows_by_pivot, pinvs = {}, {}
    for row in rows:
        w = {c: v for c, v in row.items() if v}
        pc = _reduce(rows_by_pivot, pinvs, w)[0]
        if pc is not None:
            rows_by_pivot[pc], pinvs[pc] = w, _inverse(w[pc])
    return rows_by_pivot, pinvs


def rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The `echelon` rows are scaled to 1 at their pivots; back-substitution from
    the last pivot to the first then clears the entries above every pivot.
    """
    red, pinvs = echelon(dict(enumerate(row)) for row in rows)
    pivots = sorted(red)
    for pc in pivots:
        red[pc] = {c: v * pinvs[pc] for c, v in red[pc].items()}
    for pc in reversed(pivots):
        row = red[pc]
        for c in [c for c in row if c != pc and c in red]:
            _axpy(row, -row[c], red[c])
    zero = red[pivots[0]][pivots[0]] * 0 if pivots else None
    return [[red[pc].get(c, zero) for c in range(ncols)] for pc in pivots], pivots


def matrix_rank(rows: Sequence[Sequence], ncols: int) -> int:
    return len(echelon(dict(enumerate(row)) for row in rows)[0])


class SpanTracker:
    """Incremental row space with bookkeeping over its generators.

    Vectors are sparse: dicts from column to nonzero entry.  `express`
    reduces each vector once: a vector of the span gets exact coordinates
    over the generators, again as a dict (generator index -> nonzero
    coefficient); a vector outside it joins them as the next generator.
    """

    def __init__(self):
        # pivot column -> unscaled echelon row, its pivot's inverse and its
        # combination over the generators
        self._rows: dict[int, dict] = {}
        self._pinvs: dict[int, object] = {}
        self._combos: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def insert(self, vec: dict) -> bool:
        """Insert as a generator, by `express`; False when already in the span."""
        return self.express(vec) is None

    def express(self, vec: dict) -> dict | None:
        """Coordinates of vec over the generators, or None when vec is
        outside the span, which it then joins as the next generator."""
        w = {c: v for c, v in vec.items() if v}
        pc, combo = _reduce(self._rows, self._pinvs, w, self._combos)
        if pc is None:
            return combo
        # the stored row is w = vec - sum combo[k] * gen_k
        row = {c: _integral(v) for c, v in w.items()}
        row_combo = {k: _integral(-v) for k, v in combo.items()}
        row_combo[len(self._rows)] = 1
        self._rows[pc], self._pinvs[pc], self._combos[pc] = row, _inverse(row[pc]), row_combo
        return None


def _reduce(rows: dict[int, dict], pinvs: dict, w: dict, combos: dict | None = None):
    """Eliminate the echelon rows' pivot columns from w in place, smallest
    first, subtracting w[c] * pinvs[c] times the row at pivot c.

    Returns (c, combo): c is the first nonzero column of w without an echelon
    row (None once w is 0).  With `combos` (pivot column -> combination over
    some generators), combo collects the same steps, so that the input equals
    w + sum combo[k] * gen_k.  An echelon row only touches columns from its
    pivot on, so min(w) is always the next column to eliminate.
    """
    combo: dict = {}
    while w:
        c = min(w)
        row = rows.get(c)
        if row is None:
            return c, combo
        f = _integral(w[c] * pinvs[c])
        _axpy(w, -f, row)
        if combos is not None:
            _axpy(combo, f, combos[c])
    return None, combo


def _inverse(x):
    """1 / x exactly; +-1 stays an int (an int's x ** -1 would be a float)."""
    if type(x) is int:
        return x if x in (1, -1) else Fraction(1, x)
    return x ** (-1)


def _integral(x):
    """An integral Fraction as an int; any other value unchanged."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _axpy(y: dict, f, x: dict) -> None:
    """y += f * x in place on sparse vectors, dropping cancelled entries."""
    for j, v in x.items():
        new = y[j] + f * v if j in y else f * v
        if new:
            y[j] = new
        else:
            del y[j]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], zero) -> list[list]:
    """Matrix product, skipping zero entries of both factors."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc: dict = {}
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] = acc[j] + x * y if j in acc else x * y
        out.append([acc.get(j, zero) for j in range(len(b[0]))])
    return out
