"""Exact Gaussian elimination over any field type supporting +,-,*,/ and
truthiness (Fraction, cyclotomic numbers), and over plain ints read as
rationals: +-1 is its own inverse, another int pivot becomes a Fraction.

Elimination works on sparse dicts (column -> nonzero entry), as the Hecke
side keeps its matrices; the dense `mat_mul` serves test oracles and tracer.

`echelon`, the exact forward elimination, never scales a row: the pivot's
inverse enters only each step's multiplier, so entries stay in Z or Z[zeta_e]
while the multipliers do.  `rref` scales once, then back-substitutes; reduced
forms are canonical, so `rref`, ranks and kernel bases do not depend on the
order of the rows.  `SpanTracker(p)` works over F_p by `_reduce_mod_p`.
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


def kernel_basis(rows: Sequence[Sequence], ncols: int, zero, one) -> list[list]:
    """Basis of {x : A x = 0}, one vector per free column, in column order.

    Each basis vector has entry `one` at its free column; the form is the
    deterministic echelon parametrization.
    """
    red, pivots = rref(list(rows), ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [zero] * ncols
        x[f] = one
        for r, pc in enumerate(pivots):
            x[pc] = -red[r][f]
        basis.append(x)
    return basis


class SpanTracker:
    """Incremental row space with bookkeeping over the inserted generators.

    Vectors are sparse: dicts from column to nonzero entry.  `insert` adds a
    vector as a new generator when it enlarges the span; `express` rewrites
    any vector of the span as exact coordinates over the inserted generators,
    again as a dict (generator index -> nonzero coefficient).  Given a prime
    `p`, entries are ints, the span is taken over F_p and coordinates come
    back in 1..p-1.
    """

    def __init__(self, p: int | None = None):
        self.p = p
        # pivot column -> echelon row (unscaled, or 1 at the pivot over F_p),
        # its pivot's inverse and its combination over the generators
        self._rows: dict[int, dict] = {}
        self._pinvs: dict[int, object] = {}
        self._combos: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def insert(self, vec: dict) -> bool:
        """Insert as a generator; False when already in the span."""
        p = self.p
        pc, w, combo = self._eliminate(vec)
        if pc is None:
            return False
        # the stored row is scale * w, and w = vec - sum combo[k] * gen_k
        if p is None:
            self._pinvs[pc], scale = _inverse(w[pc]), 1
            row, row_combo = w, {k: -v for k, v in combo.items()}
        else:
            scale = pow(w[pc], -1, p)
            row = {c: v * scale % p for c, v in w.items()}
            row_combo = {k: -v * scale % p for k, v in combo.items()}
        row_combo[len(self._rows)] = scale
        self._rows[pc], self._combos[pc] = row, row_combo
        return True

    def express(self, vec: dict) -> dict | None:
        """Coordinates of vec over the generators, or None if outside."""
        pc, _, combo = self._eliminate(vec)
        return combo if pc is None else None

    def _eliminate(self, vec: dict) -> tuple:
        """(c, w, combo): vec reduced to w by `_reduce` or `_reduce_mod_p`."""
        p = self.p
        if p is None:
            w = {c: v for c, v in vec.items() if v}
            pc, combo = _reduce(self._rows, self._pinvs, w, self._combos)
        else:
            w = {c: x for c, v in vec.items() if (x := v % p)}
            pc, combo = _reduce_mod_p(self._rows, w, self._combos, p)
        return pc, w, combo


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
        f = w[c] * pinvs[c]
        _axpy(w, -f, row)
        if combos is not None:
            _axpy(combo, f, combos[c])
    return None, combo


def _inverse(x):
    """1 / x exactly; +-1 stays an int (an int's x ** -1 would be a float)."""
    if type(x) is int:
        return x if x in (1, -1) else Fraction(1, x)
    return x ** (-1)


def _axpy(y: dict, f, x: dict) -> None:
    """y += f * x in place on sparse vectors, dropping cancelled entries."""
    for j, v in x.items():
        new = y[j] + f * v if j in y else f * v
        if new:
            y[j] = new
        else:
            del y[j]


def _reduce_mod_p(echelon: dict[int, dict], w: dict, combos: dict[int, dict], p: int):
    """`_reduce` over F_p, with every entry kept in 1..p-1.

    An entry absent before an update cannot become 0 mod p, as f and the
    row's entries are units, so a 0 result always deletes a present entry.
    """
    combo: dict = {}
    while w:
        c = min(w)
        row = echelon.get(c)
        if row is None:
            return c, combo
        f = w[c]
        for j, v in row.items():
            if new := (w.get(j, 0) - f * v) % p:
                w[j] = new
            else:
                del w[j]
        for j, v in combos[c].items():
            if new := (combo.get(j, 0) + f * v) % p:
                combo[j] = new
            else:
                del combo[j]
    return None, combo


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
