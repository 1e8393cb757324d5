"""Exact Gaussian elimination over any field type supporting +,-,*,/ and
truthiness (Fraction, cyclotomic numbers), and over plain ints read as
rationals: an int pivot is inverted as a Fraction, never a float.

Vectors and matrices are plain lists, except that elimination works on
sparse dicts (column -> nonzero entry) and touches only nonzero entries.
The Hecke side keeps its matrices as such sparse rows throughout and
multiplies them by `cyclotomic.mul_rows`; the dense `mat_mul` is kept for
the rational test oracles and the benchmark tracer.

Reduced row echelon forms are canonical, so `rref`, ranks and kernel bases
do not depend on the order in which rows are eliminated.  `SpanTracker(p)`
works over F_p on plain ints, any representatives, by its own int loop
`_reduce_mod_p`, so the exact loop that `rref` runs carries no modulus.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Each row is reduced against the echelon rows found so far and, unless it
    vanishes, kept scaled to 1 on its first column; back-substitution from
    the last pivot to the first then clears the entries above every pivot.
    """
    echelon: dict[int, dict] = {}
    for row in rows:
        w = {c: v for c, v in enumerate(row) if v}
        pc = _reduce(echelon, w)[0]
        if pc is not None:
            pinv = _inverse(w[pc])  # one field inversion per pivot row
            echelon[pc] = {c: v * pinv for c, v in w.items()}
    pivots = sorted(echelon)
    for pc in reversed(pivots):
        row = echelon[pc]
        for c in [c for c in row if c != pc and c in echelon]:
            _axpy(row, -row[c], echelon[c])
    zero = echelon[pivots[0]][pivots[0]] * 0 if pivots else None
    return [[echelon[pc].get(c, zero) for c in range(ncols)] for pc in pivots], pivots


def matrix_rank(rows: Sequence[Sequence], ncols: int) -> int:
    return len(rref(list(rows), ncols)[0])


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
        # pivot column -> echelon row (1 at the pivot and zero before it),
        # and its combination over the generators
        self._rows: dict[int, dict] = {}
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
        if p is None:
            pinv = _inverse(w[pc])
            row = {c: v * pinv for c, v in w.items()}
            row_combo = {k: -v * pinv for k, v in combo.items()}
        else:
            pinv = pow(w[pc], -1, p)
            row = {c: v * pinv % p for c, v in w.items()}
            row_combo = {k: -v * pinv % p for k, v in combo.items()}
        row_combo[len(self._rows)] = pinv
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
            pc, combo = _reduce(self._rows, w, self._combos)
        else:
            w = {c: x for c, v in vec.items() if (x := v % p)}
            pc, combo = _reduce_mod_p(self._rows, w, self._combos, p)
        return pc, w, combo


def _reduce(echelon: dict[int, dict], w: dict, combos: dict[int, dict] | None = None):
    """Eliminate the echelon rows' pivot columns from w in place, smallest first.

    Returns (c, combo): c is the first nonzero column of w without an echelon
    row (None once w is 0).  With `combos` (pivot column -> combination over
    some generators), combo collects the same steps, so that the input equals
    w + sum combo[k] * gen_k.  An echelon row only touches columns from its
    pivot on, so min(w) is always the next column to eliminate.
    """
    combo: dict = {}
    while w:
        c = min(w)
        row = echelon.get(c)
        if row is None:
            return c, combo
        f = w[c]
        _axpy(w, -f, row)
        if combos is not None:
            _axpy(combo, f, combos[c])
    return None, combo


def _inverse(x):
    """1 / x exactly: an int's x ** -1 would be a float."""
    return Fraction(1, x) if type(x) is int else x ** (-1)


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
