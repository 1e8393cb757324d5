"""Exact Gaussian elimination over any field type supporting +,-,*,/ and
truthiness (Fraction, cyclotomic numbers).

Vectors and matrices are plain lists, except SpanTracker's sparse dicts;
pivoting is deterministic (first nonzero column, first available row), so
echelon forms and kernel bases are reproducible.
"""

from __future__ import annotations

from typing import Sequence


def rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pick = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                pick = k
                break
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        pinv = rows[r][c] ** (-1)  # one field inversion per pivot row
        rows[r] = [v * pinv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


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
    again as a dict (generator index -> nonzero coefficient).
    """

    def __init__(self):
        # pivot column -> (echelon row, 1 at the pivot and zero before it;
        #                  its combination over the generators)
        self._rows: dict[int, tuple[dict, dict]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: dict) -> tuple[dict, dict, int | None]:
        """Eliminate vec's pivot columns, smallest first.

        Returns (w, combo, c) with vec = w + sum combo[k] * gen_k and c the
        first nonzero column of w without an echelon row (None if w is 0).
        A row only touches columns from its pivot on, so min(w) is always
        the next column to eliminate.
        """
        w = {c: v for c, v in vec.items() if v}
        combo: dict = {}
        while w:
            c = min(w)
            row = self._rows.get(c)
            if row is None:
                return w, combo, c
            f = w[c]
            _axpy(w, -f, row[0])
            _axpy(combo, f, row[1])
        return w, combo, None

    def insert(self, vec: dict) -> bool:
        """Insert as a generator; False when already in the span."""
        w, combo, pc = self._reduce(vec)
        if pc is None:
            return False
        pinv = w[pc] ** (-1)
        row_combo = {k: -v * pinv for k, v in combo.items()}
        row_combo[len(self._rows)] = pinv
        self._rows[pc] = ({c: v * pinv for c, v in w.items()}, row_combo)
        return True

    def express(self, vec: dict) -> dict | None:
        """Coordinates of vec over the generators, or None if outside."""
        _, combo, pc = self._reduce(vec)
        return combo if pc is None else None


def _axpy(y: dict, f, x: dict) -> None:
    """y += f * x in place on sparse vectors, dropping cancelled entries."""
    for j, v in x.items():
        new = y[j] + f * v if j in y else f * v
        if new:
            y[j] = new
        else:
            del y[j]


def mat_identity(n: int, zero, one) -> list[list]:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], zero) -> list[list]:
    n, m, p = len(a), len(b), len(b[0])
    bt = [[b[k][j] for k in range(m)] for j in range(p)]
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(p):
            bj = bt[j]
            acc = zero
            for k in range(m):
                if ai[k] and bj[k]:
                    acc = acc + ai[k] * bj[k]
            row.append(acc)
        out.append(row)
    return out


def mat_sub(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Sequence[Sequence], f) -> list[list]:
    return [[f * x for x in row] for row in a]


def mat_is_zero(a: Sequence[Sequence]) -> bool:
    return all(not x for row in a for x in row)
