"""Exact arithmetic in the cyclotomic field Q(zeta_e).

A number is a rational-coefficient polynomial in zeta_e reduced modulo the
e-th cyclotomic polynomial, so the degree is phi(e) and equality is
decidable.  All scalars appearing in the Hecke presentation are powers of
zeta_e, so this field suffices; `mod_p` reduces it into F_p, p = 1 mod e.

A coefficient is an int when integral and a Fraction only for a true
denominator (`Cyc.__init__` enforces it), so arithmetic in Z[zeta_e], almost
all of the Hecke side's, runs on ints, many times cheaper than Fraction's.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import _linalg
from ._rat import RAT

_SCALARS = (int, Fraction)


def divmod_monic(num: list, den: list) -> tuple[list, list]:
    """(q, r) with num = q * den + r and deg r < deg den, by long division by
    a monic den; ascending coefficients over any exact ring (ints, `Cyc`,
    ints read mod p).  r has exactly len(den) - 1 entries, padded with int
    zeros when num is shorter than den, and q is then empty."""
    d, out = len(den) - 1, list(num)
    for k in range(len(out) - 1, d - 1, -1):  # out[k] is then q[k - d]
        q = out[k]
        for j in range(d):
            out[k - d + j] -= q * den[j]
    return out[d:], out[:d] + [0] * (d - len(out))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, ascending, monic with integer entries."""
    if e < 1:
        raise ValueError("e must be positive")
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1, Phi_1 at e = 1
    for d in range(1, e):
        if e % d == 0:
            poly, rem = divmod_monic(poly, cyclotomic_polynomial(d))
            assert not any(rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(e: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """x^m mod Phi_e for m = d .. max(2d-2, e-1), where d = deg Phi_e."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    top_power = max(2 * d - 2, e - 1, d)
    reps: list[tuple[int, ...]] = []
    current = [-c for c in phi[:d]]  # x^d
    reps.append(tuple(current))
    for _ in range(d, top_power):
        shifted = [0] + current[:-1]
        top = current[-1]
        current = [shifted[j] + top * reps[0][j] for j in range(d)]
        reps.append(tuple(current))
    return tuple(reps), d


class Cyc:
    """An element of Q(zeta_e), coefficients over 1, zeta, ..., zeta^(d-1).

    Instances are immutable by convention; slots keep the arithmetic cheap
    enough for exact matrix work.  Each coefficient is an int when integral,
    else a Fraction: the constructor turns integral Fractions into ints.
    """

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs: tuple[int | Fraction, ...]):
        self.e = e
        for c in coeffs:  # all ints is the common case: one type test each
            if type(c) is not int:
                coeffs = tuple(int(x) if x.denominator == 1 else x for x in coeffs)
                break
        self.coeffs = coeffs

    def __repr__(self) -> str:
        return f"Cyc({self.e}, {self.coeffs})"

    @staticmethod
    def degree(e: int) -> int:
        return len(cyclotomic_polynomial(e)) - 1

    @classmethod
    def from_rational(cls, value, e: int) -> "Cyc":
        d = cls.degree(e)
        return cls(e, (value,) + (0,) * (d - 1))

    @classmethod
    def zero(cls, e: int) -> "Cyc":
        return cls.from_rational(0, e)

    @classmethod
    def one(cls, e: int) -> "Cyc":
        return cls.from_rational(1, e)

    @classmethod
    def zeta(cls, e: int, power: int = 1) -> "Cyc":
        """zeta_e^power, reduced into the field basis."""
        d = cls.degree(e)
        power %= e
        coeffs = [0] * max(d, power + 1)
        coeffs[power] = 1
        return cls(e, _reduce(coeffs, e, d))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.coeffs[0])

    def _coerce(self, other) -> "Cyc":
        if isinstance(other, Cyc):
            if other.e != self.e:
                raise ValueError(f"mixed cyclotomic fields e={self.e}, e={other.e}")
            return other
        if isinstance(other, _SCALARS):
            return Cyc.from_rational(other, self.e)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyc(self.e, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.e, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyc(self.e, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = len(self.coeffs)
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        return Cyc(self.e, _reduce(conv, self.e, d))

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse: c^-1 * zeta^-k for a monomial c * zeta^k,
        otherwise by the Galois norm: with c the product of the conjugates
        sigma_k(x), k != 1 prime to e, x * c = N(x) is rational."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        e, d = self.e, len(self.coeffs)
        if len(terms := _nonzero_coeffs(self)) == 1:
            (k, c), = terms
            return Cyc(e, tuple(Fraction(x, c) for x in Cyc.zeta(e, -k).coeffs))
        conj = Cyc.one(e)
        for k in range(2, e):
            if gcd(k, e) == 1:
                conv = [0] * e  # sigma_k(x): zeta_e -> zeta_e^k
                for j, c in enumerate(self.coeffs):
                    conv[j * k % e] += c
                conj = conj * Cyc(e, _reduce(conv, e, d))
        norm = RAT((self * conj).coeffs[0])  # c / int norm would be a float
        return Cyc(e, tuple(c / norm for c in conj.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            return self.inverse() if n == -1 else self.inverse() ** (-n)
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Cyc.one(self.e) if out is None else out

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyc):  # before Fraction's costly ABC check
            if other.e == self.e:
                return self.coeffs == other.coeffs
            return (
                self.is_rational()
                and other.is_rational()
                and self.coeffs[0] == other.coeffs[0]
            )
        if isinstance(other, _SCALARS):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.e, self.coeffs))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = f"z{self.e}" if k == 1 else f"z{self.e}^{k}"
                parts.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(parts) if parts else "0"


def _reduce(conv: list, e: int, d: int) -> tuple:
    """Fold coefficients of degree >= d back via the reduction table."""
    out = list(conv[:d])
    if len(out) < d:
        out += [0] * (d - len(out))
    if len(conv) > d:
        reps, _ = _reduction_table(e)
        for m in range(d, len(conv)):
            c = conv[m]
            if c:
                rep = reps[m - d]
                for j in range(d):
                    if rep[j]:
                        out[j] += c * rep[j]
    return tuple(out)


def mul_rows(a: list, b: list) -> list:
    """Product over Q(zeta_e) of sparse matrices, lists of rows {column:
    nonzero Cyc}.  Each output entry accumulates unreduced coefficient
    products and is folded through the cyclotomic relation once; an entry
    that cancels is dropped, so equal matrices have equal rows.  Entries of
    one coefficient (phi(e) = 1) accumulate plain products, with no folding."""
    first = next((x for row in a for x in row.values()), None)
    if first is not None and len(first.coeffs) == 1:
        return _mul_rows_rational(a, b, first.e)
    b_rows = [[(j, _nonzero_coeffs(y)) for j, y in row.items()] for row in b]
    out = []
    for row in a:
        acc: dict[int, list] = {}
        for k, x in row.items():
            if b_row := b_rows[k]:
                e, d, xs = x.e, len(x.coeffs), _nonzero_coeffs(x)
            for j, ys in b_row:
                conv = acc.get(j)
                if conv is None:
                    conv = acc[j] = [0] * (2 * d - 1)
                for i, u in xs:
                    for m, v in ys:
                        conv[i + m] += u * v
        out.append({j: Cyc(e, c) for j, conv in acc.items() if any(c := _reduce(conv, e, d))})
    return out


def _mul_rows_rational(a: list, b: list, e: int) -> list:
    """`mul_rows` when every entry is its one rational coefficient."""
    b_rows = [[(j, y.coeffs[0]) for j, y in row.items()] for row in b]
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            u = x.coeffs[0]
            for j, v in b_rows[k]:
                acc[j] = acc.get(j, 0) + u * v
        out.append({j: Cyc(e, (c,)) for j, c in acc.items() if c})
    return out


def mat_mul_cyc(a: list, b: list) -> list:
    """`_linalg.mat_mul` over Q(zeta_e), for the tests and the benchmark tracer."""
    return _linalg.mat_mul(a, b, Cyc.zero(b[0][0].e))


def _nonzero_coeffs(x: Cyc) -> list[tuple]:
    return [(i, c) for i, c in enumerate(x.coeffs) if c]


matrix_rank_cyc = _linalg.matrix_rank


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: deterministic below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases:
        return n in bases
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    d = (n - 1) >> r
    for a in bases:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(r - 1)):
            return False
    return True


def reduction_primes(e: int):
    """Pairs (p, w): the primes p < 2^61 with p = 1 (mod e), descending, and
    the first g^((p-1)/e), g = 2, 3, ..., of exact order e in F_p.
    """
    for p in range((2**61 - 2) // e * e + 1, e, -e):
        if _is_prime(p):
            roots = (pow(g, (p - 1) // e, p) for g in range(2, p))
            yield p, next(w for w in roots if 1 not in (pow(w, k, p) for k in range(1, e)))


def mod_p(x: Cyc, p: int, omega: int) -> int:
    """Image of x under the ring homomorphism Z_(p)[zeta_e] -> F_p sending
    zeta_e to omega, a root of Phi_e mod p; ZeroDivisionError off Z_(p)[zeta_e].
    """
    out = 0
    for c in reversed(x.coeffs):
        if type(c) is not int:
            if c.denominator % p == 0:
                raise ZeroDivisionError(f"{p} divides the denominator of {x}")
            c = c.numerator * pow(c.denominator, -1, p)
        out = (out * omega + c) % p
    return out
