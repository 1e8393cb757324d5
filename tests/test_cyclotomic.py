from __future__ import annotations

from fractions import Fraction
from itertools import islice, zip_longest
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from focklab.cyclotomic import (
    Cyc,
    _is_prime,
    cyclotomic_polynomial,
    divmod_monic,
    mat_mul_cyc,
    matrix_rank_cyc,
    mod_p,
    mul_rows,
    reduction_primes,
)

KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def sparse_rows(mat: list) -> list:
    """The rows {column: nonzero entry} of a dense matrix."""
    return [{c: x for c, x in enumerate(row) if x} for row in mat]


def dense_rows(rows: list, ncols: int, zero: Cyc) -> list:
    """The dense matrix of sparse rows, zero filled."""
    return [[row.get(c, zero) for c in range(ncols)] for row in rows]


def test_cyclotomic_polynomials():
    for e, coeffs in KNOWN.items():
        assert cyclotomic_polynomial(e) == coeffs


def test_zeta_is_primitive_root():
    for e in range(2, 9):
        z = Cyc.zeta(e)
        assert z**e == 1
        for k in range(1, e):
            assert z**k != 1
        # zeta is a root of its cyclotomic polynomial
        value = Cyc.zero(e)
        for k, c in enumerate(cyclotomic_polynomial(e)):
            value = value + (z**k) * c
        assert not value


def test_e2_is_rational():
    assert Cyc.zeta(2) == -1
    assert Cyc.zeta(2).is_rational()
    assert Cyc.zeta(2).rational_value() == Fraction(-1)


def test_arithmetic():
    z = Cyc.zeta(5)
    a = z**3 + 2 * z - Fraction(1, 2)
    b = z**2 - 7
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert a * a.inverse() == 1
    assert a ** (-2) == (a * a).inverse()
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(5).inverse()


@st.composite
def cyclotomics(draw, orders=st.integers(2, 12)):
    e = draw(orders)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    size = Cyc.degree(e)
    return Cyc(e, tuple(draw(st.lists(coeff, min_size=size, max_size=size))))


@settings(max_examples=200, deadline=None)
@given(cyclotomics())
def test_inverse_by_galois_norm(x):
    assume(x)
    assert x * x.inverse() == 1


def norm_inverse(x):
    """The Galois-norm inverse of any x != 0: x times the product c of its
    conjugates sigma_k(x), k != 1 prime to e, is the rational N(x)."""
    e = x.e
    conj = Cyc.one(e)
    for k in range(2, e):
        if gcd(k, e) == 1:
            sigma = [c * Cyc.zeta(e, j * k) for j, c in enumerate(x.coeffs)]
            conj = conj * sum(sigma, Cyc.zero(e))
    norm = (x * conj).rational_value()
    return Cyc(e, tuple(c / norm for c in conj.coeffs))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 8]).flatmap(
        lambda e: st.tuples(st.just(e), st.integers(0, Cyc.degree(e) - 1))
    ),
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
)
def test_monomial_inverse_matches_galois_norm(order_and_power, c):
    # c * zeta^k, k < phi(e), has one nonzero coefficient: inverted as
    # c^-1 * zeta^-k, with the same coefficients as the norm path
    e, k = order_and_power
    x = c * Cyc.zeta(e, k)
    assert x.inverse().coeffs == norm_inverse(x).coeffs
    assert x * x.inverse() == 1


@settings(max_examples=100, deadline=None)
@given(cyclotomics(st.sampled_from([3, 5])), st.integers(-3, 5))
def test_power_is_repeated_product(x, n):
    assume(x or n >= 0)
    factor = x if n >= 0 else x.inverse()
    expected = Cyc.one(x.e)
    for _ in range(abs(n)):
        expected = expected * factor
    assert x**n == expected


def test_geometric_sum_vanishes():
    for e in range(2, 8):
        total = Cyc.zero(e)
        for k in range(e):
            total = total + Cyc.zeta(e, k)
        assert not total


def test_equality_and_hash():
    assert Cyc.from_rational(Fraction(3, 2), 3) == Fraction(3, 2)
    assert hash(Cyc.from_rational(Fraction(3, 2), 3)) == hash(Fraction(3, 2))
    assert Cyc.from_rational(2, 3) == Cyc.from_rational(2, 5)
    assert Cyc.zeta(3) != Cyc.from_rational(1, 3)
    with pytest.raises(ValueError):
        Cyc.zeta(3) + Cyc.zeta(5)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    """a + b with trailing zeros stripped."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=8), st.lists(st.integers(-9, 9), max_size=4))
def test_divmod_monic_over_ints(num, den_low):
    den = den_low + [1]
    q, r = divmod_monic(num, den)
    assert len(r) == len(den) - 1  # deg r < deg den, zero padded
    assert len(q) == max(len(num) - len(den) + 1, 0)
    assert _poly_add(_poly_mul(q, den), r) == _poly_add(num, [])


def test_divmod_monic_cases():
    # x^12 - 1 is the product of the Phi_d, d | 12: exact, remainder 0
    num = [-1] + [0] * 11 + [1]
    for d in (1, 2, 3, 4, 6):
        num, r = divmod_monic(num, cyclotomic_polynomial(d))
        assert r == [0] * (len(cyclotomic_polynomial(d)) - 1)
    assert tuple(num) == cyclotomic_polynomial(12)
    # a num shorter than den: q is empty, r is num padded to deg den entries
    assert divmod_monic([5, 7], [1, 0, 0, 1]) == ([], [5, 7, 0])
    assert divmod_monic([], [3, 1]) == ([], [0])
    # over Q(zeta_3): num = (x - z)(x - z^2) * (x + 1/2) + 3z, by den = (x - z)(x - z^2)
    z, one = Cyc.zeta(3), Cyc.one(3)
    den = _poly_mul([-z, one], [-z * z, one])
    assert den == [one, one, one]  # Phi_3
    num = [x + y for x, y in zip(_poly_mul(den, [one / 2, one]), [3 * z, 0, 0, 0])]
    assert divmod_monic(num, den) == ([one / 2, one], [3 * z, 0 * one])
    q, (value,) = divmod_monic(num, [-z, 1])  # the remainder is num(z) = 3z
    assert value == 3 * z and _poly_add(_poly_mul(q, [-z, 1]), [value]) == num


def test_json_coefficients():
    z = Cyc.zeta(3)
    value = z / 2 + 5
    assert value.to_json() == ["5", "1/2"]
    assert str(Cyc.zero(3)) == "0"


def test_mat_helpers():
    one = Cyc.one(3)
    z = Cyc.zeta(3)
    m = [[one, z], [z, one]]
    sq = mat_mul_cyc(m, m)
    assert sq[0][0] == one + z * z
    assert matrix_rank_cyc(m, 2) == 2
    singular = [[one, z], [z, z * z]]
    assert matrix_rank_cyc(singular, 2) == 1


def naive_product(a, b, zero):
    """The dense triple loop, every entry a Cyc sum."""
    inner = range(len(b))
    return [
        [sum((a[i][k] * b[k][j] for k in inner), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@st.composite
def cancelling_products(draw):
    """(a, b, e): dense factors whose product cancels on purpose.

    The inner index runs over blocks [x | -x | w | u] against [y ; y ; v ; t],
    shuffled, where e is prime, d = e - 1, and the s-th of the d + 1 columns
    of u and rows of t are zeta^i c and zeta^j r with i + j = s, i, j < d.
    The x and -x terms cancel before folding; the u t terms sum to
    c r (1 + zeta + ... + zeta^d) = 0 only once folded through Phi_e; and
    w v is sparse.  At e = 2 that sum is 1 + zeta = 0, and the entries have
    one coefficient, which `mul_rows` multiplies as plain numbers.
    """
    e = draw(st.sampled_from([2, 3, 5]))
    zero = Cyc.zero(e)
    halves = st.lists(st.integers(-3, 3), min_size=Cyc.degree(e), max_size=Cyc.degree(e))
    entries = st.one_of(
        st.just(zero), halves.map(lambda cs: Cyc(e, tuple(Fraction(c, 2) for c in cs)))
    )
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    inner, inner_w = draw(st.integers(0, 2)), draw(st.integers(0, 2))

    def matrix(nrows, ncols):
        return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))

    x, y = matrix(rows, inner), matrix(inner, cols)
    w, v = matrix(rows, inner_w), matrix(inner_w, cols)
    (c,), (r,) = zip(*matrix(rows, 1)), matrix(1, cols)
    d = e - 1
    powers = [(0, s) for s in range(d)] + [(1, d - 1)]
    a_cols = list(zip(*x)) + [tuple(-z for z in col) for col in zip(*x)]
    a_cols += list(zip(*w)) + [[Cyc.zeta(e, i) * z for z in c] for i, _ in powers]
    b_rows = y + y + v + [[Cyc.zeta(e, j) * z for z in r] for _, j in powers]
    order = draw(st.permutations(range(len(b_rows))))
    a = [[a_cols[k][i] for k in order] for i in range(rows)]
    return a, [b_rows[k] for k in order], e


@settings(max_examples=80, deadline=None)
@given(cancelling_products())
def test_mul_rows_matches_naive_product(case):
    a, b, e = case
    zero = Cyc.zero(e)
    product = mul_rows(sparse_rows(a), sparse_rows(b))
    # no stored zero, so equal matrices have equal rows
    assert all(x for row in product for x in row.values())
    expected = naive_product(a, b, zero)
    assert product == sparse_rows(expected)
    assert dense_rows(product, len(b[0]), zero) == expected == mat_mul_cyc(a, b)


def test_reduction_primes():
    # Miller-Rabin against trial division, and strong pseudoprimes to the
    # bases 2..7 (3215031751) and 2..31 (3825123056546413051), caught by 37
    trial = lambda n: n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert not _is_prime(3215031751) and not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)
    for e in (1, 2, 3, 4, 5):
        pairs = list(islice(reduction_primes(e), 3))
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs}, reverse=True)
        for p, omega in pairs:
            assert p < 2**61 and p % e == 1 % e and _is_prime(p)
            assert [k for k in range(1, e + 1) if pow(omega, k, p) == 1] == [e]
            assert mod_p(Cyc.zeta(e), p, omega) == omega % p
    assert next(reduction_primes(3))[0] == 2**61 - 1
    with pytest.raises(ZeroDivisionError):
        mod_p(Cyc.from_rational(Fraction(1, 7), 3), 7, 2)


# A Fraction-only reference for Q(zeta_e): coefficient lists reduced by long
# division by Phi_e, inverses by solving x * y = 1 on the power basis.
def ref_mul(a, b, e):
    phi, d = cyclotomic_polynomial(e), Cyc.degree(e)
    out = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    for m in range(len(out) - 1, d - 1, -1):  # Phi_e is monic
        top, out[m] = out[m], Fraction(0)
        for j, c in enumerate(phi[:-1]):
            out[m - d + j] -= top * c
    return out[:d]


def ref_inverse(a, e):
    d = Cyc.degree(e)
    unit = lambda s: [Fraction(int(k == s)) for k in range(d)]
    columns = [ref_mul(a, unit(s), e) for s in range(d)]  # y -> a * y
    system = [[columns[s][r] for s in range(d)] + [unit(0)[r]] for r in range(d)]
    for c in range(d):  # Gauss-Jordan on the invertible d x d system
        pick = next(r for r in range(c, d) if system[r][c])
        system[c], system[pick] = system[pick], system[c]
        system[c] = [x / system[c][c] for x in system[c]]
        for r in range(d):
            if r != c:
                system[r] = [x - system[r][c] * y for x, y in zip(system[r], system[c])]
    return [row[-1] for row in system]


def ref_power(a, k, e):
    base = a if k >= 0 else ref_inverse(a, e)
    out = [Fraction(int(s == 0)) for s in range(Cyc.degree(e))]
    for _ in range(abs(k)):
        out = ref_mul(out, base, e)
    return out


def int_exactly_when_integral(x):
    return all(
        type(c) is int if Fraction(c).denominator == 1 else type(c) is Fraction
        for c in x.coeffs
    )


def mixed_coefficients(e):
    """phi(e) coefficients, each an int, an integral Fraction or a proper one."""
    coeff = st.one_of(
        st.integers(-5, 5),
        st.integers(-5, 5).map(Fraction),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    return st.lists(coeff, min_size=Cyc.degree(e), max_size=Cyc.degree(e))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 5, 7]).flatmap(
        lambda e: st.tuples(st.just(e), mixed_coefficients(e), mixed_coefficients(e))
    ),
    st.integers(-3, 3),
    st.sampled_from([-3, -1, 2, 3, Fraction(3, 2)]),
)
def test_coefficients_match_fraction_reference(case, k, scalar):
    # int / int would be a float: x / 3 and the monomial inverse divide by
    # an int coefficient, the Galois norm (e = 4, 5, 7) by an int norm
    e, raw_x, raw_y = case
    x, y = Cyc(e, tuple(raw_x)), Cyc(e, tuple(raw_y))
    fx, fy = list(map(Fraction, raw_x)), list(map(Fraction, raw_y))
    results = [
        (x, fx),
        (x + y, [a + b for a, b in zip(fx, fy)]),
        (x - y, [a - b for a, b in zip(fx, fy)]),
        (x * y, ref_mul(fx, fy, e)),
        (x * scalar, [a * scalar for a in fx]),
        (x / scalar, [a / scalar for a in fx]),
    ]
    if x:
        results += [(x.inverse(), ref_inverse(fx, e)), (y / x, ref_mul(fy, ref_inverse(fx, e), e))]
    if x or k >= 0:
        results.append((x**k, ref_power(fx, k, e)))
    for value, expected in results:
        assert list(value.coeffs) == expected
        assert int_exactly_when_integral(value)
    p, omega = next(reduction_primes(e))
    as_fractions = Cyc.__new__(Cyc)  # the Fraction form, bypassing __init__
    as_fractions.e, as_fractions.coeffs = e, tuple(fx)
    expected = sum(c.numerator * pow(c.denominator, -1, p) * omega**s for s, c in enumerate(fx))
    assert mod_p(x, p, omega) == mod_p(as_fractions, p, omega) == expected % p
