from __future__ import annotations

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from focklab.cyclotomic import (
    Cyc,
    _is_prime,
    cyclotomic_polynomial,
    mat_mul_cyc,
    matrix_rank_cyc,
    mod_p,
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
