"""Exact scalar arithmetic: rationals and cyclotomic numbers."""

import random
from fractions import Fraction

import pytest

from nsympeak.scalars import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    is_rational,
    make_cyclotomic,
    scalar_from_json,
    scalar_from_text,
    scalar_inv,
    scalar_pow,
    scalar_to_json,
    scalar_to_text,
    zeta,
    zeta_pow,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    for N in range(1, 13):
        assert len(cyclotomic_polynomial(N)) - 1 == euler_phi(N)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_zeta_demotes_to_rational_at_low_order():
    assert zeta(1) == Fraction(1)
    assert zeta(2) == Fraction(-1)
    assert is_rational(zeta(2))
    assert isinstance(zeta(3), CyclotomicNumber)


def test_root_relations():
    for N in range(2, 9):
        z = zeta(N)
        assert scalar_pow(z, N) == 1
        total = sum(zeta_pow(N, k) for k in range(N))
        assert total == 0
    z3 = zeta(3)
    assert z3 * z3 + z3 + 1 == 0
    z4 = zeta(4)
    assert z4 * z4 == Fraction(-1)
    assert is_rational(z4 * z4)
    z6 = zeta(6)
    assert z6 * z6 == z6 - 1


def test_zeta_pow_reduces_exponents():
    for N in (3, 4, 5):
        for k in range(-2 * N, 2 * N + 1):
            assert zeta_pow(N, k) == scalar_pow(zeta(N), k % N)
    assert zeta_pow(3, -1) == zeta_pow(3, 2)


def test_inverse_and_division():
    rng = random.Random(7)
    for N in (3, 4, 5, 6, 9, 15):
        d = euler_phi(N)
        for _ in range(12):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
            x = make_cyclotomic(N, coeffs)
            if x == 0:
                continue
            assert x * scalar_inv(x) == 1
    one_minus = 1 - zeta(3)
    inv = scalar_inv(one_minus)
    assert inv == make_cyclotomic(3, [Fraction(2, 3), Fraction(1, 3)])
    # A rational held in a raw instance inverts to a Fraction.
    assert type(CyclotomicNumber(5, [2]).inverse()) is Fraction
    assert CyclotomicNumber(5, [2]).inverse() == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber(5, [0]).inverse()
    with pytest.raises(ZeroDivisionError):
        zeta(5) / 0


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError):
        zeta(3) + zeta(4)


def test_rational_embedding_consistency():
    z = zeta(3)
    assert z + 1 - 1 == z
    assert (z * 0) == 0
    assert not isinstance(z - z, CyclotomicNumber)
    assert hash(make_cyclotomic(3, [Fraction(5)])) == hash(Fraction(5))
    assert make_cyclotomic(3, [Fraction(5)]) == Fraction(5)


def test_text_forms_round_trip():
    values = [
        Fraction(0),
        Fraction(-7, 3),
        zeta(3),
        1 - zeta(4),
        make_cyclotomic(5, [1, -2, Fraction(1, 2), 0]),
    ]
    for x in values:
        text = scalar_to_text(x)
        N = x.N if isinstance(x, CyclotomicNumber) else None
        assert scalar_from_text(text, N) == x


def test_text_form_examples():
    assert scalar_to_text(Fraction(1, 2)) == "1/2"
    assert scalar_to_text(zeta(3)) == "z"
    assert scalar_to_text(1 - zeta(3)) == "1 - z"
    assert scalar_from_text("1/2 - z + z^2", 5) == make_cyclotomic(
        5, [Fraction(1, 2), -1, 1]
    )


def test_json_forms_round_trip():
    values = [Fraction(3, 4), Fraction(-2), zeta(3), (1 - zeta(5)) ** 2]
    for x in values:
        assert scalar_from_json(scalar_to_json(x)) == x
    assert scalar_to_json(Fraction(3, 4)) == {"num": 3, "den": 4}


def test_scalar_pow_negative_exponents():
    assert scalar_pow(Fraction(2), -2) == Fraction(1, 4)
    z = zeta(5)
    assert scalar_pow(z, -1) * z == 1
