"""Exact scalar arithmetic: rationals and cyclotomic numbers."""

import random
from fractions import Fraction

import pytest

from nsympeak.scalars import (
    CapacityError,
    CyclotomicNumber,
    check_limit,
    cyclotomic_polynomial,
    euler_phi,
    is_rational,
    join_terms,
    make_cyclotomic,
    scalar_from_json,
    scalar_from_text,
    scalar_inv,
    scalar_pow,
    scalar_to_json,
    scalar_to_text,
    split_terms,
    stack_terms,
    zeta,
    zeta_pow,
)
from oracles import cyclotomic_polynomial_by_division


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    for N in range(1, 13):
        assert len(cyclotomic_polynomial(N)) - 1 == euler_phi(N)


def test_cyclotomic_polynomial_matches_division():
    # The Moebius product against x^N - 1 divided by every Phi_d, d | N.
    for N in range(1, 301):
        phi = cyclotomic_polynomial(N)
        assert all(type(c) is int for c in phi)
        assert phi == cyclotomic_polynomial_by_division(N)


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
    # No raw instance holds a rational: an integer is built as an int,
    # any other rational as a Fraction.
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [2])
    assert type(make_cyclotomic(5, [2])) is int
    assert make_cyclotomic(5, [2]) == Fraction(2)
    assert hash(make_cyclotomic(5, [2])) == hash(Fraction(2))
    half = make_cyclotomic(5, [Fraction(1, 2)])
    assert type(half) is Fraction and half.denominator == 2
    assert scalar_inv(make_cyclotomic(2, [Fraction(-2, 3)])) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        scalar_inv(make_cyclotomic(5, [0]))
    with pytest.raises(ZeroDivisionError):
        scalar_inv(0)
    with pytest.raises(ZeroDivisionError):
        zeta(5) / 0


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError):
        zeta(3) + zeta(4)


def test_memo_keys_on_exact_types_and_conductors():
    # 2.0 == 2 and True == 1, and each hashes as the int, so a memo keyed
    # on the bare operand would answer a float or a bool from an int's
    # entry. Warm entries for the int 2 must not change what they do.
    z = zeta(3)
    assert z * 2 is z * 2 and z + 2 is z + 2  # the second answer is shared
    for op in (lambda: z * 2.0, lambda: 2.0 * z, lambda: z + 2.0, lambda: z - 2.0):
        with pytest.raises(TypeError):
            op()
    for got, want in ((z * True, z), (z * Fraction(2), z * 2)):
        assert type(got) is CyclotomicNumber and got == want
    # zeta_3 and zeta_4 store the same numerators, (0, 1) over 1.
    assert z.nums == zeta(4).nums
    warmed = [z * z, zeta(4) * zeta(4), z * zeta(3)]
    assert warmed[2] is warmed[0]  # an equal operand finds the entry
    for _ in range(2):
        with pytest.raises(ValueError, match="conductor mismatch: 3 vs 4"):
            z * zeta(4)
        with pytest.raises(ValueError, match="conductor mismatch: 4 vs 3"):
            zeta(4) + z


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
    # A sum that lands on an integer is read as the int.
    assert type(scalar_from_text("1/2 + 1/2")) is int
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
    back = scalar_from_json({"num": 4, "den": -2})
    assert type(back) is int and back == -2


def test_scalar_pow_negative_exponents():
    assert scalar_pow(Fraction(2), -2) == Fraction(1, 4)
    # An int never meets a negative ** (which would give a float).
    assert scalar_pow(2, -1) == Fraction(1, 2)
    assert type(scalar_pow(2, -1)) is Fraction
    minus_one = scalar_pow(-1, -3)
    assert type(minus_one) is int and minus_one == -1
    z = zeta(5)
    assert scalar_pow(z, -1) * z == 1


def test_check_limit():
    # A count past Python's 4300-digit conversion limit is shown as a
    # power of two, so the refusal is a CapacityError, not a ValueError.
    with pytest.raises(CapacityError) as info:
        check_limit(10**5000, 5, "a request", "terms")
    assert len(str(info.value)) < 200 and "over 2^16609" in str(info.value)
    with pytest.raises(CapacityError, match="needs 2\\^20000 terms, above the limit 5"):
        check_limit(1 << 20000, 5, "a request", "terms")
    with pytest.raises(CapacityError, match="needs 6 terms, above the limit 5"):
        check_limit(6, 5, "a request", "terms")
    with pytest.raises(CapacityError, match="needs 18446744073709551615 terms"):
        check_limit((1 << 64) - 1, 5, "a request", "terms")
    check_limit(5, 5, "a request", "terms")


def test_split_terms_over_Q():
    terms = {5: 2, 3: -1, 9: 0}
    N, den, width, packed = split_terms(terms, 5)
    # One plain column, no width: integer input is handed over as it is,
    # zeros kept, and no map mutates it.
    assert (N, den, width) == (None, 1, None)
    assert packed is terms
    assert join_terms(N, den, width, packed) == {5: 2, 3: -1}
    assert terms == {5: 2, 3: -1, 9: 0}
    N, den, width, packed = split_terms({1: Fraction(1, 6), 2: Fraction(-3, 4), 4: 5})
    assert (N, den, width, packed) == (None, 12, None, {1: 2, 2: -9, 4: 60})
    assert join_terms(N, den, width, packed) == {
        1: Fraction(1, 6), 2: Fraction(-3, 4), 4: 5
    }
    assert split_terms({}) == (None, 1, None, {})
    assert join_terms(None, 1, None, {}) == {}


def test_split_terms_mixes_rationals_into_one_field():
    z = zeta(5)
    terms = {1: Fraction(1, 2), 2: z / 3, 3: -1, 4: 2 * z * z - z}
    N, den, width, packed = split_terms(terms)
    # Four bits for |12|, no steps and two more, in whole bytes.
    assert (N, den, width) == (5, 6, 8)
    assert split_terms(terms, 2)[2] == 8
    assert split_terms(terms, 3)[2] == 16
    # Column k of a key sits in bits k*width up: the rationals in column 0
    # alone, a negative column borrowing from the ones above it.
    assert packed == {1: 3, 2: 2 << 8, 3: -6, 4: (-6 << 8) + (12 << 16)}
    got = join_terms(N, den, width, packed)
    assert got == terms
    assert type(got[3]) is int
    assert join_terms(N, den, width, {1: 0, 2: 6 + (6 << 8)}) == {2: Fraction(1) + z}


def test_stack_terms_lays_splits_side_by_side():
    z = zeta(3)
    a = split_terms({1: 1 + z, 3: -2})  # two 8-bit fields
    b = split_terms({3: Fraction(1, 2), 5: 7})  # over Q: one field
    c = split_terms({3: (1 << 40) * z})  # two 48-bit fields
    assert [x[2] for x in (a, b, c)] == [8, None, 48]
    # |14| and two steps take 8 bits for b, one more step 16.
    count, stacked, _ = stack_terms([(b, 3), (c, 0)])
    assert count == 2
    assert stacked[3] == b[3][3] + (c[3][3] << 16)
    count, stacked, nonzero = stack_terms(iter([(a, 0), (b, 2), (c, 0)]))
    assert count == 3
    assert stacked == {
        1: a[3][1],
        3: a[3][3] + (b[3][3] << 16) + (c[3][3] << 24),
        5: b[3][5] << 16,
    }
    assert [nonzero(x) for x in stacked.values()] == [[0], [0, 1, 2], [1]]
    assert nonzero(0) == []
    assert nonzero(-1 << 24) == [2]
    # A stack of one is laid as any other and equals the split's packed.
    for split in (a, b):
        count, stacked, nonzero = stack_terms([(split, 2)])
        assert (count, stacked) == (1, split[3])
        assert [nonzero(x) for x in stacked.values()] == [[0], [0]]
        assert nonzero(0) == []
    count, stacked, nonzero = stack_terms([])
    assert (count, stacked, nonzero(0)) == (0, {}, [])


@pytest.mark.parametrize("values, first, second", [
    ((zeta(3), zeta(4)), 3, 4),
    ((zeta(3), 1, Fraction(1, 2), zeta(3), zeta(4)), 3, 4),
    ((Fraction(1, 3), zeta(12), zeta(5)), 12, 5),
])
def test_split_terms_refuses_two_conductors(values, first, second):
    message = rf"^conductor mismatch: {first} vs {second} \(no automatic lifting\)$"
    with pytest.raises(ValueError, match=message):
        split_terms(dict(enumerate(values)))
    # Splits of one conductor each may not be stacked together either.
    with pytest.raises(ValueError, match=message):
        stack_terms((split_terms({0: c}), 0) for c in values)
