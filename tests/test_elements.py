"""Tests for the free-algebra elements: basis changes, products, display."""

import random
from fractions import Fraction

import pytest

from nsympeak import elements
from nsympeak.compositions import compositions_of
from nsympeak.elements import (
    CapacityError,
    NsymElement,
    R,
    S,
    coproduct_S,
    multiply,
    one,
    zero,
)
from nsympeak.scalars import zeta


def test_constructors_normalize():
    e = NsymElement("S", {(2,): 1, (1, 1): 0})
    assert e.terms == {(2,): Fraction(1)}
    assert isinstance(e.coefficient((2,)), Fraction)
    assert e.coefficient((1, 1)) == 0
    assert S(2, 1).terms == {(2, 1): Fraction(1)}
    assert R(3).basis == "R"
    assert not zero("R")
    assert one("S").terms == {(): Fraction(1)}


def test_bad_inputs():
    with pytest.raises(ValueError):
        S(0, 1)
    with pytest.raises(ValueError):
        R(-2)
    with pytest.raises(ValueError):
        NsymElement("Q", {(1,): 1})
    with pytest.raises(ValueError):
        S(2).to_basis("Q")


def test_s_to_r_small():
    # S words expand over coarser ribbons: descent subsets.
    assert S(2).to_basis("R") == R(2)
    assert S(1, 1).to_basis("R") == R(1, 1) + R(2)
    assert S(2, 1).to_basis("R") == R(2, 1) + R(3)
    assert S(1, 1, 1).to_basis("R") == (
        R(1, 1, 1) + R(2, 1) + R(1, 2) + R(3)
    )


def test_r_to_s_small():
    # Inclusion-exclusion over the same interval.
    assert R(1, 1).to_basis("S") == S(1, 1) - S(2)
    assert R(2, 1).to_basis("S") == S(2, 1) - S(3)
    assert R(1, 1, 1).to_basis("S") == (
        S(1, 1, 1) - S(2, 1) - S(1, 2) + S(3)
    )


def test_basis_change_capacity(monkeypatch):
    # S[1^23] and R[1^23] each stand for 2^22 words, counted up front.
    with pytest.raises(CapacityError, match=str(elements.MAX_EXPANSION_TERMS)):
        S(*[1] * 23).to_basis("R")
    with pytest.raises(CapacityError):
        R(*[1] * 23).to_basis("S")
    # The count is the sum of 2^(l(I)-1) over the words, limit included.
    monkeypatch.setattr(elements, "MAX_EXPANSION_TERMS", 5)
    assert len((S(1, 1, 1) + S(2)).to_basis("R").terms) == 5
    with pytest.raises(CapacityError, match="6 terms"):
        (S(1, 1, 1) + S(1, 1)).to_basis("R")
    with pytest.raises(CapacityError):
        R(1, 1, 1, 1).to_basis("S")


def test_basis_round_trip_exhaustive():
    for n in range(7):
        for I in compositions_of(n):
            e = S(*I) if I else one("S")
            assert e.to_basis("R").to_basis("S") == e
            r = R(*I) if I else one("R")
            assert r.to_basis("S").to_basis("R") == r


def test_basis_round_trip_random():
    rng = random.Random(11)
    comps = [I for n in range(6) for I in compositions_of(n)]
    for _ in range(25):
        terms = {}
        for I in rng.sample(comps, 5):
            terms[I] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        e = NsymElement("S", terms)
        assert e.to_basis("R").to_basis("S") == e


def test_ribbon_product_two_terms():
    assert R(2) * R(1, 1) == R(2, 1, 1) + R(3, 1)
    assert R(1) * R(1) == R(1, 1) + R(2)
    assert R(2, 1) * R(3) == R(2, 1, 3) + R(2, 4)


def test_s_product_concatenates():
    assert S(1) * S(2) == S(1, 2)
    assert S(2, 1) * S(1, 3) == S(2, 1, 1, 3)
    assert (S(1) + S(2)) * S(1) == S(1, 1) + S(2, 1)


def test_product_mixed_bases_agree():
    f = S(1, 1) - 2 * S(2)
    g = R(2, 1)
    in_s = multiply(f.to_basis("S"), g.to_basis("S"))
    in_r = multiply(f.to_basis("R"), g.to_basis("R"))
    assert in_s == in_r
    assert f * g == in_s


def test_product_unit_and_zero():
    f = R(2, 1) + 3 * R(1, 1, 1)
    assert one("R") * f == f
    assert f * one("S") == f
    assert zero("S") * f == zero("R")


def test_product_associative_spot():
    rng = random.Random(5)
    comps = [I for n in range(1, 4) for I in compositions_of(n)]
    for _ in range(10):
        a, b, c = (
            NsymElement("R", {rng.choice(comps): rng.randint(1, 4)})
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


def test_scalar_arithmetic():
    f = S(2) - S(1, 1)
    assert (-f) + f == zero("S")
    assert f.scale(Fraction(1, 2)) + f.scale(Fraction(1, 2)) == f
    assert 2 * f == f + f
    assert f * 3 == f + f + f
    z = zeta(3)
    g = S(1).scale(z)
    assert g + g.scale(z) + S(1) == zero("S")


def test_homogeneous_components():
    f = S(2, 1) + 4 * S(1) - S(4)
    assert f.weights() == [1, 3, 4]
    assert not f.is_homogeneous()
    assert f.homogeneous_component(3) == S(2, 1)
    assert f.homogeneous_component(2) == zero("S")
    assert S(2, 2).is_homogeneous()
    assert one("S").is_homogeneous()


def test_coproduct_of_complete_generator():
    terms = coproduct_S(2)
    assert terms == [
        (one("S"), S(2)),
        (S(1), S(1)),
        (S(2), one("S")),
    ]
    assert coproduct_S(0) == [(one("S"), one("S"))]


def test_str_display_order():
    # Ascending weight, and within a weight the finest word prints first.
    f = R(3) + R(1, 2) + R(2, 1) + R(1, 1, 1)
    assert str(f) == "R[1,1,1] + R[2,1] + R[1,2] + R[3]"
    assert str(S(1, 1) - 2 * S(2)) == "S[1,1] - 2*S[2]"
    assert str(zero("R")) == "0"
    assert str(one("S") - S(1)) == "1 - S[1]"
    g = S(2).scale(zeta(4))
    assert str(g) == "(z)*S[2]"
    assert str(S(2).scale(zeta(4) + 1)) == "(1 + z)*S[2]"


def test_equality_across_bases():
    assert S(1, 1) + S(2) != R(1, 1) + R(2)
    assert S(1, 1) == R(1, 1) + R(2)
    assert one("S") == one("R")
