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
    all_words,
    coproduct_S,
    linear_combination,
    multiply,
    one,
    zero,
)
from nsympeak.scalars import zeta


def test_constructors_normalize():
    e = NsymElement("S", {(2,): 1, (1, 1): 0})
    assert e.terms == {(2,): Fraction(1)}
    assert type(e.coefficient((2,))) is int
    assert e.coefficient((1, 1)) == 0
    assert type(S(2).coefficient((2,))) is int
    # A bool coefficient is read as the int it stands for.
    flag = NsymElement("S", {(1,): True})
    assert type(flag.terms[(1,)]) is int and str(flag) == "S[1]"
    assert S(2, 1).terms == {(2, 1): Fraction(1)}
    assert R(3).basis == "R"
    assert not zero("R")
    assert one("S").terms == {(): Fraction(1)}


def test_integer_valued_fractions_are_stored_as_ints():
    half = S(1).scale(Fraction(1, 2))
    total = half + half
    assert total.terms == {(1,): 1}
    assert type(total.terms[(1,)]) is int
    product = multiply(half, S(1).scale(2))
    assert product.terms == {(1, 1): 1}
    assert type(product.terms[(1, 1)]) is int
    assert type(half.scale(2).coefficient((1,))) is int


def test_terms_view_is_read_only_and_keyed_by_tuples():
    F = S(2, 1) - S(1).scale(Fraction(1, 3)) + one("S")
    assert F.codes == {0b110: 1, 0b1: Fraction(-1, 3), 0: 1}
    assert dict(F.terms) == {(2, 1): 1, (1,): Fraction(-1, 3), (): 1}
    assert len(F.terms) == 3 and (2, 1) in F.terms and (1, 2) not in F.terms
    assert F.terms.get((2.5,)) is None and F.terms.get("S[1]") is None
    with pytest.raises(TypeError):
        F.terms[(1,)] = 2
    with pytest.raises(AttributeError):
        F.codes = {}


def test_bad_inputs():
    with pytest.raises(ValueError):
        S(0, 1)
    with pytest.raises(ValueError):
        R(-2)
    with pytest.raises(ValueError):
        NsymElement("Q", {(1,): 1})
    with pytest.raises(ValueError):
        S(2).to_basis("Q")


def test_parts_must_be_ints():
    # Neither constructors nor term keys truncate a float or read a bool.
    with pytest.raises(ValueError, match="must be ints"):
        S(1.9, True)
    with pytest.raises(ValueError, match="must be ints"):
        S(2, True)
    with pytest.raises(ValueError, match="must be ints"):
        R(2.0)
    with pytest.raises(ValueError, match="must be ints"):
        NsymElement("S", {(2.5,): 1})
    with pytest.raises(ValueError, match="must be ints"):
        S(2).coefficient((2.0,))


def test_mixed_conductors_refused():
    with pytest.raises(ValueError, match="conductor mismatch: 3 vs 4"):
        NsymElement("S", {(1,): zeta(3), (2,): zeta(4)})
    with pytest.raises(ValueError, match="conductor mismatch: 3 vs 4"):
        linear_combination("R", [(R(1), zeta(3)), (R(2), zeta(4))])
    # One conductor with rationals beside it is fine.
    assert NsymElement("S", {(1,): zeta(3), (2,): 1}).to_basis("R")


def test_scale_zero_and_foreign_conductor():
    F = NsymElement("R", {(1,): zeta(3), (2,): 1})
    killed = F.scale(0)
    assert killed.basis == "R" and killed.terms == {}
    with pytest.raises(ValueError, match="conductor mismatch: 4 vs 3"):
        F.scale(zeta(4))
    assert (-F).terms == {(1,): -zeta(3), (2,): Fraction(-1)}
    assert F.scale(-1).terms == (-F).terms


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


def test_basis_change_count_is_capped_per_weight(monkeypatch):
    # The result holds at most 2^(w-1) words of weight w, so the sum of
    # all 2^14 S words of weight 15 counts 2^14 terms, not the 3^14
    # coarsenings of its words. Each R_J is reached from the 2^(15-l(J))
    # refinements of J.
    F = all_words("S", 15, 15)
    G = F.to_basis("R")
    assert len(G.codes) == 1 << 14
    assert all(c == 1 << (15 - J.bit_count()) for J, c in G.codes.items())
    assert G.to_basis("S") == F
    # Weight 4 holds 8 words; the unit adds one more.
    monkeypatch.setattr(elements, "MAX_EXPANSION_TERMS", 8)
    assert len(all_words("S", 4, 4).to_basis("R").codes) == 8
    with pytest.raises(CapacityError, match="9 terms"):
        (all_words("S", 4, 4) + S()).to_basis("R")


def test_all_words(monkeypatch):
    assert all_words("R", 0, 2) == one("R") + R(1) + R(1, 1) + R(2)
    assert all_words("S", 3, 3) == sum((S(*I) for I in compositions_of(3)), zero())
    assert list(all_words("S", 1, 4).codes) == list(range(1, 16))
    for lo, hi in [(1, 0), (0, -1), (-1, 2)]:
        assert not all_words("S", lo, hi)
    # The 8 words of weight 4 are admitted under a limit of 8; with the
    # lighter words too they are not.
    monkeypatch.setattr(elements, "MAX_EXPANSION_TERMS", 8)
    assert len(all_words("R", 4, 4).codes) == 8
    with pytest.raises(CapacityError, match="weight 0 to 4 needs 16 terms"):
        all_words("R", 0, 4)


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
