"""Tests for the text and JSON forms of compositions and elements."""

import sys
from fractions import Fraction

import pytest

from nsympeak.elements import R, S, one
from nsympeak.scalars import zeta
from nsympeak.textforms import (
    ElementParseError,
    composition_from_text,
    composition_to_text,
    coords_to_text,
    element_to_json,
    parse_any_element,
    parse_element_terms,
    terms_from_json,
    terms_to_json,
)
from oracles import positions_from_text, positions_to_text


def test_composition_text():
    assert composition_to_text((1, 2, 1)) == "[1,2,1]"
    assert composition_to_text(()) == "[]"
    assert composition_from_text("[1,2,1]") == (1, 2, 1)
    assert composition_from_text(" [ 3 , 4 ] ") == (3, 4)
    assert composition_from_text("[]") == ()
    for bad in ("1,2", "[1,0]", "[1,", "[a]"):
        with pytest.raises(ValueError):
            composition_from_text(bad)


def test_positions_text():
    assert positions_to_text({4, 9}) == "{4,9}"
    assert positions_to_text(frozenset()) == "{}"
    assert positions_from_text("{4,9}") == frozenset({4, 9})
    assert positions_from_text("{}") == frozenset()
    with pytest.raises(ValueError):
        positions_from_text("{4,}")


def test_parse_simple_words():
    basis, terms = parse_element_terms("S[2,1]")
    assert basis == "S" and terms == {(2, 1): 1}
    basis, terms = parse_element_terms("R[1,1] + R[2]")
    assert basis == "R" and terms == {(1, 1): 1, (2,): 1}
    basis, terms = parse_element_terms("-Sigma[3,1]")
    assert basis == "Sigma" and terms == {(3, 1): -1}
    basis, terms = parse_element_terms("rho[1,1,1]")
    assert basis == "rho" and terms == {(1, 1, 1): 1}
    basis, terms = parse_element_terms("T[4]")
    assert basis == "T" and terms == {(4,): 1}


def test_parse_coefficients():
    _, terms = parse_element_terms("2*S[2] - 3/2*S[1,1]")
    assert terms == {(2,): 2, (1, 1): Fraction(-3, 2)}
    _, terms = parse_element_terms("1*S[2]")
    assert terms == {(2,): 1}
    _, terms = parse_element_terms("-1/3*R[1]")
    assert terms == {(1,): Fraction(-1, 3)}
    # Bare numbers multiply the unit.
    basis, terms = parse_element_terms("2")
    assert basis is None and terms == {(): 2}
    basis, terms = parse_element_terms("1 - S[1]")
    assert basis == "S" and terms == {(): 1, (1,): -1}
    _, terms = parse_element_terms("S[2] + S[2]")
    assert terms == {(2,): 2}
    _, terms = parse_element_terms("S[2] - S[2]")
    assert terms == {}


def test_parse_cyclotomic_coefficients():
    z = zeta(3)
    _, terms = parse_element_terms("(1 - z)*R[2,1]", N=3)
    assert terms == {(2, 1): 1 - z}
    _, terms = parse_element_terms("(-z)*R[1,2] + R[3]", N=3)
    assert terms == {(1, 2): -z, (3,): 1}
    with pytest.raises(ElementParseError):
        parse_element_terms("(1 - z)*R[2,1]")  # needs N


def test_parse_errors_carry_positions():
    with pytest.raises(ElementParseError) as info:
        parse_element_terms("")
    assert info.value.position == 0
    with pytest.raises(ElementParseError) as info:
        parse_element_terms("S[2] R[1]")
    assert info.value.position == 5
    with pytest.raises(ElementParseError):
        parse_element_terms("S[2,]")
    with pytest.raises(ElementParseError):
        parse_element_terms("2*")
    with pytest.raises(ElementParseError):
        parse_element_terms("S[0]")


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("S[1,,2]", "empty composition part", 4),
        ("2*R[3,]", "empty composition part", 6),
        ("S[ ,1]", "empty composition part", 2),
        ("R[1 2]", "composition part '1 2' is not a number", 2),
        ("S[2, 10  3]", "composition part '10  3' is not a number", 5),
        # A part read as a number but not a part is refused at the word.
        ("2*S[0]", "composition parts must be >= 1: (0,)", 2),
    ],
)
def test_composition_part_errors(text, message, position):
    with pytest.raises(ElementParseError) as info:
        parse_element_terms(text)
    assert (info.value.message, info.value.position) == (message, position)


def test_long_composition_part_is_a_typed_number():
    # Refused by the one number reader, with the digit count, at the part.
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(ElementParseError) as info:
        parse_element_terms("S[2," + "1" * digits + "]")
    assert info.value.position == 4
    assert info.value.message.startswith(f"a typed number has {digits} digits")
    with pytest.raises(ElementParseError) as info:
        composition_from_text(" [1,,2]", 10)
    assert info.value.position == 14


def test_mixed_basis_rejected():
    with pytest.raises(ElementParseError):
        parse_element_terms("S[2] + R[1,1]")
    with pytest.raises(ElementParseError):
        parse_element_terms("Sigma[2,1] - rho[1,1]")


def test_element_from_text():
    assert parse_element_terms("S[1,1] - 2*S[2]") == ("S", {(1, 1): 1, (2,): -2})
    # A literal with no word names no basis: the caller picks one.
    assert parse_element_terms("3") == (None, {(): 3})
    assert parse_element_terms("Sigma[2,1]") == ("Sigma", {(2, 1): 1})


def test_round_trip_through_str():
    cases = [
        R(1, 1, 1) + R(2, 1) - R(3),
        S(2) - S(1, 1).scale(Fraction(5, 3)),
        one("R") - R(1),
        R(2).scale(zeta(4)) + R(1, 1),
    ]
    for elt in cases:
        N = 4 if elt.coefficient((2,)) == zeta(4) else None
        assert parse_element_terms(str(elt), N) == (elt.basis, elt.terms)


def test_coords_to_text():
    text = coords_to_text({(2, 1, 1): 1, (3, 1): -1, (2, 2): -1}, "Sigma")
    assert text == "Sigma[2,1,1] - Sigma[3,1] - Sigma[2,2]"
    assert coords_to_text({}, "rho") == "0"
    assert coords_to_text({(1, 1, 1): -2}, "rho") == "-2*rho[1,1,1]"


def test_json_round_trip():
    elt = R(2, 1) - R(3).scale(Fraction(1, 2))
    obj = element_to_json(elt)
    assert obj["basis"] == "R"
    assert {"comp": [3], "coeff": {"num": -1, "den": 2}} in obj["terms"]
    assert terms_from_json(obj) == ("R", elt.terms)
    z = zeta(3)
    obj2 = terms_to_json("Sigma", {(2, 1): 1 - z})
    name, terms = terms_from_json(obj2)
    assert name == "Sigma" and terms == {(2, 1): 1 - z}
    with pytest.raises(ValueError):
        terms_from_json({"basis": "Q", "terms": []})


def test_parse_any_element():
    basis, terms = parse_any_element("R[2,1]")
    assert basis == "R" and terms == {(2, 1): 1}
    import json

    blob = json.dumps(element_to_json(S(2) + S(1, 1)))
    basis, terms = parse_any_element(blob)
    assert basis == "S" and terms == {(2,): 1, (1, 1): 1}
