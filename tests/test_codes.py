"""The integer codes of words against tuple oracles: the round trip, the
canonical and printed orders, the split poset's lower sets, the sums
over them one descent at a time and their inverse, and concatenation
and gluing in products, exhaustively up to weight 10 and on Hypothesis
draws up to weight 20."""

import itertools

from hypothesis import given, settings, strategies as st

from nsympeak.compositions import (
    code_display_key,
    compositions_of,
    decode,
    descent_set,
    encode,
    is_in_G,
    lower_codes,
    lower_forward,
    lower_inverse,
    lower_set,
)
from nsympeak.elements import NsymElement, R, S, multiply, one, zero
from oracles import (
    canonical_order_key,
    lower_set_by_parts,
    lower_sums_by_parts,
    ribbon_word_product,
)

MAX_WEIGHT = 10
WORDS = [I for n in range(MAX_WEIGHT + 1) for I in compositions_of(n)]
ORDERS = (None, 2, 3, 4, 5)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def words(draw, max_weight=20, max_parts=20):
    """A composition of weight <= max_weight with at most max_parts parts."""
    n = draw(st.integers(0, max_weight))
    parts, left = [], n
    while left and len(parts) < max_parts - 1:
        p = draw(st.integers(1, left))
        parts.append(p)
        left -= p
    return tuple(parts + [left] if left else parts)


# Every word of each weight with its descent set, in canonical order.
BY_WEIGHT = {
    n: [(J, descent_set(J)) for J in sorted(compositions_of(n), key=canonical_order_key)]
    for n in range(MAX_WEIGHT + 1)
}


def _lower_by_filter(I, N):
    """J of the weight of I with D(J) inside D(I) that keeps the descent
    after every part of I that is >= N (every descent may go when N is
    None), in canonical order."""
    di = descent_set(I)
    sums = itertools.accumulate(I)
    kept = {d for d, p in zip(sums, I) if N is not None and p >= N} & di
    return [J for J, dj in BY_WEIGHT[sum(I)] if kept <= dj <= di]


def test_round_trip_every_word():
    for I in WORDS:
        code = encode(I)
        assert decode(code) == I
        assert code.bit_length() == sum(I) and code.bit_count() == len(I)
    # Every int below 2^10 is the code of one word of weight <= 10.
    assert sorted(encode(I) for I in WORDS) == list(range(1 << MAX_WEIGHT))


def test_round_trip_wide_words():
    # Words of a dozen parts or fewer are peeled, longer ones split.
    for I in [(3000,), (1500, 1, 1499), (1,) * 12, (1,) * 13, (2,) * 1500,
              (1,) * 2999 + (2,), (7, 1) * 6 + (1,), (1000, 1) * 13]:
        code = encode(I)
        assert decode(code) == I
        assert code.bit_length() == sum(I) and code.bit_count() == len(I)


def test_orders_read_from_the_code():
    by_code = sorted(WORDS, key=encode)
    assert by_code == sorted(WORDS, key=canonical_order_key)
    by_display = sorted(WORDS, key=lambda I: code_display_key(encode(I)))
    weight_then_coarser = lambda I: (sum(I), -canonical_order_key(I)[1])
    assert by_display == sorted(WORDS, key=weight_then_coarser)


def test_lower_sets_every_word():
    for I in WORDS:
        for N in ORDERS:
            want = _lower_by_filter(I, N)
            assert lower_set_by_parts(I, N) == want
            assert [decode(J) for J in lower_codes(encode(I), N)] == want
            assert lower_set(I, N) == want


def _G_test(N):
    """The G family of order N (order 3 for N None) as a test on codes."""
    return lambda J: is_in_G(decode(J), N or 3)


def test_lower_sums_one_descent_at_a_time_every_word():
    # One word at a time, so each J below I shows its own sign; under the
    # G test a word outside G sums to nothing. lower_inverse undoes the sum.
    for N in ORDERS:
        in_G = _G_test(N)
        keep_tuple = lambda J: in_G(encode(J))
        for I in WORDS:
            code = encode(I)
            for sign in (1, -1):
                for keep, oracle_keep in ((None, None), (in_G, keep_tuple)):
                    got = lower_forward({code: 1}, N, sign, keep)
                    want = lower_sums_by_parts({I: 1}, N, sign, oracle_keep)
                    assert got == {encode(J): v for J, v in want.items()}
            assert lower_inverse(lower_forward({code: 1}, N), N) == {code: 1}


@st.composite
def word_values(draw):
    """{word: int} of mixed weights <= 12, values in [-2, 2] (zeros
    included), with the negated values of some words on a second word
    of their lower set, so that sums cancel."""
    values = draw(st.dictionaries(words(max_weight=12), st.integers(-2, 2), max_size=8))
    for I, v in list(values.items()):
        if draw(st.booleans()):
            J = draw(st.sampled_from(lower_set_by_parts(I)))
            values[J] = values.get(J, 0) - v
    return values


@PROPERTY
@given(word_values(), st.sampled_from(ORDERS), st.sampled_from((1, -1)), st.booleans())
def test_lower_forward_to_weight_12(values, N, sign, pruned):
    keep = _G_test(N) if pruned else None
    codes = {encode(I): v for I, v in values.items()}
    got = lower_forward(codes, N, sign, keep)
    want = lower_sums_by_parts(values, N, sign, keep and (lambda J: keep(encode(J))))
    assert got == {encode(J): v for J, v in want.items()}
    assert all(got.values())
    nonzero = {I: v for I, v in codes.items() if v}
    assert lower_inverse(lower_forward(codes, N), N) == nonzero


def test_products_every_pair():
    for I in WORDS:
        for J in WORDS:
            if sum(I) + sum(J) > MAX_WEIGHT:
                continue
            a, b = encode(I), encode(J)
            assert decode(a | b << sum(I)) == I + J
            assert set(multiply(S(*I), S(*J)).codes) == {encode(I + J)}
            ribbons = multiply(R(*I), R(*J)).codes
            assert list(ribbons) == list(map(encode, ribbon_word_product(I, J)))
            assert set(ribbons.values()) == {1}


def test_unit_and_empty_elements():
    assert encode(()) == 0 and decode(0) == ()
    assert lower_codes(0) == [0] and lower_codes(0, 2) == [0]
    assert one("S").codes == {0: 1} and one("R").terms == {(): 1}
    assert zero("R").codes == {} and str(zero("S")) == "0"
    for I in WORDS[:40]:
        for basis, word in (("S", S(*I)), ("R", R(*I))):
            assert multiply(one(basis), word) == word == multiply(word, one(basis))
            assert not multiply(zero(basis), word) and not multiply(word, zero(basis))
    assert str(NsymElement("R", {(): 3, (1,): -1})) == "3 - R[1]"


@PROPERTY
@given(words())
def test_round_trip_and_orders_to_weight_20(I):
    code = encode(I)
    assert decode(code) == I
    assert code.bit_length() == sum(I) and code.bit_count() == len(I)
    weight, mask = canonical_order_key(I)
    assert code == (mask | 1 << weight >> 1)


@PROPERTY
@given(words(max_parts=12), st.sampled_from(ORDERS))
def test_lower_sets_to_weight_20(I, N):
    assert [decode(J) for J in lower_codes(encode(I), N)] == lower_set_by_parts(I, N)


@PROPERTY
@given(words(), words())
def test_products_to_weight_20(I, J):
    a, b = encode(I), encode(J)
    assert decode(a | b << sum(I)) == I + J
    ribbons = multiply(R(*I), R(*J)).codes
    assert list(ribbons) == list(map(encode, ribbon_word_product(I, J)))
