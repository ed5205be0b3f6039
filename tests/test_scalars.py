"""Exact scalar arithmetic: rationals and cyclotomic numbers."""

import random
from fractions import Fraction

import pytest

from nsympeak import scalars
from nsympeak.scalars import (
    CapacityError,
    CyclotomicNumber,
    check_limit,
    cyclotomic_polynomial,
    euler_phi,
    is_rational,
    join_terms,
    make_cyclotomic,
    _z_polynomial,
    read_signed_sum,
    scalar_from_json,
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
        assert _z_polynomial(read_signed_sum(text), N) == x


def test_text_form_examples():
    assert scalar_to_text(Fraction(1, 2)) == "1/2"
    # A sum that lands on an integer is read as the int.
    assert type(_z_polynomial(read_signed_sum("1/2 + 1/2"), None)) is int
    assert scalar_to_text(zeta(3)) == "z"
    assert scalar_to_text(1 - zeta(3)) == "1 - z"
    assert _z_polynomial(read_signed_sum("1/2 - z + z^2"), 5) == make_cyclotomic(
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
    # One plain column, no width: integer input is handed over as a copy,
    # zeros kept, so a map may consume it and leave terms as it was.
    assert (N, den, width) == (None, 1, None)
    assert packed == terms and packed is not terms
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


def _segments(x, count, phi, width):
    """The stacked int x read back as count segments of phi signed fields
    of width bits each, segment by segment: the oracle of the layout."""
    half = 1 << width - 1
    fields = count * phi
    x += sum(half << k * width for k in range(fields))
    values = [(x >> k * width & (1 << width) - 1) - half for k in range(fields)]
    return [values[i:i + phi] for i in range(0, fields, phi)]


def _stack(items):
    """stack_terms(items) read as (count, rows, nonzero): the number of
    items (the flags of clear over no ints, all True), the rows, and for
    one int the items whose segment of it is not zero, off clear."""
    rows, clear = stack_terms(items)

    def nonzero(x):
        return [i for i, ok in enumerate(clear([x])) if not ok]

    assert all(clear([]))
    return len(clear([])), rows, nonzero


def test_stack_terms_lays_splits_side_by_side():
    z = zeta(3)
    a = {1: 1 + z, 3: -2}
    b = {3: Fraction(1, 2), 5: 7}
    c = {3: (1 << 40) * z}
    # One stack, one layout: over the common denominator 2 the largest
    # column is 2^41, so every segment is two fields of 48 bits (96 bits).
    assert [split_terms(t)[2] for t in (a, b, c)] == [8, None, 48]
    count, rows, _ = _stack([({"R": b}, 3), ({"R": c}, 0)])
    assert count == 2
    # |2^41| and three steps still fit 48 bits.
    assert rows["R"][3] == 1 + ((1 << 41 + 48) << 96)
    count, rows, nonzero = _stack(iter([({"R": a}, 0), ({"R": b}, 2), ({"R": c}, 0)]))
    assert count == 3
    stacked = rows["R"]
    assert stacked == {
        1: 2 + (2 << 48),
        3: -4 + (1 << 96) + ((1 << 41 + 48) << 192),
        5: 14 << 96,
    }
    assert [_segments(x, 3, 2, 48) for x in stacked.values()] == [
        [[2, 2], [0, 0], [0, 0]],
        [[-4, 0], [1, 0], [0, 1 << 41]],
        [[0, 0], [14, 0], [0, 0]],
    ]
    assert [nonzero(x) for x in stacked.values()] == [[0], [0, 1, 2], [1]]
    assert nonzero(0) == []
    assert nonzero(-1 << 192) == [2]
    # Segment i starts at a fixed stride of i * 96 bits.
    assert [nonzero(1 << 96 * i) for i in range(3)] == [[0], [1], [2]]
    # The top field of segment 0 at either end of its signed range.
    assert nonzero(((1 << 47) - 1) << 48) == [0] and nonzero(-1 << 95) == [0]
    # clear flags an item only when its segment is zero in every int: over
    # some ints, over all of them, over an iterator of them.
    _, clear = stack_terms(iter([({"R": a}, 0), ({"R": b}, 2), ({"R": c}, 0)]))
    assert clear([stacked[1], stacked[5]]) == [False, False, True]
    assert clear(stacked.values()) == [False, False, False]
    assert clear(iter([0, -1 << 192, 0])) == [True, True, False]
    # A stack of one is laid as any other and equals split_terms' packed.
    for terms in (a, b):
        count, rows, nonzero = _stack([({"R": terms}, 2)])
        assert (count, rows) == (1, {"R": split_terms(terms, 2)[3]})
        assert [nonzero(x) for x in rows["R"].values()] == [[0], [0]]
        assert nonzero(0) == []
    count, rows, nonzero = _stack([])
    assert (count, rows, nonzero(0)) == (0, {}, [])


def test_stack_terms_lays_each_side_in_one_layout():
    z = zeta(3)
    a = {1: 1 + z, 3: -2}
    b = {3: Fraction(1, 2), 5: 7}
    c = {3: (1 << 40) * z}
    # The segments follow the order of the items, whatever their sides.
    count, rows, nonzero = _stack([({"S": a}, 0), ({"R": b}, 2), ({"S": c}, 0)])
    assert count == 3
    assert rows == {
        "S": {1: 2 + (2 << 48), 3: -4 + ((1 << 41 + 48) << 192)},
        "R": {3: 1 << 96, 5: 14 << 96},
    }
    # Each segment is nonzero on one side only, so the sides' sum on a
    # key is the stack of all three items there, with no carry.
    total = {k: rows["S"].get(k, 0) + rows["R"].get(k, 0) for k in (1, 3, 5)}
    one_side, _ = stack_terms([({"R": a}, 0), ({"R": b}, 2), ({"R": c}, 0)])
    assert total == one_side["R"]
    assert [nonzero(x) for x in total.values()] == [[0], [0, 1, 2], [1]]
    assert nonzero(rows["S"][3]) == [0, 2] and nonzero(rows["R"][3]) == [1]
    # A side that no item takes has no row dict.
    count, rows, nonzero = _stack([({"S": c}, 0), ({"S": a}, 0)])
    assert count == 2 and "R" not in rows
    assert rows["S"] == {1: (1 + (1 << 48)) << 96, 3: (1 << 40 + 48) - (2 << 96)}
    assert nonzero(rows["S"][1]) == [1]
    # Both sides of one item land in its one segment.
    count, rows, nonzero = _stack(
        [({"S": c}, 0), ({"S": {1: 1 + z}, "R": {1: -2, 3: 5}}, 0)]
    )
    assert count == 2
    assert rows["S"] == {3: 1 << 40 + 48, 1: (1 + (1 << 48)) << 96}
    assert rows["R"] == {1: -2 << 96, 3: 5 << 96}
    assert nonzero(rows["R"][3]) == [1]


def test_stack_terms_shares_one_denominator_and_width():
    z = zeta(5)
    count, rows, nonzero = _stack(
        [
            ({"a": {1: Fraction(1, 2)}}, 8),
            ({"b": {1: z / 3, 2: (1 << 30) * z}, "c": {}}, 0),
        ]
    )
    # One conductor, the least common denominator of every item and the
    # width of the largest value in the stack: 6 * 2^30 has 33 bits, the
    # largest steps, another item's, are 8, and two more take 43 bits, so
    # 48; a segment is phi(5) = 4 fields, 192 bits.
    assert count == 2 and rows["c"] == {}
    assert rows["a"] == {1: 3}
    assert rows["b"] == {1: 2 << 48 << 192, 2: (6 << 30) << 48 << 192}
    assert nonzero(1 << 190) == [0] and nonzero(1 << 192) == [1]
    assert _segments(rows["b"][2], 2, 4, 48) == [[0] * 4, [0, 6 << 30, 0, 0]]
    # Over Q with integer values each side keeps its own keys, and a
    # stack of one holds the integers themselves.
    count, rows, _ = _stack([({"a": {1: 2, 3: -1}, "b": {1: 2}}, 0)])
    assert (count, rows) == (1, {"a": {1: 2, 3: -1}, "b": {1: 2}})
    count, rows, nonzero = _stack([({}, 0)])
    assert (count, rows, nonzero(0)) == (1, {}, [])


def test_stack_terms_lays_a_rational_over_every_field():
    z = zeta(5)
    # Over den 2 the largest column is 6: 8-bit fields, 32-bit segments.
    items = [({"R": {1: Fraction(1, 2)}}, 0), ({"R": {1: z}}, 0), ({"R": {2: 3}}, 0)]
    count, rows, nonzero = _stack(items)
    assert count == 3
    # A rational is column 0 followed by phi(5) - 1 zero fields, so the
    # next segment starts one stride, 32 bits, later.
    assert rows["R"] == {1: 1 + (2 << 8 << 32), 2: 6 << 64}
    assert [_segments(x, 3, 4, 8) for x in rows["R"].values()] == [
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [6, 0, 0, 0]],
    ]
    assert nonzero(rows["R"][1]) == [0, 1] and nonzero(rows["R"][2]) == [2]
    assert nonzero(-1 << 64) == [2] and nonzero(rows["R"][1] - 1) == [1]


def test_stack_terms_of_fresh_equal_scalars_matches_each_split():
    z = zeta(5)

    def items():
        # Each value is made afresh, so equal values are distinct objects
        # and an object freed once its item is read may hand its id on.
        for k in range(40):
            x = make_cyclotomic(5, [k % 3, 1, Fraction(1, 1 + k % 2)])
            y = make_cyclotomic(5, [k % 3, 1, Fraction(1, 1 + k % 2)])
            if k % 4 == 0:
                y = y + z
            yield {"x": {k % 7: x, 9: k % 5}, "y": {k % 7: y, 9: k % 5}}, 0

    want = list(items())
    rows, clear = stack_terms(items())
    assert len(clear([])) == 40
    same = clear(x - rows["y"][key] for key, x in rows["x"].items())
    assert {k for k, ok in enumerate(same) if not ok} == {k for k in range(40) if k % 4 == 0}
    # Read back over the common denominator 2 (8-bit fields: the largest
    # column is 8), each segment holds its item's values: what split_terms
    # writes for the item alone.
    for key, x in rows["x"].items():
        for i, fields in enumerate(_segments(x, 40, 4, 8)):
            alone = join_terms(*split_terms(want[i][0]["x"]))
            assert make_cyclotomic(5, [Fraction(v, 2) for v in fields]) == alone.get(key, 0)


@pytest.mark.parametrize("N", [2, 5])
def test_stack_terms_packs_each_distinct_value_once(monkeypatch, N):
    # Values made afresh are distinct objects even when equal (products of
    # ints over Q make new ints), so the stack keys them by value: the one
    # split sees each distinct value once, and the rows are those of a
    # stack whose equal values are one object.
    big, z = 1 << 70, zeta(N)
    shared = [-big, 0, big]

    def items(fresh):
        for i in range(20):
            one = make_cyclotomic(N, [0, 1]) if fresh else z
            ints = [(k % 3 - 1) * big if fresh else shared[k % 3] for k in range(30)]
            yield {"R": dict(enumerate(ints)), "S": {k: one * (i % 2 + 1) for k in range(5)}}, i

    def values(fresh):
        return [c for sided, _ in items(fresh) for t in sided.values() for c in t.values()]

    assert len({id(c) for c in values(True)}) > 5 == len(set(values(True)))
    sizes = []
    split = scalars.split_terms

    def counted(terms, steps=0):
        sizes.append(len(terms))
        return split(terms, steps)

    monkeypatch.setattr(scalars, "split_terms", counted)
    rows, clear = stack_terms(items(True))
    assert sizes == [5] and len(clear([])) == 20
    assert (rows, sizes) == (stack_terms(items(False))[0], [5, 5])


def _random_terms(rng, N, size):
    z = zeta(N)
    values = [1, -1, 2, Fraction(1, 3), z, 1 - z, z * z - Fraction(3, 2), -z]
    return {rng.randrange(1, 64): rng.choice(values) for _ in range(size)}


def test_stack_terms_two_sides_cancel_exactly_when_equal():
    rng = random.Random(31)
    z = zeta(5)
    top = (1 << 198) - 1  # 198 bits: at steps 0 the width is 200, no byte slack
    pairs = [
        ({1: top, 2: z}, {1: top, 2: z}),
        ({1: top * z}, {1: -top * z}),  # a difference of 2^199 - 2, just inside
        ({1: top, 3: -top}, {1: top, 3: -top + 1}),
        ({}, {}),  # both sides empty
        ({}, {4: 1}),  # an empty side against a term
        ({4: z}, {}),
        ({2: Fraction(1, 2), 3: 7}, {2: Fraction(1, 2), 3: 7}),  # a rational column
        ({2: Fraction(1, 2)}, {2: Fraction(1, 3)}),
        ({5: 1 - z}, {5: 1 - z, 6: z}),  # a key on one side only
    ]
    for _ in range(40):
        terms = _random_terms(rng, 5, rng.randrange(0, 8))
        other = dict(terms)
        if terms and rng.random() < 0.5:
            key = rng.choice(list(terms))
            other[key] = other[key] + rng.choice([1, z, Fraction(1, 7)])
            if not other[key]:
                del other[key]
        pairs.append((terms, other))
    steps = 0
    # The first six share the denominator 1: there the 198-bit values
    # take the width to exactly 200 bits, four fields a 800-bit segment.
    for cut in (pairs[:6], pairs[:9], pairs, pairs[::-1]):
        items = [({"x": a, "y": b}, steps) for a, b in cut]
        count, rows, nonzero = _stack(iter(items))
        assert count == len(cut)
        diff = dict(rows.get("x", {}))
        for key, x in rows.get("y", {}).items():
            diff[key] = diff.get(key, 0) - x
        differ = set()
        for x in diff.values():
            differ.update(nonzero(x))
        assert differ == {i for i, (a, b) in enumerate(cut) if a != b}
        _, clear = stack_terms(iter(items))
        assert clear(diff.values()) == [a == b for a, b in cut]
        if cut == pairs[:6]:
            assert [nonzero(1 << 800 * i) for i in range(6)] == [[i] for i in range(6)]
            assert nonzero(((1 << 199) - 1) << 600) == [0] and nonzero(-1 << 799) == [0]
            assert _segments(diff[1], 6, 4, 200)[1] == [0, (1 << 199) - 2, 0, 0]
    assert len({a == b for a, b in pairs[9:]}) == 2  # both outcomes drawn


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
        stack_terms((({"R": {0: c}}, 0) for c in values))
    # And one item of two conductors is refused as split_terms refuses it.
    with pytest.raises(ValueError, match=message):
        stack_terms([({"S": {}, "R": dict(enumerate(values))}, 0)])
