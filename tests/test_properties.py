"""Property tests: the scalar field axioms, the integer-numerator scalars
against the Fraction-tuple oracle, the integer zeta-column round trip,
the text and JSON round trips, one-pass linear combinations, the peak
round trips and the {-1, 0, 1} linear maps against their per-term
oracles, the transform against its S-word chain, and the internal
product against its summed-in-scalars oracles, with every coefficient
on the way an exact scalar."""

import json
import math
import re
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, given, settings, strategies as st

from nsympeak.compositions import compositions_of, lower_forward, lower_inverse
from nsympeak.descent import internal_product
from nsympeak.elements import (
    NsymElement,
    R,
    add_term,
    coords_to_text,
    linear_combination,
    multiply,
    one,
    r_to_s,
    s_to_r,
    zero,
)
from nsympeak.peak import (
    PeakContext,
    expand_rho_coords,
    expand_sigma_coords,
    membership,
    pi_N,
    rho_membership,
    sigma_lambda_N,
    tangent_element_series,
)
from nsympeak.series import Theta, series_inverse, theta_q
from nsympeak import scalars as scalar_module
from nsympeak.scalars import (
    CyclotomicNumber,
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
    zeta,
)
from nsympeak.textforms import (
    BASIS_NAMES,
    ElementParseError,
    composition_to_text,
    parse_element_terms,
    terms_from_json,
    terms_to_json,
)
from oracles import (
    FractionCyclotomic,
    expand_rho_per_term,
    expand_sigma_per_term,
    fraction_cyclotomic,
    internal_product_by_coefficient,
    membership_per_term,
    per_column,
    product_by_matrices,
    r_to_s_per_term,
    rho_membership_per_term,
    s_to_r_per_term,
    split_columns,
    theta_by_S_words,
)

MAX_WEIGHT = 6
CONTEXTS = {N: PeakContext(N) for N in (2, 3, 4)}
PACKED_CONTEXTS = {N: PeakContext(N) for N in (3, 5, 7, 12)}
PROPERTY = settings(max_examples=40, deadline=None)

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def scalars(N):
    """Rationals when N is 1, otherwise values of Q(zeta_N)."""
    if N == 1:
        return fractions
    return st.lists(fractions, min_size=1, max_size=3).map(
        lambda cs: make_cyclotomic(N, cs)
    )


FIELDS = (3, 4, 5, 7, 8, 12)


@st.composite
def zeta_polynomials(draw, count):
    """A conductor from FIELDS and count coefficient lists, some of them
    long enough to need reducing mod Phi_N."""
    N = draw(st.sampled_from(FIELDS))
    poly = st.lists(fractions, min_size=1, max_size=N + 1)
    return N, [draw(poly) for _ in range(count)]


def _product_by_long_division(N, a, b):
    """Coefficients of a*b mod Phi_N: the plain polynomial product
    reduced by long division, without the fold of the scalars module."""
    phi = cyclotomic_polynomial(N)
    d = len(phi) - 1
    prod = [Fraction(0)] * max(len(a) + len(b) - 1, d)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - len(phi), -1, -1):
        c = prod[k + d] / phi[d]
        for j, y in enumerate(phi):
            prod[k + j] -= c * y
    return prod[:d]


def _coefficients(x, N):
    if isinstance(x, CyclotomicNumber):
        return list(x.coeffs)
    return [x] + [Fraction(0)] * (euler_phi(N) - 1)


def compositions(n):
    return st.sampled_from(sorted(compositions_of(n)))


weights = st.integers(0, MAX_WEIGHT)


def elements(basis, coeffs, weight=None):
    comps = (
        weights.flatmap(compositions) if weight is None
        else compositions(weight)
    )
    return st.builds(
        NsymElement, basis, st.dictionaries(comps, coeffs, max_size=4)
    )


@st.composite
def combinations(draw):
    """A target basis and (element, coefficient) pairs over one field."""
    coeffs = scalars(draw(st.sampled_from([1, 3, 4])))
    pair = st.tuples(elements(st.sampled_from("SR"), coeffs), coeffs)
    return draw(st.sampled_from("SR")), draw(st.lists(pair, max_size=4))


@st.composite
def projections(draw):
    """pi_N of a random homogeneous S element, with its context."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    F = draw(elements(st.just("S"), fractions, draw(weights)))
    return ctx, pi_N(F, ctx)


@PROPERTY
@given(combinations())
def test_linear_combination_is_a_fold(combo):
    basis, pairs = combo
    folded = zero(basis)
    for F, c in pairs:
        folded = folded + F.scale(c)
    got = linear_combination(basis, pairs)
    assert got.basis == basis
    assert got.terms == folded.terms


@PROPERTY
@given(projections())
def test_sigma_round_trip(projection):
    ctx, x = projection
    coords = membership(x, ctx)
    assert coords is not None
    assert expand_sigma_coords(coords, ctx) == x
    # pi_N is the identity on the span, so each Sigma coordinate is the
    # S-word coefficient of the same index.
    S_terms = x.to_basis("S").terms
    assert coords == {V: c for V, c in S_terms.items() if ctx.in_G(V)}


@PROPERTY
@given(projections())
def test_rho_round_trip(projection):
    ctx, x = projection
    coords = rho_membership(x, ctx)
    assert coords is not None
    assert expand_rho_coords(coords, ctx) == x


@PROPERTY
@given(st.sampled_from(sorted(CONTEXTS)), st.integers(0, 9))
def test_sigma_N_is_one_minus_tangent_element(N, order):
    ctx = CONTEXTS[N]
    sig = sigma_lambda_N(ctx, order)[0]
    assert sig == one("R") - tangent_element_series(ctx, order)


@PROPERTY
@given(zeta_polynomials(3))
def test_field_axioms(drawn):
    N, polys = drawn
    x, y, z = (make_cyclotomic(N, p) for p in polys)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x - y == -(y - x)


@PROPERTY
@given(zeta_polynomials(1))
def test_inverse(drawn):
    N, (p,) = drawn
    x = make_cyclotomic(N, p)
    assume(x != 0)
    assert x * scalar_inv(x) == 1
    # Fraction and CyclotomicNumber divide exactly; an int does not (1 / 3
    # is a float), which is why the package divides with scalar_inv.
    assert Fraction(1) / x == scalar_inv(x)
    if type(x) is not int:
        assert 1 / x == scalar_inv(x)


@PROPERTY
@given(zeta_polynomials(1), fractions)
def test_cancelling_sum_demotes(drawn, r):
    N, (p,) = drawn
    x = make_cyclotomic(N, p)
    for value in (x + (r - x), (x + r) - x, (r + x) + (-x)):
        assert value == r
        if isinstance(x, CyclotomicNumber):
            _assert_canonical(value)
        else:  # Python's own sums of two rationals
            assert type(value) in (int, Fraction)


@PROPERTY
@given(zeta_polynomials(2))
def test_product_matches_long_division(drawn):
    N, (a, b) = drawn
    got = make_cyclotomic(N, a) * make_cyclotomic(N, b)
    assert _coefficients(got, N) == _product_by_long_division(N, a, b)


# The integer-numerator scalars against the Fraction-tuple oracle, with
# denominators that share factors so that sums and products reduce.
ORACLE_CONDUCTORS = (3, 4, 5, 8, 12)
oracle_fractions = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12, 35))
)


@st.composite
def oracle_pairs(draw, count):
    """A conductor and count (scalar, oracle) pairs of equal value, some
    rational, some from polynomials long enough to need reducing."""
    N = draw(st.sampled_from(ORACLE_CONDUCTORS))
    poly = st.lists(oracle_fractions, min_size=1, max_size=N + 1)
    polys = [draw(poly) for _ in range(count)]
    return N, [(make_cyclotomic(N, p), fraction_cyclotomic(N, p)) for p in polys]


def _coordinates(x, N):
    """The zeta-coordinates of a scalar or an oracle value, as Fractions."""
    if isinstance(x, (CyclotomicNumber, FractionCyclotomic)):
        assert x.N == N
        return tuple(x.coeffs)
    assert type(x) in (int, Fraction)
    return (Fraction(x),) + (Fraction(0),) * (euler_phi(N) - 1)


def _assert_canonical(x):
    """A rational is an int, or a Fraction with den > 1; an irrational
    has phi(N) int numerators, some above degree 0, over an int den > 0
    sharing no factor with them."""
    if type(x) is int:
        return
    if type(x) is Fraction:
        assert x.denominator > 1
        return
    assert type(x) is CyclotomicNumber
    assert len(x.nums) == euler_phi(x.N)
    assert all(type(v) is int for v in (x.den, *x.nums))
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert any(x.nums[1:])


def _agrees(got, want, N, made_here=True):
    """got has want's coordinates, and is in canonical form when the
    scalars module made it; Python's own arithmetic on two rationals may
    leave an integer as a Fraction."""
    if made_here:
        _assert_canonical(got)
    else:
        assert type(got) in (int, Fraction)
    assert is_rational(got) or type(want) is FractionCyclotomic
    assert _coordinates(got, N) == _coordinates(want, N)


@st.composite
def column_terms(draw):
    """{key: scalar} of ints, Fractions and zeros, and for one conductor
    among 3, 4, 5 and 12 (or none) values of Q(zeta_N) among them."""
    N = draw(st.sampled_from((None, 3, 4, 5, 12)))
    values = fractions.map(lambda f: f.numerator if f.denominator == 1 else f)
    if N is not None:
        values = st.one_of(values, scalars(N))
    return draw(st.dictionaries(st.integers(0, 40), values, max_size=8))


@PROPERTY
@given(column_terms(), st.integers(0, 16))
def test_split_join_round_trip(terms, steps):
    N, den, width, packed = split_terms(terms, steps)
    assert N == next(
        (c.N for c in terms.values() if isinstance(c, CyclotomicNumber)), None
    )
    # One int per key holds the oracle's columns over the same den, column
    # k from bit k * width, in whole bytes with room for steps doublings.
    N_, den_, parts = split_columns(terms)
    assert (N, den) == (N_, den_)
    assert type(den) is int and den >= 1
    assert all(type(x) is int for x in packed.values())
    assert {key for key, x in packed.items() if x} == set(chain.from_iterable(parts))
    if N is None:
        assert width is None and {k: x for k, x in packed.items() if x} == parts[0]
    else:
        top = max(abs(v) for part in parts for v in part.values())
        assert width % 8 == 0 and top.bit_length() + steps + 2 <= width
        for key, x in packed.items():
            assert x == sum(part.get(key, 0) << k * width for k, part in enumerate(parts))
    got = join_terms(N, den, width, packed)
    assert got == {k: v for k, v in terms.items() if v}
    for v in got.values():
        _assert_canonical(v)


# Every map the library runs on packed columns, with the number of
# passes it makes: the sums over the lower sets, signed, pruned to G and
# inverted, the rho push-forward and the rho expansion.
def _packed_maps(ctx):
    N, G = ctx.N, ctx._in_G
    return [
        (1, lambda v: lower_forward(v, None)),
        (1, lambda v: lower_forward(v, None, -1)),
        (1, lambda v: lower_forward(v, N)),
        (1, lambda v: lower_forward(v, N, -1)),
        (1, lambda v: lower_forward(v, N, 1, G)),
        (1, lambda v: lower_forward(v, N, -1, G)),
        (1, lambda v: lower_inverse(v, N)),
        (2, lambda v: lower_forward(lower_inverse(v, N), N, keep=G)),
        (2, lambda v: lower_forward(lower_forward(v, N, -1, G), N)),
    ]


# A value's sign by (word code, column): the same everywhere, by column,
# or (-1)^l(I), which makes every signed sum over a lower set add up.
SIGN_PATTERNS = {
    "plus": lambda I, k: 1,
    "minus": lambda I, k: -1,
    "column": lambda I, k: (-1) ** k,
    "length": lambda I, k: (-1) ** I.bit_count(),
}


@PROPERTY
@given(
    st.sampled_from((3, 5, 7, 12)),
    st.integers(1, 80),
    st.sampled_from(sorted(SIGN_PATTERNS) + ["random"]),
    st.randoms(use_true_random=False),
)
def test_packed_sums_equal_column_sums(N, b, pattern, rnd):
    # Worst-case magnitudes, +-(2^b - 1) in every column of every word of
    # weight <= 8 (the codes below 2^8), so the sums grow as far as the
    # width bound allows for.
    sign = SIGN_PATTERNS.get(pattern, lambda I, k: rnd.choice((-1, 1)))
    top = (1 << b) - 1
    terms = {
        I: make_cyclotomic(N, [sign(I, k) * top for k in range(euler_phi(N))])
        for I in range(1 << 8)
    }
    for passes, f in _packed_maps(PACKED_CONTEXTS[N]):
        N_, den, width, packed = split_terms(terms, passes * 8)
        assert join_terms(N_, den, width, f(packed)) == per_column(f, terms)


def test_packed_sums_at_a_large_conductor():
    # One term at N = 60060, phi(N) = 11520 columns of 20 bits.
    N, top = 60060, (1 << 20) - 1
    terms = {0b10111: make_cyclotomic(N, [top if k % 3 else -top for k in range(11520)])}
    for f in (lambda v: lower_forward(v, N, -1), lambda v: lower_inverse(v, N)):
        N_, den, width, packed = split_terms(terms, 5)
        got = join_terms(N_, den, width, f(packed))
        assert len(got) == 8 and got == per_column(f, terms)


# The rational operand: a Fraction object, or a plain int, -1, 0 and 1
# (the factors that return without a rebuild) among them.
oracle_rationals = st.one_of(
    oracle_fractions, st.sampled_from((-1, 0, 1)), st.integers(-12, 12)
)


@PROPERTY
@given(oracle_pairs(2), oracle_rationals, st.integers(-3, 3))
def test_arithmetic_matches_fraction_tuple_oracle(drawn, r, k):
    N, ((x, xo), (y, yo)) = drawn
    # An operation is the scalars module's when an operand is irrational.
    ox, oy = isinstance(x, CyclotomicNumber), isinstance(y, CyclotomicNumber)
    for got, want, made_here in (
        (x, xo, True), (-x, -xo, True), (-(-x), xo, True),
        (x + y, xo + yo, ox or oy), (x - y, xo - yo, ox or oy),
        (x * y, xo * yo, ox or oy), (x + r, xo + r, ox), (r - x, r - xo, ox),
        (x * r, xo * r, ox), (r * x, r * xo, ox), (r * y, r * yo, oy),
    ):
        _agrees(got, want, N, made_here)
    assert (x == y) == (_coordinates(x, N) == _coordinates(y, N))
    if x:
        want = xo.inverse() if isinstance(xo, FractionCyclotomic) else 1 / xo
        _agrees(scalar_inv(x), want, N)
    if x or k >= 0:
        _agrees(scalar_pow(x, k), xo ** k, N)


@PROPERTY
@given(oracle_pairs(3), oracle_fractions)
def test_equal_values_hash_equal(drawn, r):
    # Equal values reached by different routes have one canonical form.
    N, ((x, _), (y, _), (z, _)) = drawn
    routes = [
        ((x * y) * z, x * (y * z)),
        (x * (y + z), x * y + x * z),
        ((x + y) - y, x),
        ((x - r) + r, x),
        (x * r + y * r, (x + y) * r),
    ]
    if y:
        routes.append(((x * y) * scalar_inv(y), x))
    for a, b in routes:
        # A rational route may end in Python's own arithmetic, which can
        # leave an integer as a Fraction; it hashes as the int all the same.
        if isinstance(a, CyclotomicNumber):
            _assert_canonical(a)
        else:
            assert type(a) in (int, Fraction)
        assert a == b
        assert hash(a) == hash(b)
    # There is no raw constructor; a rational coordinate vector is built
    # as an int or a Fraction, which compares and hashes as the rational
    # it is.
    with pytest.raises(TypeError):
        CyclotomicNumber(N, [r])
    built = make_cyclotomic(N, [r])
    _assert_canonical(built)
    assert built == r
    assert hash(built) == hash(r)


def _cold_memo():
    scalar_module._memo.clear()
    scalar_module._memo_size = 0


def _run_ops(N, pool, ops):
    """Apply ops to a pool of (scalar, oracle) pairs, each result joining
    the pool, and check every result against the oracle's. A binary op
    runs in both orders, so x - r and r - x both meet the memo."""
    pool = list(pool)
    for op, i, j, r in ops:
        x = pool[i % len(pool)]
        y = (r, r) if j is None else pool[j % len(pool)]
        if op == "neg":
            pairs, f = [(x, x)], lambda a, _: -a
        else:
            pairs = [(x, y), (y, x)]
            f = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}[op]
        for (a, ao), (b, bo) in pairs:
            got, want = f(a, b), f(ao, bo)
            ours = isinstance(a, CyclotomicNumber) or isinstance(b, CyclotomicNumber)
            _agrees(got, want, N, ours)
            pool.append((got, want))
    return pool


@st.composite
def op_sequences(draw):
    """A conductor, three (scalar, oracle) pairs and a sequence of sums,
    differences, products and negations over them and their results,
    some with a rational operand on either side."""
    N = draw(st.sampled_from((3, 5, 7, 12)))
    poly = st.lists(oracle_fractions, min_size=1, max_size=N + 1)
    pool = [draw(poly) for _ in range(3)]
    step = st.tuples(
        st.sampled_from(("+", "-", "*", "neg")),
        st.integers(0, 40),
        st.none() | st.integers(0, 40),
        oracle_rationals,
    )
    return N, pool, draw(st.lists(step, min_size=1, max_size=16))


@PROPERTY
@given(op_sequences())
def test_memoized_arithmetic_matches_oracle(drawn):
    # Each sequence runs on an empty memo, again on the memo it left, and
    # on equal but distinct operands, which must find the same entries.
    N, polys, ops = drawn
    pool = [(make_cyclotomic(N, p), fraction_cyclotomic(N, p)) for p in polys]
    _cold_memo()
    cold = _run_ops(N, pool, ops)
    entries = len(scalar_module._memo)
    warm = _run_ops(N, pool, ops)
    rebuilt = [(make_cyclotomic(N, p), o) for p, (_, o) in zip(polys, pool)]
    assert all(
        a is not b for (a, _), (b, _) in zip(pool, rebuilt)
        if isinstance(a, CyclotomicNumber)
    )
    again = _run_ops(N, rebuilt, ops)
    assert [x for x, _ in cold] == [x for x, _ in warm] == [x for x, _ in again]
    assert len(scalar_module._memo) == entries  # the later runs only hit


class _CountingMemo(dict):
    """A memo dict that counts the times it is emptied."""

    emptied = 0

    def clear(self):
        self.emptied += 1
        super().clear()


def test_memo_stays_within_its_budget(monkeypatch):
    # Distinct values until the memo overflows, at a small conductor and
    # at N = 60060 (phi = 11,520: a third entry passes the budget), then
    # one operation whose entry alone is larger than the budget.
    budget = scalar_module.MEMO_BUDGET
    for N, count in ((7, budget // 16), (60060, 3)):
        memo = _CountingMemo()
        monkeypatch.setattr(scalar_module, "_memo", memo)
        monkeypatch.setattr(scalar_module, "_memo_size", 0)
        x, phi = zeta(N), euler_phi(N)
        for k in range(2, 2 + count):
            for op in (lambda: x * k, lambda: x + k, lambda: -(x * k)):
                op()
                assert scalar_module._memo_size <= budget
        assert memo.emptied >= 2
        # Each entry is charged phi numerators for each value it holds.
        assert scalar_module._memo_size == sum(len(key) * phi for key in memo)
    emptied = memo.emptied
    y = zeta(65537) + 1  # phi = 65,536
    assert (memo.emptied, memo, scalar_module._memo_size) == (emptied + 1, {}, 0)
    assert y == zeta(65537) + 1 and y is not zeta(65537) + 1


ROUND_TRIP_FIELDS = (1, 3, 4, 5)


@PROPERTY
@given(st.sampled_from(ROUND_TRIP_FIELDS).flatmap(
    lambda N: st.tuples(st.just(N), scalars(N))))
def test_scalar_text_and_json_round_trip(drawn):
    N, x = drawn
    for back in (
        scalar_from_text(scalar_to_text(x), N),
        scalar_from_json(json.loads(json.dumps(scalar_to_json(x)))),
    ):
        _assert_canonical(back)
        assert back == x


@st.composite
def element_terms(draw):
    """A conductor, a basis and the terms of an element of weight <= 5
    with at least one word besides the unit."""
    N = draw(st.sampled_from(ROUND_TRIP_FIELDS))
    comps = st.integers(0, 5).flatmap(compositions)
    terms = draw(st.dictionaries(comps, scalars(N), min_size=1, max_size=4))
    basis = draw(st.sampled_from("SR"))
    terms = NsymElement(basis, terms).terms
    assume(any(terms))
    return N, basis, terms


@PROPERTY
@given(element_terms())
def test_element_text_and_json_round_trip(drawn):
    N, basis, terms = drawn
    assert parse_element_terms(coords_to_text(terms, basis), N) == (basis, terms)
    as_json = json.loads(json.dumps(terms_to_json(basis, terms)))
    assert terms_from_json(as_json) == (basis, terms)


@st.composite
def printed(draw):
    """A printed scalar or element over one field, with its parser."""
    N, basis, terms = draw(element_terms())
    if draw(st.booleans()):
        text = scalar_to_text(draw(scalars(N)))
        return text, lambda text: scalar_from_text(text, N)
    return coords_to_text(terms, basis), lambda text: parse_element_terms(text, N)


@PROPERTY
@given(printed(), st.data())
def test_a_missing_sign_between_terms_is_refused(drawn, data):
    # Printed terms are joined by " + " or " - ", inside parentheses too;
    # with the sign deleted the two terms are juxtaposed, never summed.
    text, parse = drawn
    signs = [m.start() + 1 for m in re.finditer(r" [+-] ", text)]
    assume(signs)
    at = data.draw(st.sampled_from(signs))
    with pytest.raises(ElementParseError):
        parse(text[:at] + text[at + 1:])


@PROPERTY
@given(
    st.sampled_from(ROUND_TRIP_FIELDS).flatmap(lambda N: st.tuples(
        st.just(N),
        st.one_of(st.sampled_from((Fraction(1), Fraction(-1))), scalars(N)),
    )),
    st.sampled_from(BASIS_NAMES),
    st.integers(0, 4).flatmap(compositions),
)
def test_spaced_coefficient_times_word(drawn, name, comp):
    N, c = drawn
    coeff = scalar_to_text(c)
    if isinstance(c, CyclotomicNumber):
        coeff = f"({coeff})"
    word = name + composition_to_text(comp) if comp else "1"
    basis, terms = parse_element_terms(f"{coeff} * {word}", N)
    assert basis == (name if comp else None)
    assert terms == ({comp: c} if c else {})


# The integer zeta-component maps against their per-term oracles, over Q
# (field 1) and Q(zeta_N), with coefficients that cancel in the images.
ORACLE_FIELDS = (1, 3, 4, 5, 8)
assorted = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7, 12))
)


def mixed_scalars(N):
    """Rationals with assorted denominators, and over Q(zeta_N) also
    irrational values (N is 1 for Q alone)."""
    if N == 1:
        return assorted
    irrational = st.lists(assorted, min_size=2, max_size=euler_phi(N)).map(
        lambda cs: make_cyclotomic(N, cs)
    )
    return st.one_of(assorted, irrational)


@st.composite
def cancelling_terms(draw, words, N):
    """{word: scalar} made of single terms and of pairs c*I - c*J, whose
    images share words that cancel."""
    terms = {}
    for I, c in draw(st.lists(st.tuples(words, mixed_scalars(N)), max_size=3)):
        add_term(terms, I, c)
    for I, J, c in draw(
        st.lists(st.tuples(words, words, mixed_scalars(N)), max_size=3)
    ):
        add_term(terms, I, c)
        add_term(terms, J, -c)
    return terms


def _assert_exact_coefficients(*found):
    """Each coefficient of the elements or coordinate dicts found is in
    its one canonical form (``_assert_canonical``): an int, a Fraction
    with denominator > 1 or an irrational CyclotomicNumber, never a float,
    a bool or an integer-valued Fraction."""
    for F in found:
        terms = F.codes if isinstance(F, NsymElement) else F or {}
        for c in terms.values():
            _assert_canonical(c)


def _exact(coords):
    """coords with each scalar as its JSON form, so the type and the
    conductor are compared too."""
    if coords is None:
        return None
    return {comp: scalar_to_json(c) for comp, c in coords.items()}


@PROPERTY
@given(st.sampled_from(ORACLE_FIELDS).flatmap(
    lambda N: cancelling_terms(weights.flatmap(compositions), N)))
def test_basis_changes_match_per_term_oracle(terms):
    for basis, fast, oracle in (
        ("S", s_to_r, s_to_r_per_term),
        ("R", r_to_s, r_to_s_per_term),
    ):
        F = NsymElement(basis, terms)
        got, want = fast(F), oracle(F)
        assert got.basis == want.basis
        assert _exact(got.terms) == _exact(want.terms)


@PROPERTY
@given(st.data())
def test_peak_maps_match_per_term_oracle(data):
    ctx = CONTEXTS[data.draw(st.sampled_from(sorted(CONTEXTS)))]
    N = data.draw(st.sampled_from(ORACLE_FIELDS))
    n = data.draw(weights)
    coords = data.draw(cancelling_terms(st.sampled_from(ctx.G(n)), N))
    for fast, oracle in (
        (expand_sigma_coords, expand_sigma_per_term),
        (expand_rho_coords, expand_rho_per_term),
    ):
        got, want = fast(coords, ctx), oracle(coords, ctx)
        _assert_exact_coefficients(got)
        assert _exact(got.terms) == _exact(want.terms)
    inside = expand_sigma_coords(coords, ctx)
    stray = R(*data.draw(compositions(n))).scale(data.draw(mixed_scalars(N)))
    # A stray ribbon times zeta lies in the zeta^1 component alone.
    tilted = inside + stray.scale(zeta(N))
    for F in (inside, inside + stray, tilted, tilted.to_basis("S")):
        for fast, oracle in (
            (membership, membership_per_term),
            (rho_membership, rho_membership_per_term),
        ):
            got = fast(F, ctx)
            _assert_exact_coefficients(got)
            assert _exact(got) == _exact(oracle(F, ctx))


# q with the conductors of the coefficients it may meet: a rational q
# meets any field, zeta_N only Q and Q(zeta_N).
TRANSFORM_QS = [
    (2, ORACLE_FIELDS), (Fraction(1, 2), ORACLE_FIELDS),
    (-1, ORACLE_FIELDS), (1, ORACLE_FIELDS), (0, ORACLE_FIELDS),
    (-3, ORACLE_FIELDS), (Fraction(5, 7), ORACLE_FIELDS),
    (zeta(3), (1, 3)), (zeta(4), (1, 4)),
]


@PROPERTY
@given(st.data())
def test_transform_matches_the_S_word_chain(data):
    q, fields = data.draw(st.sampled_from(TRANSFORM_QS))
    N = data.draw(st.sampled_from(fields))
    terms = data.draw(cancelling_terms(weights.flatmap(compositions), N))
    F = NsymElement(data.draw(st.sampled_from("SR")), terms)
    want = theta_by_S_words(F, q, 1 - q)
    for basis in "SR":
        got = theta_q(F, q, basis)
        assert got.basis == basis
        _assert_exact_coefficients(got, F.to_basis(basis))
        assert _exact(got.to_basis("S").terms) == _exact(want.terms)
    # The other operations on the same coefficients stay exact too.
    unit = F - F.homogeneous_component(0) + one("S")
    _assert_exact_coefficients(
        multiply(F, F), internal_product(F, F), series_inverse(unit, MAX_WEIGHT)
    )
    if N in (1, 3, 4):
        root = N if N > 1 else data.draw(st.sampled_from((1, 2, 3, 4)))
        want = theta_by_S_words(F, zeta(root), 1)
        for basis in "SR":
            assert Theta(F, root, basis) == want


# The internal product sums packed integer zeta-columns; its oracles sum
# scalars, one with the S words grouped by coefficient and one over every
# pair of S words by listed matrices.
INTERNAL_DENOMINATORS = (1, 2, 3, 7, 12)
INTERNAL_WEIGHT = 5


@st.composite
def internal_coefficients(draw, N):
    """A rational over one of INTERNAL_DENOMINATORS, or with N a value of
    Q(zeta_N) whose zeta^k coordinate is such a rational (k >= 1)."""
    def rational():
        return Fraction(draw(st.integers(-9, 9).filter(bool)),
                        draw(st.sampled_from(INTERNAL_DENOMINATORS)))
    if N is None:
        return rational()
    k = draw(st.integers(1, euler_phi(N) - 1))
    return rational() * scalar_pow(zeta(N), k) + draw(st.sampled_from((0, 1))) * rational()


@st.composite
def internal_operand(draw, N, weights):
    """An operand at the given weights: in R mostly one ribbon per
    weight, some of them long enough to be taken in their other form; in
    S one to three words per weight."""
    basis = draw(st.sampled_from("RS"))
    terms = {}
    for n in weights:
        comps = sorted(compositions_of(n))
        if basis == "R" and draw(st.integers(0, 2)):
            # A lone ribbon of at least (n + 2) / 2 parts is flipped.
            long = [I for I in comps if 2 * len(I) > n + 1] or comps
            chosen = [draw(st.sampled_from(long))]
        else:
            chosen = draw(st.lists(st.sampled_from(comps), min_size=1, max_size=3, unique=True))
        for I in chosen:
            terms[I] = draw(internal_coefficients(N))
    return NsymElement(basis, terms)


@st.composite
def internal_pairs(draw):
    """(F, G): homogeneous or not, rational or with zeta_3, zeta_5 or
    zeta_7 on one side or both, and sometimes with a weight m at which
    F * G cancels to zero, alone or beside other weights:
    (S^(1^m) - m! S^(m)) * S^(1^m) = 0, since S^(m) is the unit of
    weight m and S^(1^m) * S^(1^m) = m! S^(1^m)."""
    N = draw(st.sampled_from((None, 3, 5, 7)))
    sides = draw(st.sampled_from(((True, False), (False, True), (True, True))))
    if N is None:
        sides = (False, False)
    f_field, g_field = (N if side else None for side in sides)
    m = draw(st.integers(1, 4))
    ones = NsymElement("S", {(1,) * m: 1})
    cancelling = (ones - NsymElement("S", {(m,): math.factorial(m)})).scale(
        draw(internal_coefficients(f_field)))
    ones = ones.scale(draw(internal_coefficients(g_field)))
    mode = draw(st.sampled_from(
        ("homogeneous",) * 3 + ("inhomogeneous",) * 2 + ("cancels", "cancels at m")))
    if mode == "cancels":
        return tuple(X.to_basis(draw(st.sampled_from("RS"))) for X in (cancelling, ones))
    if mode == "homogeneous":
        f_weights = g_weights = [draw(st.integers(0, INTERNAL_WEIGHT))]
    else:
        some = st.lists(st.integers(0, INTERNAL_WEIGHT), min_size=1, max_size=3, unique=True)
        f_weights, g_weights = draw(some), draw(some)
    F = draw(internal_operand(f_field, f_weights))
    G = draw(internal_operand(g_field, g_weights))
    if mode == "cancels at m" and m not in f_weights and m not in g_weights:
        F, G = F + cancelling, G + ones
    return F, G


@settings(max_examples=100, deadline=None)
@given(internal_pairs())
def test_internal_product_matches_its_oracles(pair):
    F, G = pair
    got = internal_product(F, G)
    assert got.basis == "R"
    _assert_exact_coefficients(got)
    want = internal_product_by_coefficient(F, G)
    assert _exact(got.terms) == _exact(want.terms)
    assert got == product_by_matrices(F, G)


def test_internal_product_of_wide_coefficients():
    # 200-bit coordinates on both sides: each field of a product of two
    # packed values needs about 400 bits, and at weight 1 the width has
    # no byte to spare, so one byte less carries between fields.
    big = (1 << 200) - 1
    z = zeta(3)
    for a, b in (
        (big * (1 + z), big * (1 - z)),
        (big * z, Fraction(big, 7) * (z - 1)),
        (Fraction(big, 12) + big * z, big),
    ):
        for F, G in (
            (NsymElement("S", {(1,): a}), NsymElement("R", {(1,): b})),
            (NsymElement("R", {(1, 2): a, (1,): b}), NsymElement("R", {(2, 1): b, (1,): a})),
            (NsymElement("R", {(1, 1, 2): a}), NsymElement("S", {(2, 2): b, (1, 3): a})),
        ):
            got = internal_product(F, G)
            _assert_exact_coefficients(got)
            assert _exact(got.terms) == _exact(internal_product_by_coefficient(F, G).terms)
            assert got == product_by_matrices(F, G)
