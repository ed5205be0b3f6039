"""Property tests: the scalar field axioms, the text and JSON round trips,
one-pass linear combinations and the peak round trips."""

import json
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from nsympeak.compositions import compositions_of
from nsympeak.elements import NsymElement, coords_to_text, linear_combination, zero
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
from nsympeak.scalars import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    make_cyclotomic,
    scalar_from_json,
    scalar_from_text,
    scalar_inv,
    scalar_to_json,
    scalar_to_text,
)
from nsympeak.series import unit_series
from nsympeak.textforms import parse_element_terms, terms_from_json, terms_to_json

MAX_WEIGHT = 6
CONTEXTS = {N: PeakContext(N) for N in (2, 3, 4)}
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
    assert sig == unit_series(order) - tangent_element_series(ctx, order)


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
    assert 1 / x == scalar_inv(x)


@PROPERTY
@given(zeta_polynomials(1), fractions)
def test_cancelling_sum_demotes(drawn, r):
    N, (p,) = drawn
    x = make_cyclotomic(N, p)
    for value in (x + (r - x), (x + r) - x, (r + x) + (-x)):
        assert type(value) is Fraction
        assert value == r


@PROPERTY
@given(zeta_polynomials(2))
def test_product_matches_long_division(drawn):
    N, (a, b) = drawn
    got = make_cyclotomic(N, a) * make_cyclotomic(N, b)
    assert _coefficients(got, N) == _product_by_long_division(N, a, b)


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
        assert type(back) is type(x)
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
