"""Property tests: one-pass linear combinations and the peak round trips."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nsympeak.compositions import compositions_of
from nsympeak.elements import NsymElement, linear_combination, zero
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
from nsympeak.scalars import make_cyclotomic
from nsympeak.series import unit_series

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
