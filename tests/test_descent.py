"""Tests for the internal product, against a permutation oracle.

The oracle buckets all of S_n by descent composition and multiplies
class sums permutation by permutation, (s t)(i) = s(t(i)).  It shares no
code with the matrix formula in ``nsympeak.descent``, and it is only
affordable up to weight 7.  The matrix formula's word products are also
checked against ``oracles.word_product_by_matrices``, which lists every
matrix with the given row sums instead of choosing rows one at a time.
"""

import collections
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsympeak.compositions import compositions_of, decode, descent_set, encode
from nsympeak import descent, elements
from nsympeak.descent import MAX_WORD_PAIRS, CapacityError, internal_product
from nsympeak.elements import NsymElement, R, S, linear_combination, one, zero
from nsympeak.peak import PeakContext, rho_basis, rho_membership
from nsympeak.scalars import zeta
from nsympeak.series import psi

from oracles import (
    conjugate,
    descent_composition,
    product_by_matrices as _product_by_matrices,
    word_product_by_matrices,
)


@functools.cache
def _classes(n):
    """All of S_n bucketed by descent composition."""
    buckets = collections.defaultdict(list)
    for perm in itertools.permutations(range(1, n + 1)):
        buckets[descent_composition(perm)].append(perm)
    return dict(buckets)


def _class_product(I, J):
    """{K: c} with (class sum of I)(class sum of J) = sum of c * class sum of K.

    Each permutation of a class K is hit the same number of times, so the
    coefficient of K is the pair count landing in K over the size of K.
    """
    classes = _classes(sum(I))
    tally = collections.Counter()
    for s in classes[I]:
        for t in classes[J]:
            tally[descent_composition(tuple(s[x - 1] for x in t))] += 1
    out = {}
    for K, hits in tally.items():
        c, rem = divmod(hits, len(classes[K]))
        assert rem == 0, f"class product left the descent algebra at {I}, {J}"
        out[K] = c
    return out


def test_descent_class_sizes_weight_3():
    sizes = {I: len(_classes(3)[I]) for I in compositions_of(3)}
    assert sizes == {(3,): 1, (2, 1): 2, (1, 2): 2, (1, 1, 1): 1}
    assert _classes(3)[(3,)] == [(1, 2, 3)]


def test_descent_class_sizes_sum_to_factorial():
    for n in range(1, 6):
        assert sum(len(c) for c in _classes(n).values()) == math.factorial(n)


def test_agrees_with_permutation_oracle():
    # R_I * R_J is the class product of J by I: the correspondence with
    # class sums reverses products.
    pairs = [
        (I, J)
        for n in range(1, 7)
        for I in compositions_of(n)
        for J in compositions_of(n)
    ]
    assert len(pairs) == 1365
    pairs += [
        ((3, 4), (2, 5)),
        ((2, 2, 3), (1, 3, 3)),
        ((1, 2, 1, 3), (4, 3)),
        ((1, 1, 1, 1, 1, 1, 1), (3, 1, 3)),
    ]
    for I, J in pairs:
        assert internal_product(R(*I), R(*J)) == NsymElement(
            "R", _class_product(J, I)
        ), (I, J)


def test_internal_product_weight_3_values():
    assert internal_product(R(2, 1), R(2, 1)) == R(1, 1, 1) + R(1, 2) + R(3)
    assert internal_product(R(1, 2), R(2, 1)) == R(1, 1, 1) + R(1, 2) + R(3)
    assert internal_product(R(2, 1), R(1, 2)) == R(1, 1, 1) + R(2, 1) + R(3)
    # The class of (1,1,1) is the single reversal permutation, an
    # involution, so its square is the identity class.
    assert internal_product(R(1, 1, 1), R(1, 1, 1)) == R(3)


def test_identity_class():
    # The one-part word is the class of the identity permutation, a
    # two-sided unit within its weight.
    for n in range(1, 6):
        for I in compositions_of(n):
            assert internal_product(R(*I), R(n)) == R(*I)
            assert internal_product(R(n), R(*I)) == R(*I)
    assert internal_product(S(3), R(2, 1)) == R(2, 1)


def test_weight_zero_and_cross_weight():
    assert internal_product(one("S"), one("S")) == one("R")
    assert internal_product(one("R"), one("R") + R(1)) == one("R")
    # Components of different weights multiply to zero.
    assert internal_product(R(2), R(3)) == zero("R")
    f = R(2, 1) + R(1, 1)
    g = R(3) + R(2)
    assert internal_product(f, g) == R(1, 1) + R(2, 1)


def _assert_clean(F):
    """F's codes are what the constructor makes of its terms: an int for
    every integer value, and no zero value."""
    rebuilt = NsymElement(F.basis, dict(F.terms)).codes
    assert F.codes == rebuilt
    assert all(type(v) is type(rebuilt[K]) for K, v in F.codes.items())
    assert all(F.codes.values())


def test_bilinearity():
    # Over Q and over Q(z): the scalars and the operands' coefficients.
    z = zeta(3)
    for a, b in ((Fraction(3, 7), 2), (z, z + 2)):
        f, g = R(2, 1) + R(3).scale(b), R(1, 1, 1) - R(1, 2)
        lhs = internal_product(f.scale(a), g)
        assert lhs == internal_product(f, g).scale(a)
        assert lhs == internal_product(f, g.scale(a))
        h = R(2, 1) + S(1, 2).scale(a * a)
        assert internal_product(f + h, g) == (
            internal_product(f, g) + internal_product(h, g)
        )
        _assert_clean(lhs)
        _assert_clean(internal_product(f + h, g))


def test_mass_conservation():
    # Counting pairs: the coefficients weighted by class size recover
    # |class I| * |class J|.
    for n in range(1, 6):
        sizes = {I: len(c) for I, c in _classes(n).items()}
        for I in compositions_of(n):
            for J in compositions_of(n):
                coeffs = internal_product(R(*I), R(*J)).terms
                assert (
                    sum(c * sizes[K] for K, c in coeffs.items())
                    == sizes[I] * sizes[J]
                )


def test_lie_idempotents():
    # Weight 7 is past what the permutation oracle affords in a test.
    for n in range(1, 8):
        p = psi(n)
        assert internal_product(p, p) == p.scale(n)


def test_order_3_span_closed_at_weight_9():
    ctx = PeakContext(3)
    for I, J in (
        ((1,) * 9, (2, 1, 2, 1, 2, 1)),
        ((3, 3, 2, 1), (1,) * 9),
    ):
        prod = internal_product(rho_basis(I, ctx), rho_basis(J, ctx))
        assert prod
        assert rho_membership(prod, ctx) is not None


def test_capacity_limit():
    # R[2^18,1] has 19 parts either way, so it stands for 2^18 S words
    # in both forms; the pairs are counted before anything is expanded.
    big = R(*[2] * 18, 1)
    with pytest.raises(CapacityError, match=str(MAX_WORD_PAIRS)):
        internal_product(big, big)
    with pytest.raises(CapacityError):
        internal_product(big, S(*[1] * 37) + S(37))
    # Only same-weight pairs count.
    assert internal_product(big, R(*[2] * 18)) == zero("R")
    # R[1^24] is taken as R[24], one S word.  R[1^24] * R[1^24] is then
    # R[24] * R[24] = R[24] read reversed.  Against an S operand, here
    # 2 R[24] + R[12,12], each result ribbon is read by ~: R[24] as
    # R[1^24], R[12,12] as R[1^11,2,1^11].
    ones = R(*[1] * 24)
    assert internal_product(ones, ones) == R(24)
    assert internal_product(ones, S(24) + S(12, 12)) == (
        2 * ones + R(*[1] * 11, 2, *[1] * 11)
    )
    # One pair, but every word of the product has 23 parts: 2^22 ribbons,
    # refused before the matrix recursion runs.
    with pytest.raises(CapacityError, match=str(elements.MAX_EXPANSION_TERMS)):
        internal_product(S(*[1] * 23), S(*[1] * 23))


def test_pairs_are_counted_after_merging():
    # The 64 ribbons of weight 7 sum to the single word S[1^7]: one pair,
    # not 729^2 before merging.
    every = linear_combination("R", ((R(*I), 1) for I in compositions_of(7)))
    assert every == S(*[1] * 7)
    assert internal_product(every, every) == internal_product(
        S(*[1] * 7), S(*[1] * 7)
    )
    # One ribbon's 2^(l-1) S words are distinct: R[2^9,1] * R[2^9,1],
    # 10 parts in either form, is exactly at the limit, counted without
    # expanding.
    basis, groups = descent._by_weight(R(*[2] * 9, 1))
    assert basis == "R" and {n: g[0] for n, g in groups.items()} == {19: 512}
    assert 512 * 512 == MAX_WORD_PAIRS
    # R[1^11] + R[2,1^9] merges to 512 S words: 1024 * 512 pairs against
    # R[1^11] written as its 1024 S words, where no form is chosen.
    merged = R(*[1] * 11) + R(2, *[1] * 9)
    basis, groups = descent._by_weight(merged)
    assert basis == "S" and {n: g[0] for n, g in groups.items()} == {11: 512}
    with pytest.raises(CapacityError, match=str(1024 * 512)):
        internal_product(R(*[1] * 11).to_basis("S"), merged)
    # A lone R[1^11] is taken as R[11], one S word: 512 pairs, and
    # R_(1^n) * R_K = R_K~ ((2,1^9)~ = (10,1)).
    assert internal_product(R(*[1] * 11), merged) == R(11) + R(10, 1)


def test_weights_are_grouped_in_one_pass():
    # Per weight: the S words once merged, the most parts of one, the terms.
    F = S(2, 1) + 3 * S(1, 1, 1) + S(4) + 5 * S()
    assert descent._by_weight(F) == ("S", {
        3: [2, 3, {encode((2, 1)): 1, encode((1, 1, 1)): 3}],
        4: [1, 1, {encode((4,)): 1}],
        0: [1, 0, {0: 5}],
    })
    # A lone ribbon counts its 2^(l-1) S words and is kept as it is.
    assert descent._by_weight(R(1, 2, 1) + 2 * R(3)) == ("R", {
        4: [4, 3, {encode((1, 2, 1)): 1}],
        3: [1, 1, {encode((3,)): 2}],
    })


def test_internal_product_against_matrix_oracle():
    z = zeta(3)
    half = Fraction(1, 2)
    # Two ribbons at weight 4, so F merges to S; weight 5 is F's alone.
    F = NsymElement("R", {
        (2, 2): 3, (1, 3): half, (1, 2): z, (2,): 3, (1, 1, 1, 1, 1): -1,
    })
    # Weight 6 is G's alone.
    G = NsymElement("S", {
        (4,): z, (1, 3): z, (2, 1, 1): -2, (3,): Fraction(2, 3), (1, 1): 3,
        (6,): 1,
    })
    # One ribbon per weight: each stays a lone ribbon until expanded.
    H = NsymElement("R", {(1, 2, 1): z, (2, 1): -half, (1, 1): 2, (5,): z})
    K = NsymElement("R", {(3, 1): 2, (1, 1, 1): 2, (2,): z, (1, 1, 1, 1, 1, 1): 1})
    for F_, G_ in [(F, G), (G, F), (H, K), (K, H), (F, H), (G, K), (F, F)]:
        got = internal_product(F_, G_)
        assert got.basis == "R" and got, (F_, G_)
        assert got == _product_by_matrices(F_, G_), (F_, G_)


def _complement_word(K):
    """c(K) on tuples: the composition whose descent set is the rest of
    {1, ..., n - 1}."""
    n = sum(K)
    cuts = sorted(set(range(1, n)) - descent_set(K)) + [n]
    return tuple(b - a for a, b in zip([0] + cuts, cuts))


def test_longest_class_maps_ribbons_to_ribbons():
    # R_(1^n), the class of the longest permutation, acts on ribbons by
    # the conjugate from the left and the complement from the right:
    # R_(1^n) * R_K = R_K~ and R_K * R_(1^n) = R_c(K), K~ = rev(c(K)).
    # R_I * R_J is the class product of J by I.
    checked = 0
    for n in range(1, 7):
        ones = (1,) * n
        for K in compositions_of(n):
            c = _complement_word(K)
            assert _class_product(K, ones) == {c[::-1]: 1}, K
            assert _class_product(ones, K) == {c: 1}, K
            code = encode(K)
            assert decode(descent._complement(code)) == c
            assert decode(descent._reverse(code)) == K[::-1]
            assert decode(descent._conjugate(code)) == conjugate(K) == c[::-1]
            checked += 1
    assert checked == 63


def test_every_word_pair_against_matrix_oracle():
    # Each ribbon of more than (n + 1) / 2 parts is taken in its other
    # form, whichever side it is on; S words never are.
    pairs = 0
    for n in range(7):
        for I in compositions_of(n):
            for J in compositions_of(n):
                for F, G in ((R(*I), R(*J)), (R(*I), S(*J)), (S(*I), R(*J))):
                    assert internal_product(F, G) == _product_by_matrices(F, G), (F, G)
                    pairs += 1
    assert pairs == 3 * 1366


def test_one_side_flips_at_a_weight():
    # Inhomogeneous operands, one ribbon per weight.  F is flipped at
    # weights 3, 5 and 6, G at 4 and 6; weight 2 flips on neither side,
    # and F alone holds weight 7.
    z = zeta(3)
    half = Fraction(1, 2)
    F = NsymElement("R", {
        (2,): 5, (1, 1, 1): z, (2, 2): half, (1, 1, 1, 1, 1): -1,
        (1, 2, 1, 2): 3, (4, 3): z,
    })
    G = NsymElement("R", {
        (2,): Fraction(2, 3), (3,): 2, (1, 1, 1, 1): z, (2, 1, 2): half,
        (2, 1, 1, 1, 1): 1,
    })
    (f_basis, f_groups), (g_basis, g_groups) = descent._by_weight(F), descent._by_weight(G)
    shared = f_groups.keys() & g_groups.keys()
    assert descent._shorter_forms(f_basis, f_groups, shared, descent._conjugate) == {3, 5, 6}
    assert descent._shorter_forms(g_basis, g_groups, shared, descent._complement) == {4, 6}
    G_S = G.to_basis("S")
    for a in (1, -2, Fraction(3, 7), z + 2):
        for F_, G_ in [(F.scale(a), G), (G, F.scale(a)), (F, G_S.scale(a)),
                       (G_S, F), (F, F), (G.scale(a), G)]:
            got = internal_product(F_, G_)
            assert got.basis == "R" and got, (F_, G_)
            assert got == _product_by_matrices(F_, G_), (F_, G_)
            _assert_clean(got)


def _word_products(I, J):
    """S^I * S^J on tuples, from the matrix formula's word product, which
    ``test_word_product_against_matrix_oracle`` checks."""
    return {decode(K): c for K, c in descent._word_product(I, J).items()}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.sampled_from(compositions_of(n)), st.sampled_from(compositions_of(n)))),
    st.sampled_from("RS"),
    st.sampled_from([1, -3, Fraction(5, 2), zeta(3), 1 - zeta(3)]),
)
def test_random_ribbon_products(pair, basis, a):
    # A ribbon against a ribbon or an S word of its weight, on either
    # side, against the sum over every S word of both operands.
    I, J = pair
    F, G = R(*I).scale(a), NsymElement(basis, {J: 1})
    for F_, G_ in ((F, G), (G, F)):
        assert internal_product(F_, G_) == _product_by_matrices(F_, G_, _word_products)


def test_rows_tried_can_complete():
    # S^(n,n) * S^(n,n) has one word per matrix [[a, n-a], [n-a, a]],
    # a = 0 and a = n both giving S^(n,n). A first row is only started
    # when the later columns can take the rest, so the rows cached stay
    # near n, not near n^2 / 2.
    descent._first_rows.cache_clear()
    descent._word_product.cache_clear()
    product = descent._word_product((200, 200), (200, 200))
    assert len(product) == 200 and product[encode((200, 200))] == 2
    assert product[encode((100,) * 4)] == 1
    assert descent._first_rows.cache_info().currsize < 2000


def test_memo_keeps_subproblems_only(monkeypatch):
    # Each pair's first rows are chosen in the product's own loop, so
    # every word that reaches the memo of _word_product, directly or by
    # its recursion, is a proper suffix of an S word of an operand, in
    # the form expanded: no pair of the operands' own words stays there.
    memo = descent._word_product
    seen = []

    def spy(I, J):
        seen.append(I)
        return memo(I, J)

    monkeypatch.setattr(descent, "_word_product", spy)
    z = zeta(3)
    for F, G in (
        (R(2, 1, 2), R(1, 3, 1)),
        (R(1, 1, 2, 1).scale(z), S(2, 3) + S(1, 4).scale(Fraction(1, 2))),
        (S(2, 2, 1) + S(1, 4), R(2, 1, 1, 1)),
        (R(3) + R(1, 2, 1), S(1, 2) + S(2, 2).scale(z)),
    ):
        memo.cache_clear()
        seen.clear()
        got = internal_product(F, G)
        assert got == _product_by_matrices(F, G)
        words = set()
        for X, flip in ((F, descent._conjugate), (G, descent._complement)):
            forms = [X.to_basis("S")]
            if X.basis == "R":
                forms.append(NsymElement._trusted(
                    "R", {flip(K): c for K, c in X.codes.items()}).to_basis("S"))
            words.update(decode(K) for Y in forms for K in Y.codes)
        assert seen and memo.cache_info().currsize > 0
        for I in seen:
            assert any(len(I) < len(W) and W[len(W) - len(I):] == I for W in words), I


def test_word_product_against_matrix_oracle():
    pairs = [
        (I, J)
        for n in range(6)
        for I in compositions_of(n)
        for J in compositions_of(n)
    ]
    assert len(pairs) == 342
    pairs += [
        ((3, 4), (2, 5)),
        ((1,) * 6, (2, 2, 2)),
        ((2, 1, 3, 2), (1, 3, 1, 3)),
        ((1,) * 8, (3, 5)),
        ((4, 4), (1,) * 8),
        ((1, 2, 1, 2, 1), (2, 3, 2)),
    ]
    for I, J in pairs:
        product = descent._word_product(I, J)
        assert {decode(K): c for K, c in product.items()} == (
            word_product_by_matrices(I, J)
        ), (I, J)


def test_integer_results_stored_as_ints():
    # (1/2 * 2) and z * z^2 are integers, stored as ints.
    half = internal_product(R(2, 1).scale(Fraction(1, 2)), R(1, 2).scale(2))
    assert half == internal_product(R(2, 1), R(1, 2))
    z = zeta(3)
    unit = internal_product(S(2, 1).scale(z), S(1, 1, 1).scale(z * z))
    assert unit == internal_product(S(2, 1), S(1, 1, 1))
    for F in (half, unit):
        assert F and all(type(v) is int for v in F.codes.values())
        _assert_clean(F)


def test_cancelled_words_not_stored():
    # S^(1,1) * S^(1,1) = 2 S^(1,1) and S^(2) * S^(1,1) = S^(1,1), so the
    # two coefficient groups cancel at weight 2; weight 3 is left.
    F = internal_product(S(1, 1) - S(2).scale(2) + S(2, 1), S(1, 1) + S(3))
    assert F == S(2, 1).to_basis("R")
    _assert_clean(F)
    assert internal_product(S(1, 1) - S(2).scale(2), S(1, 1)).codes == {}


def test_two_conductors_refused():
    with pytest.raises(ValueError, match="conductor mismatch"):
        internal_product(R(2, 1).scale(zeta(3)), R(1, 2).scale(zeta(4)))
    # Weight by weight only one operand is cyclotomic, but the result
    # would hold both fields.
    f = R(1).scale(zeta(3)) + R(2)
    g = R(1) + R(2).scale(zeta(5))
    with pytest.raises(ValueError, match="conductor mismatch"):
        internal_product(f, g)
    # Weight 2 is taken in its other form on both sides, weight 3 on
    # neither.
    f = R(1, 1).scale(zeta(3)) + R(3)
    g = R(1, 1) + R(3).scale(zeta(5))
    with pytest.raises(ValueError, match="conductor mismatch"):
        internal_product(f, g)
