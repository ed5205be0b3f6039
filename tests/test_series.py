"""Tests for truncated series, power sums, the q-transform, determinants."""

import contextlib
from fractions import Fraction

import pytest

from nsympeak import series
from nsympeak.compositions import compositions_of, descent_set, encode
from nsympeak.elements import (
    CapacityError, NsymElement, R, S, all_words, multiply, one, zero
)
from nsympeak.peak import PeakContext, tangent_element_series
from nsympeak.scalars import CyclotomicNumber, scalar_inv, zeta
from nsympeak.series import (
    Theta,
    Theta_images,
    det_formula,
    det_theta,
    hook_sum,
    psi,
    series_inverse,
    series_product,
    sigma_series,
    theta_q,
    theta_q_generator,
    theta_q_images,
)
from oracles import matrix_determinant, theta_by_S_words, theta_matrix


def _psi_direct(n):
    out = zero("R")
    for i in range(n):
        word = (1,) * i + (n - i,)
        out = out + NsymElement("R", {word: (-1) ** i})
    return out


def test_power_sums_small():
    assert psi(1) == S(1)
    assert str(psi(2)) == "-S[1,1] + 2*S[2]"
    assert str(psi(3)) == "S[1,1,1] - S[2,1] - 2*S[1,2] + 3*S[3]"


def test_power_sums_are_alternating_hooks():
    for n in range(1, 7):
        assert psi(n) == _psi_direct(n)


def test_sigma_series_inverse():
    sig = sigma_series(6)
    inv = series_inverse(sig, 6)
    assert series_product(inv, sig, 6) == one()
    assert series_product(sig, inv, 6) == one()


def test_series_plumbing():
    sig = sigma_series(4)
    assert sig.homogeneous_component(3) == S(3)
    assert sig.homogeneous_component(0) == one()
    with pytest.raises(AttributeError):
        sig.terms = {}
    with pytest.raises(ValueError):
        series_inverse(zero(), 3)
    scaled = sigma_series(3, q=2)
    assert scaled.homogeneous_component(2) == 4 * S(2)


def test_truncation_builds_no_heavier_word():
    sig = sigma_series(5)
    assert series_product(sig, sig, 3).weights() == [0, 1, 2, 3]
    assert series_inverse(sig, 3).weights() == [0, 1, 2, 3]
    # Words of an operand above the order are ignored, not multiplied.
    assert series_product(S(4), sig, 3) == zero()


def test_add_keeps_the_basis_of_each_coefficient():
    t = tangent_element_series(PeakContext(3), 4)
    diff = one("R") - t
    assert diff.homogeneous_component(0) == one()
    assert t.weights() == [1, 2, 4]
    for deg in t.weights():
        assert diff.homogeneous_component(deg).basis == "R"
        assert diff.homogeneous_component(deg).terms == (
            -t.homogeneous_component(deg)
        ).terms
    # Products and inverses still read ribbon coefficients correctly.
    mixed = one("R") + R(1, 1)
    assert series_product(mixed, series_inverse(mixed, 3), 3) == one()


def test_generator_images():
    assert theta_q_generator(2, 2) == 2 * S(1, 1) - 3 * S(2)
    assert theta_q_generator(1, Fraction(1, 2)) == S(1).scale(Fraction(1, 2))
    # At q = 1 the transform kills every positive weight.
    for n in (1, 2, 3):
        assert theta_q_generator(n, 1) == zero()


def test_theta_q_values():
    assert theta_q(S(1), 3) == S(1).scale(-2)
    assert theta_q(R(1, 1), 2).to_basis("R") == -R(1, 1) + 2 * R(2)
    # Multiplicative over S words, linear over sums.
    q = Fraction(2, 3)
    assert theta_q(S(2, 1), q) == multiply(
        theta_q(S(2), q), theta_q(S(1), q)
    )
    f, g = S(2) - S(1, 1), 3 * S(1)
    assert theta_q(f + g, q) == theta_q(f, q) + theta_q(g, q)
    assert theta_q(one(), q) == one()


def test_normalized_transform():
    # N = 1 degenerates to the power-sum extension.
    assert Theta(S(3), 1) == psi(3)
    assert Theta(S(2, 1), 1) == multiply(psi(2), psi(1))
    z = zeta(3)
    got = Theta(S(3), 3).to_basis("R")
    want = R(1, 1, 1).scale(-1 - z) + R(1, 2).scale(-z) + R(3)
    assert got == want
    # Against the series definition theta_zeta(S_n)/(1 - zeta).
    for N in (2, 3, 4):
        zN = zeta(N)
        for n in range(1, 6):
            expect = theta_q_generator(n, zN).scale(scalar_inv(1 - zN))
            assert Theta(S(n), N) == expect


_ROUTE_QS = {str(q): Fraction(q) for q in ("2", "1/2", "-1", "1")}
_ROUTE_QS.update({f"zeta{N}": zeta(N) for N in (3, 4)})


@pytest.mark.parametrize("q", _ROUTE_QS.values(), ids=_ROUTE_QS.keys())
def test_transform_of_every_word_matches_the_S_word_chain(q):
    # Ribbons go through the ribbon product rule, S words through their
    # prefixes; both output bases agree with one S-word chain per word,
    # word by word and when all words of weight <= 7 are asked for at
    # once (each image then built on the sub-word images built before).
    batch = _all_images(lambda F, basis: theta_q_images(F, q, basis))
    for n in range(8):
        for I in compositions_of(n):
            for word in (S(*I), R(*I)):
                want = theta_by_S_words(word, q, 1 - q)
                for basis in "SR":
                    got = theta_q(word, q, basis)
                    assert got.basis == basis
                    assert got == want, (word, basis)
                    assert batch[word.basis, basis][encode(I)] == want


def test_normalized_transform_matches_the_S_word_chain():
    for N in (1, 2, 3, 4):
        zN = zeta(N)
        batch = _all_images(lambda F, basis: Theta_images(F, N, basis))
        for n in range(8):
            for I in compositions_of(n):
                for word in (S(*I), R(*I)):
                    want = theta_by_S_words(word, zN, 1)
                    for basis in "SR":
                        got = Theta(word, N, basis)
                        assert got.basis == basis
                        assert got == want, (word, N, basis)
                        assert batch[word.basis, basis][encode(I)] == want


def _all_images(images):
    """{(input basis, output basis): {code: image}} over all words of
    weight <= 7, checking that the codes come in ascending order."""
    out = {}
    for wbasis in "SR":
        for basis in "SR":
            got = dict(images(all_words(wbasis, 0, 7), basis))
            assert list(got) == list(range(1 << 7))
            assert all(image.basis == basis for image in got.values())
            out[wbasis, basis] = got
    return out


def _word(basis, code, c=1):
    return NsymElement._trusted(basis, {code: c})


def test_images_of_mixed_coefficients():
    # One image pass per coefficient; each image carries its word's
    # coefficient, and the images add up to the transform of the sum.
    z = zeta(3)
    coeffs = [-1, Fraction(3, 2), z, z * z]
    cases = [(q, 1 - q, theta_q, theta_q_images, q) for q in (2, Fraction(1, 2), -1, 1, z)]
    cases += [(zeta(N), 1, Theta, Theta_images, N) for N in (1, 2, 3)]
    for q, scale, transform, images, arg in cases:
        for wbasis in "SR":
            codes = list(all_words(wbasis, 0, 6).codes)
            F = NsymElement._trusted(
                wbasis, {I: coeffs[I % 4] for I in codes[::3] + codes[1::7]}
            )
            want = theta_by_S_words(F, q, scale)
            for basis in "SR":
                assert transform(F, arg, basis) == want
                seen = []
                for code, image in images(F, arg, basis):
                    c = F.codes[code]
                    assert image == theta_by_S_words(_word(wbasis, code, c), q, scale)
                    seen.append((c, code))
                # Coefficients in the order F first holds them, each
                # coefficient's words in ascending code order.
                assert seen == [
                    (c, code) for c in dict.fromkeys(F.codes.values())
                    for code in sorted(I for I, v in F.codes.items() if v == c)
                ]


@pytest.mark.parametrize("limit", [0, 40, 200, 1500])
def test_images_refused_exactly_where_each_word_alone_is(monkeypatch, limit):
    # The iterator checks each word's own count before building it, so a
    # caller consuming it in order stops at the first word that theta_q
    # refuses alone, having received every image before it.
    monkeypatch.setattr(series, "MAX_RECURSION_TERMS", limit)
    q = zeta(3)
    for wbasis in "SR":
        words = all_words(wbasis, 0, 7)
        for basis in "SR":
            alone = []
            for code in words.codes:
                try:
                    theta_q(_word(wbasis, code), q, basis)
                    alone.append(True)
                except CapacityError:
                    alone.append(False)
            built = []
            with pytest.raises(CapacityError) if not all(alone) else contextlib.nullcontext():
                for code, image in theta_q_images(words, q, basis):
                    built.append(code)
            first = alone.index(False) if not all(alone) else len(alone)
            assert built == list(words.codes)[:first]
            for code, ok in zip(words.codes, alone):
                if not ok:
                    with pytest.raises(CapacityError):
                        next(theta_q_images(_word(wbasis, code), q, basis))


def test_transform_scalar_multiplications(monkeypatch):
    # A coefficient seeds the one-part images, so sharing sub-words adds
    # no scalar product: the counts are those of the word-by-word build
    # (row of products for a ribbon, prefix chain for an S word).
    z = zeta(3)
    calls = [0]
    mul = CyclotomicNumber.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
    cases = [
        (R(2, 1, 3).scale(2), {"S": (75, 50), "R": (72, 39)}),
        (S(1, 2, 1, 2).scale(z), {"S": (13, 8), "R": (26, 25)}),
        (R(3, 1, 2).scale(z), {"S": (113, 87), "R": (85, 61)}),
    ]
    for F, pinned in cases:
        for basis, (at_most_q, at_most_norm) in pinned.items():
            for transform, arg, at_most in ((theta_q, z, at_most_q),
                                            (Theta, 3, at_most_norm)):
                series._generator.cache_clear()
                calls[0] = 0
                transform(F, arg, basis)
                assert calls[0] <= at_most, (F, basis)


def test_transform_past_the_recursion_limit_is_refused(monkeypatch):
    # With no room for the recursion, every nonempty word in either basis
    # is refused before a generator image is built.
    monkeypatch.setattr(series, "MAX_RECURSION_TERMS", 0)
    series._generator.cache_clear()
    q = zeta(3)
    for n in range(1, 6):
        for I in compositions_of(n):
            for word in (S(*I), R(*I)):
                for basis in "SR":
                    with pytest.raises(CapacityError):
                        theta_q(word, q, basis)
    assert series._generator.cache_info().currsize == 0


@pytest.mark.parametrize(
    "q", [2, Fraction(1, 2), zeta(3), 1], ids=["2", "1/2", "zeta3", "1"]
)
def test_recursion_count_bounds_the_work(monkeypatch, q):
    # The count is the transform's only guard: it covers the image it
    # returns and every generator image it reads.
    generator, reads = series._generator, []

    def recorded(*args):
        image = generator(*args)
        reads.append(len(image.terms))
        return image

    monkeypatch.setattr(series, "_generator", recorded)
    for n in range(8):
        for I in compositions_of(n):
            for word in (S(*I), R(*I)):
                for basis in "SR":
                    reads.clear()
                    terms = len(theta_q(word, q, basis).terms) + sum(reads)
                    count = series._recursion_terms(word, 1 - q, basis)
                    assert count >= terms, (word, basis)


def test_transform_refuses_large_S_images_in_time():
    # The recursion in R would read and add about 7 * 10^5 terms for
    # S[2^10], and far more for S[2^22]: both are refused before anything
    # is built.
    with pytest.raises(CapacityError):
        theta_q(S(*[2] * 10), zeta(3), "R")
    with pytest.raises(CapacityError):
        theta_q(S(*[2] * 22), 2, "R")


def test_transform_at_one_is_zero_on_long_words():
    # theta_1 kills every word of positive weight, without building any.
    assert theta_q(R(*[1] * 40), 1, "R") == zero("R")
    assert theta_q(S(*[1] * 40) + 3 * S(), 1, "R") == 3 * one("R")


def test_transform_output_basis_is_checked():
    with pytest.raises(ValueError, match="unknown basis"):
        theta_q(S(1), 2, "Sigma")
    with pytest.raises(ValueError, match="unknown basis"):
        Theta(S(1), 3, "T")


def test_transform_refuses_a_second_conductor():
    F = R(2, 1).scale(zeta(3)) + S(1).to_basis("R")
    for basis in "SR":
        for G in (F, F.to_basis("S")):
            with pytest.raises(ValueError, match="conductor mismatch"):
                theta_q(G, zeta(4), basis)
            with pytest.raises(ValueError, match="conductor mismatch"):
                Theta(G, 4, basis)


_QS = {str(q): Fraction(q) for q in ("0", "1", "-1", "2", "1/2", "5/7")}
_QS.update({f"zeta{N}": zeta(N) for N in (2, 3, 4, 5, 8)})


@pytest.mark.parametrize("q", _QS.values(), ids=_QS.keys())
def test_hook_sum_is_the_series_generator(q):
    for n in range(1, 9):
        assert hook_sum(n, q).scale(1 - q) == theta_q_generator(n, q)


def test_hook_sum_at_one_is_psi():
    for n in range(1, 11):
        assert hook_sum(n, 1) == psi(n)
    # q = 0 keeps only the one-part ribbon.
    assert hook_sum(4, 0) == R(4)


def test_matrix_determinant_basics():
    assert matrix_determinant([[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(1)]]) == 1
    assert matrix_determinant([[Fraction(0), Fraction(1)],
                               [Fraction(1), Fraction(0)]]) == -1
    assert matrix_determinant([[Fraction(2), Fraction(1)],
                               [Fraction(4), Fraction(2)]]) == 0


def test_theta_matrix_shape():
    mat = theta_matrix(3, 2)
    assert len(mat.comps) == 4
    assert all(len(row) == 4 for row in mat.rows)
    assert set(mat.comps) == {(3,), (2, 1), (1, 2), (1, 1, 1)}


def test_det_theta_values():
    assert det_theta(1, 2) == -1
    assert det_theta(2, 2) == -3
    assert det_theta(3, 2) == 63


def test_det_formula_matches_matrix():
    for n in (1, 2, 3, 4):
        for q in (2, Fraction(1, 2), -3, Fraction(5, 7)):
            assert det_formula(n, q) == det_theta(n, q)
    assert det_formula(1, Fraction(3)) == Fraction(-2)


def test_det_vanishes_at_low_order_roots():
    # q a root of unity of order N <= n kills the determinant; N > n
    # leaves it nonzero.
    assert det_theta(2, zeta(2)) == 0
    assert det_theta(3, zeta(3)) == 0
    assert det_theta(3, zeta(2)) == 0
    nonzero = det_theta(2, zeta(3))
    assert nonzero == 3 * (1 - zeta(3))
    assert nonzero != 0


_DET_QS = (2, Fraction(1, 2), -3, Fraction(5, 7), zeta(2), zeta(3), zeta(4), zeta(5))


def test_det_theta_matches_elimination():
    for n in range(1, 7):
        for q in _DET_QS:
            assert det_theta(n, q) == matrix_determinant(theta_matrix(n, q).rows)


def test_theta_triangular_in_S():
    # Every word of theta_q(S^I) refines I, and the S^I coefficient is
    # the product of the (1 - q^i) over the parts of I.
    for q in (2, Fraction(5, 7), zeta(3)):
        for n in range(1, 8):
            for I in compositions_of(n):
                image = theta_q(S(*I), q)
                for K in image.terms:
                    assert descent_set(I) <= descent_set(K)
                diagonal = 1
                for i in I:
                    diagonal = diagonal * (1 - q**i)
                assert image.coefficient(I) == diagonal
