"""Tests for the higher-order peak subalgebras and their bases."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from nsympeak import cli, peak
from nsympeak.compositions import (
    F_set,
    compositions_of,
    decode,
    descent_set,
    encode,
    epsilon,
    hilbert_dim,
    lower_forward,
    lower_inverse,
)
from nsympeak.descent import internal_product
from nsympeak.elements import (
    CapacityError,
    NsymElement,
    R,
    S,
    all_words,
    multiply,
    one,
    r_to_s,
    s_to_r,
    zero,
)
from nsympeak.peak import (
    PeakContext,
    T_basis,
    T_membership,
    classical_peak_function,
    expand_T_coords,
    expand_rho_coords,
    expand_sigma_coords,
    expansions_match,
    in_T_ideal,
    in_sigma_span,
    membership,
    pi_N,
    rho_basis,
    rho_membership,
    rho_ones_series,
    sigma_basis,
    tangent_element_series,
    tangent_zeta_element_series,
    theta_minus1_ribbon_expansion,
)
from nsympeak.scalars import CyclotomicNumber, make_cyclotomic, zeta, zeta_pow
from nsympeak.series import Theta, Theta_images, theta_q, theta_q_images
from oracles import (
    classical_peak_functions_filtered,
    expand_rho_per_term,
    expand_sigma_per_term,
    is_valid_peak_set,
    membership_per_term,
    per_column,
    rho_membership_per_term,
    rho_t_basis,
    rho_t_primed_basis,
    s_to_r_per_term,
    sigma_from_rho,
)


@pytest.fixture(scope="module")
def ctx2():
    return PeakContext(2)


@pytest.fixture(scope="module")
def ctx3():
    return PeakContext(3)


def test_context_guards():
    with pytest.raises(ValueError):
        PeakContext(1)
    with pytest.raises(ValueError):
        PeakContext(0)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 12])
def test_context_zeta_powers(N):
    ctx = PeakContext(N)
    for k in range(-2 * N, 2 * N):
        assert ctx.zeta_power(k) == zeta_pow(N, k)


def test_context_makes_only_the_zeta_powers_asked_for(monkeypatch):
    # At a conductor near MAX_CONDUCTOR one power holds phi(N) ints, so
    # a table of all N powers would not fit.
    N = 262139
    made = []

    def counted(N, k):
        made.append(k)
        return zeta_pow(N, k)

    monkeypatch.setattr(peak, "zeta_pow", counted)
    ctx = PeakContext(N)
    assert ctx.zeta_power(5) == zeta_pow(N, 5)
    assert ctx.zeta_power(5 + N) is ctx.zeta_power(5 - 3 * N)
    assert made == [5]


def test_context_index_family(ctx2, ctx3):
    for n in range(9):
        assert len(ctx2.G(n)) == hilbert_dim(n, 2)
        assert len(ctx3.G(n)) == hilbert_dim(n, 3)
    assert ctx2.in_G((1, 2, 1))
    assert not ctx2.in_G((1, 1, 2))
    assert ctx3.in_G((1, 1, 2))


def test_sigma_values(ctx2, ctx3):
    assert sigma_basis((1, 2, 1), ctx2) == R(1, 2, 1) + R(3, 1)
    assert sigma_basis((1, 2, 1), ctx3) == (
        R(1, 2, 1) + R(3, 1) + R(1, 3) + R(4)
    )
    assert sigma_basis((1, 1, 2), ctx3) == (
        R(1, 1, 2) + R(2, 2) + R(1, 3) + R(4)
    )
    assert sigma_basis((), ctx2) == one("R")
    with pytest.raises(ValueError):
        sigma_basis((1, 1, 2), ctx2)


def test_rho_values(ctx3):
    assert rho_basis((1, 1, 1), ctx3) == R(1, 1, 1) - R(3)
    assert rho_basis((1, 2), ctx3) == R(1, 2) + R(3)
    assert rho_basis((2, 1), ctx3) == R(2, 1) + R(3)
    with pytest.raises(ValueError, match=r"\(1, 3\) is not in the order-3 index family"):
        rho_basis((1, 3), ctx3)


def test_rho_deformations(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for n in range(6):
            for I in ctx.G(n):
                assert rho_t_basis(I, Fraction(-1), ctx) == rho_basis(I, ctx)
                assert rho_t_basis(I, Fraction(0), ctx) == sigma_basis(I, ctx)
                assert sigma_from_rho(I, ctx) == sigma_basis(I, ctx)


def test_rho_primed_functional_equation(ctx3):
    t = Fraction(3, 2)
    for n in range(5):
        for I in ctx3.G(n):
            lhs = rho_t_primed_basis(I, t, ctx3)
            rhs = rho_t_basis(I, 1 / t, ctx3).scale(t ** (2 * len(I)))
            assert lhs == rhs


def test_membership_values(ctx2, ctx3):
    assert membership(R(2, 1, 1), ctx3) == {
        (2, 1, 1): 1, (3, 1): -1, (2, 2): -1,
    }
    assert membership(R(3), ctx3) is None
    assert membership(R(2), ctx2) is None
    assert membership(zero("R"), ctx2) == {}
    assert membership(sigma_basis((1, 2, 1), ctx2), ctx2) == {(1, 2, 1): 1}


def test_membership_guards(ctx2):
    with pytest.raises(ValueError):
        membership(R(2) + R(3), ctx2)
    with pytest.raises(CapacityError):
        membership(R(21), ctx2)


def test_membership_round_trip(ctx2, ctx3):
    rng = random.Random(23)
    for ctx in (ctx2, ctx3):
        for n in (3, 4, 5):
            words = ctx.G(n)
            for _ in range(8):
                coords = {
                    I: Fraction(rng.randint(-5, 5))
                    for I in rng.sample(words, min(3, len(words)))
                }
                coords = {I: c for I, c in coords.items() if c}
                elt = expand_sigma_coords(coords, ctx)
                assert membership(elt, ctx) == coords
                rho_coords = rho_membership(elt, ctx)
                assert expand_rho_coords(rho_coords, ctx) == elt


def test_membership_every_word():
    # Exhaustive at weights <= 9: each Sigma_I solves to {I: 1}, and each
    # ribbon gets the per-term oracle's answer, member or not.
    for N in (2, 3, 4, 5):
        ctx = PeakContext(N)
        for n in range(10):
            for I in ctx.G(n):
                assert membership(sigma_basis(I, ctx), ctx) == {I: 1}
            for K in compositions_of(n):
                assert membership(R(*K), ctx) == membership_per_term(R(*K), ctx)


def test_membership_detects_outside(ctx2):
    # Perturbing a member by a ribbon outside the span must fail.
    elt = sigma_basis((2, 1), ctx2) + R(3)
    assert membership(elt, ctx2) is None


def test_in_sigma_span_matches_membership(ctx3):
    # One batch of mixed weights and kinds: transform images, Sigma and
    # rho elements, every ribbon of weight <= 6 (the negative controls)
    # and a member perturbed by a ribbon.
    words = [I for n in range(7) for I in compositions_of(n)]
    batch = [Theta(S(*I), 3) for I in words]
    batch += [theta_q(S(*I), q) for I in words[:16] for q in (zeta(3), 2)]
    batch += [f(I, ctx3) for n in range(7) for I in ctx3.G(n) for f in (sigma_basis, rho_basis)]
    batch += [R(*K) for K in words]
    batch.append(sigma_basis((2, 1), ctx3) + R(3))
    want = [membership(F, ctx3) is not None for F in batch]
    assert list(in_sigma_span(batch, ctx3)) == want
    assert list(in_sigma_span(iter(batch), ctx3)) == want
    ribbons = want[-len(words) - 1:-1]
    assert True in ribbons and False in ribbons and not want[-1]


def test_in_sigma_span_batches(ctx2, ctx3):
    assert list(in_sigma_span([], ctx3)) == []
    # Segments of different widths: one element far wider than the rest.
    big = 1 << 300
    inside = Theta(S(2, 1), 3)
    batch = [
        R(1, 1), inside.scale(big), R(3), (inside + R(3)).scale(big),
        sigma_basis((1, 2), ctx3).scale(Fraction(1, big)), R(1, 2), zero("R"),
    ]
    want = [membership(F, ctx3) is not None for F in batch]
    assert want == [True, True, False, False, True, False, True]
    assert list(in_sigma_span(batch, ctx3)) == want
    # A batch of one is laid as any other, over Q and over Q(zeta_3).
    for F, inside_alone in zip(batch, want):
        assert list(in_sigma_span([F], ctx3)) == [inside_alone]
    # Worst-case magnitudes at weight 8 beside small ones: 2^6 - 1 on
    # every ribbon with the signs by length, and every Sigma_I of G, over
    # Q and over Q(zeta_3); the inverse grows them by up to 2^7.
    top = (1 << 6) - 1
    z = zeta(3)
    for c in (top, top * z, top * (1 - z)):
        ribbons = NsymElement("R", {K: (-1) ** len(K) * c for K in compositions_of(8)})
        sigmas = expand_sigma_coords({I: c for I in ctx3.G(8)}, ctx3)
        batch = [R(1, 1), ribbons, sigmas, R(3), sigmas + ribbons, sigmas.scale(-1)]
        want = [membership(F, ctx3) is not None for F in batch]
        assert want == [True, False, True, False, False, True]
        assert list(in_sigma_span(batch, ctx3)) == want
    with pytest.raises(
        ValueError, match=r"^conductor mismatch: 3 vs 4 \(no automatic lifting\)$"
    ):
        list(in_sigma_span([Theta(S(2), 3), R(2), R(2).scale(zeta(4))], ctx3))
    # Each element is refused as membership refuses it.
    with pytest.raises(ValueError, match="homogeneous"):
        list(in_sigma_span([R(2), R(2) + R(3)], ctx2))
    with pytest.raises(CapacityError):
        list(in_sigma_span([R(2), R(21)], ctx2))


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7])
def test_in_sigma_span_by_basis(N):
    # Inside: the transform images of every S word of weight <= 8, built
    # in S. Outside or not: the S words themselves and random sums of S
    # words, with a cyclotomic coefficient now and then. Each batch is
    # tested in S, in ribbons and in both bases alternately.
    ctx = PeakContext(N)
    rnd = random.Random(N)
    z = zeta(N)
    images = [image for _, image in Theta_images(all_words("S", 0, 8), N, "S")]
    words = [NsymElement._trusted("S", {K: 1}) for K in range(1 << 8)]
    sums = []
    for n in range(9):
        codes = range(1 << n >> 1, 1 << n)
        for _ in range(6):
            picks = rnd.sample(codes, min(len(codes), rnd.randint(1, 4)))
            coeffs = [rnd.choice((1, -2, Fraction(1, 3), z, 1 - z)) for _ in picks]
            sums.append(NsymElement._trusted("S", dict(zip(picks, coeffs))))
        sums.append(images[rnd.choice(codes)] + sums[-1])  # an image's code is its index
    batch = images + words + sums
    want = [membership(F, ctx) is not None for F in batch]
    assert all(want[:len(images)]) and not all(want)
    ribbons = [F.to_basis("R") for F in batch]
    mixed = [F if i % 2 else R for i, (F, R) in enumerate(zip(batch, ribbons))]
    assert {F.basis for F in mixed} == {"S", "R"}
    for each in (batch, ribbons, mixed):
        assert list(in_sigma_span(each, ctx)) == want
        assert list(in_sigma_span(iter(each), ctx)) == want


def test_in_sigma_span_at_wide_coefficients(ctx3):
    # 198-bit columns leave the S elements' fields no room but the width
    # that their 2n steps add. The sum of every S word of weight 8 doubles
    # at every step of its change to ribbons (R_8 collects 2^7 of them).
    # Each answer is read off the exact Sigma coordinates, each column
    # mapped on its own on unbounded ints.
    top = (1 << 198) - 1
    N, z = 3, zeta(3)
    wide = make_cyclotomic(N, [top, -top])
    every = NsymElement("S", {K: 1 for K in compositions_of(8)})
    signed = NsymElement("S", {K: (-1) ** len(K) for K in compositions_of(8)})
    image = Theta(S(3, 1, 2, 2), N)
    batch = [
        R(1, 1), every.scale(top), every.scale(wide), signed.scale(wide * z),
        image.scale(wide), image.scale(top) + S(8), S(2, 1),
        image.scale(wide).to_basis("R"), every.scale(wide) + image.scale(top),
        zero("S"), (every + signed).scale(wide),
    ]

    def sigma(v):
        return lower_inverse(lower_forward(v), N)

    want = []
    for F in batch:
        got = per_column(sigma if F.basis == "S" else lambda v: lower_inverse(v, N), F.codes)
        want.append(all(map(ctx3._in_G, got)))
    assert True in want and False in want
    assert want == [membership(F, ctx3) is not None for F in batch]
    assert list(in_sigma_span(batch, ctx3)) == want
    for F, inside in zip(batch, want):
        assert list(in_sigma_span([F], ctx3)) == [inside]


def test_rho_maps_at_worst_case_magnitudes(ctx3):
    # The rho maps make two passes of descent steps over one packed int
    # per word, so its fields must be wide enough for both.
    top = (1 << 6) - 1
    for c in (top, top * zeta(3)):
        coords = {I: (-1) ** len(I) * c for I in ctx3.G(8)}
        F = expand_rho_coords(coords, ctx3)
        assert F == expand_rho_per_term(coords, ctx3)
        assert rho_membership(F, ctx3) == coords
        F = expand_sigma_coords(coords, ctx3)
        assert rho_membership(F, ctx3) == rho_membership_per_term(F, ctx3)


def test_rho_internal_products(ctx3):
    r111 = rho_basis((1, 1, 1), ctx3)
    r12 = rho_basis((1, 2), ctx3)
    assert rho_membership(internal_product(r111, r111), ctx3) == {
        (1, 1, 1): -2,
    }
    assert rho_membership(internal_product(r12, r111), ctx3) == {
        (1, 1, 1): 1, (2, 1): 1, (1, 2): -1,
    }


def test_star_closure(ctx2, ctx3):
    # The span is closed under the composition product.
    for ctx in (ctx2, ctx3):
        for n in (2, 3, 4):
            for I in ctx.G(n):
                for J in ctx.G(n):
                    prod = internal_product(
                        sigma_basis(I, ctx), sigma_basis(J, ctx)
                    )
                    assert membership(prod, ctx) is not None


def test_T_basis(ctx3):
    assert T_basis((4,), ctx3) == R(3, 1)
    assert T_basis((1,), ctx3) == R(1)
    assert T_basis((), ctx3) == one("R")
    with pytest.raises(ValueError):
        T_basis((3,), ctx3)
    # Multiplicative over parts.
    assert T_basis((4, 2), ctx3) == multiply(
        T_basis((4,), ctx3), T_basis((2,), ctx3)
    )


@pytest.mark.parametrize("N", [2, 3, 4])
def test_T_basis_is_the_ribbon_product_chain(N):
    # Oracle: the unit times R_(N^i j) for each part N*i+j of K, in order.
    ctx = PeakContext(N)
    for n in range(7):
        for K in compositions_of(n):
            if any(part % N == 0 for part in K):
                with pytest.raises(ValueError, match=f"divisible by N={N}"):
                    T_basis(K, ctx)
                continue
            chain = one("R")
            for part in K:
                i, j = divmod(part, N)
                chain = multiply(chain, R(*((N,) * i + (j,))))
            assert T_basis(K, ctx) == chain, K


def test_T_identity(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for n in range(6):
            for I in ctx.G(n):
                assert T_basis(epsilon(I, ctx.N), ctx) == sigma_basis(I, ctx)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_expand_T_coords_matches_T_products(N):
    # Oracle: the ribbon product definition of T_K, for every K in F.
    ctx = PeakContext(N)
    for n in range(9):
        for K in F_set(n, N):
            assert expand_T_coords({K: 1}, ctx) == T_basis(K, ctx), K


def test_expand_T_coords(ctx3):
    coords = {(4, 2): 1, (1,): 2}
    assert expand_T_coords(coords, ctx3) == T_basis((4, 2), ctx3) + 2 * R(1)
    assert T_membership(expand_T_coords({(5, 1): 3}, ctx3), ctx3) == {(5, 1): 3}
    with pytest.raises(ValueError, match="divisible by N=3"):
        expand_T_coords({(3,): 1}, ctx3)


@pytest.mark.parametrize("expand", [
    expand_sigma_coords, expand_rho_coords, expand_T_coords,
])
@pytest.mark.parametrize("coeff", [0.5, 2.0, "x"])
def test_expand_refuses_non_scalar_coefficients(ctx3, expand, coeff):
    # As NsymElement does: a float is never read as an exact scalar.
    name = type(coeff).__name__
    with pytest.raises(TypeError, match=f"unsupported coefficient type: {name}"):
        expand({(1,): coeff}, ctx3)


def test_T_membership(ctx3):
    sig = sigma_basis((3, 1), ctx3)
    assert T_membership(sig, ctx3) == {(4,): 1}
    combo = sig - 2 * sigma_basis((1, 2, 1), ctx3)
    assert T_membership(combo, ctx3) == {(4,): 1, (1, 2, 1): -2}
    assert T_membership(R(3), ctx3) is None


def test_sigma_product_rule(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for wa in (1, 2, 3):
            for wb in (1, 2, 3):
                for I in ctx.G(wa):
                    for J in ctx.G(wb):
                        lhs = multiply(
                            sigma_basis(I, ctx), sigma_basis(J, ctx)
                        )
                        assert lhs == sigma_basis(I + J, ctx)


def test_projector(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        # Fixes the distinguished spanning family.
        for n in range(5):
            for I in ctx.G(n):
                sig = sigma_basis(I, ctx)
                assert pi_N(sig, ctx) == sig
        # Idempotent on arbitrary elements.
        f = S(2, 1) - 3 * S(1, 1, 1) + S(3)
        assert pi_N(pi_N(f, ctx), ctx) == pi_N(f, ctx)
    # Words ending in a multiple of N are killed.
    assert pi_N(S(1, 2), ctx2) == zero("R")
    assert pi_N(S(3), ctx3) == zero("R")


def test_ideal_predicate(ctx2):
    assert in_T_ideal(S(2, 1), 2)
    assert not in_T_ideal(S(1, 2), 2)
    assert not in_T_ideal(one("S"), 2)
    assert in_T_ideal(S(3, 1) - S(1), 3)
    assert not in_T_ideal(S(1, 3), 3)
    assert not in_T_ideal(S(3, 1) + S(1, 3), 3)


def test_morphism_on_ideal():
    # One passing check per root order; dropping the ideal hypothesis
    # fails first at S^N S^1, noted as the evidence it is needed.
    notes = []
    assert list(cli.SUITES["morphism"][0](notes, (2, 3), 4)) == [None, None]
    assert notes == [
        f"N={N}: dropping the ideal hypothesis fails first at I=[{N}], J=[1] "
        "(hypothesis necessary)"
        for N in (2, 3)
    ]


def test_classical_peak_functions():
    assert classical_peak_function((3,)) == R(1, 1, 1) + R(1, 2) + R(3)
    assert classical_peak_function((2,)) == R(1, 1) + R(2)
    with pytest.raises(ValueError):
        classical_peak_function((1, 2))


def test_classical_supports_partition():
    for n in (3, 4, 5, 6):
        seen = {}
        for I in compositions_of(n):
            if not is_valid_peak_set(descent_set(I), n):
                continue
            for J in classical_peak_function(I).terms:
                assert J not in seen, "supports overlap"
                seen[J] = I
        assert len(seen) == len(list(compositions_of(n)))


def test_classical_peak_function_matches_filter():
    # Every peak composition of weight <= 12, the unit at weight 0 included.
    assert classical_peak_function(()) == one("R")
    for n in range(13):
        filtered = classical_peak_functions_filtered(n)
        assert len(filtered) == hilbert_dim(n, 2)
        for I, want in filtered.items():
            assert classical_peak_function(I) == want


def test_theta_minus1_expansion():
    assert theta_minus1_ribbon_expansion((2,)) == {(2,): 2}
    assert theta_minus1_ribbon_expansion((1, 1)) == {(2,): 2}
    assert theta_minus1_ribbon_expansion((2, 1)) == {(3,): 2, (2, 1): 4}
    for n in (2, 3, 4, 5):
        for I in compositions_of(n):
            coords = theta_minus1_ribbon_expansion(I)
            total = zero("R")
            for J, c in coords.items():
                total = total + classical_peak_function(J).scale(c)
            assert total == theta_q(R(*I), -1).to_basis("R")


def _coords(formula, I, ctx):
    """formula's coordinates for the composition I, keyed by compositions."""
    return {decode(J): c for J, c in formula(encode(I), ctx).items()}


def test_decomp_theta_S(ctx2, ctx3):
    assert _coords(peak.decomp_theta_S_codes, (2,), ctx2) == {(1, 1): 2}
    for ctx in (ctx2, ctx3):
        for n in (1, 2, 3, 4):
            for I in compositions_of(n):
                got = expand_sigma_coords(_coords(peak.decomp_theta_S_codes, I, ctx), ctx)
                assert got == theta_q(S(*I), ctx.zeta).to_basis("R")


def test_decomp_theta_R(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for n in (1, 2, 3, 4):
            for I in compositions_of(n):
                got = expand_sigma_coords(_coords(peak.decomp_theta_R_codes, I, ctx), ctx)
                assert got == theta_q(R(*I), ctx.zeta).to_basis("R")


def test_decomp_on_rho(ctx2, ctx3):
    z = ctx3.zeta
    sq = (1 - z) * (1 - z)
    assert _coords(peak.decomp_S_on_rho_codes, (1, 1), ctx3) == {(2,): sq, (1, 1): sq}
    for ctx in (ctx2, ctx3):
        for n in (1, 2, 3, 4):
            for I in compositions_of(n):
                got_s = expand_rho_coords(_coords(peak.decomp_S_on_rho_codes, I, ctx), ctx)
                assert got_s == theta_q(S(*I), ctx.zeta).to_basis("R")
                got_r = expand_rho_coords(_coords(peak.decomp_R_on_rho_codes, I, ctx), ctx)
                assert got_r == theta_q(R(*I), ctx.zeta).to_basis("R")


@pytest.mark.parametrize("N", [2, 3, 5])
def test_expansions_match_per_pair(N):
    # Each closed formula's coordinates, on codes, against the transform of
    # its word: S images in S and in ribbons, R images in ribbons, all in
    # one batch per family. Then the same pairs made wrong: zeta added to
    # one coefficient, a G word added, a 198-bit scale on one side only.
    # The first two pairs grow the most: every G word of weight 5 at a
    # 198-bit value, against no image (its ribbon 1^5 collects them all),
    # and no coordinates against every S word of weight 5 at that value
    # (its ribbon R_5 collects them all); a width with no room for the
    # steps carries them into the next segment. Each answer is the
    # per-pair expansion compared with the image.
    ctx = PeakContext(N)
    z, top = ctx.zeta, (1 << 198) - 1
    heavy = [
        (dict.fromkeys(ctx._G_words(5), top), NsymElement._trusted("R", {})),
        ({}, NsymElement._trusted("S", dict.fromkeys(range(16, 32), top))),
    ]
    cores = {
        ("Sigma", "S"): peak.decomp_theta_S_codes,
        ("Sigma", "R"): peak.decomp_theta_R_codes,
        ("rho", "S"): peak.decomp_S_on_rho_codes,
        ("rho", "R"): peak.decomp_R_on_rho_codes,
    }
    for family in ("Sigma", "rho"):
        expand = expand_sigma_coords if family == "Sigma" else expand_rho_coords
        pairs = list(heavy)
        for basis in ("S", "R"):
            core = cores[family, basis]
            for I, image in theta_q_images(all_words(basis, 0, 5), z, basis):
                coords = core(I, ctx)
                G = sorted(ctx._G_words(I.bit_length()))
                pairs.append((coords, image))
                pairs.append((coords, image.to_basis("R")))
                J = G[I % len(G)]
                pairs.append(({**coords, J: coords.get(J, 0) + z}, image))
                pairs.append(({**coords, G[-1]: 1}, image))
                wide = {K: c * top for K, c in coords.items()}
                pairs.append((wide, image.scale(top)))
                pairs.append((wide, image))
        want = []
        for coords, image in pairs:
            G = ctx._G_words(max(coords, default=0).bit_length())
            got = expand({G[J]: c for J, c in coords.items() if c}, ctx)
            want.append(got == image)
        assert True in want and False in want
        assert list(expansions_match(pairs, family, ctx)) == want
        assert list(expansions_match(iter(pairs[::-1]), family, ctx)) == want[::-1]


# A batch of 300 is cut into stacks of 128, 128 and 44: the items at 0,
# 127, 128 and 299 are the first and last of a stack.
_STACK_EDGES = (0, 127, 128, 299)


def _random_coords(rnd, ctx, n):
    """A few random coordinates on G(n), now and then 2^100 times larger."""
    z = ctx.zeta
    G = ctx.G(n)
    big = 1 << 100 if rnd.random() < 0.1 else 1
    return {J: big * rnd.choice((1, -1, 2, z, 1 - z, Fraction(1, 3)))
            for J in rnd.sample(G, min(3, len(G)))}


@pytest.mark.parametrize("N", [2, 3])
def test_in_sigma_span_across_stacks(N):
    # 300 elements of weights 3 to 7 in S and R, members of the span built
    # by the per-term expansion, except a ribbon outside added at each
    # stack edge. Each answer is the per-term peel's.
    ctx = PeakContext(N)
    rnd = random.Random(300 + N)
    outside = {n: next(R(*K) for K in compositions_of(n)
                       if membership_per_term(R(*K), ctx) is None) for n in range(3, 8)}
    batch = []
    for i in range(300):
        n = 3 + i % 5
        F = expand_sigma_per_term(_random_coords(rnd, ctx, n), ctx)
        if i in _STACK_EDGES:
            F = F + outside[n]
        batch.append(F.to_basis("S") if i % 3 else F)
    want = [membership_per_term(F, ctx) is not None for F in batch]
    assert [i for i, inside in enumerate(want) if not inside] == list(_STACK_EDGES)
    assert list(in_sigma_span(batch, ctx)) == want
    assert list(in_sigma_span(iter(batch), ctx)) == want
    assert list(in_sigma_span(batch[:128], ctx)) == want[:128]
    assert list(in_sigma_span(batch[:256], ctx)) == want[:256]


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("family", ["Sigma", "rho"])
def test_expansions_match_across_stacks(N, family):
    # 300 pairs of weights 1 to 7: random coordinates against their
    # per-term expansion, in R or S, made wrong at each stack edge by a
    # ribbon added to the image. Each answer is the per-term expansion's.
    ctx = PeakContext(N)
    rnd = random.Random(N)
    expand = expand_sigma_per_term if family == "Sigma" else expand_rho_per_term
    pairs, want = [], []
    for i in range(300):
        n = 1 + i % 7
        coords = _random_coords(rnd, ctx, n)
        image = expand(coords, ctx)
        if i in _STACK_EDGES:
            image = image + R(*(1,) * n)
        want.append(expand(coords, ctx) == image)
        codes = {encode(J): c for J, c in coords.items()}
        pairs.append((codes, image.to_basis("S") if i % 2 else image))
    assert [i for i, match in enumerate(want) if not match] == list(_STACK_EDGES)
    assert list(expansions_match(pairs, family, ctx)) == want
    assert list(expansions_match(iter(pairs), family, ctx)) == want


def test_stacked_refusals_by_stack(ctx3):
    # A stack is laid once its elements are read: an element refused as it
    # is read is met before a second conductor in its own stack or a later
    # one, and after a second conductor in an earlier stack.
    lumpy, other = R(2) + R(3), R(2).scale(zeta(4))
    batch = [Theta(S(2), 3)] * 300
    for refused, mixed in ((5, 100), (100, 5), (100, 200)):
        each = list(batch)
        each[refused], each[mixed] = lumpy, other
        with pytest.raises(ValueError, match="homogeneous"):
            list(in_sigma_span(each, ctx3))
    each = list(batch)
    each[5], each[200] = other, lumpy
    with pytest.raises(ValueError, match=r"^conductor mismatch: 3 vs 4"):
        list(in_sigma_span(each, ctx3))


def _one_stack_at_most(item):
    """item at every draw, failing the test at a draw past the first stack."""
    for drawn in range(peak.STACK_WORDS + 1):
        assert drawn < peak.STACK_WORDS, "read past the first stack"
        yield item


def test_stacked_checks_answer_stack_by_stack(ctx3):
    # Each stack's answers are yielded before the next item is read: the
    # whole first stack answers from a batch that fails the test once a
    # second stack is drawn (the Sigma coordinates of a transform image
    # match as Sigma coordinates, not as rho ones). A refused item after
    # the first stack is met only when the answers reach its stack.
    first = list(islice(in_sigma_span(_one_stack_at_most(Theta(S(2), 3)), ctx3),
                        peak.STACK_WORDS))
    assert first == [True] * peak.STACK_WORDS
    I = encode((2, 1))
    pair = (peak.decomp_theta_R_codes(I, ctx3), theta_q(R(2, 1), ctx3.zeta))
    for family, match in (("Sigma", True), ("rho", False)):
        answers = expansions_match(_one_stack_at_most(pair), family, ctx3)
        assert next(answers) is match
        assert list(islice(answers, peak.STACK_WORDS - 1)) == [match] * (peak.STACK_WORDS - 1)
    batch = [Theta(S(2), 3)] * peak.STACK_WORDS + [R(2) + R(3)]
    answers = in_sigma_span(batch, ctx3)
    assert list(islice(answers, peak.STACK_WORDS)) == [True] * peak.STACK_WORDS
    with pytest.raises(ValueError, match="homogeneous"):
        next(answers)


def test_decompositions_check_their_word(ctx3):
    for bad in [(0,), (1.0,)]:
        with pytest.raises(ValueError):
            theta_minus1_ribbon_expansion(bad)
    assert theta_minus1_ribbon_expansion(()) == {(): 1}
    for formula in (peak.decomp_theta_S_codes, peak.decomp_theta_R_codes,
                    peak.decomp_S_on_rho_codes, peak.decomp_R_on_rho_codes):
        assert formula(0, ctx3) == {0: 1}


def test_normalized_transform_lands_inside(ctx2, ctx3):
    # The image of any S word of the ideal generator weight stays in the
    # span; this is the membership route the expanders rely on.
    for ctx in (ctx2, ctx3):
        for n in (1, 2, 3, 4, 5):
            for I in compositions_of(n):
                img = Theta(S(*I), ctx.N)
                assert membership(img, ctx) is not None


def _checks(kind, ctx, order):
    """The (key, lhs, rhs, counterexample) checks of one series identity."""
    return list(cli.SERIES_CHECKS[kind](ctx, order, []))


def test_tangent_series(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        [(key, lhs, rhs, _)] = _checks("tangent", ctx, 7)
        assert key == "geometric-inverse"
        assert lhs == rhs == rho_ones_series(ctx, 7)
        assert lhs.homogeneous_component(0) == one("R")
    t2 = tangent_element_series(ctx2, 6)
    assert t2.homogeneous_component(1) == -R(1)
    assert t2.homogeneous_component(3) == R(2, 1)
    ones = rho_ones_series(ctx2, 4)
    assert ones.homogeneous_component(1) == -rho_basis((1,), ctx2)
    assert ones.homogeneous_component(2) == rho_basis((1, 1), ctx2)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_rho_ones_series_is_the_sum_of_its_degrees(N):
    # The closed sum over G(n) against the series built degree by degree
    # from the rho(t) and rho bases of (1^n).
    ctx = PeakContext(N)
    for t in (None, -1, 0, 2, Fraction(1, 2), ctx.zeta):
        want = one("R")
        for order in range(9):
            if order:
                ones = (1,) * order
                if t is None:
                    want = want + rho_basis(ones, ctx).scale((-1) ** order)
                else:
                    want = want + rho_t_basis(ones, t, ctx)
            assert rho_ones_series(ctx, order, t) == want, (t, order)


def test_sigma_lambda_identity(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        [(key, lhs, rhs, _)] = _checks("sigma-lambda", ctx, 7)
        assert key == "sigma-lambda"
        assert lhs == rhs == one("R")


def test_tangent_zeta(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        (key, lhs, rhs, _), *specialization = _checks("tangent-zeta", ctx, 7)
        assert key == "root-deformed"
        assert lhs == rhs == rho_ones_series(ctx, 7, ctx.zeta)
        assert len(specialization) == (ctx.N == 2)
    # At order 2 the root deformation is the negated tangent element.
    tz = tangent_zeta_element_series(ctx2, 6)
    t = tangent_element_series(ctx2, 6)
    assert tz == t.scale(-1)
    [_, (key, lhs, rhs, _)] = _checks("tangent-zeta", ctx2, 6)
    assert (key, lhs, rhs) == ("order-2-specialization", tz, t.scale(-1))


def test_block_generator_series(ctx2, ctx3):
    # Two identities for each j in [1, N - 1], neither reported by
    # `nsympeak tangent`.
    for ctx in (ctx2, ctx3):
        checks = _checks("rnij-series", ctx, 7)
        assert len(checks) == 2 * (ctx.N - 1)
        for key, lhs, rhs, _ in checks:
            assert key is None and lhs == rhs


def test_linear_maps_make_no_cyclotomic_adds(monkeypatch):
    # The {-1, 0, 1} maps run on integer zeta-components: a scalar add
    # inside them means a per-term path came back.
    ctx = PeakContext(3)
    z = zeta(3)
    coords = {J: z + k for k, J in enumerate(ctx.G(6))}
    F = expand_sigma_coords(coords, ctx)
    rho = rho_membership(F, ctx)
    Fs = r_to_s(F)
    adds = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        def counted(self, other, _op=getattr(CyclotomicNumber, name)):
            adds.append(name)
            return _op(self, other)
        monkeypatch.setattr(CyclotomicNumber, name, counted)
    assert s_to_r(Fs).terms == F.terms
    assert r_to_s(F).terms == Fs.terms
    assert membership(F, ctx) == coords
    assert membership(Fs, ctx) == coords
    assert expand_rho_coords(rho, ctx).terms == F.terms
    assert adds == []
    # The wrapper does see the adds of the per-term oracle.
    s_to_r_per_term(Fs)
    assert adds
