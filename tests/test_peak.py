"""Tests for the higher-order peak subalgebras and their bases."""

import functools
import random
from fractions import Fraction

import pytest

from nsympeak import peak
from nsympeak.compositions import (
    F_set,
    G_set,
    compositions_of,
    descent_set,
    epsilon,
    hilbert_dim,
    peak_set_of_composition,
)
from nsympeak.descent import internal_product
from nsympeak.elements import (
    CapacityError,
    NsymElement,
    R,
    S,
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
    decomp_R_on_rho,
    decomp_S_on_rho,
    decomp_theta_R,
    decomp_theta_S,
    expand_T_coords,
    expand_rho_coords,
    expand_sigma_coords,
    in_T_ideal,
    in_sigma_span,
    lemma_rnij_series,
    membership,
    morphism_check,
    pi_N,
    rho_basis,
    rho_membership,
    rho_ones_series,
    rho_t_basis,
    rho_t_primed_basis,
    sigma_basis,
    sigma_lambda_N,
    tangent_element_series,
    tangent_series,
    tangent_zeta_element_series,
    tangent_zeta_series,
    theta_minus1_ribbon_expansion,
)
from nsympeak.scalars import CyclotomicNumber, zeta, zeta_pow
from nsympeak.series import Theta, theta_q
from oracles import (
    classical_peak_functions_filtered,
    expand_rho_per_term,
    is_valid_peak_set,
    membership_per_term,
    rho_membership_per_term,
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
    assert in_sigma_span(batch, ctx3) == want
    assert in_sigma_span(iter(batch), ctx3) == want
    ribbons = want[-len(words) - 1:-1]
    assert True in ribbons and False in ribbons and not want[-1]


def test_in_sigma_span_batches(ctx2, ctx3):
    assert in_sigma_span([], ctx3) == []
    # Segments of different widths: one element far wider than the rest.
    big = 1 << 300
    inside = Theta(S(2, 1), 3)
    batch = [
        R(1, 1), inside.scale(big), R(3), (inside + R(3)).scale(big),
        sigma_basis((1, 2), ctx3).scale(Fraction(1, big)), R(1, 2), zero("R"),
    ]
    want = [membership(F, ctx3) is not None for F in batch]
    assert want == [True, True, False, False, True, False, True]
    assert in_sigma_span(batch, ctx3) == want
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
        assert in_sigma_span(batch, ctx3) == want
    with pytest.raises(
        ValueError, match=r"^conductor mismatch: 3 vs 4 \(no automatic lifting\)$"
    ):
        in_sigma_span([Theta(S(2), 3), R(2), R(2).scale(zeta(4))], ctx3)
    # Each element is refused as membership refuses it.
    with pytest.raises(ValueError, match="homogeneous"):
        in_sigma_span([R(2), R(2) + R(3)], ctx2)
    with pytest.raises(CapacityError):
        in_sigma_span([R(2), R(21)], ctx2)


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


def test_morphism_on_ideal(ctx2, ctx3):
    ok, counterexample, failure = morphism_check(ctx2, 4)
    assert ok and failure is None
    assert counterexample == ((2,), (1,))
    ok, counterexample, failure = morphism_check(ctx3, 4)
    assert ok and failure is None
    assert counterexample == ((3,), (1,))


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


def test_decomp_theta_S(ctx2, ctx3):
    assert decomp_theta_S((2,), ctx2) == {(1, 1): 2}
    for ctx in (ctx2, ctx3):
        for n in (1, 2, 3, 4):
            for I in compositions_of(n):
                got = expand_sigma_coords(decomp_theta_S(I, ctx), ctx)
                assert got == theta_q(S(*I), ctx.zeta).to_basis("R")


def test_decomp_theta_R(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for n in (1, 2, 3, 4):
            for I in compositions_of(n):
                got = expand_sigma_coords(decomp_theta_R(I, ctx), ctx)
                assert got == theta_q(R(*I), ctx.zeta).to_basis("R")


def test_decomp_on_rho(ctx2, ctx3):
    z = ctx3.zeta
    sq = (1 - z) * (1 - z)
    assert decomp_S_on_rho((1, 1), ctx3) == {(2,): sq, (1, 1): sq}
    for ctx in (ctx2, ctx3):
        for n in (1, 2, 3, 4):
            for I in compositions_of(n):
                got_s = expand_rho_coords(decomp_S_on_rho(I, ctx), ctx)
                assert got_s == theta_q(S(*I), ctx.zeta).to_basis("R")
                got_r = expand_rho_coords(decomp_R_on_rho(I, ctx), ctx)
                assert got_r == theta_q(R(*I), ctx.zeta).to_basis("R")


def test_decompositions_check_their_word(ctx3):
    expansions = [theta_minus1_ribbon_expansion] + [
        functools.partial(formula, ctx=ctx3)
        for formula in (decomp_theta_S, decomp_theta_R, decomp_S_on_rho, decomp_R_on_rho)
    ]
    for expand in expansions:
        for bad in [(0,), (1.0,)]:
            with pytest.raises(ValueError):
                expand(bad)
        assert expand(()) == {(): 1}


def test_normalized_transform_lands_inside(ctx2, ctx3):
    # The image of any S word of the ideal generator weight stays in the
    # span; this is the membership route the expanders rely on.
    for ctx in (ctx2, ctx3):
        for n in (1, 2, 3, 4, 5):
            for I in compositions_of(n):
                img = Theta(S(*I), ctx.N)
                assert membership(img, ctx) is not None


def test_tangent_series(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        lhs, rhs, ok = tangent_series(ctx, 7)
        assert ok
        assert lhs.homogeneous_component(0) == one("R")
    t2 = tangent_element_series(ctx2, 6)
    assert t2.homogeneous_component(1) == -R(1)
    assert t2.homogeneous_component(3) == R(2, 1)
    ones = rho_ones_series(ctx2, 4)
    assert ones.homogeneous_component(1) == -rho_basis((1,), ctx2)
    assert ones.homogeneous_component(2) == rho_basis((1, 1), ctx2)


def test_sigma_lambda_identity(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        _, _, ok = sigma_lambda_N(ctx, 7)
        assert ok


def test_tangent_zeta(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        _, _, ok = tangent_zeta_series(ctx, 7)
        assert ok
    # At order 2 the root deformation is the negated tangent element.
    tz = tangent_zeta_element_series(ctx2, 6)
    t = tangent_element_series(ctx2, 6)
    assert tz == t.scale(-1)


def test_block_generator_series(ctx2, ctx3):
    assert lemma_rnij_series(ctx2, 1, 7) == (True, True)
    assert lemma_rnij_series(ctx3, 1, 7) == (True, True)
    assert lemma_rnij_series(ctx3, 2, 7) == (True, True)


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
