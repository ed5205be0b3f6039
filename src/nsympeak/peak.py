"""Higher-order peak algebras inside Sym.

For an order N >= 2 and each weight n, the compositions in the index
family G (parts in [1, N], last part in [1, N-1]) label a basis of a
subalgebra of Sym_n: the sums Sigma_I of ribbons over the order-N split
poset's lower sets. This module provides those sums, the alternating
companions rho_I and their t-deformations, the multiplicative T basis
indexed by the partner family F, the projector pi_N whose image is the
subalgebra, a membership solver, and the classical order-2 layer of peak
functions, each built directly from the descent sets with a given peak
set.

It also carries the closed decomposition formulas for the transformed
elements theta_zeta(S^I) and theta_zeta(R_I) in Sigma and rho
coordinates, and the tangent-style series identities. The transform
theta_q of the series module is the oracle everywhere: each closed
formula here is a verified view of it, never the definition, and
theta_q's own closed hook-sum generator is checked against its series
definition. Where the source statements of those formulas admit more
than one reading, the implemented reading is the one that agrees with
the oracle; the docstrings state it precisely.

Decomposition results are returned as plain coordinate dicts mapping a
composition in G to its scalar, since Sigma and rho are not storage
bases of NsymElement; ``expand_sigma_coords``, ``expand_rho_coords``
and ``expand_T_coords`` turn them back into ribbon-basis elements. Every
Sigma, rho, rho(t), T and pi_N expansion is a set of Sigma coordinates
handed to ``expand_sigma_coords``, which adds each coordinate over its
lower set in one pass; rho coordinates move to Sigma coordinates first,
T coordinates along the block bijection (T_K = Sigma_{epsilon^-1(K)}).

Those expansions, the membership peel and the rho push-forward all have
coefficients in {-1, 0, 1}, so they run on the integer zeta-components
of the elements module: ``split_terms`` once on the way in, integer adds
over the lower sets, ``join_terms`` once per output word on the way out.
The peel runs component by component: J is in its own lower set and
every other word there is shorter, so the coordinate of J is read off
each component's residue the same way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from operator import mul

from .compositions import (
    G_set,
    admissible_peaks,
    aligned_positions,
    alpha_stat,
    b_stat,
    check_composition,
    composition_from_descents,
    compositions_of,
    descent_set,
    epsilon,
    epsilon_inv,
    h_stat,
    is_in_G,
    is_valid_peak_set,
    lower_set,
    peak_set_of_composition,
)
from .elements import (
    CapacityError,
    NsymElement,
    R,
    join_terms,
    linear_combination,
    lower_sums,
    multiply,
    one,
    split_terms,
)
from .scalars import scalar_pow, zeta, zeta_pow
from .series import series_inverse, series_product

_ONE = Fraction(1)

MAX_MEMBERSHIP_WEIGHT = 20


class PeakContext:
    """Caches for one order N: the G families and poset lower sets."""

    __slots__ = ("N", "zeta", "_G", "_lower")

    def __init__(self, N):
        if N < 2:
            raise ValueError(
                "order must be >= 2; order 1 is plain Sym (use the series "
                "module: the normalized transform degenerates to power sums)"
            )
        self.N = N
        self.zeta = zeta(N)
        self._G = {}
        self._lower = {}

    def G(self, n):
        got = self._G.get(n)
        if got is None:
            got = tuple(G_set(n, self.N))
            self._G[n] = got
        return got

    def lower(self, I):
        got = self._lower.get(I)
        if got is None:
            got = tuple(lower_set(I, self.N))
            self._lower[I] = got
        return got

    def in_G(self, I):
        return is_in_G(I, self.N)

    def lower_in_G(self, I):
        return [J for J in self.lower(I) if is_in_G(J, self.N)]

    def zeta_power(self, k):
        return zeta_pow(self.N, k)

    def __repr__(self):
        return f"PeakContext(N={self.N})"


def _require_G(I, ctx):
    I = check_composition(I)
    if not ctx.in_G(I):
        raise ValueError(
            f"{I} is not in the order-{ctx.N} index family "
            f"(parts in [1,{ctx.N}], last part in [1,{ctx.N - 1}])"
        )
    return I


# ---------------------------------------------------------------------------
# bases


def sigma_basis(I, ctx):
    """Sigma_I: the sum of R_J over the lower set of I in the split poset."""
    I = _require_G(I, ctx)
    return NsymElement._trusted("R", {J: _ONE for J in ctx.lower(I)})


def _rho_t(I, t, ctx, sign):
    """Sum of t^(l(I) + sign*l(J)) Sigma_J over the J in G below I."""
    I = _require_G(I, ctx)
    li = len(I)
    return expand_sigma_coords(
        {J: scalar_pow(t, li + sign * len(J)) for J in ctx.lower_in_G(I)},
        ctx,
    )


def rho_t_basis(I, t, ctx):
    """The t-deformation: sum of t^(l(I)-l(J)) Sigma_J over J in G below I.

    At t = -1 this is rho_I; at t = 0 it collapses to Sigma_I alone and
    is no longer part of a basis family, though still a valid element.
    """
    return _rho_t(I, t, ctx, -1)


def rho_basis(I, ctx):
    """rho_I: the alternating Sigma-sum over J in G below I."""
    return rho_t_basis(I, Fraction(-1), ctx)


def rho_t_primed_basis(I, t, ctx):
    """The primed deformation, with exponent l(I)+l(J) instead.

    Satisfies rho'_I(t) = t^(2 l(I)) rho_I(1/t) for t != 0.
    """
    return _rho_t(I, t, ctx, 1)


def T_basis(K, ctx):
    """T_K: the product of the ribbons R_(N^i j) over the parts N*i+j of K."""
    K = check_composition(K)
    N = ctx.N
    out = one("R")
    for part in K:
        i, j = divmod(part, N)
        if j == 0:
            raise ValueError(f"part {part} of {K} is divisible by N={N}")
        out = multiply(out, R(*((N,) * i + (j,))))
    return out


def _split_G(coords, ctx):
    return split_terms({_require_G(J, ctx): c for J, c in coords.items()})


def expand_sigma_coords(coords, ctx):
    """Turn {J: c} Sigma-coordinates into a ribbon-basis element."""
    N, den, parts = _split_G(coords, ctx)
    parts = lower_sums(parts, ctx.lower)
    return NsymElement._trusted("R", join_terms(N, den, parts))


def expand_rho_coords(coords, ctx):
    """Turn {J: c} rho-coordinates into a ribbon-basis element.

    rho_I is the sum of (-1)^(l(I)-l(J)) Sigma_J over the J in G below
    I, so the coordinates move to the Sigma family first.
    """
    N, den, parts = _split_G(coords, ctx)
    parts = lower_sums(lower_sums(parts, ctx.lower_in_G, True), ctx.lower)
    return NsymElement._trusted("R", join_terms(N, den, parts))


def expand_T_coords(coords, ctx):
    """Turn {K: c} T-coordinates into a ribbon-basis element.

    T_K is Sigma of the inverse block image of K (K in F, its image in
    G), so the coordinates move to the Sigma family along the bijection.
    """
    return expand_sigma_coords(
        {epsilon_inv(K, ctx.N): c for K, c in coords.items()}, ctx
    )


# ---------------------------------------------------------------------------
# projector, membership, ideal test


def pi_N(F, ctx):
    """Send S^I to Sigma_I when I is in G, to zero otherwise, linearly."""
    return expand_sigma_coords(
        {I: c for I, c in F.to_basis("S").terms.items() if ctx.in_G(I)}, ctx
    )


def _sigma_parts(F, ctx):
    """membership's peel, returning (N, den, parts) as split_terms does."""
    Fr = F.to_basis("R")
    ws = Fr.weights()
    if len(ws) > 1:
        raise ValueError(f"membership needs a homogeneous element, weights {ws}")
    if ws and ws[0] > MAX_MEMBERSHIP_WEIGHT:
        raise CapacityError(
            f"weight {ws[0]} exceeds the membership limit {MAX_MEMBERSHIP_WEIGHT}"
        )
    N, den, parts = split_terms(Fr.terms)
    if not ws:
        return N, den, parts
    candidates = sorted(ctx.G(ws[0]), key=len, reverse=True)
    coords = []
    for residual in parts:
        got = {}
        for J in candidates:
            c = residual.get(J)
            if c:
                got[J] = c
                for K in ctx.lower(J):
                    residual[K] = residual.get(K, 0) - c
        if any(residual.values()):
            return None
        coords.append(got)
    return N, den, coords


def membership(F, ctx):
    """Coordinates of F in the Sigma basis, or None when F is outside.

    The system is triangular: Sigma_J is R_J plus ribbons of strictly
    smaller length, so peeling candidates by decreasing length makes
    each coordinate read off directly; a nonzero final residue proves
    non-membership. Input must be homogeneous, of weight at most
    MAX_MEMBERSHIP_WEIGHT (CapacityError above it).
    """
    got = _sigma_parts(F, ctx)
    return None if got is None else join_terms(*got)


def rho_membership(F, ctx):
    """Coordinates of F in the rho family, or None when outside.

    Each Sigma_I is the sign-free sum of rho_J over the J in G below I,
    so the Sigma coordinates push forward by summing over lower sets.
    """
    got = _sigma_parts(F, ctx)
    if got is None:
        return None
    N, den, parts = got
    return join_terms(N, den, lower_sums(parts, ctx.lower_in_G))


def T_membership(F, ctx):
    """Coordinates of F on the T products, or None when outside.

    Sigma_I equals the T product indexed by the block image of I, so the
    Sigma coordinates transport along that bijection.
    """
    sig = membership(F, ctx)
    if sig is None:
        return None
    return {epsilon(I, ctx.N): c for I, c in sig.items()}


def in_T_ideal(F, N):
    """True iff every S-word of F ends in a part not divisible by N.

    Those words span the left ideal generated by the complete functions
    of degree not divisible by N; the unit (empty word) is outside it.
    """
    Fs = F.to_basis("S")
    for K in Fs.terms:
        if not K or K[-1] % N == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the classical order-2 layer


def classical_peak_function(I):
    """Pi_I: the sum of ribbons R_J over J with peak set equal to D(I).

    J has peak set P exactly when D(J) is a union of runs of consecutive
    positions, one from each p in P and optionally one from 1, each
    ending at least two before the next starts and the last by n - 1.
    The words are built from every choice of run ends.
    """
    I = check_composition(I)
    n = sum(I)
    peaks = sorted(descent_set(I))
    if not is_valid_peak_set(peaks, n):
        raise ValueError(f"descent set of {I} is not a peak set for weight {n}")
    if n == 0:
        return one("R")
    starts = [0, *peaks]  # the run from 0 is the optional run from 1
    ends = [range(s, t - 1) for s, t in zip(starts, [*peaks, n + 1])]
    return NsymElement._trusted(
        "R",
        {
            composition_from_descents(
                [d for s, e in zip(starts, es) for d in range(s or 1, e + 1)], n
            ): _ONE
            for es in product(*ends)
        },
    )


def theta_minus1_ribbon_expansion(I):
    """Coordinates of the q = -1 transform of R_I on the peak functions.

    Returns {J: 2^(|D(J)|+1)} over the peak compositions J of the same
    weight whose descent set avoids consecutive positions of D(I), i.e.
    sits inside the symmetric difference of D(I) with its right shift.
    """
    I = check_composition(I)
    n = sum(I)
    if n == 0:
        return {(): _ONE}
    # The words whose descents lie in the gate are the coarsenings of the
    # composition cut at the gate (n itself is never a descent).
    cuts = sorted(admissible_peaks(I) - {n})
    gate = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    out = {}
    for J in lower_set(gate):
        d = descent_set(J)
        if is_valid_peak_set(d, n):
            out[J] = Fraction(2) ** (len(d) + 1)
    return out


# ---------------------------------------------------------------------------
# closed decompositions of the transformed basis elements


def decomp_theta_S(I, ctx):
    """Sigma-coordinates of the order-N transform of S^I.

    The sum runs over J in G refining I (D(I) contained in D(J)); the
    coefficient is (-1)^(l(I)-l(J)) zeta^(n - sum of the parts of J at
    aligned positions) times the product of (1 - zeta^(j_l)) over those
    positions. Aligned positions are where J's running sums meet I's.
    """
    I = check_composition(I)
    n = sum(I)
    if n == 0:
        return {(): _ONE}
    di = descent_set(I)
    li = len(I)
    out = {}
    for J in ctx.G(n):
        if not di <= descent_set(J):
            continue
        hooks = aligned_positions(I, J)
        coeff = _ONE if (li - len(J)) % 2 == 0 else -_ONE
        exp = n
        for l in hooks:
            exp -= J[l - 1]
            coeff = coeff * (1 - ctx.zeta_power(J[l - 1]))
        coeff = coeff * ctx.zeta_power(exp)
        if coeff:
            out[J] = coeff
    return out


def decomp_theta_R(I, ctx):
    """Sigma-coordinates of the order-N transform of R_I.

    The sum runs over every J in G of the same weight, with coefficient
    (-1)^(l(I)-l(J)) zeta^a (1 - zeta^(last part of J)), where a adds up
    the non-final parts of J whose running sum is not a descent of I.
    """
    I = check_composition(I)
    n = sum(I)
    if n == 0:
        return {(): _ONE}
    li = len(I)
    out = {}
    for J in ctx.G(n):
        a = alpha_stat(I, J)
        coeff = _ONE if (li - len(J)) % 2 == 0 else -_ONE
        coeff = coeff * ctx.zeta_power(a) * (1 - ctx.zeta_power(J[-1]))
        if coeff:
            out[J] = coeff
    return out


def decomp_S_on_rho(I, ctx):
    """rho-coordinates of the order-N transform of S^I.

    The sum runs over J in G whose ribbon cut along I yields only hook
    pieces; the coefficient is (1-zeta)^l(I) (-zeta)^h with h the total
    number of leading ones over the pieces.
    """
    I = check_composition(I)
    n = sum(I)
    if n == 0:
        return {(): _ONE}
    lead = scalar_pow(1 - ctx.zeta, len(I))
    twist = list(accumulate([-ctx.zeta] * n, mul, initial=_ONE))
    out = {}
    for J in ctx.G(n):
        h = h_stat(I, J)
        if h is None:
            continue
        coeff = lead * twist[h]
        if coeff:
            out[J] = coeff
    return out


def decomp_R_on_rho(I, ctx):
    """rho-coordinates of the order-N transform of R_I.

    The sum runs over J in G whose peak set sits inside the admissible
    positions of I; the coefficient is (1-zeta)^(number of hook pieces
    of J) times (-zeta)^b with b counting the shifted descent mismatch
    between I and J.
    """
    I = check_composition(I)
    n = sum(I)
    if n == 0:
        return {(): _ONE}
    hooks = list(accumulate([1 - ctx.zeta] * n, mul, initial=_ONE))
    twist = list(accumulate([-ctx.zeta] * n, mul, initial=_ONE))
    out = {}
    for J in ctx.G(n):
        b = b_stat(I, J)
        if b is None:
            continue
        coeff = hooks[len(peak_set_of_composition(J)) + 1] * twist[b]
        if coeff:
            out[J] = coeff
    return out


# ---------------------------------------------------------------------------
# tangent-style series identities
#
# These series live over the grading of Sym itself: the coefficient in
# degree d is homogeneous of weight d, so a series truncated at ``order``
# is the element of its words of weight <= order, and the truncated
# product and inverse of the series module track the graded components.


def _block_series(ctx, order, coeff, js):
    """coeff(i, j) R_(N^i j) in degree N*i+j, over i >= 0 and j in js."""
    N = ctx.N
    return NsymElement(
        "R",
        {
            (N,) * i + (j,): coeff(i, j)
            for i in range(order // N + 1)
            for j in js
            if N * i + j <= order
        },
    )


def tangent_element_series(ctx, order):
    """The alternating sum of the block generators, graded by weight."""
    return _block_series(
        ctx, order, lambda i, j: _ONE if i % 2 else -_ONE, range(1, ctx.N)
    )


def rho_ones_series(ctx, order, t=None):
    """Sum over n of rho_(1^n), alternating when t is None, at t otherwise.

    With t given, degree n carries rho_(1^n)(t) with no extra sign (the
    sign-free normalization is the one the geometric-series identity
    below actually satisfies); with t omitted, degree n carries
    (-1)^n rho_(1^n).
    """
    pairs = [(one("R"), _ONE)]
    for n in range(1, order + 1):
        ones = (1,) * n
        if t is None:
            pairs.append((rho_basis(ones, ctx), _ONE if n % 2 == 0 else -_ONE))
        else:
            pairs.append((rho_t_basis(ones, t, ctx), _ONE))
    return linear_combination("R", pairs)


def tangent_series(ctx, order):
    """Check (1 - t)^{-1} = sum of (-1)^n rho_(1^n): returns both sides."""
    t = tangent_element_series(ctx, order)
    lhs = series_inverse(one("R") - t, order)
    rhs = rho_ones_series(ctx, order)
    return lhs, rhs, lhs == rhs


def sigma_lambda_N(ctx, order):
    """Check that the two one-parameter series multiply to 1.

    sigma_N has the block generators with sign (-1)^i in degree N*i+j;
    lambda_N has (-1)^n rho_(1^n) in degree n. Their product (in this
    order) telescopes to 1; this is the sign normalization under which
    the stated product identity holds.
    """
    sig = one("R") - tangent_element_series(ctx, order)
    lam = rho_ones_series(ctx, order)
    return sig, lam, series_product(sig, lam, order) == one()


def tangent_zeta_element_series(ctx, order):
    """The root-deformed tangent element: zeta^(j-i-1) blocks, graded.

    At order 2 the deformation coefficient collapses to (-1)^i, the
    negative of the plain tangent element's sign.
    """
    return _block_series(
        ctx, order, lambda i, j: ctx.zeta_power(j - i - 1), range(1, ctx.N)
    )


def tangent_zeta_series(ctx, order):
    """Check the root-of-unity deformation of the tangent identity.

    The inverse of 1 - t_zeta equals the plain sum of rho_(1^n)(zeta)
    (sign-free: expanding the geometric series gives every K in G the
    coefficient zeta^(|K| - l(K)), which is exactly the sign-free rho
    deformation at zeta).
    """
    t = tangent_zeta_element_series(ctx, order)
    lhs = series_inverse(one("R") - t, order)
    rhs = rho_ones_series(ctx, order, t=ctx.zeta)
    return lhs, rhs, lhs == rhs


def lemma_rnij_series(ctx, j, order):
    """Check the generating series of the single-block ribbons.

    Two identities: the alternating series of R_(N^m j) z^(m N + j)
    equals the inverse of the degree-multiple-of-N complete series times
    the degree-congruent-to-j complete series; and one plus the sum of
    those block series over all j inverts to the elementary series at -z
    times the multiple-of-N complete series.
    """
    N = ctx.N
    if not 1 <= j <= N - 1:
        raise ValueError(f"need 1 <= j <= N-1, got j={j}")

    s_multiples = NsymElement(
        "S", {(d,) if d else (): _ONE for d in range(0, order + 1, N)}
    )
    s_congruent = NsymElement("S", {(d,): _ONE for d in range(j, order + 1, N)})
    block = _block_series(
        ctx, order, lambda i, _: -_ONE if i % 2 else _ONE, (j,)
    )
    first = block == series_product(
        series_inverse(s_multiples, order), s_congruent, order
    )

    # One plus the block series over all j is sigma_N = 1 - t.
    total = one("R") - tangent_element_series(ctx, order)
    lam = NsymElement(
        "R", {(1,) * d: -_ONE if d % 2 else _ONE for d in range(order + 1)}
    )
    second = series_inverse(total, order) == series_product(
        lam, s_multiples, order
    )
    return first, second


# ---------------------------------------------------------------------------
# the projector as an algebra morphism on the ideal


def morphism_check(ctx, n_max):
    """Sweep pi_N(S^I S^J) = pi_N(S^I) pi_N(S^J) for S^I in the ideal.

    Returns (ok, counterexample, failure): ok covers all pairs with the
    left factor's last part not divisible by N and total weight <=
    n_max, and failure is the first such pair violating the equality
    (None when ok). counterexample is a pair violating the equality once
    that hypothesis is dropped (evidence the hypothesis is needed), or
    None if the search found none.
    """
    N = ctx.N
    ok = True
    counterexample = None
    failure = None
    for total in range(n_max + 1):
        for a in range(total + 1):
            for I in compositions_of(a):
                left = NsymElement("S", {I: 1})
                left_in_ideal = bool(I) and I[-1] % N != 0
                for J in compositions_of(total - a):
                    right = NsymElement("S", {J: 1})
                    lhs = pi_N(multiply(left, right), ctx)
                    rhs = multiply(pi_N(left, ctx), pi_N(right, ctx))
                    if left_in_ideal:
                        if lhs != rhs:
                            ok = False
                            if failure is None:
                                failure = (I, J)
                    elif lhs != rhs and counterexample is None:
                        counterexample = (I, J)
    return ok, counterexample, failure
