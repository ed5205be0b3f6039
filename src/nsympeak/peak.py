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
whose ribbons are summed over their lower sets; rho
coordinates move to Sigma coordinates first, T coordinates along the
block bijection (T_K = Sigma_{epsilon^-1(K)}). A coordinate that is not
a scalar (a float, a string) raises the TypeError of ``NsymElement``.

Those expansions, membership and the rho push-forward all have
coefficients in {-1, 0, 1}, so they run on the packed integer
zeta-columns of the scalars module: ``split_terms`` once on the way in
(one int per word), one pass of the sum over the order-N lower sets one
descent at a time (``compositions.lower_forward``) or, for membership,
its inverse (``compositions.lower_inverse``), and ``join_terms`` once
on the way out. ``in_sigma_span`` tests a whole batch of elements at
once: their packed ints lie side by side (``stack_terms``), so one
inverse serves the batch, and membership is its one-element case.
The rho maps prune the forward steps to G: a word coarser than one
outside G is outside G, so a step that leaves G is dropped at once and
no lower set is listed. A single Sigma or rho(t) word lists its lower
set (``compositions.lower_codes``). An element heavier than
MAX_MEMBERSHIP_WEIGHT is refused before membership starts, through the
scalars module's ``check_limit``.

Like the elements, every map here runs on word codes (see the
compositions module): a PeakContext tests G on codes (``_in_G``).
Coordinate dicts, in and out, are keyed by composition tuples, the
public spelling: the expansions check and encode their coordinates
in one pass and membership decodes its answer once. pi_N and the rho(t)
bases already hold codes, and hand them straight to the one Sigma
expansion on codes that ``expand_sigma_coords`` also ends in.
The closed decompositions and the q = -1 peak expansion run on codes
too: each statistic of their formulas is a few bit operations on the
codes of I and J. The decompositions key their coordinates by the
compositions that a PeakContext holds for the codes of G
(``_G_words``); the q = -1 expansion decodes its coordinates once.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import mul

from .compositions import (
    G_set,
    check_composition,
    compositions_of,
    decode,
    descent_set,
    encode,
    epsilon,
    epsilon_inv,
    is_in_G,
    lower_codes,
    lower_forward,
    lower_inverse,
)
from .elements import (
    NsymElement,
    R,
    _as_scalar,
    linear_combination,
    multiply,
    one,
)
from .scalars import (
    check_limit, join_terms, scalar_pow, split_terms, stack_terms, zeta, zeta_pow,
)
from .series import series_inverse, series_product


MAX_MEMBERSHIP_WEIGHT = 20


class PeakContext:
    """Caches for one order N: the G families and the powers of zeta_N
    it has made (only those asked for, never all N).

    The public methods take and return composition tuples; the peak maps
    read the G test and the G families on codes, ``_in_G`` and
    ``_G_words``.
    """

    __slots__ = ("N", "zeta", "_G", "_words", "_runs", "_zeta_powers")

    def __init__(self, N):
        if N < 2:
            raise ValueError(
                "order must be >= 2; order 1 is plain Sym (use the series "
                "module: the normalized transform degenerates to power sums)"
            )
        self.N = N
        self.zeta = zeta(N)
        self._G = {}
        self._words = {}
        self._runs = ("0" * (N - 1), "0" * N)
        self._zeta_powers = {}

    def G(self, n):
        got = self._G.get(n)
        if got is None:
            got = tuple(G_set(n, self.N))
            self._G[n] = got
        return got

    def _G_words(self, n):
        """{code: composition} over G(n), in the same (ascending) order:
        the decomposition formulas walk the codes and key their output
        by the compositions, with no decoding."""
        got = self._words.get(n)
        if got is None:
            got = self._words[n] = {encode(I): I for I in self.G(n)}
        return got

    def in_G(self, I):
        return is_in_G(I, self.N)

    def _in_G(self, code):
        """in_G on a code: no part above N (no run of N clear bits below
        the top bit) and a last part below N (fewer than N - 1 clear bits
        right under it)."""
        last, run = self._runs
        bits = bin(code)[3:]
        return not (bits.startswith(last) or run in bits)

    def zeta_power(self, k):
        """zeta_N^k, made once per exponent k mod N and then kept."""
        k %= self.N
        got = self._zeta_powers.get(k)
        if got is None:
            got = self._zeta_powers[k] = zeta_pow(self.N, k)
        return got

    def __repr__(self):
        return f"PeakContext(N={self.N})"


def _require_G(I, ctx):
    """The code of I, or ValueError unless I is a composition in G."""
    I = check_composition(I)
    code = encode(I)
    if not ctx._in_G(code):
        raise ValueError(
            f"{I} is not in the order-{ctx.N} index family "
            f"(parts in [1,{ctx.N}], last part in [1,{ctx.N - 1}])"
        )
    return code


# ---------------------------------------------------------------------------
# bases


def sigma_basis(I, ctx):
    """Sigma_I: the sum of R_J over the lower set of I in the split poset."""
    lower = lower_codes(_require_G(I, ctx), ctx.N)
    return NsymElement._trusted("R", dict.fromkeys(lower, 1))


def _rho_t(I, t, ctx, sign):
    """Sum of t^(l(I) + sign*l(J)) Sigma_J over the J in G below I."""
    I = _require_G(I, ctx)
    li = I.bit_count()
    return _expand_sigma(
        {
            J: scalar_pow(t, li + sign * J.bit_count())
            for J in lower_codes(I, ctx.N)
            if ctx._in_G(J)
        },
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
    return rho_t_basis(I, -1, ctx)


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


def _G_codes(coords, ctx):
    """{code: scalar} for the coordinates {J: c}: each J checked to be in
    G and encoded, each c checked to be a scalar (TypeError otherwise)."""
    return {_require_G(J, ctx): _as_scalar(c) for J, c in coords.items()}


def _decoded(codes):
    return {decode(J): c for J, c in codes.items()}


def _weight(codes):
    """The largest weight among the codes (0 for none)."""
    return max(codes, default=0).bit_length()


def _expand_sigma(codes, ctx):
    """The ribbon-basis element of the Sigma-coordinates {code: scalar}."""
    N, den, width, packed = split_terms(codes, _weight(codes))
    return NsymElement._trusted(
        "R", join_terms(N, den, width, lower_forward(packed, ctx.N))
    )


def expand_sigma_coords(coords, ctx):
    """Turn {J: c} Sigma-coordinates into a ribbon-basis element."""
    return _expand_sigma(_G_codes(coords, ctx), ctx)


def expand_rho_coords(coords, ctx):
    """Turn {J: c} rho-coordinates into a ribbon-basis element.

    rho_I is the sum of (-1)^(l(I)-l(J)) Sigma_J over the J in G below
    I, so the coordinates move to the Sigma family first: a signed
    forward sum pruned to G.
    """
    codes = _G_codes(coords, ctx)
    N, den, width, packed = split_terms(codes, 2 * _weight(codes))
    sigma = lower_forward(packed, ctx.N, -1, ctx._in_G)
    return NsymElement._trusted(
        "R", join_terms(N, den, width, lower_forward(sigma, ctx.N))
    )


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
    return _expand_sigma(
        {I: c for I, c in F.to_basis("S").codes.items() if ctx._in_G(I)}, ctx
    )


def _ribbons(F):
    """F's ribbon coordinates and its weight, once F is checked to be
    homogeneous and at most MAX_MEMBERSHIP_WEIGHT heavy."""
    Fr = F.to_basis("R")
    ws = Fr.weights()
    if len(ws) > 1:
        raise ValueError(f"membership needs a homogeneous element, weights {ws}")
    n = max(ws, default=0)
    check_limit(n, MAX_MEMBERSHIP_WEIGHT, "membership", "weight units")
    return Fr.codes, n


def _sigma_stack(elements, ctx, passes):
    """Split the ribbon coordinates of each element as it is read, wide
    enough for passes times its weight descent steps, stack the splits
    (``stack_terms``) and invert the sum over the lower sets once:
    (frames, nonzero, the stacked Sigma coordinates)."""
    frames, stacked, nonzero = stack_terms(
        (split_terms(codes, passes * n), passes * n)
        for codes, n in map(_ribbons, elements)
    )
    return frames, nonzero, lower_inverse(stacked, ctx.N)


def in_sigma_span(elements, ctx):
    """For each element F, whether F lies in the span of the Sigma_I, I
    in G: ``membership(F, ctx) is not None``, for a whole batch at once.

    The elements' packed coordinates lie side by side in one int per
    ribbon, so the sum over the lower sets is inverted once for the
    batch, and F is outside exactly when its segment is nonzero at some
    I outside G. The elements are read one at a time, each refused as
    membership refuses it; they may have different weights, and two
    conductors among them raise the conductor-mismatch ValueError.
    """
    frames, nonzero, sigma = _sigma_stack(elements, ctx, 1)
    inside = [True] * len(frames)
    for I, x in sigma.items():
        if not ctx._in_G(I):
            for i in nonzero(x):
                inside[i] = False
    return inside


def _sigma_parts(F, ctx, passes):
    """F's Sigma coordinates as split_terms writes them, (N, den, width,
    packed), wide enough for passes times its weight steps, or None when
    F is outside. It is the one-element case of ``in_sigma_span``."""
    (frame,), _, sigma = _sigma_stack([F], ctx, passes)
    if not all(map(ctx._in_G, sigma)):
        return None
    return *frame, sigma


def membership(F, ctx):
    """Coordinates of F in the Sigma basis, or None when F is outside.

    Sigma_I is the sum of the ribbons over the lower set of I, for every
    composition I, so inverting that sum (``lower_inverse``) writes the
    ribbons of F as a unique sum of Sigma_I; F is inside exactly when
    every I there is in G. Input must be homogeneous, of weight at most
    MAX_MEMBERSHIP_WEIGHT (refused through ``check_limit`` above it).
    """
    got = _sigma_parts(F, ctx, 1)
    return None if got is None else _decoded(join_terms(*got))


def rho_membership(F, ctx):
    """Coordinates of F in the rho family, or None when outside.

    Each Sigma_I is the sign-free sum of rho_J over the J in G below I,
    so the Sigma coordinates push forward by the forward sum over the
    lower sets, pruned to G.
    """
    got = _sigma_parts(F, ctx, 2)
    if got is None:
        return None
    N, den, width, sigma = got
    rho = lower_forward(sigma, ctx.N, keep=ctx._in_G)
    return _decoded(join_terms(N, den, width, rho))


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
    for K in F.to_basis("S").codes:
        n = K.bit_length()
        # The last part is the weight less the highest descent.
        if not K or (n - (K ^ 1 << n >> 1).bit_length()) % N == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the classical order-2 layer


def _is_peak_set(d):
    """True iff the descent bits d (bit s-1 for the descent s) are the
    peak set of some permutation: no descent at 1, no two adjacent."""
    return not (d & 1 or d & d >> 1)


def _peak_gate(I):
    """D(I) xor (D(I) + 1) as bits below the top bit of the code I: the
    positions where a peak may sit in the expansions of the transformed
    R_I."""
    top = 1 << I.bit_length() >> 1
    d = I ^ top
    return (d ^ d << 1) & top - 1


def classical_peak_function(I):
    """Pi_I: the sum of ribbons R_J over J with peak set equal to D(I).

    J has peak set P exactly when D(J) is a union of runs of consecutive
    positions, one from each p in P and optionally one from 1, each
    ending at least two before the next starts and the last by n - 1.
    The codes are built from every choice of run ends: the run of
    descents a..e is the bits a-1..e-1.
    """
    I = check_composition(I)
    n = sum(I)
    top = 1 << n >> 1
    if not _is_peak_set(encode(I) ^ top):
        raise ValueError(f"descent set of {I} is not a peak set for weight {n}")
    if n == 0:
        return one("R")
    peaks = sorted(descent_set(I))
    starts = [0, *peaks]  # the run from 0 is the optional run from 1
    ends = [range(s, t - 1) for s, t in zip(starts, [*peaks, n + 1])]
    return NsymElement._trusted(
        "R",
        {
            top | sum((1 << e) - (1 << (s or 1) - 1) for s, e in zip(starts, es)): 1
            for es in product(*ends)
        },
    )


def theta_minus1_ribbon_expansion(I):
    """Coordinates of the q = -1 transform of R_I on the peak functions.

    Returns {J: 2^(|D(J)|+1)} over the peak compositions J of the same
    weight whose descent set avoids consecutive positions of D(I), i.e.
    sits inside the symmetric difference of D(I) with its right shift.
    """
    I = encode(check_composition(I))
    if not I:
        return {(): 1}
    # The words whose descents lie in the gate are the lower set of the
    # gate with the top bit (n itself is never a descent).
    top = 1 << I.bit_length() >> 1
    return _decoded(
        {
            J: 2 << (J ^ top).bit_count()
            for J in lower_codes(_peak_gate(I) | top)
            if _is_peak_set(J ^ top)
        }
    )


# ---------------------------------------------------------------------------
# closed decompositions of the transformed basis elements
#
# Each runs on the codes of I and of the J in G, and keys its output by
# the compositions that PeakContext holds for those codes (``_G_words``).


def _parts_at(J, X):
    """The parts of the word coded J that end at the set bits of X (a
    submask of J), lowest first: the part ending at bit b is b + 1 less
    the width of the bits of J below b."""
    while X:
        bit = X & -X
        X ^= bit
        yield bit.bit_length() - (J & bit - 1).bit_length()


def decomp_theta_S(I, ctx):
    """Sigma-coordinates of the order-N transform of S^I.

    The sum runs over J in G refining I (D(I) contained in D(J)); the
    coefficient is (-1)^(l(I)-l(J)) zeta^(n - sum of the parts of J at
    aligned positions) times the product of (1 - zeta^(j_l)) over those
    positions. Aligned positions are where J's running sums meet I's.

    The J refining I are listed directly: I's code OR'd with each
    submask of the bits it lacks, those in G kept.
    """
    I = encode(check_composition(I))
    if not I:
        return {(): 1}
    n = I.bit_length()
    top = 1 << n - 1
    li = I.bit_count()
    G = ctx._G_words(n)
    out = {}
    # lower_codes lists the top bit OR'd with each submask L of the bits
    # I lacks, in ascending order, so the J = I | L ascend too.
    for L in lower_codes(~I & top - 1 | top):
        J = I | L
        key = G.get(J)
        if key is None:
            continue
        coeff = 1 if (li - J.bit_count()) % 2 == 0 else -1
        exp = n
        for j in _parts_at(J, I):
            exp -= j
            coeff = coeff * (1 - ctx.zeta_power(j))
        coeff = coeff * ctx.zeta_power(exp)
        if coeff:
            out[key] = coeff
    return out


def decomp_theta_R(I, ctx):
    """Sigma-coordinates of the order-N transform of R_I.

    The sum runs over every J in G of the same weight, with coefficient
    (-1)^(l(I)-l(J)) zeta^a (1 - zeta^(last part of J)), where a adds up
    the non-final parts of J whose running sum is not a descent of I.
    """
    I = encode(check_composition(I))
    if not I:
        return {(): 1}
    n = I.bit_length()
    top = 1 << n - 1
    li = I.bit_count()
    G = ctx._G_words(n)
    out = {}
    for J, key in G.items():
        # I holds the top bit, so J & ~I holds only descents of J.
        a = sum(_parts_at(J, J & ~I))
        coeff = 1 if (li - J.bit_count()) % 2 == 0 else -1
        # The last part is n less the highest descent.
        last = n - (J ^ top).bit_length()
        coeff = coeff * ctx.zeta_power(a) * (1 - ctx.zeta_power(last))
        if coeff:
            out[key] = coeff
    return out


def decomp_S_on_rho(I, ctx):
    """rho-coordinates of the order-N transform of S^I.

    The sum runs over J in G whose ribbon cut along I yields only hook
    pieces; the coefficient is (1-zeta)^l(I) (-zeta)^h with h the total
    number of leading ones over the pieces.

    On codes, the descents of J inside the pieces are X = J & ~I, and a
    piece is a hook when each of them follows a bit of J or I (or the
    start): X & ~((J | I) << 1 | 1) is empty. Then h = |X|.
    """
    I = encode(check_composition(I))
    if not I:
        return {(): 1}
    n = I.bit_length()
    lead = scalar_pow(1 - ctx.zeta, I.bit_count())
    twist = list(accumulate([-ctx.zeta] * n, mul, initial=1))
    G = ctx._G_words(n)
    out = {}
    for J, key in G.items():
        X = J & ~I
        if X & ~((J | I) << 1 | 1):
            continue
        coeff = lead * twist[X.bit_count()]
        if coeff:
            out[key] = coeff
    return out


def decomp_R_on_rho(I, ctx):
    """rho-coordinates of the order-N transform of R_I.

    The sum runs over J in G whose peak set sits inside the admissible
    positions of I; the coefficient is (1-zeta)^(number of hook pieces
    of J) times (-zeta)^b with b counting the shifted descent mismatch
    between I and J.

    On codes, the peaks of J are the descents d = D(J) that neither
    follow a descent nor sit at 1, d & ~(d << 1 | 1); the admissible
    positions are ``_peak_gate(I)``; the hook count is one more than the
    number of peaks.
    """
    I = encode(check_composition(I))
    if not I:
        return {(): 1}
    n = I.bit_length()
    top = 1 << n - 1
    di = I ^ top
    gate = _peak_gate(I)
    hooks = list(accumulate([1 - ctx.zeta] * n, mul, initial=1))
    twist = list(accumulate([-ctx.zeta] * n, mul, initial=1))
    G = ctx._G_words(n)
    out = {}
    for J, key in G.items():
        dj = J ^ top
        peaks = dj & ~(dj << 1 | 1)
        if peaks & ~gate:
            continue
        b = ((di & ~dj) << 1 | dj & ~di).bit_count()
        coeff = hooks[peaks.bit_count() + 1] * twist[b]
        if coeff:
            out[key] = coeff
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
        ctx, order, lambda i, j: 1 if i % 2 else -1, range(1, ctx.N)
    )


def rho_ones_series(ctx, order, t=None):
    """Sum over n of rho_(1^n), alternating when t is None, at t otherwise.

    With t given, degree n carries rho_(1^n)(t) with no extra sign (the
    sign-free normalization is the one the geometric-series identity
    below actually satisfies); with t omitted, degree n carries
    (-1)^n rho_(1^n).
    """
    pairs = [(one("R"), 1)]
    for n in range(1, order + 1):
        ones = (1,) * n
        if t is None:
            pairs.append((rho_basis(ones, ctx), 1 if n % 2 == 0 else -1))
        else:
            pairs.append((rho_t_basis(ones, t, ctx), 1))
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
        "S", {(d,) if d else (): 1 for d in range(0, order + 1, N)}
    )
    s_congruent = NsymElement("S", {(d,): 1 for d in range(j, order + 1, N)})
    block = _block_series(
        ctx, order, lambda i, _: -1 if i % 2 else 1, (j,)
    )
    first = block == series_product(
        series_inverse(s_multiples, order), s_congruent, order
    )

    # One plus the block series over all j is sigma_N = 1 - t.
    total = one("R") - tangent_element_series(ctx, order)
    lam = NsymElement(
        "R", {(1,) * d: -1 if d % 2 else 1 for d in range(order + 1)}
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
    words = {I: NsymElement("S", {I: 1}) for n in range(n_max + 1) for I in compositions_of(n)}
    images = {I: pi_N(word, ctx) for I, word in words.items()}
    for total in range(n_max + 1):
        for a in range(total + 1):
            for I in compositions_of(a):
                left_in_ideal = bool(I) and I[-1] % N != 0
                for J in compositions_of(total - a):
                    lhs = pi_N(multiply(words[I], words[J]), ctx)
                    rhs = multiply(images[I], images[J])
                    if left_in_ideal:
                        if lhs != rhs:
                            ok = False
                            if failure is None:
                                failure = (I, J)
                    elif lhs != rhs and counterexample is None:
                        counterexample = (I, J)
    return ok, counterexample, failure
