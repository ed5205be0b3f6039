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
on the way out; the Sigma and rho expansions share one move to ribbons
(``_ribbons``). ``in_sigma_span`` tests a whole batch of elements, cut
into stacks of at most STACK_WORDS elements: a stack's dicts are laid
over one denominator and width (``stack_terms``), each element in its
own segment and in the rows of its own basis, so an S element (a
transform image, sparse in S and dense in ribbons) is stacked as it is,
the S rows change to ribbons once per stack (``lower_forward`` with no
N, in ``_image_ribbons``), and one inverse serves the stack. Membership,
which also needs the coordinates, turns its one element into ribbons,
and splits and inverts it on its own.
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
codes of I and J. Each decomposition's body is its ``decomp_*_codes``
core, {J code: c} for the code of I; the public ``decomp_*`` key that
by the compositions that a PeakContext holds for the codes of G
(``_G_words``); the q = -1 expansion decodes its coordinates once.
``expansions_match`` checks a batch of such coordinates against the
transform images, one stacked pass per stack of at most STACK_WORDS
pairs: each pair's coordinates and image share one segment of one stack
(``stack_terms``), the coordinates are expanded (``_ribbons``) and the
image rows (``_image_ribbons``) subtracted on the packed ints, and a
pair matches when its segment cancels. Both stacked checks own their
stack size, so a caller hands over a batch of any length and a pass's
memory does not grow with it. Both are generators: each stack's answers
are yielded as soon as that stack is checked, before the next item is
read, and a refusal is raised when the answers reach its stack. A
caller that stops reading stops the checks.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, product
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
    _as_scalar,
    check_expansion,
    multiply,
    one,
)
from .scalars import (
    check_limit, join_terms, scalar_pow, split_terms, stack_terms, zeta, zeta_pow,
)
from .series import series_inverse, series_product


MAX_MEMBERSHIP_WEIGHT = 20

# The most items that one stacked pass of ``in_sigma_span`` or
# ``expansions_match`` holds: a batch is cut into stacks of this many, so
# a pass's memory does not grow with the batch.
STACK_WORDS = 128


class PeakContext:
    """Caches for one order N: the G families and the powers of zeta_N
    it has made (only those asked for, never all N).

    The public methods take and return composition tuples; the peak maps
    read the G test and the G families on codes, ``_in_G`` and
    ``_G_words``.
    """

    __slots__ = ("N", "zeta", "_words", "_runs", "_zeta_powers")

    def __init__(self, N):
        if N < 2:
            raise ValueError(
                "order must be >= 2; order 1 is plain Sym (use the series "
                "module: the normalized transform degenerates to power sums)"
            )
        self.N = N
        self.zeta = zeta(N)
        self._words = {}
        self._runs = ("0" * (N - 1), "0" * N)
        self._zeta_powers = {}

    def G(self, n):
        return tuple(self._G_words(n).values())

    def _G_words(self, n):
        """{code: composition} over G(n), in ascending code order (the
        order of G): the decomposition formulas walk the codes and key
        their output by the compositions, with no decoding."""
        got = self._words.get(n)
        if got is None:
            got = self._words[n] = {encode(I): I for I in G_set(n, self.N)}
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
    return _expand(
        {
            J: scalar_pow(t, li + sign * J.bit_count())
            for J in lower_codes(I, ctx.N)
            if ctx._in_G(J)
        },
        "Sigma",
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
    """T_K: the product of the ribbons R_(N^i j) over the parts N*i+j of K,
    in order (the unit for the empty K).

    Each ribbon is laid as the code of N^i j, and the product starts from
    the first one.
    """
    K = check_composition(K)
    N = ctx.N
    out = None
    for part in K:
        i, j = divmod(part, N)
        if j == 0:
            raise ValueError(f"part {part} of {K} is divisible by N={N}")
        ribbon = NsymElement._trusted("R", {encode((N,) * i + (j,)): 1})
        out = ribbon if out is None else multiply(out, ribbon)
    return one("R") if out is None else out


def _G_codes(coords, ctx):
    """{code: scalar} for the coordinates {J: c}: each J checked to be in
    G and encoded, each c checked to be a scalar (TypeError otherwise)."""
    return {_require_G(J, ctx): _as_scalar(c) for J, c in coords.items()}


def _decoded(codes):
    return {decode(J): c for J, c in codes.items()}


def _weight(codes):
    """The largest weight among the codes (0 for none)."""
    return max(codes, default=0).bit_length()


def _ribbons(packed, family, ctx):
    """The ribbon rows of the packed coordinates {code: int} on the
    ``family`` basis, "Sigma" or "rho": the sum over the lower sets, after
    the signed forward sum pruned to G for rho (rho_I is the sum of
    (-1)^(l(I)-l(J)) Sigma_J over the J in G below I). Each pass meets at
    most n - 1 steps at weight n."""
    if family == "rho":
        packed = lower_forward(packed, ctx.N, -1, ctx._in_G)
    return lower_forward(packed, ctx.N)


def _expand(codes, family, ctx):
    """The ribbon-basis element of the {code: scalar} coordinates on the
    ``family`` basis, "Sigma" or "rho", split wide enough for its passes."""
    N, den, width, packed = split_terms(codes, (2 if family == "rho" else 1) * _weight(codes))
    return NsymElement._trusted(
        "R", join_terms(N, den, width, _ribbons(packed, family, ctx))
    )


def expand_sigma_coords(coords, ctx):
    """Turn {J: c} Sigma-coordinates into a ribbon-basis element."""
    return _expand(_G_codes(coords, ctx), "Sigma", ctx)


def expand_rho_coords(coords, ctx):
    """Turn {J: c} rho-coordinates into a ribbon-basis element: they move
    to the Sigma family first (``_ribbons``)."""
    return _expand(_G_codes(coords, ctx), "rho", ctx)


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
    return _expand(
        {I: c for I, c in F.to_basis("S").codes.items() if ctx._in_G(I)}, "Sigma", ctx
    )


def _checked_weight(F):
    """F's weight, once F is checked to be homogeneous and at most
    MAX_MEMBERSHIP_WEIGHT heavy."""
    ws = F.weights()
    if len(ws) > 1:
        raise ValueError(f"membership needs a homogeneous element, weights {ws}")
    n = max(ws, default=0)
    check_limit(n, MAX_MEMBERSHIP_WEIGHT, "membership", "weight units")
    return n


def _stacked(items, check):
    """Yield check(rows, clear)'s flags for each stack of at most
    STACK_WORDS of the items (``stack_terms``), in order, stack by stack:
    a stack is read, laid and checked when its first answer is asked
    for, and no item of the next stack is read before."""
    items = iter(items)
    for first in items:
        yield from check(*stack_terms(chain((first,), islice(items, STACK_WORDS - 1))))


def _image_ribbons(rows):
    """The S and R rows of a stack, popped from rows, summed in ribbons:
    the S rows change to ribbons first (S^I is the sum of the R_J over the
    J coarser than I: ``lower_forward`` with no N). Each segment sits in
    the rows of one basis only, so the sum adds no two segments."""
    out = lower_forward(rows.pop("S", {}))
    for J, x in rows.pop("R", {}).items():
        out[J] = out.get(J, 0) + x
    return out


def in_sigma_span(elements, ctx):
    """Yield, for each element F, whether F lies in the span of the
    Sigma_I, I in G: ``membership(F, ctx) is not None``, for a whole
    batch of elements.

    The batch is cut into stacks of at most STACK_WORDS elements, one
    stacked pass a stack, so its memory does not grow with the batch.
    A stack's coefficient dicts are stacked as they are, each in its own
    basis, S or R: one conductor, denominator and width for the stack,
    and each element's packed coordinates in its own segment, in the rows
    of its basis (``stack_terms``). The S rows change to ribbons once for
    the stack and the ribbon rows are added (``_image_ribbons``), and the
    sum over the lower sets is inverted once; F is outside exactly when
    its segment is nonzero at some I outside G.

    The width suffices: a descent step changes a word of weight n only
    at a descent below n, so an element of weight n meets at most n - 1
    steps of each pass, and a step adds at most one value into each key,
    so it at most doubles the largest entry of a segment. A ribbon
    element meets the inverse only, at most n - 1 <= n steps; an S
    element meets the change to ribbons and the inverse, at most
    2(n - 1) <= 2n steps. Each element asks for those steps, 2n for S
    and n for R, and the stack's one width covers the largest of them
    over the largest value in the stack, so every entry of every segment
    stays inside it (see ``split_terms``).

    The elements are read one at a time, each refused as membership
    refuses it as it is read (a basis change keeps the weights, so the
    refusals and their messages do not depend on the basis); they may
    have different weights and bases. Two conductors within one stack
    raise the conductor-mismatch ValueError when that stack is laid,
    after all its elements are read: so a batch holding both a refused
    element and a second conductor meets the refusal first when the
    refused element is in the same stack or an earlier one. The answers
    arrive stack by stack, as each stack is checked, so either error is
    raised only when the answers reach its stack, and the elements of a
    stack are not read until its first answer is asked for.
    """
    def item(F):
        n = _checked_weight(F)
        return {F.basis: F.codes}, 2 * n if F.basis == "S" else n

    def check(rows, clear):
        sigma = lower_inverse(_image_ribbons(rows), ctx.N)
        return clear(x for I, x in sigma.items() if not ctx._in_G(I))

    return _stacked(map(item, elements), check)


def _sigma_parts(F, ctx, passes):
    """F's Sigma coordinates as split_terms writes them, (N, den, width,
    packed), wide enough for passes times its weight steps, or None when
    F is outside: its ribbons split and the sum over the lower sets
    inverted, as ``in_sigma_span`` does for a batch of ribbon elements."""
    Fr = F.to_basis("R")
    N, den, width, packed = split_terms(Fr.codes, passes * _checked_weight(Fr))
    sigma = lower_inverse(packed, ctx.N)
    if not all(map(ctx._in_G, sigma)):
        return None
    return N, den, width, sigma


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
# Each formula's body runs on codes (``decomp_*_codes``): it takes the
# code of I and returns {J code: c} over the J in G (``ctx._G_words``).
# The public decomp_* functions check I and key that dict by the
# compositions that PeakContext holds for the codes of G.


def _parts_at(J, X):
    """The parts of the word coded J that end at the set bits of X (a
    submask of J), lowest first: the part ending at bit b is b + 1 less
    the width of the bits of J below b."""
    while X:
        bit = X & -X
        X ^= bit
        yield bit.bit_length() - (J & bit - 1).bit_length()


def _on_words(core, I, ctx):
    """core's {J code: c} for the composition I (checked and encoded),
    keyed by the compositions J of G."""
    I = encode(check_composition(I))
    G = ctx._G_words(I.bit_length())
    return {G[J]: c for J, c in core(I, ctx).items()}


def decomp_theta_S(I, ctx):
    """Sigma-coordinates of the order-N transform of S^I.

    The sum runs over J in G refining I (D(I) contained in D(J)); the
    coefficient is (-1)^(l(I)-l(J)) zeta^(n - sum of the parts of J at
    aligned positions) times the product of (1 - zeta^(j_l)) over those
    positions. Aligned positions are where J's running sums meet I's.
    """
    return _on_words(decomp_theta_S_codes, I, ctx)


def decomp_theta_S_codes(I, ctx):
    """``decomp_theta_S`` on codes: {J code: c} for the code I.

    The J refining I are listed directly: I's code OR'd with each
    submask of the bits it lacks, those in G kept.
    """
    if not I:
        return {0: 1}
    n = I.bit_length()
    top = 1 << n - 1
    li = I.bit_count()
    G = ctx._G_words(n)
    out = {}
    # lower_codes lists the top bit OR'd with each submask L of the bits
    # I lacks, in ascending order, so the J = I | L ascend too.
    for L in lower_codes(~I & top - 1 | top):
        J = I | L
        if J not in G:
            continue
        coeff = 1 if (li - J.bit_count()) % 2 == 0 else -1
        exp = n
        for j in _parts_at(J, I):
            exp -= j
            coeff = coeff * (1 - ctx.zeta_power(j))
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
    return _on_words(decomp_theta_R_codes, I, ctx)


def decomp_theta_R_codes(I, ctx):
    """``decomp_theta_R`` on codes: {J code: c} for the code I.

    A coefficient depends only on l(J) mod 2, a mod N and the last part
    mod N, so each of those at most 2N^2 values is made once per word, on
    its first J, and looked up for the rest of G(n).
    """
    if not I:
        return {0: 1}
    N = ctx.N
    n = I.bit_length()
    top = 1 << n - 1
    li = I.bit_count()
    table, out = {}, {}
    for J in ctx._G_words(n):
        # I holds the top bit, so J & ~I holds only descents of J: a adds
        # up the parts of J ending there, as ``_parts_at`` would, inline
        # because the generator's steps were most of this loop. The last
        # part is n less the highest descent.
        a, X = 0, J & ~I
        while X:
            bit = X & -X
            X ^= bit
            a += bit.bit_length() - (J & bit - 1).bit_length()
        a %= N
        last = (n - (J ^ top).bit_length()) % N
        odd = (li - J.bit_count()) & 1
        coeff = table.get((odd, a, last))
        if coeff is None:
            coeff = (-1 if odd else 1) * ctx.zeta_power(a) * (1 - ctx.zeta_power(last))
            table[odd, a, last] = coeff
        if coeff:
            out[J] = coeff
    return out


def decomp_S_on_rho(I, ctx):
    """rho-coordinates of the order-N transform of S^I.

    The sum runs over J in G whose ribbon cut along I yields only hook
    pieces; the coefficient is (1-zeta)^l(I) (-zeta)^h with h the total
    number of leading ones over the pieces.
    """
    return _on_words(decomp_S_on_rho_codes, I, ctx)


def decomp_S_on_rho_codes(I, ctx):
    """``decomp_S_on_rho`` on codes: {J code: c} for the code I.

    The descents of J inside the pieces are X = J & ~I, and a piece is a
    hook when each of them follows a bit of J or I (or the start): X &
    ~((J | I) << 1 | 1) is empty. Then h = |X|.
    """
    if not I:
        return {0: 1}
    n = I.bit_length()
    lead = scalar_pow(1 - ctx.zeta, I.bit_count())
    twist = list(accumulate([-ctx.zeta] * n, mul, initial=1))
    out = {}
    for J in ctx._G_words(n):
        X = J & ~I
        if X & ~((J | I) << 1 | 1):
            continue
        coeff = lead * twist[X.bit_count()]
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
    return _on_words(decomp_R_on_rho_codes, I, ctx)


def decomp_R_on_rho_codes(I, ctx):
    """``decomp_R_on_rho`` on codes: {J code: c} for the code I.

    The peaks of J are the descents d = D(J) that neither follow a
    descent nor sit at 1, d & ~(d << 1 | 1); the admissible positions
    are ``_peak_gate(I)``; the hook count is one more than the number of
    peaks.
    """
    if not I:
        return {0: 1}
    n = I.bit_length()
    top = 1 << n - 1
    di = I ^ top
    gate = _peak_gate(I)
    hooks = list(accumulate([1 - ctx.zeta] * n, mul, initial=1))
    twist = list(accumulate([-ctx.zeta] * n, mul, initial=1))
    out = {}
    for J in ctx._G_words(n):
        dj = J ^ top
        peaks = dj & ~(dj << 1 | 1)
        if peaks & ~gate:
            continue
        b = ((di & ~dj) << 1 | dj & ~di).bit_count()
        coeff = hooks[peaks.bit_count() + 1] * twist[b]
        if coeff:
            out[J] = coeff
    return out


def expansions_match(pairs, family, ctx):
    """Yield, for each (coords, image) pair, whether the coordinates
    {J code: c} on the ``family`` basis ("Sigma" or "rho", every J in G)
    expand to image, an element in S or R: ``expand_sigma_coords`` (or
    ``expand_rho_coords``) of the decoded coordinates == image, for a
    whole batch of pairs.

    The batch is cut into stacks of at most STACK_WORDS pairs, one
    stacked pass a stack, so its memory does not grow with the batch.
    Each pair's two dicts are stacked as they are, over one conductor,
    denominator and width for the stack, and both lie in the pair's one
    segment (``stack_terms``): the coordinates in the family's rows, the
    image in the rows of its basis. The family rows move to ribbons as
    ``expand_rho_coords`` and ``expand_sigma_coords`` move them
    (``_ribbons``), the image rows are summed in ribbons
    (``_image_ribbons``) and subtracted from the expansion's, as packed
    ints: no scalar is negated. A pair matches exactly when its segment
    is zero at every key. The answers arrive stack by stack, as each
    stack is checked, and no pair of the next stack is read before; two
    conductors within one stack raise the conductor-mismatch ValueError
    when the answers reach that stack.

    The width suffices with steps = 2n for a pair of weight n: a descent
    step changes a word of weight n only at a descent below n, so a pass
    meets at most n - 1 steps, and a step adds at most one value into
    each key, so it at most doubles the largest entry of a segment. The
    coordinates meet at most two passes (rho to Sigma, Sigma to
    ribbons), the image at most one (S to ribbons), so each side meets
    at most 2(n - 1) steps, and the difference at most doubles once
    more: 2(n - 1) + 1 <= 2n doublings of the largest value on either
    side. The stack's one width covers the largest steps over the
    largest value in the stack (see ``split_terms``).
    """
    def item(pair):
        coords, image = pair
        steps = 2 * max(_weight(coords), _weight(image.codes))
        return {family: coords, image.basis: image.codes}, steps

    def check(rows, clear):
        sums = _ribbons(rows.pop(family, {}), family, ctx)
        for K, x in _image_ribbons(rows).items():
            sums[K] = sums.get(K, 0) - x
        return clear(sums.values())

    return _stacked(map(item, pairs), check)


# ---------------------------------------------------------------------------
# tangent-style series identities
#
# These series live over the grading of Sym itself: the coefficient in
# degree d is homogeneous of weight d, so a series truncated at ``order``
# is the element of its words of weight <= order, and the truncated
# product and inverse of the series module track the graded components.


def _block_series(ctx, order, coeff, js):
    """coeff(i, j) R_(N^i j) in degree N*i+j, over i >= 0 and j in js.

    Every series identity builds its block series first, so a series
    truncated at ``order`` is refused here, before any product or
    inverse, when its up to 2^order - 1 nonempty words are more than
    ``check_expansion`` admits. The count is capped at 2^65 - 1, which
    the refusal names as over 2^64, so a huge order builds no huge int.
    """
    check_expansion(
        (1 << min(max(order, 0), 65)) - 1, f"a series truncated at order {order}"
    )
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

    Every J in G(n) lies below 1^n, so rho_(1^n)(t) is the sum of
    t^(n - l(J)) Sigma_J over all of G(n), and (-1)^n rho_(1^n) that of
    (-1)^l(J) Sigma_J: the series is one Sigma expansion over G.
    """
    return _expand(
        {
            J: (-1 if J.bit_count() & 1 else 1) if t is None
            else scalar_pow(t, n - J.bit_count())
            for n in range(order + 1)
            for J in ctx._G_words(n)
        },
        "Sigma",
        ctx,
    )


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

    S^I S^J is the word S^(I.J) by definition, so the left side is the
    image of I.J, read from the images of every word of weight <= n_max
    (one pi_N each); the right side is one product of two images.
    """
    N = ctx.N
    ok = True
    counterexample = None
    failure = None
    images = {
        I: pi_N(NsymElement("S", {I: 1}), ctx)
        for n in range(n_max + 1)
        for I in compositions_of(n)
    }
    for total in range(n_max + 1):
        for a in range(total + 1):
            for I in compositions_of(a):
                left_in_ideal = bool(I) and I[-1] % N != 0
                for J in compositions_of(total - a):
                    lhs = images[I + J]
                    rhs = multiply(images[I], images[J])
                    if left_in_ideal:
                        if lhs != rhs:
                            ok = False
                            if failure is None:
                                failure = (I, J)
                    elif lhs != rhs and counterexample is None:
                        counterexample = (I, J)
    return ok, counterexample, failure
