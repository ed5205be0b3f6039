"""Composition-level combinatorics.

A composition of n is spelled as a plain tuple of positive ints, the
empty tuple being the unique composition of 0. Subsets of [1, n-1] (descent
sets, peak sets) are frozensets of ints. Permutations are tuples of images,
so ``perm[i-1]`` is the image of i.

Compositions of n correspond to subsets of [1, n-1] through the descent set
D(I) = {i_1, i_1+i_2, ...}. The elements of the library store a word as
one int, its code: the bitset of its partial sums, bit s-1 set for each
partial sum s, the weight n included (``encode``; ``decode`` inverts it,
and the unit's code is 0). So the weight is ``code.bit_length()``, the
length is ``code.bit_count()``, D(I) is the code minus its top bit, the
concatenation of I and J is ``a | b << n`` (n = |I|), and gluing J to
the last part of I is the same with I's top bit cleared. The canonical
order used everywhere for deterministic output is the numeric order of
the codes: by weight, then by the descent-set bitmask (bit d-1 set iff
d is a descent).

The module also carries the order-N split poset on compositions of n
(cover moves replace one part i_k by (j, i_k - j) with j in [1, N-1]) and
the index families F and G exchanged by the block bijection epsilon.

Lower sets of the split poset have a closed form: J lies below I iff D(J)
is a subset of D(I) that keeps the descent after every part i_k >= N.
With no N every descent is free, which gives the reverse-refinement
interval {J : D(J) contained in D(I)} that the S/R basis change sums
over. ``lower_codes`` enumerates the lower set of one word on codes, in
canonical order: the forced bits (the top bit and the descents after a
part >= N) OR'd with each submask of the free ones. The tuple spellings
``lower_set`` and ``compositions_of(n)`` (the interval below (1^n))
decode it. ``lower_forward`` sums a dict of values over the lower sets
with none of them listed, one pass over the dict per position that some
word holds, from the highest down (with N None, the fast zeta transform
on descent sets), optionally signed and pruned to a family such as G;
``lower_inverse`` runs the same steps from the lowest position up,
subtracting. A word's weight adds no pass, only its descents do. One
rule says which descents are free (``_near``), for the steps and for
``lower_codes``.
Every basis change, expansion, membership test and push-forward of the
elements and peak modules is one of these two sums. The index families
F and G and the peak compositions are built one unit at a time, a word
dropped as soon as one of its finished parts leaves the family.
"""

from __future__ import annotations

import functools
import operator

from .scalars import check_limit

# A word's code holds one bit per unit of its weight, so a heavier word
# is refused (``check_composition``) before its code is built.
MAX_WEIGHT = 1 << 24


def check_composition(parts):
    """parts as a tuple; ValueError unless each part is an int >= 1
    (a bool or a float is refused, not truncated), and CapacityError,
    through ``check_limit``, above MAX_WEIGHT."""
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int:
            raise ValueError(f"composition parts must be ints, not {p!r}: {parts}")
        if p < 1:
            raise ValueError(f"composition parts must be >= 1: {parts}")
    if sum(parts) > MAX_WEIGHT:
        check_limit(sum(parts), MAX_WEIGHT, "a word's code", "bits")
    return parts


def descent_set(parts):
    """Partial sums of the composition, excluding the total weight."""
    out = []
    acc = 0
    for p in parts[:-1]:
        acc += p
        out.append(acc)
    return frozenset(out)


# ---------------------------------------------------------------------------
# words as integer codes


def encode(parts):
    """The code of a composition: bit s-1 set for each partial sum s."""
    code = acc = 0
    for p in parts:
        acc += p
        code |= 1 << acc
    return code >> 1


def decode(code):
    """The composition whose code is ``code``: one part per set bit, a
    part one more than the run of clear bits below its bit.

    Peeling a part off the low end costs a pass over the code, so a word
    of more than a dozen parts is split as a binary string instead, in
    one pass over its width whatever its length.
    """
    if code.bit_count() > 12:
        return tuple([len(run) + 1 for run in bin(code)[:1:-1].split("1")[:-1]])
    parts = []
    while code:
        part = (code & -code).bit_length()
        parts.append(part)
        code >>= part
    return tuple(parts)


def canonical_key(parts):
    """Sort key implementing the canonical composition order: the code."""
    return encode(parts)


def code_display_key(code):
    """Sort key of printed output, read from the code: ascending weight
    (the top bit), and within one weight the other bits run downward."""
    return code ^ ((1 << code.bit_length() >> 1) - 1)


def display_key(parts):
    """Sort key for printed output: ascending weight, finest word first.

    Within one weight the descent bitmask runs downward, so a word whose
    descent set contains another's prints before it; this is the order
    basis expansions are conventionally written in.
    """
    return code_display_key(encode(parts))


def composition_from_descents(descents, n):
    """The unique composition of n whose descent set equals ``descents``."""
    ds = sorted(descents)
    if ds and (ds[0] < 1 or ds[-1] > n - 1):
        raise ValueError(f"descent {ds} out of range for weight {n}")
    if len(ds) != len(set(ds)):
        raise ValueError("duplicate descents")
    prev = 0
    parts = []
    for d in ds:
        parts.append(d - prev)
        prev = d
    if n > prev:
        parts.append(n - prev)
    return tuple(parts)


def compositions_of(n):
    """All 2^(n-1) compositions of n in canonical (descent bitmask) order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return lower_set((1,) * n)


def conjugate(parts):
    """Conjugate composition (ribbon transpose): D(I~) = {n-d : d not in D(I)}."""
    n = sum(parts)
    if n == 0:
        return ()
    d = descent_set(parts)
    conj = {n - k for k in range(1, n) if k not in d}
    return composition_from_descents(conj, n)


# ---------------------------------------------------------------------------
# permutations


def descent_composition(perm):
    """Composition recording {i : perm(i) > perm(i+1)}."""
    n = len(perm)
    descents = [i for i in range(1, n) if perm[i - 1] > perm[i]]
    return composition_from_descents(descents, n)


def peak_set_of_permutation(perm):
    """{i in [2, n-1] : perm(i-1) < perm(i) > perm(i+1)}."""
    n = len(perm)
    return frozenset(
        i for i in range(2, n) if perm[i - 2] < perm[i - 1] > perm[i]
    )


def peak_composition(perm):
    if len(perm) < 1:
        raise ValueError("peak composition needs n >= 1")
    return composition_from_descents(peak_set_of_permutation(perm), len(perm))


def peak_set_of_composition(parts):
    """Peak set P(I): descents d_i with d_i - d_{i-1} > 1, taking d_0 = 0."""
    ds = sorted(descent_set(parts))
    out = []
    prev = 0
    for d in ds:
        if d - prev != 1:
            out.append(d)
        prev = d
    return frozenset(out)


def peak_compositions_of(n):
    """Compositions of n whose descent set is a valid peak set, canonical order.

    Those are the compositions whose parts, all but the last, are >= 2.
    """
    return _unit_by_unit(n, lambda p: True, lambda p: p >= 2)


def _unit_by_unit(n, may_grow, may_cut):
    """The compositions of n built one unit at a time: each word grows
    its last part p by one if may_grow(p) and starts a new part after p
    if may_cut(p). A cut is a higher descent than any before it, so
    listing grown words before cut ones keeps canonical order with no
    sort."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [()]
    out = [(1,)]
    for _ in range(n - 1):
        out = [I[:-1] + (I[-1] + 1,) for I in out if may_grow(I[-1])] + [
            I + (1,) for I in out if may_cut(I[-1])
        ]
    return out


# ---------------------------------------------------------------------------
# the order-N split poset


def lower_codes(code, N=None):
    """The codes of all J below the word coded ``code`` in the order-N
    split poset (J coarser), itself included, in canonical order.

    Closed form: D(J) is a subset of D(I) that keeps the descent after
    every part i_k >= N, because a run of parts of I merges into one part
    iff each non-final part of the run is < N (merge it right to left).
    With N None every descent may go: {J : D(J) contained in D(I)}.
    The lower set is the forced bits (the top bit and the kept descents)
    OR'd with each submask of the free descents; adding the free bits
    from the lowest up, each time to every word so far, lists the codes
    in ascending order with no sort.
    """
    free = 0
    descents = code ^ (1 << code.bit_length() >> 1)
    while descents:
        bit = descents & -descents
        s, m = _near(bit.bit_length(), N)
        if code >> s & m:
            free |= bit
        descents ^= bit
    out = [code ^ free]
    while free:
        low = free & -free
        out += [J | low for J in out]
        free ^= low
    return out


def _near(b, N):
    """(s, m) with the descent b of a word W free, the part of W ending
    at b being < N, iff ``W >> s & m``: iff a partial sum s', 0
    included, has b-N < s' < b. Every word frees b when N is None or
    b < N (s' = 0; then m = -1 and W holds bit b-1), and otherwise a
    word with a bit among the N-1 just below bit b-1."""
    return (0, -1) if N is None or b < N else (b - N, (1 << N - 1) - 1)


def _lower_steps(values, N, sign, up, keep=None):
    """Run the descent steps on a copy of the {code: int} values, one
    step per position b that some word holds below the heaviest top
    bit, from the highest down (from the lowest up if up): every word W
    with the descent b (a set bit b-1 that is not its top bit, so the
    words may have any weights) adds sign times its value to W without
    b when b is free in W (``_near``). A step only clears bits, so no
    word made holds a position that no word held at the start, and the
    steps follow the positions held, not the weight. A word that keep
    refuses is dropped, from values or as soon as it is made. Zeros are
    left out of the result."""
    out = {W: v for W, v in values.items() if keep(W)} if keep else dict(values)
    held = functools.reduce(operator.or_, out, 0)
    held ^= 1 << held.bit_length() >> 1  # the top bit of the heaviest word
    while held:
        bit = held & -held if up else 1 << held.bit_length() - 1
        held ^= bit
        b = bit.bit_length()
        s, m = _near(b, N)
        near, above = m << s, bit << 1
        for W, v in [(W, v) for W, v in out.items() if v and W & bit and W >= above and W & near]:
            J = W ^ bit
            if keep is None or J in out or keep(J):
                out[J] = out.get(J, 0) + sign * v
    return {W: v for W, v in out.items() if v}


def lower_forward(values, N=None, sign=1, keep=None):
    """The sum over order-N lower sets of the {code: int} values: the
    dict y with y[J] the sum of sign^(l(I)-l(J)) values[I] over the I
    with J in lower_codes(I, N), zeros left out. With keep, the sum runs
    only over the J that keep accepts, and keep must refuse every word
    below a refused one (as for the G family: a word finer than a word
    in G is in G), so a refused word of values adds to no J.

    The sum is one step per descent b, from the highest down: a step
    reads only the descents below b, still those of the word it started
    from, so the steps drop exactly the descents that lower_codes frees,
    and each J below I is reached once, one merge per step. With N None
    this is the fast zeta transform on the lattice of descent sets.
    """
    return _lower_steps(values, N, sign, False, keep)


def lower_inverse(values, N):
    """The inverse of ``lower_forward(x, N)``: the {code: int} x whose
    sum over the lower sets is ``values``, zeros left out. Subtracting
    undoes a step, so the inverse runs the steps from the lowest
    descent up, subtracting.
    """
    return _lower_steps(values, N, -1, True)


def lower_set(I, N=None):
    """All J below I in the order-N split poset, canonical order, as
    tuples (``lower_codes`` decoded)."""
    return [decode(J) for J in lower_codes(encode(I), N)]


# ---------------------------------------------------------------------------
# index families F and G, the bijection epsilon, Hilbert dimensions


def is_in_F(I, N):
    return all(p % N != 0 for p in I)


def is_in_G(I, N):
    if not I:
        return True
    return all(1 <= p <= N for p in I) and 1 <= I[-1] <= N - 1


def F_set(n, N):
    """Compositions of n with no part divisible by N, canonical order."""
    out = _unit_by_unit(n, lambda p: True, lambda p: p % N)
    return [I for I in out if not I or I[-1] % N]


def G_set(n, N):
    """Compositions of n with parts in [1,N] and last part in [1,N-1]."""
    out = _unit_by_unit(n, lambda p: p < N, lambda p: True)
    return [I for I in out if not I or I[-1] < N]


def epsilon(I, N):
    """Block bijection G -> F: each maximal run N^i followed by j maps to N*i+j."""
    if not is_in_G(I, N):
        raise ValueError(f"{I} is not in the G family for N={N}")
    out = []
    run = 0
    for p in I:
        if p == N:
            run += 1
        else:
            out.append(N * run + p)
            run = 0
    if run:
        raise ValueError(f"{I} ends in a part equal to N")
    return tuple(out)


def epsilon_inv(K, N):
    """Inverse block bijection F -> G: k = N*i + j unfolds to N^i followed by j."""
    out = []
    for k in K:
        if k % N == 0:
            raise ValueError(f"part {k} divisible by N={N}")
        i, j = divmod(k, N)
        out.extend([N] * i)
        out.append(j)
    return tuple(out)


def hilbert_dims(max_n, N):
    """[h(0), ..., h(max_n)], h(n) the coefficient of t^n in
    (1 - t^N) / (1 - t - t^2 - ... - t^N).

    h(0) = 1 and h(n) = h(n-1) + ... + h(n-min(N, n)) - [n = N], the
    sum kept as a running window.
    """
    dims = [1]
    window = 1
    for n in range(1, max_n + 1):
        h = window - (n == N)
        dims.append(h)
        window += h
        if n >= N:
            window -= dims[n - N]
    return dims


def hilbert_dim(n, N):
    """Coefficient of t^n in (1 - t^N) / (1 - t - t^2 - ... - t^N)."""
    return hilbert_dims(n, N)[-1] if n >= 0 else 0


# ---------------------------------------------------------------------------
# hook and ribbon factorizations


def hook_factorization(I):
    """Cut I at its peak positions.

    Returns (segments, hook_length, weights): the segments of I between
    consecutive peaks, each of hook shape (1^a, b); hook_length =
    |P(I)| + 1; and the composition of the segment weights, whose
    descent set is exactly P(I).
    """
    if sum(I) < 1:
        raise ValueError("hook factorization needs weight >= 1")
    peaks = sorted(peak_set_of_composition(I))
    segments = []
    current = []
    acc = 0
    cuts = set(peaks)
    for p in I:
        current.append(p)
        acc += p
        if acc in cuts:
            segments.append(tuple(current))
            current = []
    if current:
        segments.append(tuple(current))
    weights_comp = tuple(sum(seg) for seg in segments)
    return segments, len(peaks) + 1, weights_comp


def ribbon_factorization(I, J):
    """Cut the ribbon J into pieces of weights given by I.

    Returns the unique sequence of compositions (H_1, ..., H_r) with
    |H_k| = i_k such that gluing them back (concatenation at part
    boundaries of J, last-part/first-part fusion elsewhere) rebuilds J.
    """
    if sum(I) != sum(J):
        raise ValueError(f"weight mismatch: {I} vs {J}")
    segments = []
    jpos = 0          # index of the current part of J
    remainder = J[0] if J else 0
    for target in I:
        seg = []
        need = target
        while need > 0:
            take = min(need, remainder)
            seg.append(take)
            need -= take
            remainder -= take
            if remainder == 0:
                jpos += 1
                if jpos < len(J):
                    remainder = J[jpos]
        segments.append(tuple(seg))
    return segments


# ---------------------------------------------------------------------------
# part multiplicities


def num_compositions(n):
    if n < 0:
        raise ValueError("n must be >= 0")
    return 1 if n == 0 else 1 << (n - 1)


def at_most_compositions(x, n):
    """min(x, num_compositions(n)), without building 2^(n-1) when x is
    smaller."""
    return x if x.bit_length() < n else min(x, num_compositions(n))


def part_count(n, i):
    """Total multiplicity of the part i over all compositions of n.

    Counted by position: an occurrence of i is a choice of prefix weight a
    and suffix weight c with a + i + c = n, any composition on either side.
    """
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return sum(
        num_compositions(a) * num_compositions(n - i - a)
        for a in range(n - i + 1)
    )
