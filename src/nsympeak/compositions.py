"""Composition-level combinatorics.

A composition of n is spelled as a plain tuple of positive ints, the
empty tuple being the unique composition of 0. A descent set, a subset
of [1, n-1], is a frozenset of ints.

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
part >= N) OR'd with each submask of the free ones; ``compositions_of(n)``,
the interval below (1^n), decodes the range of n-bit codes. ``lower_forward`` sums a dict
of values over the lower sets in place, with none of them listed, one pass over
the dict per position that some word holds, from the highest down (with N None, the fast zeta transform
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


def compositions_of(n):
    """All 2^(n-1) compositions of n in canonical (descent bitmask)
    order: the words whose codes have n bits, decoded."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [decode(c) for c in range(1 << n >> 1, 1 << n)]


# ---------------------------------------------------------------------------
# peak compositions


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
    """Run the descent steps on the {code: int} values in place, one
    step per position b that some word holds below the heaviest top
    bit, from the highest down (from the lowest up if up): every word W
    with the descent b (a set bit b-1 that is not its top bit, so the
    words may have any weights) adds sign times its value to W without
    b when b is free in W (``_near``). A step only clears bits, so no
    word made holds a position that no word held at the start, and the
    steps follow the positions held, not the weight. A word that keep
    refuses is dropped, from values or as soon as it is made. Zeros are
    dropped at the end, and values, now the result, is returned: the
    caller hands over a dict it owns and does not read again."""
    out = values
    if keep:
        for W in [W for W in out if not keep(W)]:
            del out[W]
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
    for W in [W for W, v in out.items() if not v]:
        del out[W]
    return out


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
    this is the fast zeta transform on the lattice of descent sets. The
    sum is made in values itself, which is returned: values is consumed.
    """
    return _lower_steps(values, N, sign, False, keep)


def lower_inverse(values, N):
    """The inverse of ``lower_forward(x, N)``: the {code: int} x whose
    sum over the lower sets is ``values``, zeros left out. Subtracting
    undoes a step, so the inverse runs the steps from the lowest
    descent up, subtracting, in values itself, which is returned.
    """
    return _lower_steps(values, N, -1, True)


# ---------------------------------------------------------------------------
# index families F and G, the bijection epsilon, Hilbert dimensions


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
# counting compositions


def num_compositions(n):
    if n < 0:
        raise ValueError("n must be >= 0")
    return 1 if n == 0 else 1 << (n - 1)


def at_most_compositions(x, n):
    """min(x, num_compositions(n)), without building 2^(n-1) when x is
    smaller."""
    return x if x.bit_length() < n else min(x, num_compositions(n))


