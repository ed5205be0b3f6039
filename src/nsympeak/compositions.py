"""Composition-level combinatorics.

A composition of n is represented as a plain tuple of positive ints, the
empty tuple being the unique composition of 0. Subsets of [1, n-1] (descent
sets, peak sets) are frozensets of ints. Permutations are tuples of images,
so ``perm[i-1]`` is the image of i.

Compositions of n correspond to subsets of [1, n-1] through the descent set
D(I) = {i_1, i_1+i_2, ...}. The canonical ordering used everywhere for
deterministic output is: by weight, then by the numeric value of the
descent-set bitmask (bit d-1 set iff d is a descent).

The module also carries the order-N split poset on compositions of n
(cover moves replace one part i_k by (j, i_k - j) with j in [1, N-1]), the
index families F and G exchanged by the block bijection epsilon, and the
alignment statistics used by the transform decomposition formulas.

Lower sets of the split poset have a closed form: J lies below I iff D(J)
is a subset of D(I) that keeps the descent after every part i_k >= N.
``lower_set`` enumerates them directly in canonical order; with no N it
gives the reverse-refinement interval {J : D(J) contained in D(I)} that
the S/R basis change sums over, and ``compositions_of(n)`` is that
interval below (1^n). It is the only composition enumerator.
"""

from __future__ import annotations

import functools
import itertools


def check_composition(parts):
    """parts as a tuple; ValueError unless each part is an int >= 1
    (a bool or a float is refused, not truncated)."""
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int:
            raise ValueError(f"composition parts must be ints, not {p!r}: {parts}")
        if p < 1:
            raise ValueError(f"composition parts must be >= 1: {parts}")
    return parts


def descent_set(parts):
    """Partial sums of the composition, excluding the total weight."""
    out = []
    acc = 0
    for p in parts[:-1]:
        acc += p
        out.append(acc)
    return frozenset(out)


def descent_bitmask(parts):
    mask = 0
    acc = 0
    for p in parts[:-1]:
        acc += p
        mask |= 1 << (acc - 1)
    return mask


def canonical_key(parts):
    """Sort key implementing the canonical composition order."""
    return (sum(parts), descent_bitmask(parts))


def display_key(parts):
    """Sort key for printed output: ascending weight, finest word first.

    Within one weight the descent bitmask runs downward, so a word whose
    descent set contains another's prints before it; this is the order
    basis expansions are conventionally written in.
    """
    return (sum(parts), -descent_bitmask(parts))


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


def is_valid_peak_set(peaks, n):
    """True iff ``peaks`` is the peak set of some permutation of 1..n."""
    peaks = set(peaks)
    if any(p < 2 or p > n - 1 for p in peaks):
        return False
    return all(p - 1 not in peaks for p in peaks)


def peak_compositions_of(n):
    """Compositions of n whose descent set is a valid peak set, canonical order."""
    return [
        I for I in compositions_of(n) if is_valid_peak_set(descent_set(I), n)
    ]


# ---------------------------------------------------------------------------
# the order-N split poset


def lower_set(I, N=None):
    """All J below I in the order-N split poset (J coarser), I included.

    Closed form: D(J) is a subset of D(I) that keeps the descent after
    every part i_k >= N, because a run of parts of I merges into one part
    iff each non-final part of the run is < N (merge it right to left).
    With N None every descent may go: {J : D(J) contained in D(I)}.
    J is built part by part; each cut is a higher bit than the ones
    before it, so listing merged words before kept ones gives canonical
    order with no sort.
    """
    if not I:
        return [()]
    out = [(I[0],)]
    for prev, p in zip(I, I[1:]):
        kept = [J + (p,) for J in out]
        if N is None or prev < N:
            out = [J[:-1] + (J[-1] + p,) for J in out] + kept
        else:
            out = kept
    return out


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
    return [I for I in compositions_of(n) if is_in_F(I, N)]


def G_set(n, N):
    """Compositions of n with parts in [1,N] and last part in [1,N-1]."""
    return [I for I in compositions_of(n) if is_in_G(I, N)]


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


@functools.cache
def hilbert_dim(n, N):
    """Coefficient of t^n in (1 - t^N) / (1 - t - t^2 - ... - t^N)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = sum(hilbert_dim(n - k, N) for k in range(1, min(N, n) + 1))
    if n == N:
        total -= 1
    return total


# ---------------------------------------------------------------------------
# hook and ribbon factorizations, alignment statistics


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


def is_hook(I):
    """Shape (1^a, b): every part except possibly the last equals 1."""
    return all(p == 1 for p in I[:-1])


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


def h_stat(I, J):
    """Sum of the hook heights of the pieces of ribbon_factorization(I, J).

    Returns None when some piece is not a hook (the gate case); otherwise
    the total number of leading 1s over all pieces.
    """
    segments = ribbon_factorization(I, J)
    total = 0
    for seg in segments:
        if not is_hook(seg):
            return None
        total += len(seg) - 1
    return total


def alpha_stat(I, J):
    """Weighted count of partial sums of J that avoid the descents of I."""
    if sum(I) != sum(J):
        raise ValueError(f"weight mismatch: {I} vs {J}")
    d = descent_set(I)
    total = 0
    acc = 0
    for p in J[:-1]:
        acc += p
        if acc not in d:
            total += p
    return total


def admissible_peaks(I):
    """Symmetric difference of the descent set with its right shift.

    These are the positions where a peak may sit in the expansions of the
    transformed ribbon; used as the gate set of ``b_stat`` and in the
    classical expansion of the q = -1 transform.
    """
    d = descent_set(I)
    shifted = frozenset(x + 1 for x in d)
    return d ^ shifted


def b_stat(I, J):
    """|(1 + (D(I) - D(J))) union (D(J) - D(I))|, gated on the peaks of J.

    Returns None unless P(J) is contained in admissible_peaks(I).
    """
    if sum(I) != sum(J):
        raise ValueError(f"weight mismatch: {I} vs {J}")
    if not peak_set_of_composition(J) <= admissible_peaks(I):
        return None
    di, dj = descent_set(I), descent_set(J)
    return len(frozenset(x + 1 for x in di - dj) | (dj - di))


def aligned_positions(I, J):
    """Indices l of J at which the running sum of J meets a running sum of I.

    Position l in [1, len(J)] belongs to the result iff j_1 + ... + j_l
    equals i_1 + ... + i_k for some k in [1, len(I)]. The final position
    always qualifies (both sides sum to the full weight).
    """
    if sum(I) != sum(J):
        raise ValueError(f"weight mismatch: {I} vs {J}")
    sums_I = set(itertools.accumulate(I))
    out = set()
    acc = 0
    for l, p in enumerate(J, start=1):
        acc += p
        if acc in sums_I:
            out.add(l)
    return frozenset(out)


# ---------------------------------------------------------------------------
# part multiplicities


def num_compositions(n):
    if n < 0:
        raise ValueError("n must be >= 0")
    return 1 if n == 0 else 1 << (n - 1)


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
