"""The internal product of noncommutative symmetric functions.

This is the product of Solomon's descent algebra.  In the complete basis
it is the matrix (Mackey) formula: S^I * S^J is the sum of S^(M read row
by row, zeros dropped) over the nonnegative integer matrices M with row
sums I and column sums J (Garsia and Reutenauer, 1989; Gelfand, Krob,
Lascoux, Leclerc, Retakh and Thibon, *Noncommutative symmetric
functions*, 1995, section 5).  Components of different weights multiply
to zero.  When R_I stands for the sum of the permutations of descent
composition I, F * G is the class product of G's classes by F's, with
(s t)(i) = s(t(i)).  The matrix formula reads each operand S word as
a tuple of parts (the row and column sums) and builds the words of the
product as integer codes, one row at a time by shifts; the counts merge
into a {code: scalar} dict that becomes the S-basis result as it is.
A product needing more than MAX_WORD_PAIRS pairs of S words, counted
after each operand's S words have merged, is refused through
``scalars.check_limit``, and so is, through ``elements.check_expansion``,
one whose longest S words at the shared weights already stand for more
than MAX_EXPANSION_TERMS ribbons; both counts come before anything is
built.
"""

import collections
import functools

from .compositions import decode, num_compositions
from .elements import CapacityError, NsymElement, add_term, check_expansion
from .scalars import check_limit

MAX_WORD_PAIRS = 1 << 18


def _words_by_weight(F):
    """F, expanded into S words where that merges words, and how many S
    words each weight of it holds once merged.

    The 2^(l(I)-1) S words of one ribbon R_I are distinct, so a weight
    holding one ribbon is counted without expanding it; an element with
    two ribbons of one weight is expanded first.
    """
    per_weight = collections.Counter(I.bit_length() for I in F.codes)
    if F.basis == "R" and max(per_weight.values(), default=0) > 1:
        F = F.to_basis("S")
    counts = collections.Counter()
    for I in F.codes:
        counts[I.bit_length()] += 1 if F.basis == "S" else num_compositions(I.bit_count())
    return F, counts


@functools.cache
def _first_rows(total, J):
    """Each first row of M with sum ``total`` under the column sums J, as
    (the code of its nonzero entries, the nonzero column sums left over).

    An entry x goes on in front of the code ``head`` of the entries after
    it as ``(1 << x >> 1) | head << x``, which is ``head`` when x = 0.
    """
    if not J:
        return ((0, ()),) if total == 0 else ()
    j, rest = J[0], J[1:]
    # An entry below total - sum(rest) leaves more than the later columns
    # hold, so every row started here can be completed.
    return tuple(
        ((1 << x >> 1) | head << x, (j - x,) * (x < j) + left)
        for x in range(max(0, total - sum(rest)), min(total, j) + 1)
        for head, left in _first_rows(total - x, rest)
    )


@functools.cache
def _word_product(I, J):
    """S^I * S^J as {code: multiplicity}; I and J are tuples of one weight.

    The first row of M is chosen first, and the remaining rows form a
    matrix for I[1:] and the leftover column sums, zero columns dropped.
    A first row weighs I[0], so a word is ``head | rest << I[0]``.
    The returned dict is shared by every caller and must not be changed.
    """
    if not I:
        return {0: 1}
    out = {}
    n, rest = I[0], I[1:]
    for head, left in _first_rows(n, J):
        for K, c in _word_product(rest, left).items():
            K = head | K << n
            out[K] = out.get(K, 0) + c
    return out


def _words_by_coefficient(F):
    """{coefficient: [S words, as tuples]} for F in the S basis."""
    out = collections.defaultdict(list)
    for I, a in F.to_basis("S").codes.items():
        out[a].append(decode(I))
    return out


def internal_product(F, G):
    """F * G, returned in the ribbon basis.

    Both operands may be inhomogeneous.  Each same-weight pair of S words,
    S^I from F and S^J from G, contributes S^I * S^J by the matrix formula;
    the pairs are counted over the merged S words (``_words_by_weight``).
    Every word of S^I * S^J has at least max(l(I), l(J)) parts, so the
    result's ribbons are bounded from below, and refused, before any
    product is built; a product that would cancel to zero is refused too.
    Words are grouped by coefficient, so most of the summing is on integers.
    """
    (F, f_words), (G, g_words) = _words_by_weight(F), _words_by_weight(G)
    pairs = sum(c * g_words[n] for n, c in f_words.items())
    check_limit(pairs, MAX_WORD_PAIRS, "internal product", "S-word pairs")
    parts = [(F.homogeneous_component(n), G.homogeneous_component(n))
             for n in f_words.keys() & g_words.keys()]
    # The longest S word of each shared weight bounds the ribbons from below.
    longest = (max(I.bit_count() for h in f_g for I in h.codes) for f_g in parts)
    check_expansion(sum(map(num_compositions, longest)), "internal product in ribbons")
    out = {}
    for f, g in parts:
        f_groups = _words_by_coefficient(f)
        g_groups = _words_by_coefficient(g)
        for a, f_list in f_groups.items():
            for b, g_list in g_groups.items():
                counts = {}
                for I in f_list:
                    for J in g_list:
                        for K, c in _word_product(I, J).items():
                            counts[K] = counts.get(K, 0) + c
                ab = a * b
                for K, c in counts.items():
                    add_term(out, K, ab * c)
    return NsymElement._trusted("S", out).to_basis("R")
