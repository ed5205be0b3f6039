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
than MAX_EXPANSION_TERMS ribbons; both counts come from one pass over
each operand (``_by_weight``), before anything is built.
"""

import collections
import functools

from .compositions import decode, num_compositions
from .elements import CapacityError, NsymElement, add_term, check_expansion
from .scalars import check_limit

MAX_WORD_PAIRS = 1 << 18


def _by_weight(F):
    """F's basis, once merged, and {n: [S words, longest, terms]} for each
    weight n of F, in one pass: how many S words the weight holds, the
    most parts of one of them, and the weight's {code: scalar} terms.

    The 2^(l(I)-1) S words of one ribbon R_I are distinct, so a weight
    holding one ribbon is counted without expanding it, and I itself is
    its longest S word; an element with two ribbons of one weight is
    expanded to S first, whole, and its merged words are counted.
    """
    if F.basis == "R" and len(set(map(int.bit_length, F.codes))) < len(F.codes):
        F = F.to_basis("S")
    ribbons = F.basis == "R"
    out = {}
    for I, c in F.codes.items():
        n, length = I.bit_length(), I.bit_count()
        group = out.get(n)
        if group is None:
            out[n] = [num_compositions(length) if ribbons else 1, length, {I: c}]
        else:  # S words: a ribbon is alone at its weight
            group[0] += 1
            group[1] = max(group[1], length)
            group[2][I] = c
    return F.basis, out


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


def _words_by_coefficient(basis, terms):
    """{coefficient: [S words, as tuples]} for the terms of one weight in
    ``basis``; a lone ribbon is expanded to its S words here."""
    out = collections.defaultdict(list)
    for I, a in NsymElement._trusted(basis, terms).to_basis("S").codes.items():
        out[a].append(decode(I))
    return out


def internal_product(F, G):
    """F * G, returned in the ribbon basis.

    Both operands may be inhomogeneous.  Each same-weight pair of S words,
    S^I from F and S^J from G, contributes S^I * S^J by the matrix formula.
    Each operand is grouped by weight in one pass (``_by_weight``), and
    the pairs are counted over its merged S words.  Every word of
    S^I * S^J has at least max(l(I), l(J)) parts, so the result's ribbons
    are bounded from below, and refused, before any product is built or
    any lone ribbon expanded; a product that would cancel to zero is
    refused too.  Words are grouped by coefficient, so most of the
    summing is on integers.
    """
    (f_basis, f_groups), (g_basis, g_groups) = _by_weight(F), _by_weight(G)
    shared = f_groups.keys() & g_groups.keys()
    pairs = sum(f_groups[n][0] * g_groups[n][0] for n in shared)
    check_limit(pairs, MAX_WORD_PAIRS, "internal product", "S-word pairs")
    # The longest S word of each shared weight bounds the ribbons from below.
    longest = (max(f_groups[n][1], g_groups[n][1]) for n in shared)
    check_expansion(sum(map(num_compositions, longest)), "internal product in ribbons")
    out = {}
    for n in shared:
        f_words = _words_by_coefficient(f_basis, f_groups[n][2])
        g_words = _words_by_coefficient(g_basis, g_groups[n][2])
        for a, f_list in f_words.items():
            for b, g_list in g_words.items():
                counts = {}
                for I in f_list:
                    for J in g_list:
                        for K, c in _word_product(I, J).items():
                            counts[K] = counts.get(K, 0) + c
                ab = a * b
                for K, c in counts.items():
                    add_term(out, K, ab * c)
    return NsymElement._trusted("S", out).to_basis("R")
