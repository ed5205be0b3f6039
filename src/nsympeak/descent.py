"""The internal product of noncommutative symmetric functions.

This is the product of Solomon's descent algebra.  In the complete basis
it is the matrix (Mackey) formula: S^I * S^J is the sum of S^(M read row
by row, zeros dropped) over the nonnegative integer matrices M with row
sums I and column sums J (Garsia and Reutenauer, 1989; Gelfand, Krob,
Lascoux, Leclerc, Retakh and Thibon, *Noncommutative symmetric
functions*, 1995, section 5).  Components of different weights multiply
to zero.  When R_I stands for the sum of the permutations of descent
composition I, F * G is the class product of G's classes by F's, with
(s t)(i) = s(t(i)).  A product needing more than MAX_WORD_PAIRS pairs of
S words raises CapacityError.
"""

import collections
import functools

from .compositions import num_compositions
from .elements import CapacityError, NsymElement

MAX_WORD_PAIRS = 1 << 18


def _words_by_weight(F):
    """How many S words each weight of F expands to, counted without expanding."""
    counts = collections.Counter()
    for I in F.terms:
        counts[sum(I)] += 1 if F.basis == "S" else num_compositions(len(I))
    return counts


@functools.cache
def _first_rows(total, J):
    """Each first row of M with sum ``total`` under the column sums J,
    as (its nonzero entries, the nonzero column sums left over)."""
    if not J:
        return (((), ()),) if total == 0 else ()
    j = J[0]
    return tuple(
        ((x,) * (x > 0) + head, (j - x,) * (x < j) + left)
        for x in range(min(total, j) + 1)
        for head, left in _first_rows(total - x, J[1:])
    )


@functools.cache
def _word_product(I, J):
    """S^I * S^J as {K: multiplicity}; I and J have the same weight.

    The first row of M is chosen first, and the remaining rows form a
    matrix for I[1:] and the leftover column sums, zero columns dropped.
    The returned dict is shared by every caller and must not be changed.
    """
    if not I:
        return {(): 1}
    out = {}
    rest = I[1:]
    for head, left in _first_rows(I[0], J):
        for K, c in _word_product(rest, left).items():
            K = head + K
            out[K] = out.get(K, 0) + c
    return out


def _words_by_coefficient(F):
    """{coefficient: [S words]} for F in the S basis."""
    out = collections.defaultdict(list)
    for I, a in F.to_basis("S").terms.items():
        out[a].append(I)
    return out


def internal_product(F, G):
    """F * G, returned in the ribbon basis.

    Both operands may be inhomogeneous.  Each same-weight pair of S words,
    S^I from F and S^J from G, contributes S^I * S^J by the matrix formula.
    Words are grouped by coefficient, so most of the summing is on integers.
    """
    f_words, g_words = _words_by_weight(F), _words_by_weight(G)
    pairs = sum(c * g_words[n] for n, c in f_words.items())
    if pairs > MAX_WORD_PAIRS:
        raise CapacityError(
            f"internal product needs {pairs} S-word pairs, "
            f"above the limit {MAX_WORD_PAIRS}"
        )
    out = {}
    for n in f_words.keys() & g_words.keys():
        f_groups = _words_by_coefficient(F.homogeneous_component(n))
        g_groups = _words_by_coefficient(G.homogeneous_component(n))
        for a, f_list in f_groups.items():
            for b, g_list in g_groups.items():
                counts = collections.Counter()
                for I in f_list:
                    for J in g_list:
                        counts.update(_word_product(I, J))
                ab = a * b
                for K, c in counts.items():
                    out[K] = out.get(K, 0) + ab * c
    return NsymElement("S", out).to_basis("R")
