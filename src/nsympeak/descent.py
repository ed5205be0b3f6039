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

A ribbon R_I of weight n stands for 2^(l(I)-1) S words, but it may be
expanded in whichever of two forms has fewer parts.  R_(1^n), the class
of the longest permutation, is an involution that maps ribbons to
ribbons: R_(1^n) * R_K = R_K~ and R_K * R_(1^n) = R_c(K), where c(K)
has the descents that K lacks and K~ = rev(c(K)) is c(K) read
backwards, with n + 1 - l(K) parts (Gelfand et al., section 5).  So
R_I * G is R_I~ * G with each ribbon K of the result read as K~, and
F * R_J is F * R_c(J) with each K read as c(K).

A product needing more than MAX_WORD_PAIRS pairs of S words, counted
after each operand's S words have merged, is refused through
``scalars.check_limit``, and so is, through ``elements.check_expansion``,
one whose longest S words at the shared weights already stand for more
than MAX_EXPANSION_TERMS ribbons; both counts come from one pass over
each operand (``_by_weight``), before anything is built, and read the
forms that are expanded.
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


def _complement(K):
    """c(K): the word whose descents are those that K lacks at its weight."""
    return K ^ ((1 << K.bit_length() >> 1) - 1)


def _reverse(K):
    """rev(K): K's descents d moved to n - d, n its weight (K > 0)."""
    return int("1" + bin(K)[:2:-1], 2)


def _conjugate(K):
    """K~ = rev(c(K)), the conjugate word."""
    return _reverse(_complement(K))


# How a result ribbon of one weight is mapped back, by which operands
# were taken in their other form there: (F flipped, G flipped).
_MAP_BACK = {(True, False): _conjugate, (False, True): _complement, (True, True): _reverse}


def _mapped_back(codes, back):
    """{code: scalar} with each ribbon of a weight n in ``back`` mapped by
    back[n]; each map is a bijection on the ribbons of its weight."""
    out = {}
    for K, c in codes.items():
        f = back.get(K.bit_length())
        out[K if f is None else f(K)] = c
    return out


def _shorter_forms(basis, groups, shared, flip):
    """The weights of ``shared`` at which an operand in ``basis`` holds a
    lone ribbon R_I of l > (n + 1) / 2 parts; each such group of
    ``_by_weight`` is replaced by one holding R_flip(I), of n + 1 - l
    parts."""
    flipped = set()
    if basis != "R":
        return flipped
    for n in shared:
        length = groups[n][1]
        if 2 * length > n + 1:
            [(I, c)] = groups[n][2].items()
            length = n + 1 - length
            groups[n] = [num_compositions(length), length, {flip(I): c}]
            flipped.add(n)
    return flipped


def internal_product(F, G):
    """F * G, returned in the ribbon basis.

    Both operands may be inhomogeneous.  Each same-weight pair of S words,
    S^I from F and S^J from G, contributes S^I * S^J by the matrix formula.
    Each operand is grouped by weight in one pass (``_by_weight``), and
    the pairs are counted over its merged S words.  A weight held as one
    ribbon of l > (n + 1) / 2 parts is taken in its other form (see the
    module docstring): F's R_I as R_I~, G's R_J as R_c(J).  The result's
    ribbons of that weight are mapped back by ~ when only F's was, by c
    when only G's was, and by rev = ~ c when both were.  Every word of
    S^I * S^J has at least max(l(I), l(J)) parts, so the result's
    ribbons are bounded from below, and refused, before any product is
    built or any lone ribbon expanded; a product that would cancel to
    zero is refused too.  Both counts read the forms that are expanded.
    Words are grouped by coefficient, so most of the summing is on
    integers.
    """
    (f_basis, f_groups), (g_basis, g_groups) = _by_weight(F), _by_weight(G)
    shared = f_groups.keys() & g_groups.keys()
    f_flipped = _shorter_forms(f_basis, f_groups, shared, _conjugate)
    g_flipped = _shorter_forms(g_basis, g_groups, shared, _complement)
    pairs = sum(f_groups[n][0] * g_groups[n][0] for n in shared)
    check_limit(pairs, MAX_WORD_PAIRS, "internal product", "S-word pairs")
    # The longest S word of each shared weight bounds the ribbons from below.
    longest = (max(f_groups[n][1], g_groups[n][1]) for n in shared)
    check_expansion(sum(map(num_compositions, longest)), "internal product in ribbons")
    back = {n: _MAP_BACK[n in f_flipped, n in g_flipped] for n in f_flipped | g_flipped}
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
    ribbons = NsymElement._trusted("S", out).to_basis("R").codes
    if back:
        ribbons = _mapped_back(ribbons, back)
    return NsymElement._trusted("R", ribbons)
