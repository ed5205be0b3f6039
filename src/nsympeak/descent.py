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
product as integer codes, one row at a time by shifts.

The sum runs on plain integers from the operands to the ribbons.  At
each shared weight both operands' terms are split once into the
scalars module's packed integer zeta-columns over one denominator and
one width (``scalars.split_terms``): over Q an int per word, the value
times the denominator, and over Q(zeta_N) an int holding the phi(N)
columns side by side in fields of that width.  Each pair of S words
multiplies its two ints once; the product of two packed ints is the
packed product polynomial in zeta (Kronecker substitution), with
2 phi(N) - 1 fields, and the width is chosen up front so that no field
of the sum, nor of its change to ribbons, can carry.  The sum changes to
ribbons on those ints (``compositions.lower_forward``), and
``scalars.join_terms`` folds each result int through Phi_N once and
builds its scalar.

The first row of each matrix is chosen in the product's own loop
(``_first_rows``), and the rest is read from ``_word_product``, a
process-wide memo: it holds the products of proper suffixes of the
operands' S words with the column sums left over, which recur across
pairs and requests, and never a pair of the operands' own words.

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

import functools
import math

from .compositions import decode, lower_codes, lower_forward, num_compositions
from .elements import CapacityError, NsymElement, check_basis_change, check_expansion
from .scalars import check_limit, conductor, join_terms, split_terms

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


def _s_words(basis, packed):
    """An operand's packed terms at one weight as S words. In R the
    weight holds one ribbon R_I (``_by_weight``), the alternating sum of
    the S^J with D(J) in D(I): each J takes the int of R_I times
    (-1)^(l(I) - l(J))."""
    if basis != "R":
        return packed
    [(I, x)] = packed.items()
    return {J: -x if (I ^ J).bit_count() & 1 else x for J in lower_codes(I)}


def _packed_sum(n, f_basis, f_group, g_basis, g_group):
    """The S-basis sum of F * G at the weight n, as packed integer
    zeta-columns: (N, den, width, {code: int}), zeros kept.

    Both operands' stored terms at n are split once, together
    (``split_terms``): one conductor, one denominator and one width. A
    lone ribbon is expanded to its S words on those ints (``_s_words``).
    Each pair of S words multiplies its two ints once, and every matrix
    of the pair adds that product to the word it reads. Over Q the ints
    are the values times den and need no width. Otherwise the product of
    two packed ints is the packed product polynomial (Kronecker
    substitution), which ``join_terms`` folds through Phi_N; rationals
    are packed as column 0, so one side may be rational.

    The width is bounded up front. A field of a product is a sum of at
    most phi(N) products of two columns, so below phi(N) b^2 with b the
    largest column. The sum adds one product per matrix summed, and
    those number at most the pairs times C(n + l l', n): a pair's
    matrices have at most l x l' entries summing to n, l and l' the
    most parts of a word on each side. The change to ribbons then adds
    at most 2^(n-1) words into one. So ``split_terms`` is asked for room
    for phi(N) b^2 times 2^steps, steps being the bit length of that
    matrix count plus n.

    The first rows of each pair are chosen here (``_first_rows``) and
    only the rest of each matrix is read from ``_word_product``, so the
    memo holds subproblems, never a pair of the operands' own words.
    """
    (f_words, f_length, f_terms), (g_words, g_length, g_terms) = f_group, g_group
    matrices = f_words * g_words * math.comb(n + f_length * g_length, n)
    terms = {(0, I): c for I, c in f_terms.items()}
    terms.update(((1, J), c) for J, c in g_terms.items())
    N, den, width, packed = split_terms(terms, matrices.bit_length() + n, product=True)
    f, g = {}, {}
    for (side, I), x in packed.items():
        (g if side else f)[I] = x
    g = [(decode(J), y) for J, y in _s_words(g_basis, g).items()]
    out = {}
    for I, x in _s_words(f_basis, f).items():
        I = decode(I)
        first, rest = (I[0], I[1:]) if I else (0, ())
        for J, y in g:
            xy = x * y
            for head, left in _first_rows(first, J):
                for K, c in _word_product(rest, left).items():
                    K = head | K << first
                    out[K] = out.get(K, 0) + xy * c
    return N, den * den, width, out


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

    Each shared weight is summed on plain integers (``_packed_sum``):
    packed zeta-columns, the product of two of them read as Kronecker
    fields.  The sums of every weight are counted as one basis change
    (``check_basis_change``), then each changes to ribbons on its ints
    (``lower_forward``) and is read back by one ``join_terms``.  Two
    conductors at one weight are refused when that weight is split; at
    two weights, when the ribbons of both hold irrational values, as
    adding the two weights' scalars would.  Only subproblems stay in
    the ``_word_product`` memo.
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
    sums = [_packed_sum(n, f_basis, f_groups[n], g_basis, g_groups[n]) for n in shared]
    check_basis_change([K for *_, out in sums for K, v in out.items() if v])
    ribbons = {}
    for N, den, width, out in sums:
        ribbons.update(join_terms(N, den, width, lower_forward(out), product=True))
    if len({N for N, *_ in sums} - {None}) > 1:
        conductor(ribbons.values())
    if back:
        ribbons = _mapped_back(ribbons, back)
    return NsymElement._trusted("R", ribbons)
