"""Truncated series over Sym and the one-parameter basis transform.

The series here are t-series whose degree-d coefficient is homogeneous
of weight d, so each one is an NsymElement whose words all have weight
at most a truncation ``order``: t is read off the grading. The one
truncated product and the one truncated inverse never build a word
heavier than ``order``. The generating series sigma(t) of complete
functions is such an element, and the power sums are read off the
logarithmic derivative sigma^{-1} sigma'.

The transform theta_q sends S_n to S_n((1-q)A). Its generator has the
closed hook form (Krob-Leclerc-Thibon, *Noncommutative symmetric
functions II: transformations of alphabets*, 1997)

    theta_q(S_n) = (1-q) * sum over i < n of (-q)^i R_(1^i, n-i),

and theta_q extends it linearly and multiplicatively. Theta is the
normalization theta_q/(1-q) at q = zeta_N: it extends S_n to the hook
sum alone, which at N = 1 (zeta_1 = 1) is the power sum of weight n
(Gelfand et al., *Noncommutative symmetric functions*, 1995, section 4).
Both are built over the input's own words, in the basis the caller
reads, by one builder (``_word_images``). The image of the S word H.a is
image(H) G_a, G_a the image of S_a, and a ribbon's follows the ribbon
product rule R_H R_a = R_(H.a) + R_(H glued to a) (ibid., section 3), so
ribbons are not expanded into S words. Both sub-words have smaller codes
than the word. So the builder takes the requested words in ascending code
order and builds, lowest first, the words below each one that are not
built yet: every word of the closure under these steps is built once,
with one product, and its image is dropped after its last reader, the
readers counted over the closure first. The words of one coefficient
share their sub-word images, and the coefficient seeds the one-part
images and the unit, so a coefficient of 1 costs no scalar operation.
``theta_q_images`` and ``Theta_images`` hand the images out one word at
a time, each word refused just as it would be alone; the verify suites
ask them for all their words at once. A theta_q or Theta request whose
work, bounded word by word, passes MAX_RECURSION_TERMS is refused before
anything is built.
The series definition of the generator, the degree-n coefficient of
sigma_{qt}(A)^{-1} sigma_t(A), stays as the oracle the closed form is
checked against. theta_q is triangular in the S basis, so its
determinant on one weight is the product of the diagonal coefficients of
the S-word images, and it is compared with the closed product formula.

Scalars stay exact throughout: ints and Fractions, or cyclotomics when
q is a root of unity. Polynomial identities in q are checked by
evaluating both sides at enough rational points, not by symbolic q.
"""

from __future__ import annotations

import functools
from itertools import accumulate, chain

from .compositions import at_most_compositions, decode, num_compositions
from .elements import (
    NsymElement, add_term, all_words, check_expansion, linear_combination,
    multiply,
)
from .scalars import check_limit, scalar_inv, scalar_pow, zeta

# The work, in terms read and added (``_recursion_terms``), above which a
# transform is refused. Near it, theta of S[2^9, 1] printed as ribbons
# took 6.6 s at zeta_3 and 10 s at zeta_7 on a 2-CPU Xeon machine.
MAX_RECURSION_TERMS = 1 << 19


# ---------------------------------------------------------------------------
# truncated series


def _by_weight(F):
    """F's S-basis terms grouped by weight: {weight: [(code, coeff), ...]}."""
    out = {}
    for I, c in F.to_basis("S").codes.items():
        out.setdefault(I.bit_length(), []).append((I, c))
    return out


def series_product(F, G, order):
    """The product F*G truncated at weight ``order``, in the S basis.

    Only the pairs of words whose weights add up to at most ``order``
    are multiplied.
    """
    right = _by_weight(G)
    terms = {}
    for I, a in F.to_basis("S").codes.items():
        n = I.bit_length()
        room = order - n
        for w, words in right.items():
            if w <= room:
                for J, b in words:
                    add_term(terms, I | J << n, a * b)
    return NsymElement._trusted("S", terms)


def series_inverse(F, order):
    """The two-sided inverse of F truncated at weight ``order``, in the S basis.

    F needs an invertible scalar constant term c. The inverse's weight-n
    component is -1/c times the sum over d in [1, n] of F's weight-d
    component times the inverse's weight-(n-d) component.
    """
    parts = _by_weight(F)
    head = parts.pop(0, None)
    if head is None:
        raise ValueError("series inverse needs an invertible scalar constant term")
    c = scalar_inv(head[0][1])
    inv = [[(0, c)]]
    for n in range(1, order + 1):
        acc = {}
        for d, words in parts.items():
            if d <= n:
                for I, a in words:
                    for J, b in inv[n - d]:
                        add_term(acc, I | J << d, a * b)
        inv.append([(K, -c * v) for K, v in acc.items()])
    terms = {}
    for words in inv:
        for K, v in words:
            add_term(terms, K, v)
    return NsymElement._trusted("S", terms)


def sigma_series(order, q=1):
    """sigma(qt) up to weight ``order``: the sum of q^k S_k (S_0 the unit)."""
    return NsymElement(
        "S", {(k,) if k else (): scalar_pow(q, k) for k in range(order + 1)}
    )


def psi(n):
    """The power sum of weight n, as an S-basis element.

    It is the t^(n-1) coefficient of sigma(t)^{-1} sigma'(t): the sum
    over k < n of (n-k) [sigma^{-1}]_k S_(n-k).
    """
    if n < 1:
        raise ValueError("power sums start at weight 1")
    inv = series_inverse(sigma_series(n - 1), n - 1)
    terms = {}
    for J, b in inv.codes.items():
        # J followed by the part n - |J|: the partial sum n joins J's bits.
        add_term(terms, J | 1 << n >> 1, (n - J.bit_length()) * b)
    return NsymElement._trusted("S", terms)


# ---------------------------------------------------------------------------
# the (1-q)-transform


def theta_q_series(q, order):
    """sigma_{qt}^{-1} sigma_t up to weight ``order``: the generators' oracle."""
    return series_product(
        series_inverse(sigma_series(order, q), order), sigma_series(order), order
    )


def theta_q_generator(n, q):
    """The image of S_n from the series: degree n of sigma_{qt}^{-1} sigma_t."""
    return theta_q_series(q, n).homogeneous_component(n)


def hook_sum(n, q):
    """The sum of (-q)^i R_(1^i, n-i) over i < n, zero coefficients dropped.

    (1-q) times it is theta_q(S_n); at q = 1 it is the power sum psi(n).
    """
    terms = {}
    for i in range(n):
        # (1^i, n-i) has the partial sums 1, ..., i and n.
        add_term(terms, 1 << n >> 1 | (1 << i) - 1, scalar_pow(-q, i))
    return NsymElement._trusted("R", terms)


@functools.cache
def _generator(n, q, scale, basis):
    """scale * hook_sum(n, q) in ``basis`` (scaled while it has n terms)."""
    return hook_sum(n, q).scale(scale).to_basis(basis)


def _sub_words(I, ribbons):
    """The words whose images the image of word I is read from, each with a
    smaller code: none for the unit and a one-part word; H for the S word
    H.a; H and H glued to a (H with a added to its last part) for R_(H.a).
    H is I without its top bit, and H glued to a is I without H's top bit.
    """
    H = I ^ (1 << I.bit_length() >> 1)
    if not H:
        return ()
    if not ribbons:
        return (H,)
    return H, I ^ (1 << H.bit_length() >> 1)


def _word_images(codes, ribbons, q, scale, basis, seed=1, checked=False):
    """Yield (code, image) for each of ``codes`` in ascending code order:
    seed times the image of the S word, or of the ribbon when ``ribbons``,
    in ``basis``.

    The images are built over the closure of the words under
    ``_sub_words``: image(H.a) = image(H) * G_a, G_a the image of S_a,
    and ribbons multiply as R_H * R_a = R_(H.a) + R_(H glued to a), so
    image(R_(H.a)) = image(R_H) * G_a - image(R_(H glued to a)). A word's
    sub-words have smaller codes, so each closure word is built once,
    after its sub-words; the words below a requested word that are not
    built yet are built, lowest first, just before it. Each image is kept
    only until its last reader is built: the readers are counted over the
    closure first. The one-part images and the unit carry ``seed``, so no
    image is rescaled and a seed of 1 costs no scalar operation. With
    ``checked``, each requested word's own ``_word_terms`` passes
    ``check_limit`` before anything below it is built.
    """
    def gen(a):
        return _generator(a, q, scale, basis)

    below, readers = {}, {}
    todo = list(codes)
    while todo:
        X = todo.pop()
        if X not in below:
            below[X] = subs = _sub_words(X, ribbons)
            for Y in subs:
                readers[Y] = readers.get(Y, 0) + 1
            todo += subs
    images = {}
    for W in sorted(codes):
        if checked:
            check_limit(_word_terms(W, ribbons, scale, basis), MAX_RECURSION_TERMS,
                        "transform", "terms")
        new, todo = {W}, list(below[W])
        while todo:
            X = todo.pop()
            if X not in images and X not in new:
                new.add(X)
                todo += below[X]
        for X in sorted(new):
            subs = below[X]
            if not X:
                image = NsymElement._trusted(basis, {0: seed})
            elif not subs:
                image = gen(X.bit_length())
                if seed != 1:
                    image = image.scale(seed)
            else:
                H = subs[0]
                image = multiply(images[H], gen(X.bit_length() - H.bit_length()))
                if ribbons:
                    for K, v in images[subs[1]].codes.items():
                        add_term(image.codes, K, -v)
            for Y in subs:
                readers[Y] -= 1
                if not readers[Y]:
                    del images[Y]
            if X in readers:
                images[X] = image
        yield W, image


def _word_terms(code, ribbons, scale, basis, total=0):
    """total plus a bound on the work of building the image of one word,
    as ``_word_images`` builds it on its own: one for the word and one per
    product, plus the terms of the generator images read and the terms
    added. A ribbon's count stops after the row of products at which it
    passes MAX_RECURSION_TERMS.

    G_a, the image of S_a, has at most a terms in R and 2^(a-1) in S, and
    none when ``scale`` is zero. The one-part images are read and then
    seeded with the word's coefficient, so they count twice. A product
    image(H) * G_a reads G_a and adds |image(H)| |G_a| terms, twice that
    on ribbons (concatenated and glued), and a glued word adds its image's
    terms. An image of weight w has at most 2^(w-1) words. A ribbon's
    closure is the row of words (i_1, ..., i_k, i_(k+1) + ... + i_(m+1)),
    counted one k at a time, m upward.
    """
    def gen(a):
        return 0 if not scale else a if basis == "R" else 1 << (a - 1)

    times = 2 if basis == "R" else 1
    I = decode(code)
    weights = list(accumulate(I))
    if not ribbons:
        size = gen(I[0]) if I else 0
        total += 1 + 2 * size
        for a, w in zip(I[1:], weights[1:]):
            added = size * gen(a) * times
            total += 1 + gen(a) + added
            size = at_most_compositions(added, w)
        return total
    row = [gen(s) for s in weights]
    total += 1 + 2 * sum(row)
    for k in range(1, len(I)):
        head = row[k - 1]
        for m, s in enumerate(accumulate(I[k:]), k):
            added = head * gen(s) * times + row[m]
            total += 1 + gen(s) + added
            row[m] = at_most_compositions(added, weights[m])
        if total > MAX_RECURSION_TERMS:
            break
    return total


def _recursion_terms(F, scale, basis):
    """Bound the work of the transform on F's words in ``basis``: the sum
    of ``_word_terms`` over F's words, stopped once it passes
    MAX_RECURSION_TERMS (so a count past the limit is where summing
    stopped, not the full count)."""
    total = 0
    for code in F.codes:
        total = _word_terms(code, F.basis == "R", scale, basis, total)
        if total > MAX_RECURSION_TERMS:
            break
    return total


def _term_images(F, q, scale, basis, checked=False):
    """(code, image of F's term on that word) for each of F's words, in
    ``basis``: one ``_word_images`` pass per coefficient of F, seeded with
    it, so a coefficient of 1 adds no scalar operation and the words of
    one coefficient share their sub-word images. Within a coefficient the
    codes ascend; the coefficients come in the order F first holds them.
    """
    if basis not in ("S", "R"):
        raise ValueError(f"unknown basis {basis!r}")
    groups = {}
    for I, c in F.codes.items():
        groups.setdefault(c, []).append(I)
    ribbons = F.basis == "R"
    return chain.from_iterable(
        _word_images(codes, ribbons, q, scale, basis, c, checked)
        for c, codes in groups.items()
    )


def _extend(F, q, scale, basis):
    """The linear, multiplicative extension of S_n -> scale * hook_sum(n, q)
    to F, in ``basis``: the sum of ``_term_images`` over F's own words, S
    words or ribbons. It is refused through ``check_limit``, before
    anything is built, when its work, bounded by ``_recursion_terms``,
    passes MAX_RECURSION_TERMS. That count stops once it is past the
    limit, so the refusal names the count where it stopped, a lower bound
    of the request's full count.
    """
    images = _term_images(F, q, scale, basis)
    check_limit(_recursion_terms(F, scale, basis), MAX_RECURSION_TERMS, "transform", "terms")
    return linear_combination(basis, ((image, 1) for _, image in images))


def theta_q(F, q, basis="S"):
    """Apply the transform: multiplicative, linear, and returned in ``basis``.

    ``basis`` names the representation the caller reads, as
    ``NsymElement.to_basis`` does. The image is built over F's own words
    in that basis, ribbons by the ribbon product rule; a request whose
    work passes MAX_RECURSION_TERMS is refused (see ``_extend``).
    """
    return _extend(F, q, 1 - q, basis)


def Theta(F, N, basis="S"):
    """The normalized transform theta_zeta/(1-zeta) at the order-N root.

    It extends S_n -> hook_sum(n, zeta_N); at N = 1 that is the power
    sum of weight n, the q -> 1 limit of theta_q/(1-q). ``basis`` is the
    output basis, as for theta_q.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return _extend(F, zeta(N), 1, basis)


def theta_q_images(F, q, basis="S"):
    """Iterate over (code, theta_q of F's term on that word) for F's words,
    in ``basis``, the words of one coefficient in ascending code order.

    The words share their sub-word images (see ``_word_images``), so
    asking for many words at once costs one product per word. Each word
    is refused as ``theta_q`` of that word alone would be, just before
    it is built, so a caller that consumes the images as they come is
    refused at the same word as one calling ``theta_q`` word by word.
    """
    return _term_images(F, q, 1 - q, basis, checked=True)


def Theta_images(F, N, basis="S"):
    """Iterate over (code, Theta of F's term on that word), as
    ``theta_q_images`` does for theta_q."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _term_images(F, zeta(N), 1, basis, checked=True)


# ---------------------------------------------------------------------------
# the determinant on one weight


def det_theta(n, q):
    """The determinant of theta_q on Sym_n, from its diagonal in the S basis.

    Every word of theta_q(S^I), a product of the theta_q(S_i), refines I,
    and the refinements of I come after I in canonical order. So the
    transform is triangular, and its determinant is the product over I
    of the S^I coefficients of the images, the products of the (1 - q^i).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # 4^(n-1) bounds the 3^(n-1) image terms and the determinant's size
    # (at n = 12: 4,711 digits at q = 2 and 12,473 at q = -3).
    check_expansion(num_compositions(n) ** 2, "transform determinant")
    det = 1
    for I, image in theta_q_images(all_words("S", n, n), q):
        det = det * image.codes.get(I, 0)
    return det


def det_formula(n, q):
    """Closed form: product of (1-q^i) powers times (1-q^n).

    The exponent of (1-q^i) is (n-i+3) 2^(n-i-2) for i up to n-2 and 2
    at i = n-1 (the power of two turns fractional there and the product
    of the two factors is 4/2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    det = 1 - scalar_pow(q, n)
    for i in range(1, n):
        e = 2 if i == n - 1 else (n - i + 3) * (1 << (n - i - 2))
        det = det * scalar_pow(1 - scalar_pow(q, i), e)
    return det
