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
Both are built over the input's own words, in the basis the caller reads:
an S word's image is the product of its parts' generator images, and a
ribbon's follows the ribbon product rule R_H R_a = R_(H.a) + R_(H glued
to a) (ibid., section 3), so ribbons are not expanded into S words.
A request whose work passes MAX_RECURSION_TERMS is refused before
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
from itertools import accumulate

from .compositions import compositions_of, decode, num_compositions
from .elements import (
    NsymElement, S, add_term, check_expansion, linear_combination, multiply
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


def _image(I, c, ribbons, q, scale, basis):
    """c times the image of the S word coded I, or of the ribbon R_I when
    ``ribbons``, in ``basis``.

    image(H.a) = image(H) * G_a, G_a the image of S_a. Ribbons multiply
    as R_H * R_a = R_(H.a) + R_(H glued to a), H glued to a being H with
    a added to its last part, so the image of that word is subtracted
    too. For R_I, row[m] holds at step k the image of
    (i_1, ..., i_k, i_(k+1) + ... + i_(m+1)): every such word, read from
    the prefix row[k-1] and the glued word row[m] of the step before.
    The first generator images are seeded with c, so no image is rescaled.
    """
    def gen(a):
        return _generator(a, q, scale, basis)

    def seeded(a):
        return gen(a) if c == 1 else gen(a).scale(c)

    if not I:
        return NsymElement._trusted(basis, {0: c})
    I = decode(I)
    if not ribbons:
        image = seeded(I[0])
        for a in I[1:]:
            image = multiply(image, gen(a))
        return image
    row = [seeded(s) for s in accumulate(I)]
    for k in range(1, len(I)):
        head = row[k - 1]
        for m, s in enumerate(accumulate(I[k:]), k):
            image = multiply(head, gen(s))
            for K, v in row[m].codes.items():
                add_term(image.codes, K, -v)
            row[m] = image
    return row[-1]


def _at_most_words(x, w):
    """min(x, 2^(w-1)), the number of compositions of w, without building
    2^(w-1) when x is smaller."""
    return x if x.bit_length() < w else min(x, 1 << (w - 1))


def _recursion_terms(F, scale, basis):
    """Bound the work of ``_image`` on F's words in ``basis``: one per word
    and per product, plus the terms of the generator images it reads and
    the terms it adds, summed until it passes MAX_RECURSION_TERMS (so a
    count past the limit is where summing stopped, not the full count).
    Each word's parts and partial sums are decoded from its code.

    G_a, the image of S_a, has at most a terms in R and 2^(a-1) in S, and
    none when ``scale`` is zero. A word's first images are read and then
    seeded with its coefficient, so they count twice. A product
    image(H) * G_a reads G_a and adds |image(H)| |G_a| terms, twice that
    on ribbons (concatenated and glued), and a glued word adds its image's
    terms. An image of weight w has at most 2^(w-1) words.
    """
    def gen(a):
        return 0 if not scale else a if basis == "R" else 1 << (a - 1)

    times = 2 if basis == "R" else 1
    total = 0
    for code in F.codes:
        I = decode(code)
        weights = list(accumulate(I))
        if F.basis == "S":
            size = gen(I[0]) if I else 0
            total += 1 + 2 * size
            for a, w in zip(I[1:], weights[1:]):
                added = size * gen(a) * times
                total += 1 + gen(a) + added
                size = _at_most_words(added, w)
        else:
            row = [gen(s) for s in weights]
            total += 1 + 2 * sum(row)
            for k in range(1, len(I)):
                head = row[k - 1]
                for m, s in enumerate(accumulate(I[k:]), k):
                    added = head * gen(s) * times + row[m]
                    total += 1 + gen(s) + added
                    row[m] = _at_most_words(added, weights[m])
                if total > MAX_RECURSION_TERMS:
                    break
        if total > MAX_RECURSION_TERMS:
            break
    return total


def _extend(F, q, scale, basis):
    """The linear, multiplicative extension of S_n -> scale * hook_sum(n, q)
    to F, in ``basis``: ``_image`` of each of F's own words, S words or
    ribbons, each read from its code. It is refused through
    ``check_limit``, before anything is built, when its work, bounded by
    ``_recursion_terms``, passes MAX_RECURSION_TERMS. That count stops
    once it is past the limit, so the refusal names the count where it
    stopped, a lower bound of the request's full count.
    """
    if basis not in ("S", "R"):
        raise ValueError(f"unknown basis {basis!r}")
    check_limit(_recursion_terms(F, scale, basis), MAX_RECURSION_TERMS, "transform", "terms")
    ribbons = F.basis == "R"
    return linear_combination(
        basis,
        (
            (_image(I, c, ribbons, q, scale, basis), 1)
            for I, c in F.codes.items()
        ),
    )


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
    for I in compositions_of(n):
        det = det * theta_q(S(*I), q).coefficient(I)
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
