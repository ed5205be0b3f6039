"""Truncated series over Sym and the one-parameter basis transform.

A GradedSeries is a formal power series in one central variable t whose
coefficients are NsymElement values, truncated inclusively at ``order``;
arithmetic never claims precision beyond the smaller operand order. The
generating series sigma(t) of complete functions, its logarithmic
derivative (whose coefficients are the power sums), and the transform
sending S_n to S_n((1-q)A) are all built from this type.

The transform theta_q is computed from its series definition: the
degree-n coefficient of sigma_{qt}(A)^{-1} sigma_t(A). It extends
multiplicatively over S words. Theta is the normalization theta_q/(1-q)
at q a primitive root of unity, with the q -> 1 limit given by power
sums. Determinants of the transform on one weight are computed by exact
Gaussian elimination in the S basis, alongside the closed product
formula they are known to match.

Scalars stay exact throughout: Fractions, or cyclotomics when q is a
root of unity. Polynomial identities in q are checked by evaluating both
sides at enough rational points, not by symbolic q.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .compositions import compositions_of
from .elements import (
    NsymElement, S, add_term, check_expansion, linear_combination, multiply, one, zero
)
from .scalars import scalar_inv, scalar_pow, zeta

DEFAULT_ORDER = 12

_ONE = Fraction(1)


class GradedSeries:
    """A t-series with NsymElement coefficients, truncated at ``order``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if order < 0:
            raise ValueError("order must be >= 0")
        clean = {}
        for deg, elt in coeffs.items():
            if not isinstance(elt, NsymElement):
                raise TypeError(f"coefficient at degree {deg} is not an element")
            if deg < 0:
                raise ValueError("degrees must be >= 0")
            if deg <= order and elt:
                clean[deg] = elt
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GradedSeries is immutable")

    def coefficient(self, deg):
        if deg > self.order:
            raise ValueError(f"degree {deg} beyond truncation order {self.order}")
        return self.coeffs.get(deg, zero())

    def __add__(self, other):
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for deg, elt in other.coeffs.items():
            out[deg] = out[deg] + elt if deg in out else elt
        return GradedSeries(order, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GradedSeries(self.order, {d: -e for d, e in self.coeffs.items()})

    def scale(self, scalar):
        return GradedSeries(
            self.order, {d: e.scale(scalar) for d, e in self.coeffs.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        left, right = _in_S(self.coeffs), _in_S(other.coeffs)
        return GradedSeries(
            order,
            {deg: _convolve(left, right, deg) for deg in range(order + 1)},
        )

    def inverse(self):
        """Degreewise two-sided inverse; needs a scalar unit constant term."""
        head = self.coeffs.get(0)
        if head is None or set(head.terms) != {()}:
            raise ValueError(
                "series inverse needs an invertible scalar constant term"
            )
        c0 = scalar_inv(head.terms[()])
        coeffs = _in_S(self.coeffs)
        inv = {0: one().scale(c0)}
        for deg in range(1, self.order + 1):
            # inv has no degree-deg entry yet, so the constant term of
            # self drops out of the convolution.
            acc = _convolve(coeffs, inv, deg)
            if acc:
                inv[deg] = acc.scale(-c0)
        return GradedSeries(self.order, inv)

    def derivative(self):
        if self.order == 0:
            return GradedSeries(0, {})
        return GradedSeries(
            self.order - 1,
            {d - 1: e.scale(d) for d, e in self.coeffs.items() if d >= 1},
        )

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return f"0 + O(t^{self.order + 1})"
        bits = [
            f"({self.coeffs[d]})*t^{d}" for d in sorted(self.coeffs)
        ]
        return " + ".join(bits) + f" + O(t^{self.order + 1})"

    __repr__ = __str__


def _in_S(coeffs):
    """The coefficient dict with every element in the S basis."""
    return {deg: elt.to_basis("S") for deg, elt in coeffs.items()}


def _convolve(left, right, deg):
    """The degree-deg coefficient of a product of S-basis coefficient dicts."""
    terms = {}
    for d, a in left.items():
        b = right.get(deg - d)
        if b is not None:
            for I, x in a.terms.items():
                for J, y in b.terms.items():
                    add_term(terms, I + J, x * y)
    return NsymElement("S", terms)


def unit_series(order):
    return GradedSeries(order, {0: one()})


def sigma_series(order, q=_ONE):
    """sigma(qt): degree-k coefficient q^k S_k (S_0 being the unit)."""
    coeffs = {0: one()}
    for k in range(1, order + 1):
        coeffs[k] = S(k).scale(scalar_pow(q, k))
    return GradedSeries(order, coeffs)


def psi_series(order):
    """sigma(t)^{-1} sigma'(t); degree k carries the power sum of weight k+1."""
    sig = sigma_series(order)
    return sig.inverse() * sig.derivative()


@functools.cache
def psi(n):
    """The power sum of weight n, as an S-basis element."""
    if n < 1:
        raise ValueError("power sums start at weight 1")
    return psi_series(n).coefficient(n - 1).to_basis("S")


# ---------------------------------------------------------------------------
# the (1-q)-transform


def theta_q_generator(n, q, order=None):
    """The image of S_n: degree-n coefficient of sigma_{qt}^{-1} sigma_t."""
    if order is None:
        order = n
    if n > order:
        raise ValueError(f"need n <= order, got n={n}, order={order}")
    ser = sigma_series(order, q).inverse() * sigma_series(order)
    return ser.coefficient(n)


_gen_cache = {}


def _generator(n, q):
    key = (n, q)
    got = _gen_cache.get(key)
    if got is None:
        got = theta_q_generator(n, q).to_basis("S")
        _gen_cache[key] = got
    return got


def _extend(F, gen, scale=None):
    """The linear, multiplicative extension of S_n -> scale * gen(n) to F.

    Each S word's product is seeded with its coefficient (times
    scale^l(I)), so no generator image is ever rescaled.

    The image of S_i has at most 2^(i-1) S words, so that of S^I has at
    most 2^(|I|-l(I)); the sum of these bounds is checked before
    anything is built.
    """
    F = F.to_basis("S")
    check_expansion(sum(1 << (sum(I) - len(I)) for I in F.terms), "transform")

    def image(I, coeff):
        if scale is not None and I:
            coeff = coeff * scalar_pow(scale, len(I))
        piece = NsymElement("S", {(): coeff})
        for part in I:
            piece = multiply(piece, gen(part))
        return piece

    return linear_combination(
        "S",
        ((image(I, c), _ONE) for I, c in F.terms.items()),
    )


def theta_q(F, q):
    """Apply the transform: multiplicative over S words, linear overall."""
    return _extend(F, lambda part: _generator(part, q))


def Theta(F, N):
    """The normalized transform theta_zeta/(1-zeta) at the order-N root.

    Each generator image is divided by 1 - zeta before the multiplicative
    extension. At N = 1 that quotient degenerates; the limit sends S_n to
    the power sum of weight n, which is what this computes.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return _extend(F, psi)
    z = zeta(N)
    return _extend(F, lambda part: _generator(part, z), scalar_inv(1 - z))


# ---------------------------------------------------------------------------
# matrices and determinants on one weight


class TransformMatrix:
    """The transform on one weight, written in the S basis.

    ``comps`` lists the compositions of n in canonical order; ``rows`` is
    a square array with rows[i][j] the coefficient of the S word of
    comps[i] in the image of the S word of comps[j].
    """

    __slots__ = ("n", "q", "comps", "rows")

    def __init__(self, n, q, comps, rows):
        self.n = n
        self.q = q
        self.comps = comps
        self.rows = rows


def theta_matrix(n, q):
    if n < 1:
        raise ValueError("n must be >= 1")
    comps = compositions_of(n)
    index = {I: i for i, I in enumerate(comps)}
    dim = len(comps)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for j, I in enumerate(comps):
        image = theta_q(NsymElement("S", {I: 1}), q)
        for K, coeff in image.terms.items():
            rows[index[K]][j] = coeff
    return TransformMatrix(n, q, comps, rows)


def matrix_determinant(rows):
    """Exact determinant by Gaussian elimination over the scalar field."""
    m = [list(r) for r in rows]
    dim = len(m)
    det = _ONE
    for col in range(dim):
        pivot = None
        for r in range(col, dim):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0) * det
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        lead = m[col][col]
        det = det * lead
        inv = scalar_inv(lead)
        for r in range(col + 1, dim):
            factor = m[r][col]
            if not factor:
                continue
            factor = factor * inv
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def det_theta(n, q):
    return matrix_determinant(theta_matrix(n, q).rows)


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
