"""Exact scalar arithmetic over Q and over the cyclotomic fields Q(zeta_N).

Rationals are plain ``fractions.Fraction`` objects. Cyclotomic numbers are
represented by their coefficient vector modulo the N-th cyclotomic polynomial
Phi_N, so the representation has degree < phi(N) and division always works
(the quotient ring is a field).

A sum of two reduced vectors is already reduced, so +, - and negation work
entry by entry and reduce nothing. A product is the schoolbook product
folded back below degree phi(N) through the monic integer polynomial Phi_N,
top degree first. The inverse of a is the product of its other Galois
conjugates sigma_k(a) (k prime to N, k != 1; sigma_k sends zeta to zeta^k)
divided by the norm, a times that product, which is rational.

Arithmetic auto-demotes: whenever a cyclotomic result turns out to be purely
rational (all coefficients above degree 0 vanish) it is returned as a
Fraction. As a consequence every rational value has exactly one
representation, zero tests are uniform, and the degenerate conductors N = 1
(zeta = 1) and N = 2 (zeta = -1) transparently collapse into Q. Mixing two
genuinely irrational values of different conductors raises ValueError; there
is no automatic conductor lifting.

Text form: rationals render as "p/q" or "p"; cyclotomic numbers as
polynomials in the symbol "z", e.g. "1/2 - z + z^2", with the conductor
carried out of band. This module owns the one reader of typed-in numbers:
read_signed_sum reads scalar text, element literals (with the words of
nsympeak.textforms) and the CLI's --q, and _read_rational is the one place
digits become a Fraction, refused past sys.get_int_max_str_digits().
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CapacityError(Exception):
    """Raised when a computation would exceed one of the stated size limits."""


def _fold(a, p):
    """Divide the list a by the monic p in place, top degree first; a ends
    as the remainder (its first deg p entries) followed by the quotient."""
    m = len(p) - 1
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k]
        if c:
            for j in range(m):
                if p[j]:
                    a[k - m + j] -= c * p[j]


@functools.cache
def cyclotomic_polynomial(N):
    """Coefficients of Phi_N, low degree first, as exact Fractions.

    Computed from x^N - 1 by exact division by Phi_d for each proper
    divisor d of N.
    """
    if N < 1:
        raise ValueError("conductor must be >= 1")
    q = [-_ONE] + [_ZERO] * (N - 1) + [_ONE]
    for d in range(1, N):
        if N % d == 0:
            m = euler_phi(d)
            _fold(q, cyclotomic_polynomial(d))
            if any(q[:m]):
                raise AssertionError(f"x^{N}-1 not divisible by Phi_{d}")
            q = q[m:]
    return tuple(q)


@functools.cache
def euler_phi(N):
    return len(cyclotomic_polynomial(N)) - 1


def _demoted(N, cs):
    """The scalar with reduced coefficients cs, built without validation."""
    if not any(cs[1:]):
        return cs[0]
    x = object.__new__(CyclotomicNumber)
    x.N = N
    x.coeffs = tuple(cs)
    return x


def _reduce(N, a):
    """The demoted scalar of the zeta-polynomial a, a list of Fractions.

    Degrees >= phi(N) are folded through the monic Phi_N; a is consumed.
    """
    d = euler_phi(N)
    _fold(a, cyclotomic_polynomial(N))
    a += [_ZERO] * (d - len(a))
    return _demoted(N, a[:d])


class CyclotomicNumber:
    """An element of Q(zeta_N), stored as a polynomial in zeta mod Phi_N.

    ``coeffs`` is a tuple of Fractions of length euler_phi(N) (trailing zeros
    kept so the length is fixed). Instances are immutable and hashable.
    Construct values through :func:`zeta` and arithmetic rather than the raw
    constructor; :func:`make_cyclotomic` reduces and demotes for you.
    """

    __slots__ = ("N", "coeffs")

    def __init__(self, N, coeffs):
        self.N = N
        d = euler_phi(N)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > d:
            raise ValueError("coefficient vector longer than phi(N)")
        cs += [_ZERO] * (d - len(cs))
        self.coeffs = tuple(cs)

    # -- coercion helpers --------------------------------------------------

    def _coerce(self, other):
        """other's coefficient tuple at this conductor, or None if it is no scalar."""
        if isinstance(other, CyclotomicNumber):
            if other.N != self.N:
                raise ValueError(
                    f"conductor mismatch: {self.N} vs {other.N} "
                    "(no automatic lifting)"
                )
            return other.coeffs
        if isinstance(other, (int, Fraction)):
            return (Fraction(other),) + (_ZERO,) * (len(self.coeffs) - 1)
        return None

    def demote(self):
        """Return an equal Fraction if this value is rational, else self."""
        return self if any(self.coeffs[1:]) else self.coeffs[0]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _demoted(self.N, [a + b if b else a for a, b in zip(self.coeffs, o)])

    __radd__ = __add__

    def __neg__(self):
        return _demoted(self.N, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _demoted(self.N, [a - b if b else a for a, b in zip(self.coeffs, o)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _demoted(self.N, [b - a if a else b for a, b in zip(self.coeffs, o)])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [_ZERO] * (2 * len(o) - 1)
        for i, x in enumerate(o):
            if x:
                for j, y in enumerate(self.coeffs):
                    if y:
                        prod[i + j] += x * y
        return _reduce(self.N, prod)

    __rmul__ = __mul__

    def inverse(self):
        """1/a = (product of the conjugates sigma_k(a), k != 1) / norm(a).

        sigma_k sends zeta^i to zeta^(ik mod N); the norm, a times the
        product, is rational, so only one rational is inverted.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        N = self.N
        others = _ONE
        for k in range(2, N):
            if math.gcd(k, N) == 1:
                a = [_ZERO] * N
                for i, c in enumerate(self.coeffs):
                    a[i * k % N] = c
                others = _reduce(N, a) * others
        return others * (_ONE / (self * others))

    def __truediv__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        return self * scalar_inv(other)

    def __rtruediv__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = base * result
            base = base * base
            k >>= 1
        return result

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber) and other.N == self.N:
            return self.coeffs == other.coeffs
        if isinstance(other, CyclotomicNumber):
            other = other.demote()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        a = self.demote()
        return is_rational(a) and is_rational(other) and a == other

    def __hash__(self):
        d = self.demote()
        return hash((self.N, self.coeffs)) if d is self else hash(d)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CyclotomicNumber({self.N}, {scalar_to_text(self)!r})"

    def __str__(self):
        return scalar_to_text(self)


def make_cyclotomic(N, coeffs):
    """Build a scalar from zeta-polynomial coefficients, reduced and demoted."""
    return _reduce(N, [Fraction(c) for c in coeffs])


def zeta(N):
    """A primitive N-th root of unity as a Scalar (Fraction when N <= 2)."""
    if N < 1:
        raise ValueError("conductor must be >= 1")
    return make_cyclotomic(N, [_ZERO, _ONE] if N > 1 else [_ONE])


def zeta_pow(N, k):
    """zeta_N^k, with the exponent reduced mod N first."""
    k %= N
    return make_cyclotomic(N, [_ZERO] * k + [_ONE])


def scalar_pow(x, k):
    """x**k for a Scalar x and integer k (negative k inverts first)."""
    return (x if isinstance(x, CyclotomicNumber) else Fraction(x)) ** k


def scalar_inv(x):
    return x.inverse() if isinstance(x, CyclotomicNumber) else _ONE / Fraction(x)


def is_rational(x):
    return isinstance(x, (int, Fraction))


# ---------------------------------------------------------------------------
# text and JSON forms


def _check_digits(x):
    """Raise CapacityError if a numerator or denominator of the scalar x
    has more digits than int-to-text conversion allows
    (sys.get_int_max_str_digits())."""
    limit = sys.get_int_max_str_digits()
    for c in x.coeffs if isinstance(x, CyclotomicNumber) else (x,):
        for a in (abs(c.numerator), c.denominator):
            # Only a number of more than 3 * limit bits can be over.
            if limit and a.bit_length() > 3 * limit and a >= 10**limit:
                digits = int((a.bit_length() - 1) * math.log10(2))
                while a >= 10**digits:
                    digits += 1
                raise CapacityError(
                    f"an exact value has {digits} digits, above Python's limit "
                    f"of {limit} for integer string conversion "
                    "(sys.get_int_max_str_digits())"
                )


def scalar_to_text(x):
    """Render a Scalar: "p/q" for rationals, a polynomial in z otherwise."""
    if isinstance(x, int):
        x = Fraction(x)
    _check_digits(x)
    if isinstance(x, Fraction):
        return str(x)
    parts = []
    for k, c in enumerate(x.coeffs):
        if c == 0:
            continue
        if k == 0:
            mon = str(c)
        else:
            zpow = "z" if k == 1 else f"z^{k}"
            if c == 1:
                mon = zpow
            elif c == -1:
                mon = f"-{zpow}"
            else:
                mon = f"{c}*{zpow}"
        if parts and not mon.startswith("-"):
            parts.append("+ " + mon)
        elif parts:
            parts.append("- " + mon[1:])
        else:
            parts.append(mon)
    return " ".join(parts) if parts else "0"


class ParseError(ValueError):
    """Parse failure that remembers where in the input it happened."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_SPACE = re.compile(r"\s*")
_RATIONAL = re.compile(r"(\d+)(?:\s*/\s*(\d+))?")
_Z_POWER = re.compile(r"z(?:\^(\d+))?")


def typed_int(digits, position):
    """int(digits) for digits typed at position (a leading '-' allowed),
    refused past Python's int-to-text limit with the count and the limit."""
    count = len(digits) - digits.startswith("-")
    limit = sys.get_int_max_str_digits()
    if limit and count > limit:
        raise ParseError(
            f"a typed number has {count} digits, above Python's limit of "
            f"{limit} for integer string conversion "
            "(sys.get_int_max_str_digits())",
            position,
        )
    return int(digits)


def _read_rational(text, pos, stop):
    """(value, end) for digits and an optional /digits at text[pos:stop],
    or (None, pos) when no digit starts there."""
    m = _RATIONAL.match(text, pos, stop)
    if m is None:
        return None, pos
    num = typed_int(m.group(1), m.start(1))
    den = typed_int(m.group(2) or "1", m.start(2))
    if not den:
        raise ParseError("zero denominator", pos)
    return Fraction(num, den), m.end()


def _read_z_power(text, pos, stop):
    """(k, end) for z^k (z alone is z^1) at pos, or None."""
    m = _Z_POWER.match(text, pos, stop)
    return m and (typed_int(m.group(1) or "1", m.start(1)), m.end())


def read_signed_sum(text, N=None, read_word=None, start=0, stop=None):
    """[(position, signed coefficient, atom or None)] for the terms of
    the signed sum text[start:stop]; positions are offsets into text.

    Each term is a coefficient (_read_rational), an atom, or both joined
    by '*'.  The atoms are the powers z^k, read as k, or with read_word
    what read_word(text, pos, stop) reads as (atom, end); then a
    coefficient may also be a parenthesized z-polynomial in zeta_N.
    """
    stop = len(text) if stop is None else stop
    read_atom = read_word or _read_z_power
    terms = []
    pos = _SPACE.match(text, start, stop).end()
    while True:
        negative = text.startswith("-", pos, stop)
        if negative or text.startswith("+", pos, stop):
            pos = _SPACE.match(text, pos + 1, stop).end()
        elif terms:
            raise ParseError("expected '+' or '-' between terms", pos)
        at = pos
        if read_word and text.startswith("(", pos, stop):
            close = text.find(")", pos, stop)
            if close < 0:
                raise ParseError("unclosed '('", pos)
            inner = read_signed_sum(text, start=pos + 1, stop=close)
            coeff, pos = _z_polynomial(inner, N), close + 1
        else:
            coeff, pos = _read_rational(text, pos, stop)
        atom = None
        after = _SPACE.match(text, pos, stop).end()
        if coeff is None or text.startswith("*", after, stop):
            if coeff is None:
                coeff = _ONE
            else:
                pos = _SPACE.match(text, after + 1, stop).end()
            found = read_atom(text, pos, stop)
            if found is None:
                raise ParseError("expected a term", pos)
            atom, pos = found
        terms.append((at, -coeff if negative else coeff, atom))
        pos = _SPACE.match(text, pos, stop).end()
        if pos == stop:
            return terms


def _z_polynomial(terms, N):
    """The scalar that read_signed_sum terms over the powers of z spell,
    z standing for zeta_N; a Fraction when no term has a power of z."""
    coeffs = {}
    for pos, c, k in terms:
        if k is not None and (N is None or N < 1):
            raise ParseError("a z-polynomial scalar needs a conductor N >= 1", pos)
        k = k % N if k else 0  # z^N = 1
        coeffs[k] = coeffs.get(k, _ZERO) + c
    top = max(coeffs)
    if not top:
        return coeffs[0]
    return make_cyclotomic(N, [coeffs.get(k, _ZERO) for k in range(top + 1)])


def scalar_from_text(text, N=None):
    """Parse "p/q" or a z-polynomial like "1/2 - z + z^2" (needs N)."""
    return _z_polynomial(read_signed_sum(text), N)


def scalar_to_json(x):
    if isinstance(x, int):
        x = Fraction(x)
    _check_digits(x)
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    return {
        "N": x.N,
        "coeffs": [{"num": c.numerator, "den": c.denominator} for c in x.coeffs],
    }


def _fraction_from_json(obj):
    if obj["den"] == 0:
        raise ValueError("zero denominator in a JSON coefficient")
    return Fraction(obj["num"], obj["den"])


def scalar_from_json(obj):
    if "num" in obj:
        return _fraction_from_json(obj)
    coeffs = [_fraction_from_json(c) for c in obj["coeffs"]]
    return make_cyclotomic(obj["N"], coeffs)
