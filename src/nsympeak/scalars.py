"""Exact scalar arithmetic over Q and over the cyclotomic fields Q(zeta_N).

Rationals are plain ``fractions.Fraction`` objects. Cyclotomic numbers are
represented by their coefficient vector modulo the N-th cyclotomic polynomial
Phi_N, so the representation has degree < phi(N) and division always works
(the quotient ring is a field).

Arithmetic auto-demotes: whenever a cyclotomic result turns out to be purely
rational (all coefficients above degree 0 vanish) it is returned as a
Fraction. As a consequence every rational value has exactly one
representation, zero tests are uniform, and the degenerate conductors N = 1
(zeta = 1) and N = 2 (zeta = -1) transparently collapse into Q. Mixing two
genuinely irrational values of different conductors raises ValueError; there
is no automatic conductor lifting.

Text form: rationals render as "p/q" or "p"; cyclotomic numbers as
polynomials in the symbol "z", e.g. "1/2 - z + z^2", with the conductor
carried out of band.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_divmod(a, b):
    """Quotient and remainder of dense rational polynomials (low-to-high)."""
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    inv_lead = _ONE / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv_lead
        if c != 0:
            q[k] = c
            for j, y in enumerate(b):
                a[k + j] -= c * y
    return _poly_trim(q), _poly_trim(a)


@functools.cache
def cyclotomic_polynomial(N):
    """Coefficients of Phi_N, low degree first, as exact Fractions.

    Computed by exact division of x^N - 1 by the product of Phi_d over the
    proper divisors d of N.
    """
    if N < 1:
        raise ValueError("conductor must be >= 1")
    num = [-_ONE] + [_ZERO] * (N - 1) + [_ONE]
    den = [_ONE]
    for d in range(1, N):
        if N % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod(num, den)
    if r:
        raise AssertionError(f"x^{N}-1 not divisible by product of Phi_d")
    return tuple(q)


@functools.cache
def euler_phi(N):
    return len(cyclotomic_polynomial(N)) - 1


def _reduce_mod_phi(coeffs, N):
    phi = cyclotomic_polynomial(N)
    _, r = _poly_divmod(coeffs, list(phi))
    return r


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
        """Return other as a coefficient same-conductor CyclotomicNumber, or None."""
        if isinstance(other, CyclotomicNumber):
            if other.N != self.N:
                raise ValueError(
                    f"conductor mismatch: {self.N} vs {other.N} "
                    "(no automatic lifting)"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.N, [Fraction(other)])
        return None

    def demote(self):
        """Return an equal Fraction if this value is rational, else self."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0] if self.coeffs else _ZERO
        return self

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return make_cyclotomic(self.N, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return make_cyclotomic(self.N, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return make_cyclotomic(self.N, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = _poly_mul(list(self.coeffs), list(o.coeffs))
        return make_cyclotomic(self.N, _reduce_mod_phi(prod, self.N))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        f = _poly_trim(self.coeffs)
        if not f:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        g = list(cyclotomic_polynomial(self.N))
        # extended gcd in Q[x]: maintain s with s*f = r (mod Phi_N)
        r0, r1 = g, f
        s0, s1 = [], [_ONE]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible mod Phi_N")
        lead = r0[0]
        inv = [c / lead for c in s0]
        return make_cyclotomic(self.N, _reduce_mod_phi(inv, self.N))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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
        if isinstance(other, (int, Fraction)):
            d = self.demote()
            return not isinstance(d, CyclotomicNumber) and d == Fraction(other)
        if isinstance(other, CyclotomicNumber):
            if other.N != self.N:
                a, b = self.demote(), other.demote()
                if isinstance(a, CyclotomicNumber) or isinstance(b, CyclotomicNumber):
                    return False
                return a == b
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        d = self.demote()
        if not isinstance(d, CyclotomicNumber):
            return hash(d)
        return hash((self.N, self.coeffs))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __repr__(self):
        return f"CyclotomicNumber({self.N}, {scalar_to_text(self)!r})"

    def __str__(self):
        return scalar_to_text(self)


def make_cyclotomic(N, coeffs):
    """Build a scalar from zeta-polynomial coefficients, reduced and demoted."""
    reduced = _reduce_mod_phi([Fraction(c) for c in coeffs], N)
    value = CyclotomicNumber(N, reduced)
    return value.demote()


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
    if isinstance(x, CyclotomicNumber):
        return x ** k
    x = Fraction(x)
    if k < 0:
        return Fraction(1) / (x ** (-k))
    return x ** k


def scalar_inv(x):
    if isinstance(x, CyclotomicNumber):
        return x.inverse()
    return Fraction(1) / Fraction(x)


def is_rational(x):
    return isinstance(x, (int, Fraction))


# ---------------------------------------------------------------------------
# text and JSON forms


def scalar_to_text(x):
    """Render a Scalar: "p/q" for rationals, a polynomial in z otherwise."""
    if isinstance(x, int):
        x = Fraction(x)
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


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
          (?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*(?P<zc>z(?:\^\d+)?))?
          | (?P<z>z(?:\^\d+)?)
        )\s*""",
    re.VERBOSE,
)


def scalar_from_text(text, N=None):
    """Parse "p/q" or a z-polynomial like "1/2 - z + z^2" (needs N)."""
    text = text.strip()
    if "z" not in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational {text!r}") from exc
    if N is None:
        raise ValueError("a z-polynomial scalar needs a conductor N")
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse scalar {text!r} at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        zpart = m.group("zc") or m.group("z")
        try:
            coeff = Fraction(m.group("coeff") or 1)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in scalar {text!r}") from exc
        if zpart is None:
            k = 0
        elif zpart == "z":
            k = 1
        else:
            k = int(zpart[2:])
        coeffs[k] = coeffs.get(k, _ZERO) + sign * coeff
        pos = m.end()
    vec = [_ZERO] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        vec[k] = c
    return make_cyclotomic(N, vec)


def scalar_to_json(x):
    if isinstance(x, int):
        x = Fraction(x)
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
