"""Exact scalar arithmetic over Q and over the cyclotomic fields Q(zeta_N).

Rationals are Python ints and ``fractions.Fraction`` objects. A
cyclotomic number is its coordinate vector on 1, zeta, ...,
zeta^(phi(N)-1): a polynomial in zeta reduced modulo the N-th
cyclotomic polynomial Phi_N, so division always works (the quotient ring
is a field). As in FLINT's fmpq_poly and ANTIC's nf_elem, the vector is
stored as phi(N) integer numerators over one common denominator:
``nums`` and ``den``, with den > 0 and gcd(den, *nums) == 1, so every
value has exactly one form.

A sum brings both vectors to one denominator, cross-multiplying only when
the denominators differ. A product is the schoolbook product of the
numerators folded back below degree phi(N) through the monic integer
polynomial Phi_N, top degree first, over the product of the denominators.
Either ends in one gcd, skipped when the denominator is 1, where it
cannot change anything. An int factor of 1 returns the operand itself,
-1 its negation and 0 the int 0, with no rebuild; negation negates the
numerators over the same den, a form that is already canonical. The
inverse of a is the product of its other Galois conjugates sigma_k(a)
(k prime to N, k != 1; sigma_k sends zeta to zeta^k) divided by the
norm, a times that product, which is rational.
Phi_N itself is the product of (x^d - 1)^mu(N/d) over the divisors d of N,
built on ints; a conductor above MAX_CONDUCTOR = 2^18 is refused before
it is factored. Fraction entries are made only to print (``coeffs``).

Every size limit of the package refuses through ``check_limit``, which
raises CapacityError (exit code 4 on the command line) in one sentence
form; the only other refusal, ``_check_digits``, names a value too long
to print. So CapacityError is raised in this module only.

Every value has one form. A rational is an int when it is an integer
and a Fraction with denominator > 1 otherwise, and a CyclotomicNumber is
always irrational. Values come only from ``zeta``, ``zeta_pow``,
``make_cyclotomic``, ``scalar_inv``, ``scalar_pow``, the text and JSON
readers and arithmetic; each of them makes a rational through
``_rational`` (an int when the denominator divides the numerator), and
a cyclotomic result through ``_demoted``, which returns a rational when
the coordinates above degree 0 vanish and reduces by one gcd otherwise
(negation and the int factors above keep a stored form as it is).
So equality and hashing compare the stored form, an instance is never
zero, and the degenerate conductors N = 1 (zeta = 1) and N = 2
(zeta = -1) collapse into Q. Python's own arithmetic on two rationals is
not this module's: a Fraction result stays a Fraction even when it is an
integer, and compares and hashes as that int. Since ``1 / 3`` is a float,
no code applies ``/`` to a scalar; ``scalar_inv`` divides exactly. The
class has no public constructor and serves isinstance checks. Mixing two
irrational values of different conductors raises the conductor-mismatch
ValueError of ``conductor``; there is no automatic conductor lifting.

At q = zeta_N the transforms' coefficients are products of a few
factors 1 - zeta^j and powers of -zeta, so the same operations recur:
one pass of the 16 verify suites meets 346 distinct cyclotomic sums,
differences, products and negations about 29,600 times. Each of them
is looked up first in one module dict, ``_memo``, keyed by the operation
and its operands' values, ``(op, self, other)`` (``("neg", self)`` for a
negation), and stored there on a miss, so while its entry is held a
repeat returns the one object made the first time, as ``x * 1``
returns x; a value's hash is computed once and kept. The int factors 1, -1 and 0 are answered before
the memo. It answers only when the other operand's type is exactly
CyclotomicNumber, int or Fraction: a float 2.0 and a bool True equal
and hash as ints, so a looser key would answer them from an int's
entry, where the arithmetic refuses the float and computes the bool.
Each entry is charged phi(N) numerators per value it holds (its
operands and result: 3 phi(N), 2 phi(N) for a negation). When an entry
would take the total past MEMO_BUDGET = 2^16, the whole dict is
emptied first, and an entry above the budget alone is not stored. So
the memo holds at most 2^16 numerators in at most 2^14 entries. With
numerators of up to a machine word that is at most about 8 MB, reached
at phi(N) = 2 with every operand and result a distinct value (3 MB at
phi(N) = 6); a numerator of b bits adds about b/8 bytes more.

The module also owns the packed integer zeta-columns: ``split_terms``
finds the conductor and the common denominator of a dict of scalars in
one pass and writes each value as one int, its phi(N) integer columns
over that denominator side by side in signed fields of ``width`` bits
(Kronecker substitution), read straight off the stored numerators;
``join_terms`` reads the columns back off each int's bytes and rebuilds
one scalar per key, and ``stack_terms`` lays the packed ints of several
dicts side by side, one byte-aligned segment each. Over Q there is one
plain column: the values themselves when they are all integers, and on
the way back each value is ``_rational(v, den)``, with no per-key list
and no ``_demoted``. Maps whose coefficients are all in {-1, 0, 1} (the
basis changes, the Sigma/rho expansions and membership) run once on
those ints in nsympeak.elements and nsympeak.peak, not once per column.

Text form: rationals render as "p/q" or "p"; cyclotomic numbers as
polynomials in the symbol "z", e.g. "1/2 - z + z^2", with the conductor
carried out of band. This module owns the one reader of typed-in numbers:
read_signed_sum reads scalar text, element literals (with the words of
nsympeak.textforms) and the CLI's --q, and _read_rational is the one place
digits become a rational, refused past sys.get_int_max_str_digits(). The
JSON reader takes integers only: a float, a bool or a string where a
number belongs is refused.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain, islice

class CapacityError(Exception):
    """Raised when a computation would exceed one of the stated size limits."""


def check_limit(count, limit, what, unit):
    """Raise CapacityError when ``what`` needs more than ``limit`` ``unit``.

    This is the one refusal of every size limit. A count of up to 64 bits
    is printed in digits, a longer one as 2^k or over 2^k, so a refusal
    never converts a huge int to text.
    """
    if count > limit:
        k = count.bit_length() - 1
        shown = count if k < 64 else f"2^{k}" if count == 1 << k else f"over 2^{k}"
        raise CapacityError(f"{what} needs {shown} {unit}, above the limit {limit}")


# Phi_N has up to N + 1 coefficients and a scalar of Q(zeta_N) phi(N)
# numerators, so the conductor is refused above this, before N is factored.
MAX_CONDUCTOR = 1 << 18


def _prime_factors(N):
    primes = []
    p = 2
    while p * p <= N:
        if N % p == 0:
            primes.append(p)
            while N % p == 0:
                N //= p
        p += 1
    return primes + [N] if N > 1 else primes


@functools.cache
def cyclotomic_polynomial(N):
    """Coefficients of Phi_N, low degree first, as ints.

    Phi_N is the product of (x^d - 1)^mu(N/d) over the divisors d of N.
    N above MAX_CONDUCTOR is refused through ``check_limit``.
    mu(N/d) is nonzero only for d = N/e with e a product of distinct
    primes of N, and is then (-1)^(number of those primes). The factors
    with mu = +1 are multiplied in first and those with mu = -1 then
    divided out exactly; each step is linear in the degree.
    """
    if N < 1:
        raise ValueError("conductor must be >= 1")
    check_limit(N, MAX_CONDUCTOR, "Q(zeta_N)", "roots of unity")
    primes = _prime_factors(N)
    up, down = [], []
    for mask in range(1 << len(primes)):
        e = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        (down if mask.bit_count() & 1 else up).append(N // e)
    poly = [1]
    for d in up:  # times x^d - 1
        out = [-c for c in poly] + [0] * d
        for i, c in enumerate(poly):
            if c:
                out[i + d] += c
        poly = out
    for d in down:  # the quotient q of poly by x^d - 1: q[i] = q[i-d] - poly[i]
        poly = [-c for c in poly[:len(poly) - d]]
        for i in range(d, len(poly)):
            poly[i] += poly[i - d]
    return tuple(poly)


@functools.cache
def euler_phi(N):
    return len(cyclotomic_polynomial(N)) - 1


@functools.cache
def _taps(N):
    """(offset, c) for each nonzero non-leading coefficient c of the monic
    Phi_N, the offset being its degree minus phi(N)."""
    p = cyclotomic_polynomial(N)
    m = len(p) - 1
    return tuple((j - m, c) for j, c in enumerate(p[:m]) if c)


def _fold(N, a):
    """The int zeta-polynomial a (a list, consumed) reduced mod Phi_N,
    as a list of phi(N) ints: degrees >= phi(N) are folded through the
    monic Phi_N, top degree first."""
    d = euler_phi(N)
    taps = _taps(N)
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k]
        if c:
            for j, t in taps:
                a[k + j] -= c * t
    a += [0] * (d - len(a))
    del a[d:]
    return a


def _reduce(N, a, den):
    """The demoted scalar a/den for the int zeta-polynomial a (consumed)."""
    return _demoted(N, _fold(N, a), den)


def _rational(p, q):
    """The rational p/q of the ints p and q != 0: an int when q divides
    p, otherwise a Fraction. The readers, scalar_inv and every cyclotomic
    result that lands in Q make their rational here."""
    d, r = divmod(p, q)
    return Fraction(p, q) if r else d


def _demoted(N, nums, den):
    """The scalar nums/den (a list of ints over an int den > 0) built
    without validation: a rational (``_rational``) when nums[1:] vanish,
    otherwise reduced by one gcd, taken only when den > 1 (over den 1
    it is 1)."""
    if not any(nums[1:]):
        return _rational(nums[0], den)
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    return _stored(N, tuple(nums), den)


def _stored(N, nums, den):
    """The CyclotomicNumber nums/den of a form already canonical (a
    tuple, unchecked). Every CyclotomicNumber is made here."""
    x = object.__new__(CyclotomicNumber)
    x.N = N
    x.nums = nums
    x.den = den
    x._hash = None  # computed on the first hash
    return x


def _times(a, b):
    """The schoolbook product of the int vectors a and b, as a list."""
    out = [0] * (len(a) + len(b) - 1)
    bs = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in bs:
                out[i + j] += x * y
    return out


class CyclotomicNumber:
    """An element of Q(zeta_N): the polynomial in zeta mod Phi_N with
    coefficients nums[k] / den.

    ``nums`` is a tuple of euler_phi(N) ints (trailing zeros kept so the
    length is fixed), one above degree 0 at least nonzero, and ``den``
    an int > 0 with gcd(den, *nums) == 1. ``coeffs`` derives the reduced
    Fraction coefficients, for printing. Instances are immutable and
    hashable. There is no public constructor: values come from
    :func:`zeta`, :func:`zeta_pow`, :func:`make_cyclotomic`, the readers
    and arithmetic, so an instance is never rational and never equal to
    an int or a Fraction.
    """

    __slots__ = ("N", "nums", "den", "_hash")

    @property
    def coeffs(self):
        """The zeta-coordinates as reduced Fractions, made on each read."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def _same_field(self, other):
        if other.N != self.N:
            conductor((self, other))  # raises the mismatch

    # -- ring operations ---------------------------------------------------
    # Each dunder below answers from the operation memo (``_memo``) when
    # the other operand's type is exactly one of _KEYED, and otherwise,
    # or on a miss, runs the arithmetic of the private method beside it.

    def _plus(self, other, sign):
        """(nums, den) of self + sign*other, or None if other is no scalar."""
        a, da = self.nums, self.den
        if isinstance(other, CyclotomicNumber):
            self._same_field(other)
            b, db = other.nums, other.den
            if sign < 0:
                b = [-y for y in b]
            if da == db:
                return [x + y for x, y in zip(a, b)], da
            return [x * db + y * da for x, y in zip(a, b)], da * db
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            nums = [x * q for x in a] if q != 1 else list(a)
            nums[0] += sign * p * da
            return nums, da * q
        return None

    def _add(self, other):
        got = self._plus(other, 1)
        return NotImplemented if got is None else _demoted(self.N, *got)

    def _sub(self, other):
        got = self._plus(other, -1)
        return NotImplemented if got is None else _demoted(self.N, *got)

    def _rsub(self, other):
        got = self._plus(other, -1)
        if got is None:
            return NotImplemented
        nums, den = got
        return _demoted(self.N, [-v for v in nums], den)

    def _mul(self, other):
        if isinstance(other, CyclotomicNumber):
            self._same_field(other)
            prod = _times(self.nums, other.nums)
            return _reduce(self.N, prod, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _demoted(
                self.N, [v * p for v in self.nums], self.den * other.denominator
            )
        return NotImplemented

    def __add__(self, other):
        if type(other) not in _KEYED:
            return self._add(other)
        key = ("+", self, other)
        if (got := _memo.get(key)) is None:
            got = _remember(key, self._add(other), 3 * len(self.nums))
        return got

    __radd__ = __add__

    def __neg__(self):
        key = ("neg", self)
        if (got := _memo.get(key)) is None:
            got = _stored(self.N, tuple(-v for v in self.nums), self.den)
            _remember(key, got, 2 * len(self.nums))
        return got

    def __sub__(self, other):
        if type(other) not in _KEYED:
            return self._sub(other)
        key = ("-", self, other)
        if (got := _memo.get(key)) is None:
            got = _remember(key, self._sub(other), 3 * len(self.nums))
        return got

    def __rsub__(self, other):
        if type(other) not in _KEYED:
            return self._rsub(other)
        key = ("r-", self, other)
        if (got := _memo.get(key)) is None:
            got = _remember(key, self._rsub(other), 3 * len(self.nums))
        return got

    def __mul__(self, other):
        if type(other) is int and -1 <= other <= 1:
            return self if other == 1 else -self if other else 0
        if type(other) not in _KEYED:
            return self._mul(other)
        key = ("*", self, other)
        if (got := _memo.get(key)) is None:
            got = _remember(key, self._mul(other), 3 * len(self.nums))
        return got

    __rmul__ = __mul__

    def inverse(self):
        """1/a = (product of the conjugates sigma_k(a), k != 1) / norm(a).

        sigma_k sends zeta^i to zeta^(ik mod N); the norm, a times the
        product, is rational. On numerators over den: with P the product
        of the sigma_k(nums) and n the constant term of nums * P, 1/a is
        P * den / n.
        """
        N, a = self.N, self.nums
        d = len(a)
        others = [1] + [0] * (d - 1)
        for k in range(2, N):
            if math.gcd(k, N) == 1:
                conj = [0] * N
                for i, c in enumerate(a):
                    conj[i * k % N] = c
                others = _fold(N, _times(_fold(N, conj), others))
        # The conjugates pair off as complex conjugates: the norm is > 0.
        norm = _fold(N, _times(a, others))[0]
        return _demoted(N, [v * self.den for v in others], norm)

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, CyclotomicNumber)):
            return NotImplemented
        return self * scalar_inv(other)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = 1
        base = self
        while k:
            if k & 1:
                result = base * result
            base = base * base
            k >>= 1
        return result

    # -- comparisons and hashing -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and self.N == other.N

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.N, self.nums, self.den))
        return h

    def __repr__(self):
        return f"CyclotomicNumber({self.N}, {scalar_to_text(self)!r})"

    def __str__(self):
        return scalar_to_text(self)


# The other operand types the memo is keyed on. Exact types, as an int
# 2, a Fraction 2 and a float 2.0 are equal keys: a float must still be
# refused and a bool still computed, never answered from the memo.
_KEYED = frozenset((CyclotomicNumber, int, Fraction))

# The operation memo: (op, self, other) -> result, and for a negation
# ("neg", self) -> -self. Its entries are charged the numerators they hold
# (up to phi(N) for each operand and the result), _memo_size in all.
MEMO_BUDGET = 1 << 16
_memo = {}
_memo_size = 0


def _remember(key, value, charge):
    """value, stored under key at a cost of charge numerators: the memo
    is emptied first when the charge would take it past MEMO_BUDGET, and
    an entry larger than the budget alone is not stored."""
    global _memo_size
    if _memo_size + charge > MEMO_BUDGET:
        _memo.clear()
        _memo_size = 0
        if charge > MEMO_BUDGET:
            return value
    _memo[key] = value
    _memo_size += charge
    return value


def make_cyclotomic(N, coeffs):
    """Build a scalar from zeta-polynomial coefficients, reduced and demoted."""
    cs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in cs))
    return _reduce(N, [c.numerator * (den // c.denominator) for c in cs], den)


def zeta(N):
    """A primitive N-th root of unity as a Scalar (an int when N <= 2)."""
    if N < 1:
        raise ValueError("conductor must be >= 1")
    return _reduce(N, [0, 1] if N > 1 else [1], 1)


def zeta_pow(N, k):
    """zeta_N^k, with the exponent reduced mod N first."""
    k %= N
    return _reduce(N, [0] * k + [1], 1)


def scalar_pow(x, k):
    """x**k for a Scalar x and integer k (negative k inverts first)."""
    if not k:
        return 1  # a Fraction's ** 0 is Fraction(1)
    return (scalar_inv(x) if k < 0 else x) ** abs(k)


def scalar_inv(x):
    """1/x for a nonzero Scalar x; ZeroDivisionError for 0."""
    if isinstance(x, CyclotomicNumber):
        return x.inverse()
    return _rational(x.denominator, x.numerator)


def is_rational(x):
    return isinstance(x, (int, Fraction))


# ---------------------------------------------------------------------------
# packed integer zeta-columns


def conductor(values):
    """The one conductor of the cyclotomic scalars in values, or None.

    Two different conductors raise the conductor-mismatch ValueError.
    """
    N = None
    for c in values:
        if isinstance(c, CyclotomicNumber) and c.N != N:
            N = _same_conductor(N, c.N)
    return N


def _same_conductor(N, M):
    """M, when N is None or M: otherwise the conductor-mismatch ValueError."""
    if N is not None and N != M:
        raise ValueError(f"conductor mismatch: {N} vs {M} (no automatic lifting)")
    return M


def _layout(N, width):
    """(B, half, zero) for phi(N) fields of width bits (one field when N
    is None): B bytes a field, half = 2^(width-1), and zero the little-
    endian bytes of the fields all zero, each stored as its value plus
    half."""
    B = width >> 3
    half = 1 << width - 1
    return B, half, half.to_bytes(B, "little") * (euler_phi(N) if N else 1)


def split_terms(terms, steps=0):
    """Write {key: scalar} as packed integer zeta-columns: (N, den, width,
    packed).

    N is the conductor (None when every value is rational) and den the
    least common denominator of all the values, both found in one pass.
    packed maps each key to one int: the sum of c_k << k * width over the
    phi(N) zeta^k coordinates c_k of den times its scalar, zeros left
    out. Over Q there is one plain column and no width (None): packed
    holds den times each value, and when every value is an integer it is
    terms itself, zero values kept; no map of this package mutates it.

    Otherwise width is a whole number of bytes, at least b + steps + 2
    bits, with b the bit length of the largest |c_k|. That is wide
    enough for ``steps`` descent steps of the compositions module's
    sums, which only add whole packed values: a step adds at most one
    value into each key, so it at most doubles the largest |c_k| of the
    result, and after the steps every |c_k| < 2^(b + steps) <=
    2^(width - 2). A field of width bits holds each value in
    [-2^(width-1), 2^(width-1)) in exactly one way, so the sums of
    packed ints are the packed column sums, and a packed int is zero
    exactly when all its columns are: the steps test values against
    zero as they are. Each map on the columns is then one pass over
    packed, not phi(N).
    """
    N, den = None, 1
    for c in terms.values():
        if isinstance(c, CyclotomicNumber):
            if c.N != N:
                N = _same_conductor(N, c.N)
            d = c.den
        else:
            d = c.denominator
        if den % d:
            den = math.lcm(den, d)
    if N is None:
        if den == 1:
            return None, 1, None, terms
        return None, den, None, {
            key: c.numerator * (den // c.denominator) for key, c in terms.items() if c
        }
    # Products by 1 and -1 return their operand, so an element's values
    # are mostly shared objects: each is scaled and packed once, keyed by
    # id (terms keeps them all alive until the end).
    columns = {}
    for c in terms.values():
        if id(c) not in columns:
            if isinstance(c, CyclotomicNumber):
                m = den // c.den
                columns[id(c)] = c.nums if m == 1 else [v * m for v in c.nums]
            else:
                columns[id(c)] = [c.numerator * (den // c.denominator)]
    width = _width(max(map(abs, chain.from_iterable(columns.values()))), steps)
    B, half, zero = _layout(N, width)
    bias = int.from_bytes(zero, "little")
    for i, vs in columns.items():
        if len(vs) == 1:  # a rational: its int is column 0 as it is
            columns[i] = vs[0]
        else:
            fields = b"".join([(v + half).to_bytes(B, "little") for v in vs])
            columns[i] = int.from_bytes(fields, "little") - bias
    return N, den, width, {
        key: x for key, c in terms.items() if (x := columns[id(c)])
    }


def _width(top, steps):
    """Whole bytes, in bits, of at least top.bit_length() + steps + 2."""
    return (top.bit_length() + steps + 9) // 8 * 8


def join_terms(N, den, width, packed):
    """Inverse of split_terms: {key: scalar}, keys that cancelled dropped.

    Over Q (N None) each value is ``_rational(v, den)``, an int when den
    divides it; otherwise each key's scalar is its phi(N) columns over
    den, read off the bytes of the packed int, reduced by one gcd
    (``_demoted``).
    """
    if N is None:
        return {key: _rational(v, den) for key, v in packed.items() if v}
    B, half, zero = _layout(N, width)
    bias, size = int.from_bytes(zero, "little"), len(zero)
    out, made = {}, {}  # made: equal packed ints share one scalar
    for key, x in packed.items():
        if x:
            c = made.get(x)
            if c is None:
                fields = (x + bias).to_bytes(size, "little")
                c = made[x] = _demoted(
                    N,
                    [int.from_bytes(fields[i:i + B], "little") - half for i in range(0, size, B)],
                    den,
                )
            out[key] = c
    return out


def stack_terms(splits):
    """Lay the packed ints of split_terms results side by side:
    (frames, stacked, nonzero).

    splits yields (split, steps) pairs and is read one at a time: each
    packed dict is laid before the next pair is read, so nothing needs
    to keep it. frames lists the (N, den, width) of each split, over Q
    the width the stack chose (None for a lone split). Split i
    takes segment i: its phi(N_i) fields of its own width, or over Q one
    field as wide as split_terms would make it for its steps; each
    segment is a whole number of bytes. stacked[key] is the sum of
    packed_i[key] << offset_i over the splits, built as one byte row per
    key with one to_bytes per split that holds the key (a gap filled
    with zero fields) and one from_bytes, so in time and space linear in
    its size. A map of the compositions module runs on stacked as on
    one split, and each segment stays inside its width as long as that
    split's steps allow; ``nonzero(x)`` lists the i whose segment of
    such an x is not zero. With one split, stacked is its packed. Two
    conductors among the splits raise the conductor-mismatch ValueError.
    """
    splits = iter(splits)
    head = list(islice(splits, 2))
    if len(head) < 2:
        frames = [split[:3] for split, _ in head]
        return frames, head[0][0][3] if head else {}, lambda x: [0] if x else []
    N, frames, starts, rows = None, [], [], {}
    zeros = bytearray()  # the zero segments of the splits laid so far
    for (M, den, width, packed), steps in chain(head, splits):
        if M is None:
            width = _width(max(map(abs, packed.values()), default=0), steps)
        else:
            N = _same_conductor(N, M)
        frames.append((M, den, width))
        zero = _layout(M, width)[2]
        n, b = len(zero), int.from_bytes(zero, "little")
        starts.append(len(zeros))
        for key, v in packed.items():
            row = rows.get(key)
            if row is None:
                row = rows[key] = bytearray(zeros)
            else:
                row += zeros[len(row):]
            row += (v + b).to_bytes(n, "little")
        zeros += zero
    del head, packed  # every split is laid: no packed dict is needed now
    bias, size = int.from_bytes(zeros, "little"), len(zeros)
    for key, row in rows.items():
        row += zeros[len(row):]
        rows[key] = int.from_bytes(row, "little") - bias
    spans = list(zip(starts, starts[1:] + [size]))

    def nonzero(x):
        fields = (x + bias).to_bytes(size, "little")
        return [i for i, (s, e) in enumerate(spans) if fields[s:e] != zeros[s:e]]

    return frames, rows, nonzero


# ---------------------------------------------------------------------------
# text and JSON forms


def _check_digits(x):
    """Raise CapacityError if a numerator or denominator of a printed
    entry of the scalar x has more digits than int-to-text conversion
    allows (sys.get_int_max_str_digits())."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    # Only a number of more than 3 * limit bits can be over. A printed
    # entry v/den reduces to a numerator <= |v| and a denominator <= den,
    # so the entries are made only when some v or den is that long.
    if isinstance(x, CyclotomicNumber):
        if all(v.bit_length() <= 3 * limit for v in (x.den, *x.nums)):
            return
        entries = x.coeffs
    else:
        entries = (x,)
    for c in entries:
        for a in (abs(c.numerator), c.denominator):
            if a.bit_length() > 3 * limit and a >= 10**limit:
                # A lower bound, as log10(2) > 0.30102; counted up exactly.
                digits = (a.bit_length() - 1) * 30102 // 100000
                while a >= 10**digits:
                    digits += 1
                raise CapacityError(
                    f"an exact value has {digits} digits, above Python's limit "
                    f"of {limit} for integer string conversion "
                    "(sys.get_int_max_str_digits())"
                )


def scalar_to_text(x):
    """Render a Scalar: "p/q" for rationals, a polynomial in z otherwise."""
    _check_digits(x)
    if is_rational(x):
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
    return _rational(num, den), m.end()


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
                coeff = 1
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
    z standing for zeta_N; a rational when no term has a power of z."""
    coeffs = {}
    for pos, c, k in terms:
        if k is not None and (N is None or N < 1):
            raise ParseError("a z-polynomial scalar needs a conductor N >= 1", pos)
        k = k % N if k else 0  # z^N = 1
        coeffs[k] = coeffs.get(k, 0) + c
    top = max(coeffs)
    if not top:
        c = coeffs[0]
        return _rational(c.numerator, c.denominator)
    return make_cyclotomic(N, [coeffs.get(k, 0) for k in range(top + 1)])


def scalar_from_text(text, N=None):
    """Parse "p/q" or a z-polynomial like "1/2 - z + z^2" (needs N)."""
    return _z_polynomial(read_signed_sum(text), N)


def scalar_to_json(x):
    _check_digits(x)
    if is_rational(x):
        return {"num": x.numerator, "den": x.denominator}
    return {
        "N": x.N,
        "coeffs": [{"num": c.numerator, "den": c.denominator} for c in x.coeffs],
    }


def json_int(value, what):
    """value if it is an int, as JSON's what must be; ValueError for a
    float, a bool, a string or anything else."""
    if type(value) is not int:
        raise ValueError(
            f"{what} must be a JSON integer, not {json.dumps(value, default=repr)}"
        )
    return value


def _fraction_from_json(obj):
    num, den = json_int(obj["num"], '"num"'), json_int(obj["den"], '"den"')
    if den == 0:
        raise ValueError("zero denominator in a JSON coefficient")
    return _rational(num, den)


def scalar_from_json(obj):
    if "num" in obj:
        return _fraction_from_json(obj)
    coeffs = [_fraction_from_json(c) for c in obj["coeffs"]]
    return make_cyclotomic(json_int(obj["N"], '"N"'), coeffs)
