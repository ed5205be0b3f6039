"""Elements of the free algebra of noncommutative symmetric functions.

An NsymElement is a finite linear combination of basis words indexed by
compositions, stored as a basis tag ('S' for products of complete
functions, 'R' for ribbons) plus a dict mapping composition tuples to
nonzero scalars. Scalars are Fractions or CyclotomicNumbers from the
scalars module; ints are accepted anywhere and widened. The empty
composition indexes the unit, and mixed weights in one element are fine.

The two bases are exchanged by triangular sums over reverse refinement:
S^I is the sum of R_J over the compositions J coarser than or equal to I
(those with D(J) contained in D(I)), and R_I is the alternating sum of
S^J over the same interval. Products concatenate compositions in
the S basis; in the R basis the two-term ribbon rule applies
(concatenate, or glue at the seam). Elements are immutable values: all
operations return new objects.

A basis change first counts its 2^(l(I)-1) words per word I and raises
CapacityError (exit code 4 on the command line) above MAX_EXPANSION_TERMS.
"""

from __future__ import annotations

from fractions import Fraction

from .compositions import (
    check_composition,
    descent_set,
    display_key,
    composition_from_descents,
    num_compositions,
)
from .scalars import CyclotomicNumber

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_EXPANSION_TERMS = 1 << 21


class CapacityError(Exception):
    """Raised when a computation would exceed one of the stated size limits."""


def _as_scalar(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (Fraction, CyclotomicNumber)):
        return c
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


def _check_expansion(F):
    # I has one coarsening per composition of its length l(I).
    total = sum(num_compositions(len(I)) for I in F.terms)
    if total > MAX_EXPANSION_TERMS:
        raise CapacityError(
            f"basis change needs {total} terms, "
            f"above the limit {MAX_EXPANSION_TERMS}"
        )


def _coarsenings(I):
    """All J with D(J) contained in D(I), i.e. the compositions I refines."""
    ds = sorted(descent_set(I))
    n = sum(I)
    out = []
    for mask in range(1 << len(ds)):
        subset = [d for k, d in enumerate(ds) if mask & (1 << k)]
        out.append(composition_from_descents(subset, n))
    return out


class NsymElement:
    """A linear combination of S words or ribbons; see the module docstring."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms):
        if basis not in ("S", "R"):
            raise ValueError(f"basis must be 'S' or 'R', got {basis!r}")
        clean = {}
        for comp, coeff in terms.items():
            add_term(clean, check_composition(comp), _as_scalar(coeff))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NsymElement is immutable")

    # -- inspection ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coefficient(self, comp):
        return self.terms.get(check_composition(comp), _ZERO)

    def weights(self):
        return sorted({sum(comp) for comp in self.terms})

    def homogeneous_component(self, n):
        return NsymElement(
            self.basis,
            {c: v for c, v in self.terms.items() if sum(c) == n},
        )

    def is_homogeneous(self):
        return len(self.weights()) <= 1

    def support(self):
        """Words in display order (ascending weight, finest word first)."""
        return sorted(self.terms, key=display_key)

    def map_coefficients(self, fn):
        return NsymElement(self.basis, {c: fn(v) for c, v in self.terms.items()})

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NsymElement):
            return NotImplemented
        merged = dict(self.terms)
        for comp, coeff in other.to_basis(self.basis).terms.items():
            add_term(merged, comp, coeff)
        return NsymElement(self.basis, merged)

    def __sub__(self, other):
        if not isinstance(other, NsymElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return NsymElement(self.basis, {c: -v for c, v in self.terms.items()})

    def scale(self, scalar):
        scalar = _as_scalar(scalar)
        return NsymElement(
            self.basis, {c: scalar * v for c, v in self.terms.items()}
        )

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction, CyclotomicNumber)):
            return self.scale(scalar)
        return NotImplemented

    # -- products -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        if not isinstance(other, NsymElement):
            return NotImplemented
        return multiply(self, other)

    # -- conversions ----------------------------------------------------------

    def to_basis(self, basis):
        if basis == self.basis:
            return self
        if basis == "R":
            return s_to_r(self)
        if basis == "S":
            return r_to_s(self)
        raise ValueError(f"unknown basis {basis!r}")

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NsymElement):
            return NotImplemented
        return self.terms == other.to_basis(self.basis).terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return coords_to_text(self.terms, self.basis)

    __repr__ = __str__


def coords_to_text(coords, name):
    """Render {comp: coeff} as a signed sum of name[...] words, unit as 1."""
    if not coords:
        return "0"
    out = []
    for comp in sorted(coords, key=display_key):
        word = name + "[" + ",".join(map(str, comp)) + "]" if comp else "1"
        text = _coeff_text(coords[comp], word)
        if not out:
            out.append(text)
        elif text.startswith("-"):
            out.append(" - " + text[1:])
        else:
            out.append(" + " + text)
    return "".join(out)


def _coeff_text(coeff, word):
    if isinstance(coeff, CyclotomicNumber):
        return f"({coeff})*{word}"
    if word == "1":
        return str(coeff)
    if coeff == 1:
        return word
    if coeff == -1:
        return "-" + word
    return f"{coeff}*{word}"


# ---------------------------------------------------------------------------
# linear combinations


def add_term(terms, comp, c):
    """Add c to terms[comp] in place, dropping the entry when it cancels."""
    cur = terms.get(comp)
    if cur is not None:
        c = cur + c
    if c:
        terms[comp] = c
    else:
        terms.pop(comp, None)


def linear_combination(basis, pairs):
    """The sum of c*F over the (F, c) pairs, built in one pass in ``basis``.

    A coefficient equal to 1 adds F's terms without multiplying them.
    """
    terms = {}
    for F, c in pairs:
        F = F.to_basis(basis)
        if c == 1:
            for comp, v in F.terms.items():
                add_term(terms, comp, v)
        else:
            c = _as_scalar(c)
            for comp, v in F.terms.items():
                add_term(terms, comp, c * v)
    return NsymElement(basis, terms)


# ---------------------------------------------------------------------------
# constructors


def S(*parts):
    """The product S_{i_1} ... S_{i_r} of complete functions."""
    return NsymElement("S", {check_composition(parts): _ONE})


def R(*parts):
    """The ribbon indexed by the given composition."""
    return NsymElement("R", {check_composition(parts): _ONE})


def one(basis="S"):
    return NsymElement(basis, {(): _ONE})


def zero(basis="S"):
    return NsymElement(basis, {})


# ---------------------------------------------------------------------------
# basis conversions


def s_to_r(F):
    """Expand S words into ribbons: S^I = sum of R_J over J coarser than I."""
    if F.basis != "S":
        raise ValueError(f"expected an S-basis element, got basis {F.basis!r}")
    _check_expansion(F)
    out = {}
    for I, coeff in F.terms.items():
        for J in _coarsenings(I):
            add_term(out, J, coeff)
    return NsymElement("R", out)


def r_to_s(F):
    """Expand ribbons into S words by the alternating triangular sum."""
    if F.basis != "R":
        raise ValueError(f"expected an R-basis element, got basis {F.basis!r}")
    _check_expansion(F)
    out = {}
    for I, coeff in F.terms.items():
        li = len(I)
        neg = -coeff
        for J in _coarsenings(I):
            add_term(out, J, neg if (li - len(J)) % 2 else coeff)
    return NsymElement("S", out)


# ---------------------------------------------------------------------------
# products and the coproduct


def _ribbon_word_product(I, J):
    """The two index compositions of R_I * R_J (concatenation and glue)."""
    if not I:
        return [J]
    if not J:
        return [I]
    return [I + J, I[:-1] + (I[-1] + J[0],) + J[1:]]


def multiply(F, G):
    """Outer product; operands in different bases are aligned to F's basis."""
    G = G.to_basis(F.basis)
    out = {}
    if F.basis == "S":
        for I, a in F.terms.items():
            for J, b in G.terms.items():
                add_term(out, I + J, a * b)
    else:
        for I, a in F.terms.items():
            for J, b in G.terms.items():
                ab = a * b
                for K in _ribbon_word_product(I, J):
                    add_term(out, K, ab)
    return NsymElement(F.basis, out)


def coproduct_S(n):
    """The n+1 tensor terms of the coproduct of S_n, as element pairs."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    for k in range(n + 1):
        left = one("S") if k == 0 else S(k)
        right = one("S") if n - k == 0 else S(n - k)
        out.append((left, right))
    return out
