"""Elements of the free algebra of noncommutative symmetric functions.

An NsymElement is a finite linear combination of basis words indexed by
compositions, stored as a basis tag ('S' for products of complete
functions, 'R' for ribbons) plus a dict mapping composition tuples to
nonzero scalars: ints, Fractions or CyclotomicNumbers of the scalars
module (a bool coefficient is read as the int 0 or 1). The empty
composition indexes the unit, and mixed weights in one element are fine.

The two bases are exchanged by triangular sums over reverse refinement:
S^I is the sum of R_J over the compositions J coarser than or equal to I
(those with D(J) contained in D(I)), and R_I is the alternating sum of
S^J over the same interval. Products concatenate compositions in
the S basis; in the R basis the two-term ribbon rule applies
(concatenate, or glue at the seam). Elements are immutable values: all
operations return new objects.

One element holds scalars of at most one conductor: the constructor
refuses two conductors with the scalars module's conductor-mismatch
ValueError. That is what lets the maps whose coefficients are all in
{-1, 0, 1} (the basis changes here, the Sigma/rho expansions and the
membership peel in the peak module) run on integers. Such a map commutes
with taking the zeta-coordinates of a Q(zeta_N) coefficient, so the
coefficients are written once as the scalars module's integer
zeta-columns (``split_terms``), ``lower_sums`` runs the map on each
column, and ``join_terms`` rebuilds one scalar per output word.

A basis change first counts its 2^(l(I)-1) words per word I and is
refused above MAX_EXPANSION_TERMS by ``check_expansion``, which goes
through the scalars module's ``check_limit`` (CapacityError, exit code 4
on the command line).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .compositions import (
    check_composition,
    display_key,
    lower_set,
    num_compositions,
)
from .scalars import (
    CapacityError, CyclotomicNumber, check_limit, conductor, join_terms,
    scalar_to_text, split_terms,
)

MAX_EXPANSION_TERMS = 1 << 21


def _as_scalar(c):
    if isinstance(c, int):
        return int(c)
    if isinstance(c, (Fraction, CyclotomicNumber)):
        return c
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


def check_expansion(total, what):
    """Refuse, through ``check_limit``, ``what`` needing more than
    MAX_EXPANSION_TERMS terms (read at call time)."""
    check_limit(total, MAX_EXPANSION_TERMS, what, "terms")


class NsymElement:
    """A linear combination of S words or ribbons; see the module docstring."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms):
        if basis not in ("S", "R"):
            raise ValueError(f"basis must be 'S' or 'R', got {basis!r}")
        clean = {}
        for comp, coeff in terms.items():
            add_term(clean, check_composition(comp), _as_scalar(coeff))
        conductor(clean.values())
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, basis, terms):
        """Wrap a dict whose keys are compositions and whose values are
        nonzero scalars of one conductor, as ``add_term`` leaves them."""
        F = object.__new__(cls)
        object.__setattr__(F, "basis", basis)
        object.__setattr__(F, "terms", terms)
        return F

    def __setattr__(self, name, value):
        raise AttributeError("NsymElement is immutable")

    # -- inspection ---------------------------------------------------------

    def coefficient(self, comp):
        return self.terms.get(check_composition(comp), 0)

    def weights(self):
        return sorted({sum(comp) for comp in self.terms})

    def homogeneous_component(self, n):
        return NsymElement._trusted(
            self.basis,
            {c: v for c, v in self.terms.items() if sum(c) == n},
        )

    def is_homogeneous(self):
        return len(self.weights()) <= 1

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
        return NsymElement._trusted(
            self.basis, {c: -v for c, v in self.terms.items()}
        )

    def scale(self, scalar):
        """scalar times self; a scalar of another conductor raises ValueError."""
        scalar = _as_scalar(scalar)
        if not scalar:
            return NsymElement._trusted(self.basis, {})
        # Nonzero times nonzero is nonzero, and a product of two
        # conductors raises the mismatch, so the terms stay clean.
        return NsymElement._trusted(
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
        return f"({scalar_to_text(coeff)})*{word}"
    if word == "1":
        return scalar_to_text(coeff)
    if coeff == 1:
        return word
    if coeff == -1:
        return "-" + word
    return f"{scalar_to_text(coeff)}*{word}"


# ---------------------------------------------------------------------------
# maps on integer zeta-columns


def lower_sums(parts, lower, signed=False):
    """Push each integer part {I: v} forward to {J: sum of +-v} over J in lower(I).

    The sign is (-1)^(l(I) - l(J)) when signed, + otherwise; lower(I)
    is computed once per word for all the parts.
    """
    outs = [{} for _ in parts]
    for I in dict.fromkeys(chain.from_iterable(parts)):
        even, odd = lower(I), ()
        if signed:
            li = len(I)
            odd = [J for J in even if (li - len(J)) & 1]
            even = [J for J in even if not (li - len(J)) & 1]
        for part, out in zip(parts, outs):
            v = part.get(I)
            if v:
                get = out.get
                for J in even:
                    out[J] = get(J, 0) + v
                for J in odd:
                    out[J] = get(J, 0) - v
    return outs


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
    conductor(terms.values())  # the pairs may come from two fields
    return NsymElement._trusted(basis, terms)


# ---------------------------------------------------------------------------
# constructors


def S(*parts):
    """The product S_{i_1} ... S_{i_r} of complete functions."""
    return NsymElement("S", {check_composition(parts): 1})


def R(*parts):
    """The ribbon indexed by the given composition."""
    return NsymElement("R", {check_composition(parts): 1})


def one(basis="S"):
    return NsymElement(basis, {(): 1})


def zero(basis="S"):
    return NsymElement(basis, {})


# ---------------------------------------------------------------------------
# basis conversions


def s_to_r(F):
    """Expand S words into ribbons: S^I = sum of R_J over J coarser than I."""
    if F.basis != "S":
        raise ValueError(f"expected an S-basis element, got basis {F.basis!r}")
    return _change_basis(F, "R", False)


def r_to_s(F):
    """Expand ribbons into S words by the alternating triangular sum."""
    if F.basis != "R":
        raise ValueError(f"expected an R-basis element, got basis {F.basis!r}")
    return _change_basis(F, "S", True)


def _change_basis(F, basis, signed):
    # Each word I has one coarsening per composition of its length l(I).
    check_expansion(sum(num_compositions(len(I)) for I in F.terms), "basis change")
    N, den, parts = split_terms(F.terms)
    parts = lower_sums(parts, lower_set, signed)
    return NsymElement._trusted(basis, join_terms(N, den, parts))


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
    return NsymElement._trusted(F.basis, out)


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
