"""Elements of the free algebra of noncommutative symmetric functions.

An NsymElement is a finite linear combination of basis words indexed by
compositions, stored as a basis tag ('S' for products of complete
functions, 'R' for ribbons) plus ``codes``, a dict mapping each word's
integer code (``compositions.encode``: the bitset of its partial sums,
0 for the unit) to a nonzero scalar: an int, a Fraction or a
CyclotomicNumber of the scalars module (a bool coefficient is read as
the int 0 or 1, and an integer-valued Fraction is stored as its int).
Mixed weights in one element are fine. Every map here runs on the
codes; composition tuples are the public spelling, converted only at
the edges: the constructors, ``coefficient``, the read-only
tuple-keyed ``terms`` view, and text (``coords_to_text``).

The two bases are exchanged by triangular sums over reverse refinement:
S^I is the sum of R_J over the compositions J coarser than or equal to I
(those with D(J) contained in D(I)), and R_I is the alternating sum of
S^J over the same interval. Products concatenate codes in the S basis
(``a | b << n``, n the weight of a); in the R basis the two-term ribbon
rule applies (concatenate, or glue at the seam: the same with a's top
bit cleared). Elements are immutable values: all operations return new
objects.

One element holds scalars of at most one conductor: the constructor
refuses two conductors with the scalars module's conductor-mismatch
ValueError. That is what lets the maps whose coefficients are all in
{-1, 0, 1} (the basis changes here, the Sigma/rho expansions and
membership in the peak module) run on integers. Such a map commutes
with taking the zeta-coordinates of a Q(zeta_N) coefficient, so the
coefficients are written once as the scalars module's packed integer
zeta-columns (``split_terms``: one int per word holding all its
columns), the map runs once on those ints as integer adds, and
``join_terms`` rebuilds one scalar per output word. A basis change is
``compositions.lower_forward`` with no N, signed for R to S: one pass
over the words per position some word holds, so a dense element
converts quickly and one long word costs more than listing its
2^(l-1) words.

A basis change first counts its 2^(l(I)-1) words per word I and is
refused above MAX_EXPANSION_TERMS by ``check_expansion``, which goes
through the scalars module's ``check_limit`` (CapacityError, exit code 4
on the command line).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .compositions import (
    at_most_compositions,
    check_composition,
    code_display_key,
    decode,
    encode,
    lower_forward,
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

    __slots__ = ("basis", "codes")

    def __init__(self, basis, terms):
        if basis not in ("S", "R"):
            raise ValueError(f"basis must be 'S' or 'R', got {basis!r}")
        clean = {}
        for comp, coeff in terms.items():
            add_term(clean, encode(check_composition(comp)), _as_scalar(coeff))
        conductor(clean.values())
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "codes", clean)

    @classmethod
    def _trusted(cls, basis, codes):
        """Wrap a dict whose keys are word codes and whose values are
        nonzero scalars of one conductor, as ``add_term`` leaves them."""
        F = object.__new__(cls)
        object.__setattr__(F, "basis", basis)
        object.__setattr__(F, "codes", codes)
        return F

    def __setattr__(self, name, value):
        raise AttributeError("NsymElement is immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self):
        """The terms as a read-only mapping from composition tuples."""
        return _TermsView(self.codes)

    def coefficient(self, comp):
        return self.codes.get(encode(check_composition(comp)), 0)

    def weights(self):
        return sorted(set(map(int.bit_length, self.codes)))

    def homogeneous_component(self, n):
        return NsymElement._trusted(
            self.basis,
            {c: v for c, v in self.codes.items() if c.bit_length() == n},
        )

    def is_homogeneous(self):
        return len(self.weights()) <= 1

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NsymElement):
            return NotImplemented
        merged = dict(self.codes)
        for code, coeff in other.to_basis(self.basis).codes.items():
            add_term(merged, code, coeff)
        conductor(merged.values())  # the two may come from two fields
        return NsymElement._trusted(self.basis, merged)

    def __sub__(self, other):
        if not isinstance(other, NsymElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return NsymElement._trusted(
            self.basis, {c: -v for c, v in self.codes.items()}
        )

    def scale(self, scalar):
        """scalar times self; a scalar of another conductor raises ValueError."""
        scalar = _as_scalar(scalar)
        out = {}
        if scalar:
            # Nonzero times nonzero is nonzero, and a product of two
            # conductors raises the mismatch, so the terms stay clean.
            for c, v in self.codes.items():
                add_term(out, c, scalar * v)
        return NsymElement._trusted(self.basis, out)

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
        return self.codes == other.to_basis(self.basis).codes

    def __bool__(self):
        return bool(self.codes)

    def __str__(self):
        return codes_to_text(self.codes, self.basis)

    __repr__ = __str__


class _TermsView(Mapping):
    """An element's terms as a read-only mapping {composition: scalar},
    decoded from its codes as they are read."""

    __slots__ = ("_codes",)

    def __init__(self, codes):
        self._codes = codes

    def __getitem__(self, comp):
        try:
            code = encode(check_composition(comp))
        except (TypeError, ValueError, CapacityError):
            raise KeyError(comp) from None
        return self._codes[code]

    def __iter__(self):
        return map(decode, self._codes)

    def __len__(self):
        return len(self._codes)

    def __repr__(self):
        return repr(dict(self.items()))


def coords_to_text(coords, name):
    """Render {comp: coeff} as a signed sum of name[...] words, unit as 1."""
    return codes_to_text({encode(comp): c for comp, c in coords.items()}, name)


def codes_to_text(codes, name):
    """Render {code: coeff} as ``coords_to_text`` does, in display order."""
    if not codes:
        return "0"
    out = []
    for code in sorted(codes, key=code_display_key):
        word = name + "[" + ",".join(map(str, decode(code))) + "]" if code else "1"
        text = _coeff_text(codes[code], word)
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
# linear combinations


def add_term(terms, key, c):
    """Add c to terms[key] in place, dropping the entry when it cancels.

    An integer-valued Fraction is stored as its int, so every
    coefficient keeps one form without another scalar operation.
    """
    cur = terms.get(key)
    if cur is not None:
        c = cur + c
    if not c:
        terms.pop(key, None)
    elif type(c) is Fraction and c.denominator == 1:
        terms[key] = c.numerator
    else:
        terms[key] = c


def linear_combination(basis, pairs):
    """The sum of c*F over the (F, c) pairs, built in one pass in ``basis``.

    A coefficient equal to 1 adds F's terms without multiplying them, and
    copies them when nothing is there yet.
    """
    terms = {}
    for F, c in pairs:
        F = F.to_basis(basis)
        if c == 1 and not terms:
            terms.update(F.codes)
        elif c == 1:
            for code, v in F.codes.items():
                add_term(terms, code, v)
        else:
            c = _as_scalar(c)
            for code, v in F.codes.items():
                add_term(terms, code, c * v)
    conductor(terms.values())  # the pairs may come from two fields
    return NsymElement._trusted(basis, terms)


# ---------------------------------------------------------------------------
# constructors


def S(*parts):
    """The product S_{i_1} ... S_{i_r} of complete functions."""
    return NsymElement("S", {parts: 1})


def R(*parts):
    """The ribbon indexed by the given composition."""
    return NsymElement("R", {parts: 1})


def all_words(basis, lo, hi):
    """The sum of every word of weight lo to hi in ``basis``, each with
    coefficient 1 (none unless 0 <= lo <= hi). Their codes are the ints
    from 2^(lo-1) (0 when lo is 0) up to 2^hi - 1, so the words run in
    canonical order. More than MAX_EXPANSION_TERMS words are refused
    through ``check_expansion``."""
    codes = range(1 << lo >> 1, 1 << hi) if 0 <= lo <= hi else range(0)
    check_expansion(codes.stop - codes.start, f"listing every word of weight {lo} to {hi}")
    return NsymElement._trusted(basis, dict.fromkeys(codes, 1))


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
    return _change_basis(F, "R", 1)


def r_to_s(F):
    """Expand ribbons into S words by the alternating triangular sum."""
    if F.basis != "R":
        raise ValueError(f"expected an R-basis element, got basis {F.basis!r}")
    return _change_basis(F, "S", -1)


def _change_basis(F, basis, sign):
    # Each word I has one coarsening per composition of its length l(I),
    # and the result has at most one word per composition of each weight.
    per_weight = {}
    for I in F.codes:
        w = I.bit_length()
        per_weight[w] = per_weight.get(w, 0) + num_compositions(I.bit_count())
    check_expansion(
        sum(at_most_compositions(x, w) for w, x in per_weight.items()), "basis change"
    )
    N, den, width, packed = split_terms(F.codes, max(per_weight, default=0))
    return NsymElement._trusted(
        basis, join_terms(N, den, width, lower_forward(packed, None, sign))
    )


# ---------------------------------------------------------------------------
# products and the coproduct


def multiply(F, G):
    """Outer product; operands in different bases are aligned to F's basis.

    The code of I followed by J is ``a | b << n``, n the weight of I. In
    the R basis R_I R_J adds that word and, when I and J are not the
    unit, J glued to I's last part: the same code without I's top bit.
    """
    G = G.to_basis(F.basis)
    right = G.codes.items()
    ribbons = F.basis == "R"
    out = {}
    for a, x in F.codes.items():
        n = a.bit_length()
        seam = 1 << n >> 1 if ribbons else 0
        for b, y in right:
            xy = x * y
            K = a | b << n
            add_term(out, K, xy)
            if seam and b:
                add_term(out, K ^ seam, xy)
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
