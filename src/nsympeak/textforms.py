"""Text and JSON forms for compositions and elements.

Compositions print as ``[1,2,1]``.
An element literal is a signed sum of terms such as::

    2*S[2,1] - 1/3*S[1,1,2]
    (1 - z^2)*R[3] + R[1,2]
    rho[1,1,1] + rho[2,1]

Each term is an optional coefficient (a rational, or a parenthesized
z-polynomial when a root order N is supplied) attached with ``*`` to a
basis word.  Basis words are one of ``S``, ``R``, ``Sigma``, ``rho``,
``T`` followed by a bracketed composition; the bare word ``1`` stands
for the unit (the empty composition).  A literal must stick to a single
basis name throughout.

``S`` and ``R`` literals become :class:`~nsympeak.elements.NsymElement`
values directly.  ``Sigma``/``rho``/``T`` literals are coordinate
vectors in the corresponding spanning family and come back as plain
``{composition: coefficient}`` dicts tagged with the basis name; the
caller expands them against a chosen root order.

JSON uses one stable shape for both cases::

    {"basis": "R", "terms": [{"comp": [2,1], "coeff": {"num": 1, "den": 1}}]}

with coefficients encoded as in :mod:`nsympeak.scalars`; the irrational
ones must share one conductor.  JSON output round-trips through
:func:`parse_any_element`.
"""

import json
import re
from fractions import Fraction

from .compositions import check_composition, display_key
# coords_to_text is the element printer, re-exported as part of this API.
from .elements import NsymElement, add_term, conductor, coords_to_text
from .scalars import scalar_from_json, scalar_from_text, scalar_to_json

BASIS_NAMES = ("S", "R", "Sigma", "rho", "T")
ELEMENT_BASES = ("S", "R")


class ElementParseError(ValueError):
    """Parse failure that remembers where in the input it happened."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# compositions


def composition_to_text(parts):
    return "[" + ",".join(str(p) for p in parts) + "]"


def composition_from_text(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"composition text must be bracketed: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    try:
        parts = tuple(int(p) for p in body.split(","))
    except ValueError as exc:
        raise ValueError(f"bad composition text {text!r}") from exc
    return check_composition(parts)


# ---------------------------------------------------------------------------
# element literals

_SKIP = re.compile(r"\s*")
_RATIONAL = re.compile(r"\d+(?:\s*/\s*\d+)?")
_WORD = re.compile(r"(S|Sigma|R|rho|T)\[([0-9,\s]*)\]")
_PAREN = re.compile(r"\(([^()]*)\)")


def _skip_ws(text, pos):
    return _SKIP.match(text, pos).end()


def _parse_word(text, pos):
    """Read a basis word at pos; return (basis, comp, new_pos) or None."""
    if text.startswith("1", pos):
        nxt = pos + 1
        if nxt >= len(text) or not (text[nxt].isdigit() or text[nxt] in "/[.*"):
            return (None, (), nxt)
    m = _WORD.match(text, pos)
    if not m:
        return None
    body = m.group(2).strip()
    if body:
        try:
            comp = tuple(int(p) for p in body.split(","))
            check_composition(comp)
        except ValueError as exc:
            raise ElementParseError(str(exc), pos) from exc
    else:
        comp = ()
    return (m.group(1), comp, m.end())


def parse_element_terms(text, N=None):
    """Parse an element literal into (basis name or None, {comp: coeff}).

    The basis name is None when the literal only ever multiplies the
    unit (for instance ``"2"`` or ``"0"``); the caller picks a basis.
    A nonzero root order N enables parenthesized z-polynomial
    coefficients.
    """
    basis = None
    terms = {}
    pos = _skip_ws(text, 0)
    if pos == len(text):
        raise ElementParseError("empty element text", pos)
    first = True
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = _skip_ws(text, pos + 1)
        elif not first:
            raise ElementParseError("expected '+' or '-' between terms", pos)
        first = False

        coeff = None
        mp = _PAREN.match(text, pos)
        if mp:
            try:
                coeff = scalar_from_text(mp.group(1), N)
            except ValueError as exc:
                raise ElementParseError(str(exc), pos) from exc
            pos = _skip_ws(text, mp.end())
        else:
            word = _parse_word(text, pos)
            if word is None:
                mr = _RATIONAL.match(text, pos)
                if not mr:
                    raise ElementParseError("expected a term", pos)
                try:
                    coeff = Fraction(mr.group(0).replace(" ", ""))
                except ZeroDivisionError as exc:
                    raise ElementParseError("zero denominator", pos) from exc
                pos = _skip_ws(text, mr.end())
            else:
                coeff = Fraction(1)
                name, comp, pos = word
                pos = _skip_ws(text, pos)
                basis = _merge_basis(basis, name, pos)
                add_term(terms, comp, sign * coeff)
                continue

        if pos < len(text) and text[pos] == "*":
            pos = _skip_ws(text, pos + 1)
            word = _parse_word(text, pos)
            if word is None:
                raise ElementParseError("expected a basis word after '*'", pos)
            name, comp, pos = word
            pos = _skip_ws(text, pos)
            basis = _merge_basis(basis, name, pos)
            add_term(terms, comp, sign * coeff)
        else:
            add_term(terms, (), sign * coeff)
    return basis, terms


def _merge_basis(basis, name, pos):
    if name is None:
        return basis
    if basis is None or basis == name:
        return name
    raise ElementParseError(f"mixed basis words {basis} and {name}", pos)


def element_from_text(text, N=None, default_basis="S"):
    """Parse an S or R literal into an NsymElement."""
    basis, terms = parse_element_terms(text, N)
    if basis is None:
        basis = default_basis
    if basis not in ELEMENT_BASES:
        raise ValueError(f"{basis} words are coordinates, not a storage basis")
    return NsymElement(basis, terms)


# ---------------------------------------------------------------------------
# JSON forms


def terms_to_json(name, terms):
    return {
        "basis": name,
        "terms": [
            {"comp": list(comp), "coeff": scalar_to_json(terms[comp])}
            for comp in sorted(terms, key=display_key)
        ],
    }


def element_to_json(element):
    return terms_to_json(element.basis, element.terms)


def terms_from_json(obj):
    """Inverse of terms_to_json: (basis name, {comp: coeff})."""
    try:
        name = obj["basis"]
        entries = list(obj["terms"])
    except (KeyError, TypeError) as exc:
        raise ValueError(
            'a JSON element needs a "basis" and a list of "terms"'
        ) from exc
    if name not in BASIS_NAMES:
        raise ValueError(f"unknown basis name {name!r}")
    terms = {}
    for entry in entries:
        try:
            comp = check_composition(tuple(entry["comp"]))
            coeff = scalar_from_json(entry["coeff"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad JSON term {json.dumps(entry)}") from exc
        add_term(terms, comp, coeff)
    conductor(terms.values())
    return name, terms


def element_from_json(obj):
    name, terms = terms_from_json(obj)
    if name not in ELEMENT_BASES:
        raise ValueError(f"{name} words are coordinates, not a storage basis")
    return NsymElement(name, terms)


def parse_any_element(text, N=None):
    """Parse either a literal or its JSON form to (basis, terms).

    Input starting with ``{`` is treated as JSON.  This is the entry
    point the command line uses, so JSON output round-trips.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ElementParseError(f"bad JSON: {exc.msg}", exc.pos) from exc
        return terms_from_json(obj)
    return parse_element_terms(text, N)
