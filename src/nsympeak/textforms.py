"""Text and JSON forms for compositions and elements.

Compositions print as ``[1,2,1]``.
An element literal is a signed sum of terms such as::

    2*S[2,1] - 1/3*S[1,1,2]
    (1 - z^2)*R[3] + R[1,2]
    rho[1,1,1] + rho[2,1]

Terms are separated by ``+`` or ``-``.  Each is a coefficient, a basis
word, or a coefficient, ``*`` and a basis word.  A coefficient is a
rational ``p`` or ``p/q``, or, when a root order N is supplied, a
parenthesized z-polynomial with the same separators.  Basis words are
``S``, ``R``, ``Sigma``, ``rho`` or ``T`` followed by a bracketed
composition (``BASIS_NAMES``, the one list of the five names); ``1``
after ``*``, like a term with no word, is the unit.
A literal sticks to one basis name.  The reader is the one of
:mod:`nsympeak.scalars` (``read_signed_sum``); this module reads words.

``S`` and ``R`` literals become :class:`~nsympeak.elements.NsymElement`
values directly.  ``Sigma``/``rho``/``T`` literals are coordinate
vectors in the corresponding spanning family and come back as plain
``{composition: coefficient}`` dicts tagged with the basis name; the
caller expands them against a chosen root order.

JSON uses one stable shape for both cases::

    {"basis": "R", "terms": [{"comp": [2,1], "coeff": {"num": 1, "den": 1}}]}

with coefficients encoded as in :mod:`nsympeak.scalars`; the irrational
ones must share one conductor. Terms print in display order, read from
the integer codes of the words (an element's own ``codes``; a
tuple-keyed coordinate dict is encoded first), each word decoded once.
Composition parts, like the numbers of a coefficient, must be JSON
integers: a float, a bool or a string is refused, not coerced.  JSON
output round-trips through :func:`parse_any_element`.
"""

import json
import re

from .compositions import check_composition, code_display_key, decode, encode
# coords_to_text is the element printer, re-exported as part of this API.
from .elements import NsymElement, add_term, coords_to_text
# The literal grammar's errors are the reader's: one class, two names.
from .scalars import ParseError as ElementParseError
from .scalars import (
    conductor, json_int, read_signed_sum, scalar_from_json, scalar_to_json,
    typed_int,
)

BASIS_NAMES = ("S", "R", "Sigma", "rho", "T")


# ---------------------------------------------------------------------------
# compositions


def composition_to_text(parts):
    return "[" + ",".join(str(p) for p in parts) + "]"


def composition_from_text(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"composition text must be bracketed: {text!r}")
    body = text[1:-1]
    return check_composition(
        [int(p) for p in body.split(",")] if body.strip() else ()
    )


# ---------------------------------------------------------------------------
# element literals

_WORD = re.compile(rf"({'|'.join(BASIS_NAMES)})\[([0-9,\s]*)\]")


def parse_element_terms(text, N=None):
    """Parse an element literal into (basis name or None, {comp: coeff}).

    The basis name is None when the literal only ever multiplies the
    unit (for instance ``"2"`` or ``"0"``); the caller picks a basis.
    A nonzero root order N enables parenthesized z-polynomial
    coefficients.
    """
    basis = None

    def read_word(text, pos, stop):
        """(composition, end) for a basis word or the unit word 1 at pos."""
        nonlocal basis
        if text.startswith("1", pos, stop):
            return (), pos + 1
        m = _WORD.match(text, pos, stop)
        if m is None:
            return None
        name = m.group(1)
        if basis not in (None, name):
            raise ElementParseError(f"mixed basis words {basis} and {name}", pos)
        basis = name
        try:
            return composition_from_text(text[m.end(1):m.end()]), m.end()
        except ValueError as exc:
            raise ElementParseError(str(exc), pos) from exc

    terms = {}
    for _, coeff, comp in read_signed_sum(text, N, read_word):
        add_term(terms, comp or (), coeff)  # a term without a word: the unit
    return basis, terms


def element_from_text(text, N=None, default_basis="S"):
    """Parse an S or R literal into an NsymElement."""
    basis, terms = parse_element_terms(text, N)
    return NsymElement(basis or default_basis, terms)


# ---------------------------------------------------------------------------
# JSON forms


def terms_to_json(name, terms):
    return codes_to_json(name, {encode(comp): c for comp, c in terms.items()})


def codes_to_json(name, codes):
    """The JSON form of {code: coeff}, in the printed order."""
    return {
        "basis": name,
        "terms": [
            {"comp": list(decode(code)), "coeff": scalar_to_json(codes[code])}
            for code in sorted(codes, key=code_display_key)
        ],
    }


def element_to_json(element):
    return codes_to_json(element.basis, element.codes)


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
            parts = entry["comp"]
            coeff = scalar_from_json(entry["coeff"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad JSON term {json.dumps(entry)}") from exc
        if not isinstance(parts, list):
            raise ValueError(f"bad JSON term {json.dumps(entry)}")
        comp = check_composition([json_int(p, 'a "comp" part') for p in parts])
        add_term(terms, comp, coeff)
    conductor(terms.values())
    return name, terms


def element_from_json(obj):
    return NsymElement(*terms_from_json(obj))


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
        except ValueError:
            # Only int() past the digit limit gets here; json says not where.
            try:
                for m in re.finditer(r"\d+", stripped):
                    typed_int(m.group(), m.start())
            except ElementParseError as exc:
                raise ElementParseError(f"bad JSON: {exc.message}", exc.position)
            raise
        return terms_from_json(obj)
    return parse_element_terms(text, N)
