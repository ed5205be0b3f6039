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

Every literal comes back as a plain ``{composition: coefficient}`` dict
tagged with its basis name.  ``S`` and ``R`` terms are those of an
:class:`~nsympeak.elements.NsymElement`; ``Sigma``/``rho``/``T`` terms
are coordinate vectors in the corresponding spanning family, which the
caller expands against a chosen root order.

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
from .elements import add_term, coords_to_text
# The literal grammar's errors are the reader's: one class, two names.
from .scalars import ParseError as ElementParseError
from .scalars import (
    conductor, json_int, json_list, read_signed_sum, scalar_from_json,
    scalar_to_json, typed_int,
)

BASIS_NAMES = ("S", "R", "Sigma", "rho", "T")


# ---------------------------------------------------------------------------
# compositions


def composition_to_text(parts):
    return "[" + ",".join(str(p) for p in parts) + "]"


def composition_from_text(text, position=0):
    """The composition of bracketed text such as ``[2,1]`` that starts at
    position of the input.  A part that int() refuses is an
    ElementParseError at that part: an empty part, one that is not only
    digits, or one past the digit limit, which the number reader
    (``typed_int``) refuses as it does every typed number."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"composition text must be bracketed: {stripped!r}")
    body = stripped[1:-1]
    try:
        parts = [int(p) for p in body.split(",")] if body.strip() else ()
    except ValueError:
        _refuse_part(body, position + text.index("[") + 1)
        raise
    return check_composition(parts)


def _refuse_part(body, at):
    """Raise the ElementParseError of the first part of body (which starts
    at position at) that is empty, not only digits or too long."""
    for piece in body.split(","):
        part = piece.strip()
        where = at + piece.index(part) if part else at
        if not part:
            raise ElementParseError("empty composition part", where)
        if not (part.isascii() and part.isdigit()):
            raise ElementParseError(f"composition part {part!r} is not a number", where)
        typed_int(part, where)
        at += len(piece) + 1


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
            return composition_from_text(text[m.end(1):m.end()], m.end(1)), m.end()
        except ElementParseError:
            raise  # a part's error, at the part
        except ValueError as exc:
            raise ElementParseError(str(exc), pos) from exc

    terms = {}
    for _, coeff, comp in read_signed_sum(text, N, read_word):
        add_term(terms, comp or (), coeff)  # a term without a word: the unit
    return basis, terms


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
        entries = json_list(obj["terms"], '"terms"')
    except (KeyError, TypeError) as exc:
        raise ValueError(
            'a JSON element needs a "basis" and a list of "terms"'
        ) from exc
    if name not in BASIS_NAMES:
        raise ValueError(f"unknown basis name {name!r}")
    terms = {}
    for entry in entries:
        try:
            parts = json_list(entry["comp"], '"comp"')
            coeff = scalar_from_json(entry["coeff"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad JSON term {json.dumps(entry)}") from exc
        comp = check_composition([json_int(p, 'a "comp" part') for p in parts])
        add_term(terms, comp, coeff)
    conductor(terms.values())
    return name, terms


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
