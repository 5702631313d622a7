"""Readers for every input: JSON files, declared numbers, generator
documents, and the scanner the text grammars share.

Period documents (JSON) describe a discrete subgroup of C^n:

    {
      "dimension": 2,
      "numbers": {
        "a": {"type": "sqrt", "d": 2}
             | {"type": "quadratic", "poly": [A, B, C], "root": "plus"}
             | {"type": "rational", "value": "1/2"}
             | {"type": "formal"}
             | {"type": "convergents", "family": "liouville10"}
             | {"type": "convergents", "family": "power-tower",
                "base": 2, "start": 4}
      },
      "generators": [["1", "0"], ["0", "1"], ["a", "i"]]
    }

Lattice documents have the same "numbers" and "generators", one row
per ambient dimension and real entries only.  A number's text form,
read by ``--param`` and ``--convergents``, is ``1/2``, ``sqrt:2``,
``quadratic:A,B,C[,root]``, ``formal``, ``liouville10`` or
``power-tower[:base[,start]]``; it reads into the same value as its
document.  A power tower without a base has base 2, and one without a
start has start base**2.

Generator entries use the grammar

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := rational | "i" | name | "(" expr ")" | "-" factor
    rational := digits ["/" digits]

with at most one quadratic field and at most one formal/convergent
parameter declared (field towers are two levels deep at most); several
quadratic numbers may share the one field, like sqrt:2 and sqrt:8.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError, UnsupportedError, input_errors_as_parse_error
from .exact.fields import QuadSurd, build_field, complexify
from .exact.numbers import QuadraticSurd, liouville_decimal, power_tower


def load_json(path, what):
    """The JSON document in the file ``path``; ``what`` names the kind
    of file (period, lattice, catalog) in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what} file (line {exc.lineno}): "
                         f"{exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"malformed {what} file: {exc.reason}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {what} file: {exc}") from None


class Scanner:
    """A cursor over one text that skips whitespace before each token;
    every error carries the absolute position in that text."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def read_digits(self):
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and "0" <= self.text[self.pos] <= "9"):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        return self.text[start:self.pos], start

    def read_name(self):
        """A name: a letter or underscore, then letters, digits or
        underscores."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if not (name[:1].isalpha() or name[:1] == "_"):
            raise ParseError("expected a name", start)
        return name, start

    def finish(self, what):
        """Refuse anything but whitespace after the last token."""
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"trailing input {what}", self.pos)


# ---------------------------------------------------------------------------
# numbers

CONVERGENT_FAMILIES = ("liouville10", "power-tower")

# the document fields each kind reads, beside "type" and "family"
_FIELDS = {
    "rational": ("value",),
    "sqrt": ("d",),
    "quadratic": ("poly", "root"),
    "formal": (),
    "liouville10": (),
    "power-tower": ("base", "start"),
}

# text forms kind[:arg,...] and the document fields their arguments fill
_TEXT_ARGS = {
    "formal": (),
    "sqrt": ("d",),
    "quadratic": ("A", "B", "C", "root"),
    "liouville10": (),
    "power-tower": ("base", "start"),
}


def _integer(value, name):
    """The integer field ``name``: a JSON integer or the text of one.
    A float or a boolean is refused, not truncated."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _number(kind, fields):
    """The value of a number of ``kind`` (a document type or a
    convergent family) with document ``fields``: a Fraction, a
    QuadraticSurd, a ConvergentSeries, or None for a formal number."""
    if kind == "rational":
        value = fields["value"]
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError(f"value must be an integer or a text like "
                             f"\"1/2\", got {value!r}")
        return Fraction(value)
    if kind == "sqrt":
        return QuadraticSurd(1, 0, -_integer(fields["d"], "d"), "plus")
    if kind == "quadratic":
        poly = fields["poly"]
        if not isinstance(poly, list) or len(poly) != 3:
            raise ValueError(f"poly must be a list [A, B, C], got {poly!r}")
        A, B, C = (_integer(x, "poly") for x in poly)
        return QuadraticSurd(A, B, C, fields.get("root", "plus"))
    if kind == "formal":
        return None
    if kind == "liouville10":
        return liouville_decimal()
    base = _integer(fields.get("base", 2), "base")
    return power_tower(base, _integer(fields.get("start", base * base),
                                      "start"))


def _number_from_text(text):
    kind, _, rest = text.strip().partition(":")
    if kind not in _TEXT_ARGS:
        return _number("rational", {"value": text})
    names = _TEXT_ARGS[kind]
    args = rest.split(",") if rest else []
    if len(args) > len(names):
        raise ValueError(f"{kind} takes at most {len(names)} arguments "
                         f"({','.join(names)}), got {len(args)}")
    fields = dict(zip(names, args))
    if kind == "quadratic":
        fields["poly"] = [fields.pop(c) for c in "ABC"]
    return _number(kind, fields)


@input_errors_as_parse_error("number")
def number_spec_from_document(doc):
    """The value of a number document: a Fraction, a QuadraticSurd, a
    ConvergentSeries, or None for a formal number."""
    kind = doc["type"]
    reads = {"type"}
    if kind == "convergents":
        kind = doc["family"]
        reads.add("family")
        if kind not in CONVERGENT_FAMILIES:
            raise ValueError(f"family must be one of "
                             f"{', '.join(CONVERGENT_FAMILIES)}, "
                             f"got {kind!r}")
    elif kind not in ("rational", "sqrt", "quadratic", "formal"):
        raise ValueError(f"unknown number type {kind!r}")
    unread = sorted(set(doc) - reads - set(_FIELDS[kind]))
    if unread:
        raise ValueError(f"{doc['type']} number has no field {unread[0]!r}")
    return _number(kind, doc)


@input_errors_as_parse_error("--param value")
def parse_number_override(text):
    """The value of a number's text form, as its document reads."""
    return _number_from_text(text)


@input_errors_as_parse_error("--convergents value")
def convergent_family(text):
    """The series of a convergent family's text form: ``liouville10``
    or ``power-tower[:base[,start]]``."""
    if text.strip().partition(":")[0] not in CONVERGENT_FAMILIES:
        raise ValueError(f"{text!r} is not a convergent family (one of "
                         f"{', '.join(CONVERGENT_FAMILIES)})")
    return _number_from_text(text)


def number_declarations(numbers):
    """Read declared numbers, a name -> value map in the kinds of
    :func:`number_spec_from_document`, into (field, cfield, symbols,
    param_spec).

    ``field`` is the real tower Q [ (sqrt d) ] [ (parameter) ] and
    ``cfield`` its complexification.  Several quadratic numbers may be
    declared when they share one field Q(sqrt d); at most one formal or
    convergent parameter may be.  ``symbols`` maps each declared name
    to its element of ``cfield``, and ``param_spec`` is the series
    bound to the parameter (None when it is formal or absent).
    """
    surd_d = None
    param_name = None
    param_spec = None
    values = {}
    for name, number in sorted(numbers.items()):
        if isinstance(number, Fraction):
            values[name] = number
        elif isinstance(number, QuadraticSurd):
            u, v, d = number.quad_field_coords()
            if surd_d is not None and surd_d != d:
                raise UnsupportedError(
                    "at most one quadratic extension is supported (field "
                    "towers are two levels deep)")
            surd_d = d
            values[name] = QuadSurd(u, v, d)
        else:
            if param_name is not None:
                raise UnsupportedError(
                    "at most one formal/convergent parameter is supported")
            param_name, param_spec = name, number
    field = build_field(surd_d, param_name)
    cfield = complexify(field)
    symbols = {}
    for name, value in values.items():
        if isinstance(value, QuadSurd) and param_name is not None:
            value = field.coerce(field.base.coerce(value))
        symbols[name] = cfield.coerce(value)
    if param_name is not None:
        symbols[param_name] = cfield.coerce(field.gen())
    return field, cfield, symbols, param_spec


# ---------------------------------------------------------------------------
# generator documents


def _expr(sc, cfield, symbols):
    negate = sc.peek() in ("+", "-") and sc.take() == "-"
    val = _term(sc, cfield, symbols)
    if negate:
        val = -val
    while sc.peek() in ("+", "-"):
        op = sc.take()
        rhs = _term(sc, cfield, symbols)
        val = val + rhs if op == "+" else val - rhs
    return val


def _term(sc, cfield, symbols):
    val = _factor(sc, cfield, symbols)
    while sc.peek() == "*":
        sc.take()
        val = val * _factor(sc, cfield, symbols)
    return val


def _factor(sc, cfield, symbols):
    ch = sc.peek()
    if ch == "-":
        sc.take()
        return -_factor(sc, cfield, symbols)
    if ch == "(":
        sc.take()
        val = _expr(sc, cfield, symbols)
        sc.expect(")")
        return val
    if "0" <= ch <= "9":
        num, _ = sc.read_digits()
        if sc.peek() != "/":
            return cfield.from_int(int(num))
        sc.take()
        den, _ = sc.read_digits()
        return cfield.coerce(Fraction(int(num), int(den)))
    if ch.isalpha() or ch == "_":
        name, start = sc.read_name()
        if name == "i":
            return cfield.i()
        if name not in symbols:
            raise ParseError(f"unknown symbol {name!r}", start)
        return symbols[name]
    raise ParseError(f"unexpected character {ch!r}", sc.pos)


@input_errors_as_parse_error("generator entry")
def _entry(text, cfield, symbols):
    sc = Scanner(text)
    val = _expr(sc, cfield, symbols)
    sc.finish("in entry")
    return val


def read_generators(doc, n, overrides=None):
    """(field, rows, param_spec) of a generator document: its declared
    numbers read into their tower, with the text values ``overrides``
    (name -> text) in place of declared ones, and its generator rows of
    length ``n`` parsed into the tower's complexification."""
    overrides = overrides or {}
    declared = doc.get("numbers", {})
    for name in overrides:
        if name not in declared:
            raise ParseError(f"no declared number {name!r} to substitute")
    field, cfield, symbols, param_spec = number_declarations(
        {name: parse_number_override(overrides[name]) if name in overrides
         else number_spec_from_document(number)
         for name, number in declared.items()})
    rows = []
    for row in doc["generators"]:
        if len(row) != n:
            raise ParseError("generator row has the wrong length")
        rows.append([_entry(str(x), cfield, symbols) for x in row])
    return field, rows, param_spec
