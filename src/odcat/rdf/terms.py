"""RDF term model: IRIs, literals, blank nodes, quads.

Each term is a `str` whose text is its N-Triples form (`<…>`, `"…"`,
`"…"@lang`, `"…"^^<dt>` or `_:b`), so hashing and equality run in C and a
term is written out as it is. Kinds never compare equal: their texts start
differently. The properties read the parts back out of the text.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATETIME = XSD + "dateTime"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF_NS + "type"
RDF_LANGSTRING = RDF_NS + "langString"

_IRI_FORBIDDEN = set(" \t\n\r\f\v<>\"{}|^`")
_IRI_FORBIDDEN_RE = re.compile("[" + "".join(re.escape(c) for c in sorted(_IRI_FORBIDDEN)) + "]")

# the short escapes, and \uXXXX for every other C0 control character
_ESCAPES = {chr(c): f"\\u{c:04X}" for c in range(0x20)} | {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"
}
_ESCAPED = re.compile(r'[\\"\x00-\x1f]')
# each escape `_ESCAPES` writes, and the character it stands for
_UNESCAPES = {escape: c for c, escape in _ESCAPES.items()}
_ESCAPE_SEQ = re.compile(r"\\(?:u[0-9A-F]{4}|.)")
# a quoted lexical form as `Literal` writes it: a '"' inside is escaped
_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def _escape_string(s: str) -> str:
    return _ESCAPED.sub(_escape_one, s)


def _escape_one(m: re.Match) -> str:
    return _ESCAPES[m.group()]


def _unescape_one(m: re.Match) -> str:
    return _UNESCAPES[m.group()]


class _Term(str):
    __slots__ = ()

    def __reduce__(self):  # copies and pickles take the text as it is: `__new__` would wrap it again
        return str.__new__, (type(self), str(self))


class IRI(_Term):
    __slots__ = ()

    def __new__(cls, value: str) -> IRI:
        if _IRI_FORBIDDEN_RE.search(value):
            raise ValueError(f"IRI contains forbidden character: {value!r}")
        return str.__new__(cls, f"<{value}>")

    @property
    def value(self) -> str:
        return self[1:-1]

    def local_name(self) -> str:
        """Text after the last '#' or '/' (used as a label fallback)."""
        v = self.value.rstrip("#/")
        for sep in ("#", "/", ":"):
            if sep in v:
                v = v.rsplit(sep, 1)[1]
                break
        return v


class BlankNode(_Term):
    __slots__ = ()

    def __new__(cls, label: str) -> BlankNode:
        return str.__new__(cls, "_:" + label)

    @property
    def label(self) -> str:
        return self[2:]


class Literal(_Term):
    __slots__ = ()

    def __new__(cls, lexical: str, datatype: str = XSD_STRING, lang: str | None = None) -> Literal:
        body = _escape_string(lexical)
        if lang is not None:
            return str.__new__(cls, f'"{body}"@{lang.lower()}')
        if datatype == RDF_LANGSTRING:
            raise ValueError("language-string literal requires a language tag")
        if datatype == XSD_STRING:
            return str.__new__(cls, f'"{body}"')
        return str.__new__(cls, f'"{body}"^^<{datatype}>')

    def _close(self) -> int:
        """Index of the quote that ends the lexical form."""
        if "\\" not in self:
            return self.index('"', 1)
        return _QUOTED.match(self).end() - 1

    @property
    def lexical(self) -> str:
        body = self[1 : self._close()]
        return _ESCAPE_SEQ.sub(_unescape_one, body) if "\\" in body else body

    @property
    def lang(self) -> str | None:
        suffix = self[self._close() + 1 :]
        return suffix[1:] if suffix[:1] == "@" else None

    @property
    def datatype(self) -> str:
        suffix = self[self._close() + 1 :]
        if not suffix:
            return XSD_STRING
        return RDF_LANGSTRING if suffix[0] == "@" else suffix[3:-1]


Term = Union[IRI, Literal, BlankNode]
Triple = tuple[Term, IRI, Term]


def plain_text(term: Term) -> str:
    """An IRI's value, a literal's lexical form or a blank node's `_:label`:
    how reports and result keys name a term."""
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, Literal):
        return term.lexical
    return str(term)


class Quad(NamedTuple):
    subject: Term
    predicate: IRI
    object: Term
    graph: str

    @property
    def triple(self) -> Triple:
        return self[:3]
