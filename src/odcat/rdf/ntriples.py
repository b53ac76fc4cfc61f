"""N-Triples and N-Quads line grammar (W3C RDF 1.1).

A whole line is matched by one compiled regex per statement shape, which
captures each term's source text. A `LineParser` builds each distinct IRI,
blank node and literal once, keyed by that text, so a document or a store
replay that repeats a term shares one object for it. Only a line that fails
to match is scanned again, term by term, to name the error and its column.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .terms import _IRI_FORBIDDEN, IRI, BlankNode, Literal, Term, Triple
from .turtle import _ECHAR, _SCHEME_RE, ParseError

_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}"
_IRI_CHAR = "[^" + "".join(re.escape(c) for c in sorted(_IRI_FORBIDDEN | {"\\"})) + "]"
_IRIREF = rf"<{_IRI_CHAR}*(?:(?:{_UCHAR}){_IRI_CHAR}*)*>"
# a label never ends in '.', which terminates the statement instead
_BNODE = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
_STRING = rf'"[^"\\\n]*(?:(?:\\[tbnrf"\'\\]|{_UCHAR})[^"\\\n]*)*"'
# '@' or '^' after the closing quote must start a valid suffix; '"' there
# means a long string
_LITERAL = rf"{_STRING}(?:@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*|\^\^{_IRIREF}|(?![@^\"]))"

_WS = r"[ \t\r]*"
_DOT_END = rf"{_WS}\.{_WS}(?:#.*)?\Z"
_EOL_END = rf"{_WS}\Z"

# one pattern per statement shape; the term scan below, which names the
# error of a line these reject, accepts exactly the same lines
_SPO = rf"{_WS}({_IRIREF}|{_BNODE}){_WS}({_IRIREF}){_WS}({_IRIREF}|{_BNODE}|{_LITERAL})"
_TRIPLE_LINE = re.compile(_SPO + _DOT_END)
_QUAD_LINE = re.compile(rf"{_SPO}{_WS}({_IRIREF}){_DOT_END}")
_GRAPH_LINE = re.compile(rf"{_WS}({_IRIREF}){_EOL_END}")

_TERM = re.compile(rf"{_WS}({_IRIREF}|{_BNODE}|{_LITERAL})")
_DOT = re.compile(_DOT_END)
_EOL = re.compile(_EOL_END)
_ESCAPE = re.compile(rf"\\(?:u([0-9A-Fa-f]{{4}})|U([0-9A-Fa-f]{{8}})|(.))")
_VALID_ESCAPE = re.compile(rf"\\[tbnrf\"'\\]|{_UCHAR}")
_VALID_UCHAR = re.compile(_UCHAR)

# (what the slot expects, first characters of the term kinds it admits)
_SUBJECT = ("IRI or blank node subject", "<_")
_PREDICATE = ("IRI predicate", "<")
_OBJECT = ("IRI, blank node, or literal object", '<_"')
_GRAPH = ("graph IRI", "<")
_TRIPLE = (_SUBJECT, _PREDICATE, _OBJECT)
_QUAD = (_SUBJECT, _PREDICATE, _OBJECT, _GRAPH)


def parse_ntriples(text: str) -> list[Triple]:
    """Parse an N-Triples document (strict line-based syntax)."""
    parser = LineParser()
    triples: list[Triple] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            triples.append(parser.triple(line, lineno))
    return triples


class LineParser:
    """Parses N-Triples and N-Quads lines, building each distinct term once.

    The term cache lives as long as the parser: use one parser per document
    or per store replay.
    """

    def __init__(self) -> None:
        self._terms: dict[str, Term] = {}

    def triple(self, line: str, lineno: int) -> Triple:
        """The triple stated on one N-Triples line."""
        m = _TRIPLE_LINE.match(line)
        if m is None:
            self._reject(line, lineno, 0, _TRIPLE, _DOT)
        s, p, o = self._terms_of(m, lineno)
        return (s, p, o)

    def quad(self, line: str, lineno: int, pos: int = 0) -> tuple[Term, IRI, Term, str]:
        """The `(s, p, o, graph name)` of one N-Quads line, read from column `pos` + 1."""
        m = _QUAD_LINE.match(line, pos)
        if m is None:
            self._reject(line, lineno, pos, _QUAD, _DOT)
        s, p, o, g = self._terms_of(m, lineno)
        return (s, p, o, g.value)

    def graph_name(self, line: str, lineno: int, pos: int) -> str:
        """The graph IRI that makes up the rest of a line."""
        m = _GRAPH_LINE.match(line, pos)
        if m is None:
            self._reject(line, lineno, pos, (_GRAPH,), _EOL)
        (g,) = self._terms_of(m, lineno)
        return g.value

    def _terms_of(self, m: re.Match, lineno: int) -> list[Term]:
        """The terms a line pattern captured, each built once."""
        terms: list[Term] = []
        terms_cache = self._terms
        for group, token in enumerate(m.groups(), 1):
            term = terms_cache.get(token)
            if term is None:
                term = self._build(token, lineno, m.start(group) + 1)
            terms.append(term)
        return terms

    def _reject(self, line: str, lineno: int, pos: int, slots, end) -> NoReturn:
        """Raise the `ParseError` the term scan finds in a line that its
        line pattern rejected."""
        self._statement(line, lineno, pos, slots, end)
        raise AssertionError(f"line {lineno} passed the term scan but not its line pattern: {line!r}")

    def _statement(self, line: str, lineno: int, pos: int, slots, end) -> list[Term]:
        terms: list[Term] = []
        terms_cache = self._terms
        for slot in slots:
            m = _TERM.match(line, pos)
            if m is None or line[m.start(1)] not in slot[1]:
                raise _term_error(line, lineno, pos, slot)
            token = m.group(1)
            term = terms_cache.get(token)
            if term is None:
                term = self._build(token, lineno, m.start(1) + 1)
            terms.append(term)
            pos = m.end()
        if end.match(line, pos) is None:
            raise _end_error(line, lineno, pos, end)
        return terms

    def _build(self, token: str, lineno: int, column: int) -> Term:
        try:
            if token[0] == "<":
                term: Term = _make_iri(token)
            elif token[0] == "_":
                term = BlankNode(token[2:])
            else:
                term = _make_literal(token)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, column) from None
        self._terms[token] = term
        return term


def _make_iri(token: str) -> IRI:
    value = token[1:-1]
    if "\\" in value:
        value = _unescape(value)
    if not _SCHEME_RE.match(value):
        raise ValueError(f"relative IRI {value!r} without a base IRI")
    return IRI(value)  # rejects forbidden characters that came from escapes


def _make_literal(token: str) -> Literal:
    close = token.rindex('"')  # neither a language tag nor an IRI holds '"'
    lexical = token[1:close]
    if "\\" in lexical:
        lexical = _unescape(lexical)
    suffix = token[close + 1 :]
    if not suffix:
        return Literal(lexical)
    if suffix[0] == "@":
        return Literal(lexical, lang=suffix[1:])
    return Literal(lexical, _make_iri(suffix[2:]).value)


def _unescape(text: str) -> str:
    return _ESCAPE.sub(_unescape_one, text)


def _unescape_one(m: re.Match) -> str:
    if m.group(3) is not None:
        return _ECHAR[m.group(3)]
    code = int(m.group(1) or m.group(2), 16)
    if code > 0x10FFFF:
        raise ValueError(f"invalid unicode escape {m.group(0)}")
    return chr(code)


# -- error reporting: only lines that fail to match get here ----------------


def _skip_ws(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t\r":
        pos += 1
    return pos


def _term_error(line: str, lineno: int, pos: int, slot: tuple[str, str]) -> ParseError:
    expected, starts = slot
    pos = _skip_ws(line, pos)
    c = line[pos : pos + 1]
    message = f"expected {expected}"
    if c and c in starts:
        if c == "<":
            message, pos = _iri_problem(line, pos)
        elif c == "_":
            message = "invalid blank node label"
        elif line.startswith('"""', pos):
            message = "long strings are not allowed in N-Triples"
        else:
            message, pos = _literal_problem(line, pos)
    return ParseError(message, lineno, pos + 1)


def _iri_problem(line: str, pos: int) -> tuple[str, int]:
    i = pos + 1
    while i < len(line):
        c = line[i]
        if c == ">":
            return "invalid IRI", pos
        if c == "\\":
            m = _VALID_UCHAR.match(line, i)
            if m is None:
                return f"invalid IRI escape {line[i : i + 2]!r}", i
            i = m.end()
            continue
        if c in " \t\r\n":
            return "whitespace inside IRI", i
        if c in _IRI_FORBIDDEN:
            return f"IRI contains forbidden character {c!r}", i
        i += 1
    return "unterminated IRI", i


def _literal_problem(line: str, pos: int) -> tuple[str, int]:
    i = pos + 1
    while i < len(line):
        c = line[i]
        if c == '"':
            i += 1
            if line.startswith("^^<", i):
                return _iri_problem(line, i + 2)
            if line.startswith("^^", i):
                return "expected datatype IRI", i + 2
            return "invalid language tag", i + 1
        if c == "\\":
            m = _VALID_ESCAPE.match(line, i)
            if m is None:
                return f"invalid string escape {line[i : i + 2]!r}", i
            i = m.end()
            continue
        i += 1
    return "unterminated string literal", i


def _end_error(line: str, lineno: int, pos: int, end: re.Pattern) -> ParseError:
    pos = _skip_ws(line, pos)
    if end is not _DOT:
        return ParseError("trailing content after graph IRI", lineno, pos + 1)
    if not line.startswith(".", pos):
        return ParseError("expected '.'", lineno, pos + 1)
    return ParseError("trailing content after '.'", lineno, _skip_ws(line, pos + 1) + 1)
