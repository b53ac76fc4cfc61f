"""Hand-rolled Turtle parser (N-Triples lines are parsed in `ntriples`).

Supported Turtle subset: @prefix/@base (and SPARQL-style PREFIX/BASE), IRIs,
prefixed names, 'a', quoted/language-tagged/typed literals plus numeric and
boolean shorthand, blank node labels and [...] property lists, ';' and ','
lists. Collections '( ... )' are rejected with a clear error.
"""

from __future__ import annotations

from .terms import (
    IRI,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Literal,
    Term,
    Triple,
)

import re
from urllib.parse import urljoin


class ParseError(ValueError):
    """Syntax error with source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnresolvedPrefixError(ParseError):
    """A prefixed name uses a prefix that was never declared."""


_ECHAR = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
# \u and \U take exactly 4 and 8 hex digits, up to U+10FFFF
_UCHAR_DIGITS = {"u": 4, "U": 8}
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_LANGTAG_RE = re.compile(r"[a-zA-Z]+(-[a-zA-Z0-9]+)*")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_DECIMAL_RE = re.compile(r"[+-]?[0-9]*\.[0-9]+")
_DOUBLE_RE = re.compile(
    r"[+-]?(?:[0-9]+\.[0-9]*[eE][+-]?[0-9]+|\.?[0-9]+[eE][+-]?[0-9]+)"
)
_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_WORD_RE = re.compile(r"@?[A-Za-z]+")
_PNAME_NS_RE = re.compile(r"[A-Za-z0-9_.\-]*:")
_PREFIX_LABEL_RE = re.compile(r"[^: \t\r\n<]*")
# a local name: letters, digits and _-.%: (\w is isalnum() plus '_'), or a
# backslash that takes the next character as it is
_PN_LOCAL_RE = re.compile(r"(?:[\w\-.%:]|\\[\s\S]?)*")
_PN_LOCAL_PART_RE = re.compile(r"\\[\s\S]?|%[0-9A-Fa-f]{2}|[\s\S]")
_BLANK_LABEL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*")
# the common forms of IRIs and short strings: no escapes, nothing to report
_PLAIN_IRIREF_RE = re.compile(r"<([^>\\ \t\r\n]*)>")
_PLAIN_STRING_RE = {'"': re.compile(r'"([^"\\\n]*)"'), "'": re.compile(r"'([^'\\\n]*)'")}


def parse_turtle(text: str, base_iri: str = "") -> list[Triple]:
    """Parse a Turtle document into a list of triples (document order)."""
    return _TurtleParser(text, base_iri).parse()


class _TurtleParser:
    """Scans by offset: each token is matched in place with
    `pattern.match(text, pos)`, and line and column are worked out only for
    an error."""

    def __init__(self, text: str, base_iri: str):
        self.text = text
        self.pos = 0
        self.base = base_iri
        self.prefixes: dict[str, str] = {}
        self.triples: list[Triple] = []
        self._anon = 0
        self._anon_prefix = self._fresh_anon_prefix(text)

    @staticmethod
    def _fresh_anon_prefix(text: str) -> str:
        prefix = "genid-"
        k = 2
        while "_:" + prefix in text:
            prefix = f"genid{k}-"
            k += 1
        return prefix

    # -- scanning ------------------------------------------------------

    def location(self, pos: int) -> tuple[int, int]:
        """(line, column) of an offset, both counted from 1."""
        pos = min(pos, len(self.text))
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def error(self, message: str) -> ParseError:
        return ParseError(message, *self.location(self.pos))

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def skip_ws(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def expect(self, token: str) -> None:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
        else:
            raise self.error(f"expected {token!r}")

    # -- top level -----------------------------------------------------

    def parse(self) -> list[Triple]:
        while True:
            self.skip_ws()
            if self.at_end():
                return self.triples
            if self._try_directive():
                continue
            self._parse_triples_statement()

    def _try_directive(self) -> bool:
        if self.peek() == "@":
            word = self._peek_word()
            if word == "@prefix":
                self.advance(len("@prefix"))
                self._parse_prefix(sparql_form=False)
                return True
            if word == "@base":
                self.advance(len("@base"))
                self._parse_base(sparql_form=False)
                return True
            raise self.error(f"unknown directive {word!r}")
        lowered = self.text[self.pos : self.pos + 7].lower()
        if lowered.startswith("prefix") and lowered[6:7] in (" ", "\t", "\r", "\n"):
            self.advance(6)
            self._parse_prefix(sparql_form=True)
            return True
        if lowered.startswith("base") and lowered[4:5] in (" ", "\t"):
            self.advance(4)
            self._parse_base(sparql_form=True)
            return True
        return False

    def _peek_word(self) -> str:
        m = _WORD_RE.match(self.text, self.pos)
        return m.group(0) if m else ""

    def _parse_prefix(self, sparql_form: bool) -> None:
        self.skip_ws()
        label = self._scan_pname_ns()
        self.skip_ws()
        iri = self._scan_iriref()
        self.prefixes[label] = iri
        if not sparql_form:
            self.skip_ws()
            self.expect(".")

    def _parse_base(self, sparql_form: bool) -> None:
        self.skip_ws()
        self.base = self._scan_iriref()
        if not sparql_form:
            self.skip_ws()
            self.expect(".")

    def _scan_pname_ns(self) -> str:
        m = _PREFIX_LABEL_RE.match(self.text, self.pos)
        self.pos = m.end()
        self.expect(":")
        return m.group(0)

    def _parse_triples_statement(self) -> None:
        if self.peek() == "[":
            subject = self._parse_blank_node_property_list()
            self.skip_ws()
            if self.peek() != ".":
                self._parse_predicate_object_list(subject)
        else:
            subject = self._parse_subject()
            self.skip_ws()
            self._parse_predicate_object_list(subject)
        self.skip_ws()
        self.expect(".")

    def _parse_predicate_object_list(self, subject: Term) -> None:
        while True:
            self.skip_ws()
            predicate = self._parse_verb()
            while True:
                self.skip_ws()
                obj = self._parse_object()
                self.triples.append((subject, predicate, obj))
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                break
            if self.peek() == ";":
                self.pos += 1
                self.skip_ws()
                # trailing ';' before '.' or ']' is legal
                if self.peek() in (".", "]") or self.at_end():
                    return
                continue
            return

    def _parse_verb(self) -> IRI:
        nxt = self.peek(1)
        if self.peek() == "a" and not (nxt.isalnum() or nxt in "_-.:"):
            self.pos += 1
            return IRI(RDF_TYPE)
        return self._parse_iri()

    def _parse_subject(self) -> Term:
        c = self.peek()
        if c == "(":
            raise self.error("collections '( ... )' are not supported")
        if c == "_":
            return self._parse_blank_label()
        if c == "[":
            return self._parse_blank_node_property_list()
        return self._parse_iri()

    def _parse_object(self) -> Term:
        c = self.peek()
        if c == "(":
            raise self.error("collections '( ... )' are not supported")
        if c == "_":
            return self._parse_blank_label()
        if c == "[":
            return self._parse_blank_node_property_list()
        if c in "\"'":
            return self._parse_rdf_literal()
        if c.isdigit() or c in "+-" or (c == "." and self.peek(1).isdigit()):
            lit = self._try_numeric_literal()
            if lit is not None:
                return lit
        if self.text.startswith("true", self.pos) and not self._is_pn_char(self.peek(4)):
            self.pos += 4
            return Literal("true", XSD_BOOLEAN)
        if self.text.startswith("false", self.pos) and not self._is_pn_char(self.peek(5)):
            self.pos += 5
            return Literal("false", XSD_BOOLEAN)
        return self._parse_iri()

    @staticmethod
    def _is_pn_char(c: str) -> bool:
        return bool(c) and (c.isalnum() or c in "_-")

    def _try_numeric_literal(self) -> Literal | None:
        for regex, datatype in ((_DOUBLE_RE, XSD_DOUBLE), (_DECIMAL_RE, XSD_DECIMAL), (_INTEGER_RE, XSD_INTEGER)):
            m = regex.match(self.text, self.pos)
            if m:
                self.pos = m.end()
                return Literal(m.group(0), datatype)
        return None

    # -- terms ---------------------------------------------------------

    def _parse_iri(self) -> IRI:
        start = self.pos
        value = self._scan_iriref() if self.peek() == "<" else self._scan_prefixed_name()
        try:
            return IRI(value)
        except ValueError as exc:  # the term model refuses characters, such as '{', that the scanner passes
            raise ParseError(str(exc), *self.location(start)) from None

    def _scan_iriref(self) -> str:
        m = _PLAIN_IRIREF_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return self._resolve(m.group(1))
        if self.peek() != "<":
            raise self.error("expected IRI")
        self.pos += 1
        out: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated IRI")
            c = self.peek()
            if c == ">":
                self.pos += 1
                break
            if c in " \t\n\r":
                raise self.error("whitespace inside IRI")
            if c == "\\":
                out.append(self._scan_uchar())
                continue
            out.append(self.advance())
        ref = "".join(out)
        return self._resolve(ref)

    def _resolve(self, ref: str) -> str:
        if _SCHEME_RE.match(ref):
            return ref
        if not self.base:
            raise self.error(f"relative IRI {ref!r} without a base IRI")
        return urljoin(self.base, ref)

    def _scan_uchar(self) -> str:
        self.expect("\\")
        kind = self.advance()
        if kind not in _UCHAR_DIGITS:
            raise self.error(f"invalid IRI escape \\{kind}")
        width = _UCHAR_DIGITS[kind]
        digits = self.text[self.pos : self.pos + width]
        if len(digits) != width or not _HEX_RE.fullmatch(digits) or int(digits, 16) > 0x10FFFF:
            raise self.error(f"invalid unicode escape \\{kind}{digits}")
        self.pos += width
        return chr(int(digits, 16))

    def _scan_prefixed_name(self) -> str:
        start = self.pos
        m = _PNAME_NS_RE.match(self.text, start)
        if not m:
            raise self.error("expected IRI, prefixed name, literal, or blank node")
        prefix = m.group(0)[:-1]
        if prefix not in self.prefixes:
            raise UnresolvedPrefixError(f"undeclared prefix {prefix + ':'!r}", *self.location(start))
        m = _PN_LOCAL_RE.match(self.text, m.end())
        local = m.group(0)
        self.pos = m.end()
        if "\\" in local:
            parts = [p[1:] if p[0] == "\\" else p for p in _PN_LOCAL_PART_RE.findall(local)]
        else:
            parts = [local.rstrip(".")]
            self.pos -= len(local) - len(parts[0])
        # a trailing '.' terminates the statement, not the name
        while parts and parts[-1] == ".":
            parts.pop()
            self.pos -= 1
        return self.prefixes[prefix] + "".join(parts)

    def _parse_blank_label(self) -> BlankNode:
        self.expect("_:")
        m = _BLANK_LABEL_RE.match(self.text, self.pos)
        if not m:
            raise self.error("invalid blank node label")
        label = m.group(0).rstrip(".")
        self.pos += len(label)
        return BlankNode(label)

    def _parse_blank_node_property_list(self) -> BlankNode:
        self.expect("[")
        node = BlankNode(f"{self._anon_prefix}{self._anon}")
        self._anon += 1
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return node
        self._parse_predicate_object_list(node)
        self.skip_ws()
        self.expect("]")
        return node

    def _parse_rdf_literal(self) -> Literal:
        lexical = self._scan_string()
        if self.peek() == "@":
            self.pos += 1
            m = _LANGTAG_RE.match(self.text, self.pos)
            if not m:
                raise self.error("invalid language tag")
            self.pos = m.end()
            return Literal(lexical, lang=m.group(0))
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            dt = self._parse_iri()
            return Literal(lexical, dt.value)
        return Literal(lexical, XSD_STRING)

    def _scan_string(self) -> str:
        quote = self.peek()
        if quote not in "\"'":
            raise self.error("expected string literal")
        long = self.text.startswith(quote * 3, self.pos)
        if long:
            close = self.text.find(quote * 3, self.pos + 3)
            if close >= 0 and "\\" not in self.text[self.pos + 3 : close]:
                lexical = self.text[self.pos + 3 : close]
                self.pos = close + 3
                return lexical
        else:
            m = _PLAIN_STRING_RE[quote].match(self.text, self.pos)
            if m:
                self.pos = m.end()
                return m.group(1)
        self.pos += 3 if long else 1
        out: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated string literal")
            c = self.peek()
            if long:
                if self.text.startswith(quote * 3, self.pos):
                    self.pos += 3
                    return "".join(out)
            elif c == quote:
                self.pos += 1
                return "".join(out)
            elif c == "\n":
                raise self.error("newline in single-quoted string")
            if c == "\\":
                self.pos += 1
                esc = self.peek()
                if esc in _ECHAR:
                    out.append(_ECHAR[esc])
                    self.pos += 1
                elif esc in ("u", "U"):
                    self.pos -= 1
                    out.append(self._scan_uchar())
                else:
                    raise self.error(f"invalid string escape \\{esc}")
            else:
                out.append(self.advance())
