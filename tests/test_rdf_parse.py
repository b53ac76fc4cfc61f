import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcat.rdf import (
    IRI,
    BlankNode,
    Literal,
    ParseError,
    UnresolvedPrefixError,
    isomorphic,
    parse_ntriples,
    parse_turtle,
    serialize,
    serialize_ntriples,
    serialize_turtle,
)
from odcat.rdf import ntriples
from odcat.rdf.terms import _escape_string
from odcat.rdf.terms import Quad
from odcat.rdf.turtle import _SCHEME_RE

from conftest import graphs

DCT = "http://purl.org/dc/terms/"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def test_minimal_turtle_document():
    text = '@prefix dct: <http://purl.org/dc/terms/> . <http://x/d1> dct:title "Rain"@en .'
    ts = parse_turtle(text)
    assert ts == [(IRI("http://x/d1"), IRI(DCT + "title"), Literal("Rain", lang="en"))]


def test_language_tag_lowercased():
    (t,) = parse_turtle('<http://x/d> <http://x/p> "x"@EN-GB .')
    assert t[2].lang == "en-gb"


def test_ntriples_typed_literal():
    (t,) = parse_ntriples('<http://x/s> <http://x/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    assert t[2] == Literal("5", XSD + "integer")


def test_numeric_and_boolean_shorthand():
    ts = parse_turtle("<http://x/s> <http://x/p> 5, 3.14, 1.0e3, true, false .")
    datatypes = [t[2].datatype for t in ts]
    assert datatypes == [
        XSD + "integer",
        XSD + "decimal",
        XSD + "double",
        XSD + "boolean",
        XSD + "boolean",
    ]
    assert [t[2].lexical for t in ts] == ["5", "3.14", "1.0e3", "true", "false"]


def test_a_keyword_and_semicolon_comma():
    text = """
    @prefix dcat: <http://www.w3.org/ns/dcat#> .
    @prefix dct: <http://purl.org/dc/terms/> .
    <http://x/d> a dcat:Dataset ;
        dct:title "One"@en, "Eins"@de ;
        dct:issued "2024-01-01"^^<http://www.w3.org/2001/XMLSchema#date> .
    """
    ts = parse_turtle(text)
    assert len(ts) == 4
    assert ts[0][1] == IRI(RDF_TYPE)


def test_blank_node_label_and_anon():
    text = """
    @prefix dcat: <http://www.w3.org/ns/dcat#> .
    <http://x/d> dcat:distribution _:d1, [ dcat:accessURL <http://x/f.csv> ] .
    _:d1 dcat:accessURL <http://x/g.csv> .
    """
    ts = parse_turtle(text)
    assert len(ts) == 4
    anon = [o for s, p, o in ts if isinstance(o, BlankNode) and o.label != "d1"]
    assert len(anon) == 1


def test_base_resolution():
    ts = parse_turtle("@base <http://x/dir/> . <doc> <http://x/p> <../up> .")
    assert ts[0][0] == IRI("http://x/dir/doc")
    assert ts[0][2] == IRI("http://x/up")


def test_base_argument():
    ts = parse_turtle("<doc> <http://x/p> <o> .", base_iri="http://root/base/")
    assert ts[0][0] == IRI("http://root/base/doc")


def test_sparql_style_prefix():
    ts = parse_turtle('PREFIX dct: <http://purl.org/dc/terms/>\n<http://x/d> dct:title "t" .')
    assert ts[0][1] == IRI(DCT + "title")


def test_collections_rejected():
    with pytest.raises(ParseError) as err:
        parse_turtle("<http://x/s> <http://x/p> (1 2) .")
    assert "not supported" in str(err.value)


def test_unresolved_prefix():
    with pytest.raises(UnresolvedPrefixError):
        parse_turtle('<http://x/d> dct:title "Rain" .')


def test_parse_error_location():
    with pytest.raises(ParseError) as err:
        parse_turtle('<http://x/d> <http://x/p> "unterminated .')
    assert err.value.line == 1
    assert err.value.column > 1


def test_error_location_multiline():
    with pytest.raises(ParseError) as err:
        parse_turtle('<http://x/a> <http://x/p> "ok" .\n<http://x/b> <bad iri> "x" .')
    assert err.value.line == 2


def test_ntriples_rejects_turtle_sugar():
    with pytest.raises(ParseError):
        parse_ntriples('<http://x/s> a "x" .')


@pytest.mark.parametrize(
    "line, message, column",
    [
        ('<http://x/s> <http://x/p> <rel> .', "relative IRI", 27),
        ('<http://x/s> <http://x/p> "open .', "unterminated string literal", 34),
        ('<http://x/s> <http://x/p> "x" . <http://x/o>', "trailing content", 33),
        ('<http://x/s> a "x" .', "expected IRI predicate", 14),
        ('<http://x/s> <http://x/p> """long""" .', "long strings", 27),
        ('<http://x/s> <http://x/p> "x"@1 .', "invalid language tag", 31),
        ('<http://x/s> <http://x/p> "x"^^xsd:int .', "expected datatype IRI", 32),
        ('<http://x/s> <http://x/p> "\\q" .', "invalid string escape", 28),
        ('<http://x/s> <http://x/a b> "x" .', "whitespace inside IRI", 25),
        ('<http://x/s> <http://x/p> <http://x/\\u0020> .', "forbidden character", 27),
        ('<http://x/s> <http://x/p> _:b. .', "trailing content", 32),
    ],
    ids=[
        "relative-iri",
        "unterminated-literal",
        "trailing-content",
        "turtle-a-sugar",
        "long-string",
        "bad-language-tag",
        "prefixed-datatype",
        "bad-string-escape",
        "space-in-iri",
        "escaped-space-in-iri",
        "blank-label-ending-in-dot",
    ],
)
def test_ntriples_errors_name_line_and_column(line, message, column):
    with pytest.raises(ParseError) as err:
        parse_ntriples(f"<http://x/s> <http://x/p> <http://x/o> .\n# comment\n{line}")
    assert message in str(err.value)
    assert (err.value.line, err.value.column) == (3, column)


def test_ntriples_builds_each_distinct_term_once():
    first, second = parse_ntriples(
        '<http://x/s> <http://x/p> "caf\\u00E9"@en .\n<http://x/s> <http://x/p> "caf\\u00E9"@en .'
    )
    assert all(a is b for a, b in zip(first, second))


def test_escapes_round_trip():
    lex = 'tab\t"quote"\\back\nnl'
    ts = [(IRI("http://x/s"), IRI("http://x/p"), Literal(lex))]
    out = serialize_ntriples(ts)
    assert parse_ntriples(out) == ts


def test_unicode_escape():
    (t,) = parse_ntriples('<http://x/s> <http://x/p> "caf\\u00E9" .')
    assert t[2].lexical == "café"


@pytest.mark.parametrize(
    "turtle",
    [
        '<http://x/s> <http://x/p> "caf\\u 0E9" .',
        '<http://x/s> <http://x/p> "caf\\u0E9" .',
        '<http://x/s> <http://x/p> "\\U0000_0E9" .',
        '<http://x/s> <http://x/p> "\\UFFFFFFFF" .',
        '<http://x/s> <http://x/p> "\\U00110000" .',
        '<http://x/s> <http://x/p> "\\u00" .',
        '<http://x/s> <http://x/a\\u+0E9> "x" .',
        '<http://x/s> <http://x/a\\U0x0000E9> "x" .',
        '<http://x/s> <http://x/a\\UFFFFFFFF> "x" .',
    ],
    ids=[
        "space-in-digits",
        "three-digits",
        "underscore-in-digits",
        "above-int32",
        "above-max-code-point",
        "cut-by-end-of-string",
        "iri-plus-sign",
        "iri-hex-prefix",
        "iri-above-max-code-point",
    ],
)
def test_turtle_unicode_escape_needs_exact_hex_digits(turtle):
    with pytest.raises(ParseError) as err:
        parse_turtle(turtle)
    assert "invalid unicode escape" in str(err.value)


@pytest.mark.parametrize(
    "turtle, column",
    [
        ('<http://x/s> <http://x/p> <http://x/a{b}> .', 27),
        ('<http://x/s> <http://x/p> "x"^^<http://x/a|b> .', 32),
        ('@prefix ex: <http://x/> .\n<http://x/s> ex:a\\^b "x" .', 14),
    ],
    ids=["brace-in-iri", "bar-in-datatype", "escaped-caret-in-name"],
)
def test_turtle_iri_with_a_forbidden_character_is_a_parse_error(turtle, column):
    with pytest.raises(ParseError) as err:
        parse_turtle(turtle)
    assert "forbidden character" in str(err.value)
    assert err.value.column == column


def test_turtle_unicode_escapes_in_literal_and_iri():
    ((s, p, o),) = parse_turtle('<http://x/caf\\u00E9> <http://x/p> "\\U0001F600\\u00e9" .')
    assert s == IRI("http://x/café")
    assert o.lexical == "\U0001F600é"


def test_empty_graph_serializes_empty():
    assert serialize_ntriples([]) == ""
    assert serialize_turtle([]) == ""


def test_serialization_deterministic():
    text = """
    @prefix dct: <http://purl.org/dc/terms/> .
    <http://x/d> dct:title "A", "B" ; dct:description [ dct:title "inner" ] .
    """
    g = parse_turtle(text)
    assert serialize_ntriples(g) == serialize_ntriples(g)
    assert serialize_turtle(g) == serialize_turtle(g)


@settings(max_examples=150, deadline=None)
@given(graphs)
def test_roundtrip_ntriples_isomorphic(g):
    assert isomorphic(parse_ntriples(serialize_ntriples(g)), g)


@settings(max_examples=150, deadline=None)
@given(graphs)
def test_roundtrip_turtle_isomorphic(g):
    assert isomorphic(parse_turtle(serialize_turtle(g)), g)


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_serialize_format_dispatch(g):
    assert serialize(g, "ntriples") == serialize_ntriples(g)
    assert serialize(g, "turtle") == serialize_turtle(g)


# -- the line patterns agree with the term scan ------------------------------

_GOOD_IRIS = ["<http://x/s>", "<http://x/caf\\u00E9>", "<http://x/\\U0001F600>", "<urn:x:a%20b>"]
_GOOD_BNODES = ["_:b", "_:b1.x", "_:a-b"]
_GOOD_LITERALS = [
    '"x"',
    '""',
    '"x y"@en',
    '"x"@EN-gb-1',
    '"x"^^<http://x/t>',
    '"tab\\t\\"q\\" \\\\ \\u00E9 \\U0001F600"',
    '"a\tb # c"',
]
_GOOD_SEPARATORS = ["", " ", "\t", "\r", " \t\r "]
_GOOD_ENDS = [".", " .", ". ", ".\t\r", ". # note", ".# note"]
# the valid choices of each slot: subject, predicate, object, graph
_SLOTS = [_GOOD_IRIS + _GOOD_BNODES, _GOOD_IRIS, _GOOD_IRIS + _GOOD_BNODES + _GOOD_LITERALS, _GOOD_IRIS]
_NEAR_MISSES = [
    "<http://x/a\\u0020b>",  # escapes of forbidden characters
    "<http://x/\\u007B>",
    "<http://x/\\u003E>",
    "<http://x/\\q>",
    "<http://x/a b>",
    "<http://x/a\tb>",
    "<http://x/a{b>",
    "<http://x/open",
    "<rel>",
    "<>",
    "_:b.",
    "_:b..c",
    "_:-b",
    "_:",
    "_:é",
    '"x"@',
    '"x"@1',
    '"x"@en-',
    '"x"^^<rel>',
    '"x"^^<http://x/a\\u0020>',
    '"x"^^',
    '"x"^^xsd:int',
    '"x"^',
    '"\\q"',
    '"\\u00"',
    '"\\UFFFFFFFF"',
    '"open',
    '"""long"""',
    '"x""y"',
    '"x"@en"y"',
    "a",
    "x:y",
    "1",
    "<",
    '"',
    "_",
    "#x",
    ". x",
    "..",
    " . <http://x/o>",
    ". _:b",
]
_BAD_SEPARATORS = ["\x0c", "\x0b", "\x00", "\u00a0", "\u3000", " \x0c "]
_ALL_PARTS = sorted(
    {p for slot in _SLOTS for p in slot} | set(_GOOD_SEPARATORS + _GOOD_ENDS + _NEAR_MISSES + _BAD_SEPARATORS)
)
_ANY_PART = st.sampled_from(_ALL_PARTS)
_NOISE = st.text(alphabet='<>"_:.@^\\ \t\r#abxu0-9', max_size=40)


@st.composite
def _lines(draw, slots: int) -> str:
    """A statement of `slots` terms: valid, or with one or two parts swapped
    for a near miss or a part that belongs elsewhere, or noise."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_NOISE)
    parts = []
    for choices in _SLOTS[:slots]:
        parts += [draw(st.sampled_from(_GOOD_SEPARATORS)), draw(st.sampled_from(choices))]
    parts += [draw(st.sampled_from(_GOOD_SEPARATORS)), draw(st.sampled_from(_GOOD_ENDS))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2]))):
        i = draw(st.integers(0, len(parts) - 1))
        near = _BAD_SEPARATORS if i % 2 == 0 and i < len(parts) - 1 else _NEAR_MISSES
        parts[i] = draw(st.one_of(st.sampled_from(near), _ANY_PART))
    return "".join(parts)


def _outcome(call):
    try:
        return call()
    except ParseError as exc:
        return ("ParseError", exc.args, exc.line, exc.column)


def _check_line(shape: str, line: str, lineno: int = 7, pos: int = 0) -> None:
    """The line pattern and the term scan, each in a fresh parser, read a
    line alike: the same terms, or the same error at the same place."""
    slots, end, read = {
        "triple": (ntriples._TRIPLE, ntriples._DOT, lambda p: p.triple(line, lineno)),
        "quad": (ntriples._QUAD, ntriples._DOT, lambda p: p.quad(line, lineno, pos)),
        "graph": ((ntriples._GRAPH,), ntriples._EOL, lambda p: p.graph_name(line, lineno, pos)),
    }[shape]

    def scanned():
        terms = ntriples.LineParser()._statement(line, lineno, pos, slots, end)
        if shape == "quad":
            s, p, o, g = terms
            return Quad(s, p, o, g.value)
        return tuple(terms) if shape == "triple" else terms[0].value

    assert _outcome(lambda: read(ntriples.LineParser())) == _outcome(scanned), repr(line)


@settings(max_examples=500, deadline=None)
@given(_lines(3), st.integers(1, 9))
def test_a_triple_line_reads_as_the_term_scan_reads_it(line, lineno):
    _check_line("triple", line, lineno)


@settings(max_examples=500, deadline=None)
@given(_lines(4), st.integers(1, 9), st.sampled_from(["", "A ", "D ", "ignored "]))
def test_a_quad_line_reads_as_the_term_scan_reads_it(line, lineno, prefix):
    _check_line("quad", prefix + line, lineno, len(prefix))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_GOOD_SEPARATORS + _BAD_SEPARATORS),
    st.one_of(_ANY_PART, _NOISE),
    st.sampled_from(["", " ", "\t\r", " .", " x"]),
)
def test_a_graph_line_reads_as_the_term_scan_reads_it(before, token, after):
    _check_line("graph", "C " + before + token + after, 4, 2)


def test_each_part_in_each_place_reads_as_the_term_scan_reads_it():
    triple = ["", "<http://x/s>", " ", "<http://x/p>", " ", "_:o", " ", "."]
    quad = triple[:6] + [" ", "<http://x/g>"] + triple[6:]
    for shape, base, prefix in (("triple", triple, ""), ("quad", quad, "A ")):
        for i in range(len(base)):
            for part in _ALL_PARTS:
                _check_line(shape, prefix + "".join(base[:i] + [part] + base[i + 1 :]), pos=len(prefix))


# -- term kernels: literal escapes and the IRI character check ---------------


def _escape_reference(s: str) -> str:
    """The per-character definition `_escape_string` must match."""
    short = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
    return "".join(short[c] if c in short else f"\\u{ord(c):04X}" if ord(c) < 0x20 else c for c in s)


_KERNEL_CHARS = [chr(c) for c in range(0x80)] + ["\u2028", "\U0001F600"]


@pytest.mark.parametrize("c", _KERNEL_CHARS, ids=[f"U+{ord(c):04X}" for c in _KERNEL_CHARS])
def test_escape_string_of_each_character_and_its_round_trip(c):
    assert _escape_string(c) == _escape_reference(c)
    assert _escape_string(f"a{c}b{c}") == "a" + _escape_reference(c) + "b" + _escape_reference(c)
    s = IRI("http://x/s")
    triples = [(s, IRI("http://x/p"), Literal(f"a{c}b")), (s, IRI("http://x/q"), Literal(c, lang="en"))]
    assert parse_ntriples(serialize_ntriples(triples)) == triples
    assert sorted(parse_turtle(serialize_turtle(triples)), key=str) == sorted(triples, key=str)


def test_escape_string_exact_forms():
    assert _escape_string('\\"\n\r\t\b\f') == '\\\\\\"\\n\\r\\t\\b\\f'
    assert _escape_string("\x00\x01\x0b\x1b\x1f") == "\\u0000\\u0001\\u000B\\u001B\\u001F"
    assert _escape_string("\x7f é \u2028 \U0001F600 ") == "\x7f é \u2028 \U0001F600 "


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30))
def test_escape_string_matches_the_per_character_definition(s):
    assert _escape_string(s) == _escape_reference(s)


_FORBIDDEN_IN_IRI = " \t\n\r\f\v<>\"{}|^`"


@pytest.mark.parametrize("c", _KERNEL_CHARS, ids=[f"U+{ord(c):04X}" for c in _KERNEL_CHARS])
def test_iri_refuses_exactly_its_forbidden_characters(c):
    value = f"http://x/a{c}b"
    if c in _FORBIDDEN_IN_IRI:
        with pytest.raises(ValueError) as err:
            IRI(value)
        assert str(err.value) == f"IRI contains forbidden character: {value!r}"
    else:
        assert IRI(value).value == value


# -- terms are their N-Triples text ------------------------------------------

XSD_STRING = XSD + "string"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


def _format_term_reference(kind: str, text: str, datatype: str = XSD_STRING, lang: str | None = None) -> str:
    """The N-Triples form `format_term` wrote when terms were dataclasses:
    what each term's text must be."""
    if kind == "iri":
        return f"<{text}>"
    if kind == "blank":
        return f"_:{text}"
    body = f'"{_escape_reference(text)}"'
    if lang is not None:
        return f"{body}@{lang.lower()}"
    if datatype == XSD_STRING:
        return body
    return f"{body}^^<{datatype}>"


def _check_term(kind: str, text: str, datatype: str = XSD_STRING, lang: str | None = None) -> None:
    """The term's text is the reference form, its properties give back what
    built it, copies and the parser read the same term from that text, and
    no term of another kind built from the same characters equals it."""
    if kind == "iri":
        term = IRI(text)
        assert term.value == text
    elif kind == "blank":
        term = BlankNode(text)
        assert term.label == text
    else:
        term = Literal(text, datatype, lang)
        assert term.lexical == text
        assert term.lang == (lang.lower() if lang is not None else None)
        assert term.datatype == (RDF_LANGSTRING if lang is not None else datatype)
    assert term == _format_term_reference(kind, text, datatype, lang)
    assert str(term) == f"{term}" == _format_term_reference(kind, text, datatype, lang)
    # an IRI's text is not escaped, so one that holds a backslash may read back otherwise
    if ntriples._TERM.fullmatch(term) and (kind != "iri" or (_SCHEME_RE.match(text) and "\\" not in text)):
        ((_, _, parsed),) = parse_ntriples(f"<http://x/s> <http://x/p> {term} .")
        assert parsed == term and type(parsed) is type(term)
    for clone in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert clone == term and type(clone) is type(term)
    others = [BlankNode(text), Literal(text)] + ([IRI(text)] if not any(c in _FORBIDDEN_IN_IRI for c in text) else [])
    assert [other for other in others if type(other) is not type(term) and other == term] == []


_TERM_TABLE = [
    ("iri", "http://x/a"),
    ("iri", ""),
    ("iri", "urn:x:ü/ß?q=1#f\\u"),
    ("blank", "b0"),
    ("blank", "genid-1.x"),
    ("literal", "Rain"),
    ("literal", ""),
    ("literal", "Rain", XSD_STRING, "EN-gb"),
    ("literal", "", XSD_STRING, "de"),
    ("literal", "5", XSD + "integer"),
    ("literal", 'say "hi" \\ \n\r\t\b\f\x01\x1f\x7f', XSD_STRING, "fr"),
    ("literal", '"@en'),
    ("literal", 'a"^^<http://x/dt>'),
    ("literal", "\\u0041 \\\\ \\"),
    ("literal", "☂ café   \U0001F600"),
    ("literal", "x", "http://x/dt\\y#\"q"),
    ("literal", 'x"', XSD_STRING, 'e"n'),
]


@pytest.mark.parametrize("case", _TERM_TABLE, ids=[repr(case) for case in _TERM_TABLE])
def test_term_text_is_the_ntriples_form_and_its_parts_round_trip(case):
    _check_term(*case)


def test_terms_of_different_kinds_never_compare_equal():
    for text in ("a", "", "http://x/a", "_:a", '"a"', "<a>"):
        terms = [BlankNode(text), Literal(text)]
        if not any(c in _FORBIDDEN_IN_IRI for c in text):
            terms.append(IRI(text))
        assert len(set(terms)) == len(terms), text
    assert Literal("x", XSD_STRING) == Literal("x")
    assert Literal("x", lang="EN") == Literal("x", lang="en")
    with pytest.raises(ValueError, match="requires a language tag"):
        Literal("x", RDF_LANGSTRING)


_term_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("literal"), _term_text),
        st.tuples(st.just("literal"), _term_text, st.just(XSD_STRING), st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}", fullmatch=True)),
        st.tuples(st.just("literal"), _term_text, st.sampled_from([XSD + "integer", "http://x/dt#é", XSD_STRING])),
        st.tuples(st.just("iri"), _term_text.filter(lambda t: not any(c in _FORBIDDEN_IN_IRI for c in t))),
        st.tuples(st.just("blank"), st.from_regex(r"[A-Za-z0-9_]([A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?", fullmatch=True)),
    )
)
def test_any_term_text_is_the_ntriples_form_and_its_parts_round_trip(case):
    _check_term(*case)
