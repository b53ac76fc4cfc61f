import pytest
from hypothesis import given, settings

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
