"""Turtle and N-Triples serialization.

N-Triples output is canonical: blank nodes are relabeled deterministically
and lines are sorted bytewise, so equal graphs serialize to equal bytes.
"""

from __future__ import annotations

import re
from typing import Iterable

from .terms import IRI, RDF_TYPE, XSD_STRING, BlankNode, Literal, Term, Triple

DEFAULT_PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "dct": "http://purl.org/dc/terms/",
    "dcat": "http://www.w3.org/ns/dcat#",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "dqv": "http://www.w3.org/ns/dqv#",
    "prov": "http://www.w3.org/ns/prov#",
}

# the short escapes, and \uXXXX for every other C0 control character
_ESCAPES = {chr(c): f"\\u{c:04X}" for c in range(0x20)} | {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"
}
_ESCAPED = re.compile(r'[\\"\x00-\x1f]')
_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*$")


def _escape_string(s: str) -> str:
    return _ESCAPED.sub(_escape_one, s)


def _escape_one(m: re.Match) -> str:
    return _ESCAPES[m.group()]


def format_term(term: Term) -> str:
    """N-Triples form of one term."""
    if isinstance(term, IRI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{_escape_string(term.lexical)}"'
        if term.lang is not None:
            return f"{body}@{term.lang}"
        if term.datatype == XSD_STRING:
            return body
        return f"{body}^^<{term.datatype}>"
    raise TypeError(f"not an RDF term: {term!r}")


def format_triple(triple: Triple) -> str:
    s, p, o = triple
    return f"{format_term(s)} {format_term(p)} {format_term(o)} ."


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Canonical N-Triples: deterministic blank labels, bytewise-sorted lines."""
    from .canon import canonicalize

    lines = sorted({format_triple(t) for t in canonicalize(list(triples))}, key=lambda s: s.encode("utf-8"))
    return "\n".join(lines) + ("\n" if lines else "")


def _sort_key(term: Term) -> tuple:
    return (isinstance(term, BlankNode), format_term(term).encode("utf-8"))


def _subject_groups(triples: Iterable[Triple]) -> list[tuple[Term, list[tuple[IRI, list[Term]]]]]:
    """Triples grouped in the order both record serializers write them.

    Subjects come IRIs first, then blank nodes, each by their N-Triples
    bytes; a subject's predicates come `rdf:type` first, then in the same
    order; each predicate's objects are de-duplicated and sorted the same
    way. The registry numbers distributions in document order, so this order
    decides their `#dist-N` IRIs.
    """
    grouped: dict[Term, dict[IRI, list[Term]]] = {}
    for s, p, o in triples:
        grouped.setdefault(s, {}).setdefault(p, []).append(o)
    return [
        (
            s,
            [
                (p, sorted(set(grouped[s][p]), key=_sort_key))
                for p in sorted(grouped[s], key=lambda p: (p.value != RDF_TYPE, _sort_key(p)))
            ],
        )
        for s in sorted(grouped, key=_sort_key)
    ]


def serialize_wire(triples: Iterable[Triple]) -> str:
    """N-Triples lines in `serialize_turtle`'s order: how records travel
    between the suite's services. Parsing them gives the same triple list
    as parsing the Turtle form."""
    lines = []
    for s, predicates in _subject_groups(triples):
        subject = format_term(s)
        for p, objects in predicates:
            head = f"{subject} <{p.value}> "
            lines.extend(f"{head}{format_term(o)} ." for o in objects)
    return "\n".join(lines) + "\n" if lines else ""


def serialize_turtle(triples: Iterable[Triple], prefixes: dict[str, str] | None = None) -> str:
    """Compact Turtle grouped by subject, deterministic ordering."""
    groups = _subject_groups(triples)
    if not groups:
        return ""
    prefix_map = dict(DEFAULT_PREFIXES)
    if prefixes:
        prefix_map.update(prefixes)
    by_iri = sorted(((iri, name) for name, iri in prefix_map.items()), key=lambda x: -len(x[0]))

    used: set[str] = set()

    def term_text(term: Term, as_predicate: bool = False) -> str:
        if isinstance(term, IRI):
            if as_predicate and term.value == RDF_TYPE:
                return "a"
            for iri, name in by_iri:
                if term.value.startswith(iri):
                    local = term.value[len(iri):]
                    if local == "" or _LOCAL_RE.match(local):
                        used.add(name)
                        return f"{name}:{local}"
            return f"<{term.value}>"
        if isinstance(term, Literal) and term.lang is None and term.datatype != XSD_STRING:
            for iri, name in by_iri:
                if term.datatype.startswith(iri):
                    local = term.datatype[len(iri):]
                    if _LOCAL_RE.match(local):
                        used.add(name)
                        return f'"{_escape_string(term.lexical)}"^^{name}:{local}'
            return format_term(term)
        return format_term(term)

    blocks: list[str] = []
    for s, predicates in groups:
        pred_lines = [
            f"    {term_text(p, as_predicate=True)} " + ", ".join(term_text(o) for o in objects)
            for p, objects in predicates
        ]
        blocks.append(term_text(s) + "\n" + " ;\n".join(pred_lines) + " .")

    body = "\n\n".join(blocks)
    header = "".join(
        f"@prefix {name}: <{prefix_map[name]}> .\n" for name in sorted(used)
    )
    return (header + "\n" if header else "") + body + "\n"


def serialize(triples: Iterable[Triple], fmt: str = "turtle", prefixes: dict[str, str] | None = None) -> str:
    """Serialize triples as 'turtle' or 'ntriples'."""
    if fmt == "turtle":
        return serialize_turtle(triples, prefixes)
    if fmt == "ntriples":
        return serialize_ntriples(triples)
    raise ValueError(f"unknown serialization format: {fmt!r}")
