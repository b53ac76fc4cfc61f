"""Turtle and N-Triples serialization.

N-Triples output is canonical: blank nodes are relabeled deterministically
and lines are sorted bytewise, so equal graphs serialize to equal bytes.
"""

from __future__ import annotations

import re
from typing import Iterable

from .canon import canonical_ntriples
from .terms import IRI, RDF_LANGSTRING, RDF_TYPE, XSD_STRING, Literal, Term, Triple

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

_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*$")
_TYPE = IRI(RDF_TYPE)

serialize_ntriples = canonical_ntriples


def _sort_key(term: Term) -> tuple:
    # code-point order of the text is the byte order of its UTF-8 form
    return (term[0] == "_", term)


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
                for p in sorted(grouped[s], key=lambda p: (p != _TYPE, p))
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
        for p, objects in predicates:
            head = f"{s} {p} "
            lines.extend(f"{head}{o} ." for o in objects)
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
            if as_predicate and term == _TYPE:
                return "a"
            value = term.value
            for iri, name in by_iri:
                if value.startswith(iri):
                    local = value[len(iri):]
                    if local == "" or _LOCAL_RE.match(local):
                        used.add(name)
                        return f"{name}:{local}"
            return term
        if isinstance(term, Literal):
            datatype = term.datatype
            if datatype not in (XSD_STRING, RDF_LANGSTRING):
                for iri, name in by_iri:
                    if datatype.startswith(iri):
                        local = datatype[len(iri):]
                        if _LOCAL_RE.match(local):
                            used.add(name)
                            # the quoted form, without its `^^<datatype>`
                            return f"{term[: -len(datatype) - 4]}^^{name}:{local}"
        return term

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
