"""Flatten a dataset graph into a language-resolved search document."""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import ns
from ..rdf import IRI, Literal, Term, Triple
from ..vocab import Vocabulary


@dataclass
class SearchDocument:
    id: str
    catalogueId: str = ""
    title: dict[str, str] = field(default_factory=dict)
    description: dict[str, str] = field(default_factory=dict)
    keywords: list[str] = field(default_factory=list)
    publisherName: str = ""
    formats: list[str] = field(default_factory=list)
    licenses: list[str] = field(default_factory=list)
    issued: str | None = None
    modified: str | None = None
    spatial: str | None = None
    qualityScore: float | None = None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "catalogueId": self.catalogueId,
            "title": self.title,
            "description": self.description,
            "keywords": self.keywords,
            "publisherName": self.publisherName,
            "formats": self.formats,
            "licenses": self.licenses,
            "issued": self.issued,
            "modified": self.modified,
            "spatial": self.spatial,
            "qualityScore": self.qualityScore,
        }


def _primary_lang(literal: Literal) -> str:
    if literal.lang is None:
        return "und"
    return literal.lang.split("-", 1)[0]


def _is_machine_translated(literal: Literal) -> bool:
    return literal.lang is not None and "-t-" in literal.lang


def lang_map(literals: list[Literal]) -> dict[str, str]:
    """Group by primary language; originals beat machine translations."""
    out: dict[str, str] = {}
    for lit in sorted(literals, key=lambda l: (_is_machine_translated(l), l.lang or "", l.lexical)):
        key = _primary_lang(lit)
        if key not in out:
            out[key] = lit.lexical
    return out


def flatten(
    graph: list[Triple],
    vocabularies: dict[str, Vocabulary],
    dataset_id: str,
    catalogue_id: str = "",
) -> SearchDocument:
    """Extract literals, resolve vocabulary IRIs to labels, group by language."""
    file_types = vocabularies.get("file-types", Vocabulary("file-types"))
    licenses_vocab = vocabularies.get("licenses", Vocabulary("licenses"))

    by_sp: dict[tuple[Term, str], list[Term]] = {}
    for s, p, o in graph:
        by_sp.setdefault((s, p.value), []).append(o)

    dataset_nodes = ns.dataset_subjects(graph)
    dataset = dataset_nodes[0] if dataset_nodes else None

    def objects(node: Term | None, predicate: str) -> list[Term]:
        if node is None:
            return []
        return by_sp.get((node, predicate), [])

    def literals(node: Term | None, predicate: str) -> list[Literal]:
        return [o for o in objects(node, predicate) if isinstance(o, Literal)]

    doc = SearchDocument(id=dataset_id, catalogueId=catalogue_id)
    doc.title = lang_map(literals(dataset, ns.DCT_TITLE))
    doc.description = lang_map(literals(dataset, ns.DCT_DESCRIPTION))
    doc.keywords = sorted({lit.lexical for lit in literals(dataset, ns.DCAT_KEYWORD)})

    publishers = objects(dataset, ns.DCT_PUBLISHER)
    if publishers:
        node = publishers[0]
        if isinstance(node, Literal):
            doc.publisherName = node.lexical
        else:
            names = [o for o in objects(node, ns.FOAF_NAME) if isinstance(o, Literal)]
            if names:
                doc.publisherName = names[0].lexical
            elif isinstance(node, IRI):
                doc.publisherName = node.local_name()

    def resolve(term: Term, vocab: Vocabulary) -> str:
        if isinstance(term, Literal):
            return term.lexical
        if isinstance(term, IRI):
            return vocab.label(term.value)
        return ""

    formats: set[str] = set()
    license_terms: list[Term] = list(objects(dataset, ns.DCT_LICENSE))
    for dist in objects(dataset, ns.DCAT_DISTRIBUTION):
        for term in objects(dist, ns.DCT_FORMAT) + objects(dist, ns.DCAT_MEDIA_TYPE):
            label = resolve(term, file_types)
            if label:
                formats.add(label)
        license_terms.extend(objects(dist, ns.DCT_LICENSE))
    doc.formats = sorted(formats)
    doc.licenses = sorted({resolve(t, licenses_vocab) for t in license_terms if resolve(t, licenses_vocab)})

    issued = literals(dataset, ns.DCT_ISSUED)
    if issued:
        doc.issued = issued[0].lexical
    modified = literals(dataset, ns.DCT_MODIFIED)
    if modified:
        doc.modified = modified[0].lexical
    spatial = [o for o in objects(dataset, ns.DCT_SPATIAL) if isinstance(o, IRI)]
    if spatial:
        doc.spatial = spatial[0].value
    return doc
