"""Expectations computed apart from the system under test.

`Corpus` is a naive-scan model of the search service: it holds the
benchmark's own copy of every record (with its edits applied) and answers a
query by looking at every document. `expected_summary` gives a harvest's
counts as set differences of source identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from inputs import FACET_FIELDS, FORMATS, LICENSES

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.lower()))


@dataclass
class Doc:
    id: str
    title: str
    words: frozenset[str]
    facets: dict[str, frozenset[str]]


def make_doc(record: dict, catalogue: str, translated_to: tuple[str, ...] = ()) -> Doc:
    """What search should hold for a record. A machine translation of a
    title or description reads "[en→de] <text>", so it adds the two
    language codes as words and nothing else."""
    words = tokens(record["title"]) | tokens(record["description"])
    for kw in record["keywords"]:
        words |= tokens(kw)
    for target in translated_to:
        words |= {"en", target}
    facets = {
        "format": frozenset(FORMATS[r["format"]][1] for r in record["resources"]),
        "license": frozenset([LICENSES[record["license"]]]),
        "catalogue": frozenset([catalogue]),
        "publisher": frozenset([record["publisher"]]),
    }
    return Doc(record["id"], record["title"], frozenset(words), facets)


class Corpus:
    """Documents keyed by dataset id; every query scans all of them."""

    def __init__(self) -> None:
        self.docs: dict[str, Doc] = {}

    def put(self, doc: Doc) -> None:
        self.docs[doc.id] = doc

    def replace_catalogue(self, catalogue: str, docs: list[Doc]) -> None:
        """What a harvest leaves: the catalogue holds exactly `docs`."""
        self.docs = {i: d for i, d in self.docs.items() if catalogue not in d.facets["catalogue"]}
        for doc in docs:
            self.put(doc)

    def search(self, q: str, facets: dict[str, str]) -> tuple[set[str], dict[str, dict[str, int]]]:
        """(ids of every hit, facet counts) with AND keyword semantics and
        multi-select facets: a field's counts ignore that field's own filter."""
        wanted = tokens(q)
        matched = [d for d in self.docs.values() if wanted <= d.words]
        filters = list(facets.items())
        hits = {d.id for d in matched if all(value in d.facets[fld] for fld, value in filters)}
        counts: dict[str, dict[str, int]] = {}
        for fld in FACET_FIELDS:
            others = [(f, value) for f, value in filters if f != fld]
            c: dict[str, int] = {}
            for d in matched:
                if all(value in d.facets[f] for f, value in others):
                    for value in d.facets[fld]:
                        c[value] = c.get(value, 0) + 1
            counts[fld] = dict(sorted(c.items()))
        return hits, counts


def expected_summary(previous_ids: set[str], source_ids: set[str]) -> dict[str, int]:
    """Harvest counts as set differences: created = new, updated = kept,
    deleted = removed, failed = 0."""
    return {
        "records": len(source_ids),
        "created": len(source_ids - previous_ids),
        "updated": len(source_ids & previous_ids),
        "deleted": len(previous_ids - source_ids),
        "failed": 0,
    }
