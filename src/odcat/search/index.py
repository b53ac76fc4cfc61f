"""Embedded inverted index with field-weighted ranking and facet counts.

Every live document holds a dense ordinal: the position of its bit in each
bitset, which is a plain Python int. The live set and every facet value are
bitsets, so a facet filter is one `&` and a facet count one `int.bit_count()`
(the idea of Roaring bitmaps, Lemire et al., arXiv:1402.6407, without its
containers). Token postings map doc id -> weighted term frequency, which
stays small for rare tokens however wide the bitsets grow. A forward index
keeps each document's tokens and facet values, so `remove` and a re-`index`
touch only that document's own entries.
"""

from __future__ import annotations

import heapq
import re
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .flatten import SearchDocument

_TOKEN_RE = re.compile(r"[a-z0-9]+")

FIELD_WEIGHTS = {"title": 3.0, "keywords": 2.0, "description": 1.0}
FACET_FIELDS = ("format", "license", "catalogue", "publisher")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _doc_field_tokens(doc: SearchDocument) -> dict[str, Counter]:
    return {
        "title": Counter(t for v in doc.title.values() for t in tokenize(v)),
        "description": Counter(t for v in doc.description.values() for t in tokenize(v)),
        "keywords": Counter(t for kw in doc.keywords for t in tokenize(kw)),
    }


def _facet_values(doc: SearchDocument, facet: str) -> list[str]:
    if facet == "format":
        return doc.formats
    if facet == "license":
        return doc.licenses
    if facet == "catalogue":
        return [doc.catalogueId] if doc.catalogueId else []
    if facet == "publisher":
        return [doc.publisherName] if doc.publisherName else []
    return []


def _bitset(ordinals, width: int) -> int:
    """The int whose set bits are `ordinals`, each below `width`."""
    marks = bytearray((width + 7) // 8)
    for o in ordinals:
        marks[o >> 3] |= 1 << (o & 7)
    return int.from_bytes(marks, "little")


def _pairs(flat: tuple[str, ...]):
    """(field, value) pairs of a flat (field, value, field, value, ...) tuple."""
    it = iter(flat)
    return zip(it, it)


def _members(bits: int) -> list[int]:
    """Positions of the set bits of `bits`, lowest first."""
    digits = bin(bits)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


@dataclass(slots=True)
class _Entry:
    """Forward index entry: what one document put into the index."""

    ordinal: int
    tokens: tuple[str, ...]  # interned, so each token string is held once
    facets: tuple[str, ...]  # field, value, field, value, ...


class SearchIndex:
    """Token postings plus bitset facets over document ordinals; AND query
    semantics. Thread-safe."""

    def __init__(self) -> None:
        self._docs: dict[str, SearchDocument] = {}
        self._forward: dict[str, _Entry] = {}
        self._ids: list[str | None] = []  # ordinal -> doc id
        self._free: list[int] = []  # heap of freed ordinals, lowest reused first
        self._live = 0
        self._postings: dict[str, dict[str, float]] = {}
        self._facets: dict[str, dict[str, int]] = {fld: {} for fld in FACET_FIELDS}
        self._id_order: list[tuple[str, int]] | None = []  # None after an id set change
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._docs)

    def ids(self) -> list[str]:
        with self._lock:
            return [doc_id for doc_id, _ in self._sorted_ids()]

    def get(self, doc_id: str) -> SearchDocument | None:
        with self._lock:
            return self._docs.get(doc_id)

    def index(self, doc: SearchDocument) -> None:
        with self._lock:
            entry = self._forward.get(doc.id)
            if entry is None:
                ordinal = self._take_ordinal(doc.id)
            else:
                ordinal = entry.ordinal
                self._unpost(doc.id, entry)
            weights: dict[str, float] = {}
            for fld, counts in _doc_field_tokens(doc).items():
                w = FIELD_WEIGHTS[fld]
                for token, tf in counts.items():
                    token = sys.intern(token)
                    weights[token] = weights.get(token, 0.0) + w * tf
            for token, weight in weights.items():
                self._postings.setdefault(token, {})[doc.id] = weight
            bit = 1 << ordinal
            facets = tuple(
                x
                for fld in FACET_FIELDS
                for value in dict.fromkeys(_facet_values(doc, fld))
                for x in (fld, value)
            )
            for fld, value in _pairs(facets):
                values = self._facets[fld]
                values[value] = values.get(value, 0) | bit
            self._forward[doc.id] = _Entry(ordinal, tuple(weights), facets)
            self._docs[doc.id] = doc

    def remove(self, doc_id: str) -> None:
        with self._lock:
            entry = self._forward.pop(doc_id, None)
            if entry is None:
                return
            self._unpost(doc_id, entry)
            del self._docs[doc_id]
            self._ids[entry.ordinal] = None
            self._live ^= 1 << entry.ordinal
            heapq.heappush(self._free, entry.ordinal)
            self._id_order = None

    def _take_ordinal(self, doc_id: str) -> int:
        if self._free:
            ordinal = heapq.heappop(self._free)
            self._ids[ordinal] = doc_id
        else:
            ordinal = len(self._ids)
            self._ids.append(doc_id)
        self._live |= 1 << ordinal
        self._id_order = None
        return ordinal

    def _unpost(self, doc_id: str, entry: _Entry) -> None:
        """Take one document's postings and facet bits out of the index."""
        for token in entry.tokens:
            bucket = self._postings[token]
            del bucket[doc_id]
            if not bucket:
                del self._postings[token]
        bit = 1 << entry.ordinal
        for fld, value in _pairs(entry.facets):
            values = self._facets[fld]
            rest = values[value] ^ bit  # the bit is set: this entry set it
            if rest:
                values[value] = rest
            else:
                del values[value]

    def _sorted_ids(self) -> list[tuple[str, int]]:
        """(doc id, ordinal) of every live document in id order, rebuilt
        after a write that added or removed a document."""
        if self._id_order is None:
            self._id_order = sorted((doc_id, e.ordinal) for doc_id, e in self._forward.items())
        return self._id_order

    def set_quality(self, doc_id: str, score: float) -> None:
        with self._lock:
            doc = self._docs.get(doc_id)
            if doc is not None:
                doc.qualityScore = score

    # -- search ----------------------------------------------------------

    def _query_scores(self, tokens: list[str]) -> dict[str, float]:
        """Doc id -> score for docs containing every token."""
        postings = [self._postings.get(t) for t in tokens]
        if not all(postings):
            return {}
        candidates = postings[0].keys()
        for p in postings[1:]:
            candidates = candidates & p.keys()  # iterates the smaller side
        return {doc_id: sum(p[doc_id] for p in postings) for doc_id in candidates}

    def search(
        self,
        q: str = "",
        facets: dict[str, str] | None = None,
        page: int = 0,
        page_size: int = 10,
    ) -> dict:
        """Ranked hits plus multi-select facet counts.

        Facet counts for a field are computed over the query result filtered
        by every *other* facet, so already-selected values keep their
        alternatives visible. An empty query matches every document and
        lists hits in id order. Raises ValueError unless page >= 0 and
        page_size >= 1.
        """
        if page < 0 or page_size < 1:
            raise ValueError("page must be >= 0 and page_size >= 1")
        facets = {k: v for k, v in (facets or {}).items() if v}
        with self._lock:
            tokens = tokenize(q)
            scores = self._query_scores(tokens) if tokens else None
            if scores is None:
                matched = self._live
            else:
                matched = _bitset((self._forward[d].ordinal for d in scores), len(self._ids))
            selected = {fld: self._facets.get(fld, {}).get(value, 0) for fld, value in facets.items()}
            hits = matched
            for bits in selected.values():
                hits &= bits

            facet_counts: dict[str, dict[str, int]] = {}
            for fld in FACET_FIELDS:
                base = matched
                for other, bits in selected.items():
                    if other != fld:
                        base &= bits
                counts = {}
                if base:
                    for value, bits in sorted(self._facets[fld].items()):
                        n = (base & bits).bit_count()
                        if n:
                            counts[value] = n
                facet_counts[fld] = counts

            total = hits.bit_count()
            start, stop = page * page_size, (page + 1) * page_size
            if scores is None:
                window = self._id_order_page(hits, start, stop) if start < total else []
            else:
                final_ids = [self._ids[o] for o in _members(hits)] if selected else scores
                ranked = sorted(final_ids, key=lambda d: (-scores[d], d))
                window = ranked[start:stop]
            return {
                "total": total,
                "page": page,
                "pageSize": page_size,
                "hits": [self._docs[d].to_json() for d in window],
                "facets": facet_counts,
            }

    def _id_order_page(self, hits: int, start: int, stop: int) -> list[str]:
        """Ids of the hits ranked start..stop in id order; walks the id-sorted
        list only as far as the page reaches."""
        order = self._sorted_ids()
        if hits == self._live:
            return [doc_id for doc_id, _ in order[start:stop]]
        marks = hits.to_bytes((len(self._ids) + 7) // 8, "little")
        found = (doc_id for doc_id, o in order if marks[o >> 3] >> (o & 7) & 1)
        return list(islice(found, start, stop))
