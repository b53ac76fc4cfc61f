import json
import random
import sys
import threading
import time
from collections import Counter

import pytest

from odcat.rdf import parse_turtle
from odcat.search import SearchDocument, SearchIndex, build_search_router, flatten, tokenize
from odcat.search.index import FACET_FIELDS, FIELD_WEIGHTS
from odcat.vocab import load_vocabularies

VOCABS = load_vocabularies()


def doc(doc_id, title_en="", desc_en="", keywords=(), fmt=(), lic=(), catalogue="c1", publisher="pub"):
    return SearchDocument(
        id=doc_id,
        catalogueId=catalogue,
        title={"en": title_en} if title_en else {},
        description={"en": desc_en} if desc_en else {},
        keywords=list(keywords),
        publisherName=publisher,
        formats=list(fmt),
        licenses=list(lic),
    )


# -- flatten -------------------------------------------------------------


def graph_of(turtle):
    return parse_turtle(turtle, base_iri="http://x/")


def test_flatten_title_languages():
    g = graph_of(
        """
        @prefix dct: <http://purl.org/dc/terms/> .
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        <http://x/d> a dcat:Dataset ; dct:title "Rain"@en, "Regen"@de .
        """
    )
    d = flatten(g, VOCABS, "d", "c1")
    assert d.title == {"en": "Rain", "de": "Regen"}


def test_flatten_untagged_goes_to_und():
    g = graph_of(
        """
        @prefix dct: <http://purl.org/dc/terms/> .
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        <http://x/d> a dcat:Dataset ; dct:title "plain" .
        """
    )
    assert flatten(g, VOCABS, "d").title == {"und": "plain"}


def test_flatten_machine_translations_do_not_override_originals():
    g = graph_of(
        """
        @prefix dct: <http://purl.org/dc/terms/> .
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        <http://x/d> a dcat:Dataset ;
            dct:title "Original"@en, "Regen"@de, "Machine"@en-t-de-t0-mock .
        """
    )
    d = flatten(g, VOCABS, "d")
    assert d.title["en"] == "Original"
    assert d.title["de"] == "Regen"


def test_flatten_machine_translation_fills_missing_language():
    g = graph_of(
        """
        @prefix dct: <http://purl.org/dc/terms/> .
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        <http://x/d> a dcat:Dataset ; dct:title "Regen"@de, "Machine rain"@en-t-de-t0-mock .
        """
    )
    assert flatten(g, VOCABS, "d").title["en"] == "Machine rain"


def test_flatten_format_vocabulary_label():
    g = graph_of(
        """
        @prefix dct: <http://purl.org/dc/terms/> .
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        <http://x/d> a dcat:Dataset ; dcat:distribution <http://x/d#dist-0> .
        <http://x/d#dist-0> dct:format <http://publications.europa.eu/resource/authority/file-type/CSV> .
        """
    )
    assert flatten(g, VOCABS, "d").formats == ["CSV"]


def test_flatten_unknown_license_falls_back_to_local_name():
    g = graph_of(
        """
        @prefix dct: <http://purl.org/dc/terms/> .
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        <http://x/d> a dcat:Dataset ; dct:license <http://x/lic/foo> .
        """
    )
    assert flatten(g, VOCABS, "d").licenses == ["foo"]


def test_flatten_publisher_foaf_name():
    g = graph_of(
        """
        @prefix dct: <http://purl.org/dc/terms/> .
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        @prefix foaf: <http://xmlns.com/foaf/0.1/> .
        <http://x/d> a dcat:Dataset ; dct:publisher [ foaf:name "Agency X" ] .
        """
    )
    assert flatten(g, VOCABS, "d").publisherName == "Agency X"


# -- index / search ---------------------------------------------------------


def test_index_then_hit_then_remove():
    idx = SearchIndex()
    idx.index(doc("a", title_en="Rainfall Berlin"))
    assert idx.search("rainfall")["total"] == 1
    idx.remove("a")
    assert idx.search("rainfall")["total"] == 0


def test_reindex_drops_stale_tokens():
    idx = SearchIndex()
    idx.index(doc("a", title_en="Old title"))
    idx.index(doc("a", title_en="New name"))
    assert idx.search("old")["total"] == 0
    assert idx.search("name")["total"] == 1


def test_and_semantics():
    idx = SearchIndex()
    idx.index(doc("a", title_en="rain berlin"))
    idx.index(doc("b", title_en="rain hamburg"))
    out = idx.search("rain berlin")
    assert [h["id"] for h in out["hits"]] == ["a"]


def test_empty_query_facet_browse():
    idx = SearchIndex()
    idx.index(doc("a", fmt=["CSV"]))
    idx.index(doc("b", fmt=["PDF"]))
    idx.index(doc("c", fmt=["CSV", "PDF"]))
    out = idx.search("", {"format": "CSV"})
    assert sorted(h["id"] for h in out["hits"]) == ["a", "c"]
    assert out["facets"]["format"] == {"CSV": 2, "PDF": 2}


def test_multi_select_facet_counts():
    idx = SearchIndex()
    idx.index(doc("a", fmt=["CSV"], lic=["CC0 1.0"]))
    idx.index(doc("b", fmt=["PDF"], lic=["CC0 1.0"]))
    idx.index(doc("c", fmt=["CSV"], lic=["CC BY 4.0"]))
    out = idx.search("", {"format": "CSV"})
    # license counts respect the format filter; format counts ignore it
    assert out["facets"]["license"] == {"CC0 1.0": 1, "CC BY 4.0": 1}
    assert out["facets"]["format"] == {"CSV": 2, "PDF": 1}


def test_title_weight_outranks_description():
    idx = SearchIndex()
    idx.index(doc("in-desc", desc_en="solar solar solar solar"))
    idx.index(doc("in-title", title_en="solar"))
    out = idx.search("solar")
    assert [h["id"] for h in out["hits"]] == ["in-desc", "in-title"] or [
        h["id"] for h in out["hits"]
    ] == ["in-title", "in-desc"]
    # 4 desc hits (4.0) vs 1 title hit (3.0): description doc wins here
    assert out["hits"][0]["id"] == "in-desc"
    idx.index(doc("in-desc", desc_en="solar solar"))
    assert idx.search("solar")["hits"][0]["id"] == "in-title"


WORDS = ["rain", "berlin", "solar", "wind", "budget", "traffic", "map", "health", "river", "air"]
FACET_CHOICES = {
    "format": ["CSV", "PDF", "JSON"],
    "license": ["CC0 1.0", "CC BY 4.0"],
    "catalogue": ["c1", "c2"],
    "publisher": ["pub-a", "pub-b"],
}


def brute_force_search(docs, q, facets=None):
    """Linear-scan oracle replicating the stated contract: (id, score) of
    every hit, best first, and multi-select facet counts, where a field's
    counts ignore that field's own filter."""
    tokens = tokenize(q)
    facets = {k: v for k, v in (facets or {}).items() if v}

    def fields(d):
        return {
            "title": tokenize(" ".join(d.title.values())),
            "keywords": tokenize(" ".join(d.keywords)),
            "description": tokenize(" ".join(d.description.values())),
        }

    def facet_vals(d, fld):
        return {
            "format": d.formats,
            "license": d.licenses,
            "catalogue": [d.catalogueId] if d.catalogueId else [],
            "publisher": [d.publisherName] if d.publisherName else [],
        }[fld]

    matching = []
    results = []
    for d in docs:
        fl = fields(d)
        all_tokens = set(fl["title"]) | set(fl["keywords"]) | set(fl["description"])
        if tokens and not all(t in all_tokens for t in tokens):
            continue
        matching.append(d)
        if any(v not in facet_vals(d, f) for f, v in facets.items()):
            continue
        score = sum(
            FIELD_WEIGHTS[fld] * fl[fld].count(tok) for tok in tokens for fld in FIELD_WEIGHTS
        )
        results.append((d.id, score))
    results.sort(key=lambda pair: (-pair[1], pair[0]))

    counts = {}
    for fld in FACET_FIELDS:
        others = {f: v for f, v in facets.items() if f != fld}
        c = Counter()
        for d in matching:
            if all(v in facet_vals(d, f) for f, v in others.items()):
                c.update(set(facet_vals(d, fld)))
        counts[fld] = dict(sorted(c.items()))
    return results, counts


def random_doc(rng, doc_id):
    return doc(
        doc_id,
        title_en=" ".join(rng.choices(WORDS, k=rng.randint(1, 4))),
        desc_en=" ".join(rng.choices(WORDS, k=rng.randint(0, 12))),
        keywords=rng.sample(WORDS, k=rng.randint(0, 3)),
        fmt=sorted(set(rng.choices(FACET_CHOICES["format"], k=rng.randint(1, 2)))),
        lic=[rng.choice(FACET_CHOICES["license"])],
        catalogue=rng.choice(FACET_CHOICES["catalogue"]),
        publisher=rng.choice(FACET_CHOICES["publisher"]),
    )


def random_corpus(rng, n=500):
    return [random_doc(rng, f"d{i:04d}") for i in range(n)]


def test_corpus_matches_linear_scan_oracle():
    rng = random.Random(4711)
    idx = SearchIndex()
    live = {}
    for d in random_corpus(rng, 500):
        idx.index(d)
        live[d.id] = d
    # churn: re-index with new content, remove, and index again ids that were removed
    for _ in range(600):
        doc_id = f"d{rng.randrange(560):04d}"
        if rng.random() < 0.3:
            idx.remove(doc_id)
            live.pop(doc_id, None)
        else:
            live[doc_id] = random_doc(rng, doc_id)
            idx.index(live[doc_id])
    docs = list(live.values())
    assert idx.ids() == sorted(live)
    assert len(idx) == len(live)

    def check(q, facets, page=0, page_size=10):
        got = idx.search(q, facets, page=page, page_size=page_size)
        want, want_counts = brute_force_search(docs, q, facets)
        case = f"q={q!r} facets={facets} page={page}"
        assert got["total"] == len(want), case
        window = want[page * page_size : (page + 1) * page_size]
        assert [h["id"] for h in got["hits"]] == [d_id for d_id, _ in window], case
        assert got["facets"] == want_counts, case
        return got["total"]

    for _ in range(60):
        q = " ".join(rng.choices(WORDS, k=rng.randint(1, 2)))
        facets = {f: rng.choice(values) for f, values in FACET_CHOICES.items() if rng.random() < 0.4}
        total = check(q, facets, page=rng.randint(0, 2), page_size=rng.randint(1, 10))
        check(q, facets, page=total // 7 + 1, page_size=7)  # past the end
    for page in range(3):
        check("", {}, page=page, page_size=25)
    for fld, values in FACET_CHOICES.items():
        for value in values + ["no-such-value"]:
            total = check("", {fld: value})
            check("", {fld: value}, page=1, page_size=20)
            check("", {fld: value}, page=total // 10 + 1)
            check("rain", {fld: value})
    for _ in range(20):
        facets = {f: rng.choice(values) for f, values in FACET_CHOICES.items() if rng.random() < 0.6}
        check("", facets, page=rng.randint(0, 3), page_size=rng.randint(1, 30))
    check("", {}, page=0, page_size=1_000_000)


def test_remove_all_leaves_nothing_and_ordinals_are_reused():
    rng = random.Random(11)
    docs = random_corpus(rng, 200)
    idx = SearchIndex()
    for d in docs:
        idx.index(d)
    for d in docs[::3]:
        idx.index(random_doc(rng, d.id))
    for d in docs:
        idx.remove(d.id)
    assert len(idx) == 0 and idx.ids() == []
    assert idx._postings == {}
    assert all(values == {} for values in idx._facets.values())
    assert idx._live == 0
    assert idx.search("")["total"] == 0
    assert idx.search("")["facets"] == {fld: {} for fld in FACET_FIELDS}

    for d in reversed(docs):
        idx.index(d)
    assert sorted(e.ordinal for e in idx._forward.values()) == list(range(200))
    assert len(idx._ids) == 200
    assert idx._live == (1 << 200) - 1
    # churn at a steady size never widens the bitsets
    for i in range(100):
        idx.remove(docs[i].id)
        idx.index(random_doc(rng, f"new{i:03d}"))
    assert len(idx._ids) == 200
    assert idx._live == (1 << 200) - 1


def test_concurrent_writers_and_readers_keep_the_index_consistent():
    """Writers re-index and remove while readers browse; afterwards the
    bitsets, ordinals and forward index agree with the documents held."""
    idx = SearchIndex()
    errors = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def writer(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                doc_id = f"d{rng.randrange(60):02d}"
                if rng.random() < 0.3:
                    idx.remove(doc_id)
                else:
                    idx.index(random_doc(rng, doc_id))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def reader():
        try:
            for _ in range(200):
                out = idx.search("", {"format": "CSV"}, page_size=5)
                assert len(out["hits"]) <= 5
                idx.ids()
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    live = idx.ids()
    assert idx._live.bit_count() == len(idx) == len(live)
    assert sorted(idx._forward) == live
    assert {idx._ids[e.ordinal] for e in idx._forward.values()} == set(live)
    oracle, counts = brute_force_search([idx.get(d) for d in live], "", {})
    assert idx.search("", page_size=100)["facets"] == counts
    assert [h["id"] for h in idx.search("", page_size=100)["hits"]] == [d for d, _ in oracle]


def _reindex_seconds(n_docs):
    """Min-of-5 time to index 200 documents again into an index of n_docs
    documents, each with a token of its own, so the vocabulary is ~n_docs."""
    idx = SearchIndex()
    docs = [
        doc(f"d{i:05d}", title_en=f"rain t{i}", desc_en=f"berlin u{i}", fmt=["CSV"], catalogue=f"c{i % 10}")
        for i in range(n_docs)
    ]
    for d in docs:
        idx.index(d)
    sample = docs[:: n_docs // 200]
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for d in sample:
            idx.index(d)
        best = min(best, time.perf_counter() - t0)
    return best


def test_index_cost_does_not_grow_with_vocabulary():
    assert _reindex_seconds(20_000) / _reindex_seconds(1_000) < 3


def test_search_rejects_bad_paging():
    idx = SearchIndex()
    for i in range(12):
        idx.index(doc(f"d{i:02d}", title_en="rain"))
    router = build_search_router(idx)
    for query in ({"page": "-1"}, {"pageSize": "0"}, {"pageSize": "-5"}, {"page": "1.5"}):
        resp = router.dispatch("GET", "/search", query, {}, b"")
        assert resp.status == 400, query
    with pytest.raises(ValueError):
        idx.search("rain", page_size=0)
    # pageSize is not capped
    everything = json.loads(router.dispatch("GET", "/search", {"pageSize": "1000000"}, {}, b"").body)
    assert [h["id"] for h in everything["hits"]] == [f"d{i:02d}" for i in range(12)]
    query = {"q": "rain", "page": "2", "pageSize": "5"}
    last = json.loads(router.dispatch("GET", "/search", query, {}, b"").body)
    assert [h["id"] for h in last["hits"]] == ["d10", "d11"]


def test_ranking_deterministic_and_pagination_disjoint():
    rng = random.Random(7)
    docs = random_corpus(rng, 60)
    idx1, idx2 = SearchIndex(), SearchIndex()
    for d in docs:
        idx1.index(d)
    for d in reversed(docs):
        idx2.index(d)
    all_ids = []
    for page in range(4):
        out1 = idx1.search("rain", page=page, page_size=5)
        out2 = idx2.search("rain", page=page, page_size=5)
        assert [h["id"] for h in out1["hits"]] == [h["id"] for h in out2["hits"]]
        all_ids.extend(h["id"] for h in out1["hits"])
    assert len(all_ids) == len(set(all_ids))
    match_all = {h["id"] for h in idx1.search("", page_size=1000)["hits"]}
    assert set(all_ids) <= match_all
