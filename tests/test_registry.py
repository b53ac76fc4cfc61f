import hashlib
import json
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcat import ns
from odcat.harvester import RegistryClient, RegistryError
from odcat.httpkit import HttpService
from odcat.rdf import (
    IRI,
    Literal,
    QuadStore,
    canonical_ntriples,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
)
from odcat.registry import (
    EmptyIdError,
    Event,
    MultipleDatasetNodesError,
    NoDatasetNodeError,
    NotFoundError,
    Registry,
    UnknownCatalogueError,
    build_registry_router,
    negotiate,
    normalize_id,
)
from odcat.registry.ids import slugify
from odcat.search import SearchService
from odcat.translation import EchoProvider, translate_dataset

import requests

BASE = "http://odcat.test"
TOKEN = "secret"


@pytest.fixture
def registry():
    reg = Registry(QuadStore(), BASE)
    reg.put_catalogue("cat1")
    return reg


def dataset_turtle(title="Rain", extra=""):
    return f"""
    @prefix dcat: <http://www.w3.org/ns/dcat#> .
    @prefix dct: <http://purl.org/dc/terms/> .
    <http://source.example/d1> a dcat:Dataset ;
        dct:title "{title}"@en .
    {extra}
    """


# -- normalize_id -----------------------------------------------------------


def test_normalize_examples():
    assert normalize_id("Água Livre 2024!", "cat1") == "gua-livre-2024"
    assert normalize_id("abc", "cat1") == normalize_id("abc", "cat1")
    assert normalize_id("Data--Set", "c") == "data-set"


def test_normalize_empty_rejected():
    with pytest.raises(EmptyIdError):
        normalize_id("", "cat1")


def test_normalize_collision_hash_suffix():
    taken = {"data-set": ("cat1", "Data Set")}
    got = normalize_id("Data~Set", "cat1", taken)
    expected_hash = hashlib.sha256(b"cat1\nData~Set").hexdigest()[:8]
    assert got == f"data-set-{expected_hash}"
    # stable across calls
    assert normalize_id("Data~Set", "cat1", taken) == got
    # same original id keeps the plain slug
    assert normalize_id("Data Set", "cat1", taken) == "data-set"


def test_normalize_all_symbols_falls_back_to_hash():
    got = normalize_id("!!!", "cat1")
    assert got == hashlib.sha256(b"cat1\n!!!").hexdigest()[:8]


def _slug_reference(original_id: str) -> str:
    """The per-character definition `slugify` must match."""
    kept = "".join(c if c.isascii() and (c.isalnum() or c == "-") else "-" for c in original_id.lower())
    return re.sub("-+", "-", kept).strip("-")


@pytest.mark.parametrize(
    "original, slug",
    [
        ("\u212a-Temp", "k-temp"),  # the Kelvin sign lowercases to an ASCII 'k'
        ("\u0130stanbul", "i-stanbul"),  # 'İ' lowercases to 'i' and a combining dot
        ("Data---Set", "data-set"),
        ("a - _ . b", "a-b"),
        ("--Lead and trail!--", "lead-and-trail"),
        ("__x__", "x"),
        ("Über_Straße 2024", "ber-stra-e-2024"),
        ("ABC123xyz", "abc123xyz"),
        ("!!!", ""),
        ("---", ""),
        ("日本", ""),
    ],
)
def test_slugify_table(original, slug):
    assert slugify(original) == slug == _slug_reference(original)
    if not slug:
        assert normalize_id(original, "cat1") == hashlib.sha256(f"cat1\n{original}".encode()).hexdigest()[:8]


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_slugify_matches_the_per_character_definition(original):
    assert slugify(original) == _slug_reference(original)


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=1, max_size=40), st.sampled_from(["cat1", "cat2"]))
def test_normalize_charset_and_determinism(original, catalogue):
    got = normalize_id(original, catalogue)
    assert re.fullmatch(r"[a-z0-9][a-z0-9-]*", got), got
    assert "--" not in got and not got.endswith("-")
    assert got == normalize_id(original, catalogue)


# -- put/get/delete -----------------------------------------------------------


def test_put_created_then_updated_idempotent(registry):
    triples = parse_turtle(dataset_turtle())
    result1, ds_id = registry.put_dataset("cat1", "d1", triples)
    state1 = canonical_ntriples([q.triple for q in registry.store.match()])
    result2, ds_id2 = registry.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    state2 = canonical_ntriples([q.triple for q in registry.store.match()])
    assert (result1, result2) == ("created", "updated")
    assert ds_id == ds_id2 == "d1"
    assert state1 == state2


def test_put_requires_single_dataset_node(registry):
    two = dataset_turtle() + '\n<http://source.example/d2> a <http://www.w3.org/ns/dcat#Dataset> .'
    with pytest.raises(MultipleDatasetNodesError):
        registry.put_dataset("cat1", "d1", parse_turtle(two))
    with pytest.raises(NoDatasetNodeError):
        registry.put_dataset("cat1", "d1", parse_turtle("<http://x/a> <http://x/p> \"v\" ."))


def test_put_unknown_catalogue(registry):
    with pytest.raises(UnknownCatalogueError):
        registry.put_dataset("nope", "d1", parse_turtle(dataset_turtle()))


def test_subject_rewritten_and_identifier_added(registry):
    _, ds_id = registry.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    graph = registry.dataset_graph(ds_id)
    ds_iri = IRI(f"{BASE}/datasets/d1")
    assert all(s == ds_iri for s, p, o in graph)
    idents = [o for s, p, o in graph if p.value == ns.DCT_IDENTIFIER]
    assert idents == [Literal("d1")]


def test_existing_identifier_replaced(registry):
    extra = '<http://source.example/d1> <http://purl.org/dc/terms/identifier> "upstream-id" .'
    _, ds_id = registry.put_dataset("cat1", "d1", parse_turtle(dataset_turtle(extra=extra)))
    idents = [o.lexical for s, p, o in registry.dataset_graph(ds_id) if p.value == ns.DCT_IDENTIFIER]
    assert idents == ["d1"]


def test_blank_distributions_rewritten_in_document_order(registry):
    text = """
    @prefix dcat: <http://www.w3.org/ns/dcat#> .
    @prefix dct: <http://purl.org/dc/terms/> .
    <http://source.example/d1> a dcat:Dataset ;
        dct:title "t"@en ;
        dcat:distribution _:first, _:second .
    _:first dcat:accessURL <http://files.example/a.csv> .
    _:second dcat:accessURL <http://files.example/b.csv> .
    """
    _, ds_id = registry.put_dataset("cat1", "d1", parse_turtle(text))
    graph = registry.dataset_graph(ds_id)
    ds = f"{BASE}/datasets/d1"
    by_dist = {
        s.value: o.value
        for s, p, o in graph
        if p.value == ns.DCAT_ACCESS_URL
    }
    assert by_dist == {
        ds + "#dist-0": "http://files.example/a.csv",
        ds + "#dist-1": "http://files.example/b.csv",
    }
    # distribution typing added for downstream shape checks
    types = {s.value for s, p, o in graph if p.value == ns.RDF_TYPE and o.value == ns.DCAT_DISTRIBUTION_CLASS}
    assert types == {ds + "#dist-0", ds + "#dist-1"}


def test_delete_removes_graphs_links_and_metrics(registry):
    _, ds_id = registry.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    registry.put_metrics(ds_id, [(IRI(f"{BASE}/metrics/d1"), IRI(ns.DQV_VALUE), Literal("1"))])
    registry.delete_dataset(ds_id)
    with pytest.raises(NotFoundError):
        registry.dataset_graph(ds_id)
    assert registry.metrics_graph(ds_id) == []
    cat_graph = registry.catalogue_graph("cat1")
    assert not [t for t in cat_graph if t[1].value == ns.DCAT_DATASET_LINK]


def test_referential_integrity_after_mutations(registry):
    for i in range(4):
        registry.put_dataset("cat1", f"ds {i}", parse_turtle(dataset_turtle(title=f"t{i}")))
    registry.delete_dataset("ds-2")
    links = [
        o.value
        for s, p, o in registry.catalogue_graph("cat1")
        if p.value == ns.DCAT_DATASET_LINK
    ]
    for target in links:
        ds_id = registry.scheme.dataset_id_of(target)
        assert registry.has_dataset(ds_id)
        assert registry.store.has_graph(target)
    assert len(links) == 3


def test_pagination_stable(registry):
    for i in range(5):
        registry.put_dataset("cat1", f"d{i}", parse_turtle(dataset_turtle(title=f"t{i}")))
    sizes = []
    rows_seen = []
    for page in range(3):
        total, rows = registry.list_datasets("cat1", page, 2)
        sizes.append(len(rows))
        rows_seen.extend(r["id"] for r in rows)
        assert total == 5
    assert sizes == [2, 2, 1]
    assert rows_seen == sorted(rows_seen)


def test_catalogue_reput_preserves_membership(registry):
    registry.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    catalogue_meta = """
    @prefix dcat: <http://www.w3.org/ns/dcat#> .
    @prefix dct: <http://purl.org/dc/terms/> .
    <http://source.example/cat> a dcat:Catalog ; dct:title "City portal"@en .
    """
    registry.put_catalogue("cat1", parse_turtle(catalogue_meta))
    graph = registry.catalogue_graph("cat1")
    links = [o.value for s, p, o in graph if p.value == ns.DCAT_DATASET_LINK]
    titles = [o.lexical for s, p, o in graph if p.value == ns.DCT_TITLE]
    assert links == [f"{BASE}/datasets/d1"]
    assert titles == ["City portal"]
    # catalogue node rewritten to the scheme IRI
    assert all(s.value == f"{BASE}/catalogues/cat1" for s, p, o in graph)


def test_list_unknown_catalogue(registry):
    with pytest.raises(UnknownCatalogueError):
        registry.list_datasets("ghost", 0, 10)


def test_rebuild_from_store(tmp_path):
    store = QuadStore(tmp_path)
    reg = Registry(store, BASE)
    reg.put_catalogue("cat1")
    reg.put_dataset("cat1", "Orig Id", parse_turtle(dataset_turtle()))
    store.close()

    store2 = QuadStore(tmp_path)
    reg2 = Registry(store2, BASE)
    assert reg2.dataset_ids("cat1") == ["orig-id"]
    assert reg2.dataset_info("orig-id") == ("cat1", "Orig Id")


@pytest.mark.parametrize("compacted", [False, True], ids=["wal", "snapshot"])
def test_rebuild_restores_every_dataset_and_catalogue(tmp_path, compacted):
    store = QuadStore(tmp_path)
    reg = Registry(store, BASE)
    for c in range(4):
        reg.put_catalogue(f"cat{c}")
        for d in range(6):
            reg.put_dataset(f"cat{c}", f"Set {d}" if d < 2 else f"cat{c} set {d}", parse_turtle(dataset_turtle(f"T{c}.{d}")))
    for ds_id in reg.dataset_ids()[::5]:
        reg.delete_dataset(ds_id)
    reg.put_catalogue("empty-a")
    reg.put_catalogue("empty-b")
    # a stray link from a later catalogue does not take a dataset away from the first
    owned = reg.dataset_ids("cat1")[0]
    stray = reg.scheme.catalogue("cat3")
    store.add(stray, (IRI(stray), IRI(ns.DCAT_DATASET_LINK), IRI(reg.scheme.dataset(owned))))
    before = (
        {ds_id: reg.dataset_info(ds_id) for ds_id in reg.dataset_ids()},
        {cid: reg.dataset_ids(cid) for cid in reg.catalogue_ids()},
        reg.catalogue_ids(),
    )
    if compacted:
        store.close()
    else:
        del store

    store2 = QuadStore(tmp_path)
    reg2 = Registry(store2, BASE)
    after = (
        {ds_id: reg2.dataset_info(ds_id) for ds_id in reg2.dataset_ids()},
        {cid: reg2.dataset_ids(cid) for cid in reg2.catalogue_ids()},
        reg2.catalogue_ids(),
    )
    store2.close()
    assert after == before
    assert len(before[0]) == 19 and before[1]["empty-a"] == [] and len(before[2]) == 6


# -- change-aware writes ----------------------------------------------------------


def wal_size(store_dir):
    return (store_dir / "wal.nq").stat().st_size


def recorded_events(reg):
    events = []
    reg.events.subscribe(events.append)
    return events


def machine_and_status(graph):
    return sorted(
        (p.value, o.lexical, o.lang)
        for s, p, o in graph
        if p.value in (ns.ODN_TRANSLATION_STARTED, ns.ODN_TRANSLATION_COMPLETED)
        or (isinstance(o, Literal) and "-t-" in (o.lang or ""))
    )


def test_identical_reput_writes_nothing_and_leaves_the_index_alone(tmp_path):
    reg = Registry(QuadStore(tmp_path), BASE)
    reg.put_catalogue("cat1")
    search = SearchService(reg)
    indexed = []
    index = search.index.index
    search.index.index = lambda doc: (indexed.append(doc.id), index(doc))
    events = recorded_events(reg)
    assert reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle())) == ("created", "d1")
    size, graph, hits = wal_size(tmp_path), set(reg.dataset_graph("d1")), search.index.search("rain", {}, 0, 10)
    del indexed[:], events[:]

    assert reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle())) == ("updated", "d1")
    assert wal_size(tmp_path) == size
    assert events == [Event("unchanged", "d1", "cat1")]
    assert indexed == []
    assert set(reg.dataset_graph("d1")) == graph
    assert search.index.search("rain", {}, 0, 10) == hits

    reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle("Snow")))
    reg.delete_dataset("d1")
    assert reg.results == {"created": 1, "unchanged": 1, "updated": 1, "deleted": 1}


def test_reput_after_translation_keeps_machine_literals_and_status(tmp_path):
    reg = Registry(QuadStore(tmp_path), BASE)
    reg.put_catalogue("cat1")
    reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    assert translate_dataset(reg, "d1", ["de", "fr"], EchoProvider())["added"] == 2
    enriched = reg.dataset_graph("d1")
    kept = machine_and_status(enriched)
    assert [lang for _, _, lang in kept] == [None, None, "de-t-en-t0-echo", "fr-t-en-t0-echo"]
    events, size = recorded_events(reg), wal_size(tmp_path)

    for _ in range(2):
        assert reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle())) == ("updated", "d1")
    assert wal_size(tmp_path) == size
    assert [e.kind for e in events] == ["unchanged", "unchanged"]
    assert set(reg.dataset_graph("d1")) == set(enriched)
    assert machine_and_status(reg.dataset_graph("d1")) == kept


def test_a_source_that_drops_its_own_machine_literal_is_written(registry):
    supplied = '<http://source.example/d1> <http://purl.org/dc/terms/title> "Pluie"@fr-t-en-t0-src .'
    registry.put_dataset("cat1", "d1", parse_turtle(dataset_turtle(extra=supplied)))
    events = recorded_events(registry)
    # the stored graph minus its enrichment equals this put, but the enrichment came with the last put
    assert registry.put_dataset("cat1", "d1", parse_turtle(dataset_turtle())) == ("updated", "d1")
    assert events == [Event("updated", "d1", "cat1")]
    assert machine_and_status(registry.dataset_graph("d1")) == []


def test_after_a_reopen_an_identical_put_of_an_enriched_dataset_writes_once(tmp_path):
    store = QuadStore(tmp_path)
    reg = Registry(store, BASE)
    reg.put_catalogue("cat1")
    reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    reg.put_dataset("cat1", "plain", parse_turtle(dataset_turtle("Plain")))
    translate_dataset(reg, "d1", ["fr"], EchoProvider())
    store.close()

    reg = Registry(QuadStore(tmp_path), BASE)
    events, size = recorded_events(reg), wal_size(tmp_path)
    # unknown after a restart whether the enrichment came with the source: write
    reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    assert wal_size(tmp_path) > size
    assert machine_and_status(reg.dataset_graph("d1")) == []
    size = wal_size(tmp_path)
    reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    # an unenriched stored graph is compared exactly, restart or not
    reg.put_dataset("cat1", "plain", parse_turtle(dataset_turtle("Plain")))
    assert wal_size(tmp_path) == size
    assert [e.kind for e in events] == ["updated", "unchanged", "unchanged"]


def test_moving_a_dataset_to_another_catalogue_is_a_write(tmp_path):
    reg = Registry(QuadStore(tmp_path), BASE)
    reg.put_catalogue("cat1")
    reg.put_catalogue("cat2")
    reg.put_dataset("cat1", "d1", parse_turtle(dataset_turtle()))
    events, size = recorded_events(reg), wal_size(tmp_path)
    result, moved = reg.put_dataset("cat2", "d1", parse_turtle(dataset_turtle()))
    assert result == "created" and moved != "d1"
    assert events == [Event("created", moved, "cat2")]
    assert wal_size(tmp_path) > size
    assert reg.dataset_ids("cat2") == [moved] and reg.dataset_info(moved) == ("cat2", "d1")


def test_a_torn_put_dataset_keeps_the_dataset_and_its_link_together(tmp_path):
    live = tmp_path / "live"
    reg = Registry(QuadStore(live), BASE)
    reg.put_catalogue("c")
    reg.put_dataset("c", "d0", parse_turtle(dataset_turtle()))
    last = wal_size(live)
    reg.put_dataset("c", "d1", parse_turtle(dataset_turtle("Snow")))
    data = (live / "wal.nq").read_bytes()
    mutation = data[last:].decode("utf-8").split("\n")[:-1]
    assert mutation[0] == f"B {len(mutation) - 1}"  # graph and link in one mutation
    assert "/catalogues/c>" in mutation[-1]

    def reopened_cuts(start):
        """(cut, registry reopened from the WAL cut there, its listing of "c") for every cut from `start`."""
        data = (live / "wal.nq").read_bytes()
        for cut in range(start, len(data) + 1):
            directory = tmp_path / f"cut-{start}-{cut}"
            directory.mkdir()
            (directory / "wal.nq").write_bytes(data[:cut])
            reopened = Registry(QuadStore(directory), BASE)
            assert all(reopened.dataset_info(ds_id)[0] == "c" for ds_id in reopened.dataset_ids()), cut
            yield cut, reopened, reopened.dataset_ids("c")
            reopened.store.close()

    present = set()
    for cut, reopened, listed in reopened_cuts(last):
        assert reopened.has_dataset("d1") == ("d1" in listed), cut
        present.add(reopened.has_dataset("d1"))
        assert "d0" in listed, cut
    assert present == {False, True}

    # three datasets in one bulk request: each is its own mutation, so a cut
    # keeps a prefix of the chunk, each dataset with its link
    chunk, last = ["d2", "d3", "d4"], wal_size(live)
    items = [{"originalId": o, "contentType": "text/turtle", "content": dataset_turtle(o)} for o in chunk]
    svc = HttpService(build_registry_router(reg, token=TOKEN)).start()
    try:
        resp = requests.post(f"{svc.url}/catalogues/c/datasets", json={"datasets": items}, headers=auth(), timeout=10)
    finally:
        svc.stop()
    assert [r["result"] for r in resp.json()["results"]] == ["created"] * 3
    kept = set()
    for cut, reopened, listed in reopened_cuts(last):
        stored = [o for o in chunk if reopened.has_dataset(o)]
        assert stored == chunk[: len(stored)], cut
        assert all(o in listed for o in stored) and {"d0", "d1"} <= set(listed), cut
        kept.add(len(stored))
    assert kept == {0, 1, 2, 3}


def test_concurrent_puts_and_translations_keep_counts_and_enrichment_current(registry):
    ids, versions, rounds = ["d0", "d1", "d2"], ["Rain", "Snow"], 60
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def harvester(k):
            for i in range(rounds):
                registry.put_dataset("cat1", ids[i % 3], parse_turtle(dataset_turtle(versions[(i + k) % 2])))

        def translator():
            for i in range(rounds):
                if registry.has_dataset(ids[i % 3]):
                    translate_dataset(registry, ids[i % 3], ["fr"], EchoProvider())

        threads = [threading.Thread(target=harvester, args=(k,)) for k in range(6)]
        threads += [threading.Thread(target=translator) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sum(registry.results.values()) == 6 * rounds
    for ds_id in ids:
        graph = registry.dataset_graph(ds_id)
        [title] = [o.lexical for s, p, o in graph if p.value == ns.DCT_TITLE and o.lang == "en"]
        machine = [o.lexical for s, p, o in graph if isinstance(o, Literal) and o.lang == "fr-t-en-t0-echo"]
        assert machine in ([], [f"[en→fr] {title}"]), ds_id
        # whatever is stored, the same harvest again is recognised as unchanged
        unchanged = registry.results["unchanged"]
        registry.put_dataset("cat1", ds_id, parse_turtle(dataset_turtle(title)))
        assert registry.results["unchanged"] == unchanged + 1


# -- content negotiation -------------------------------------------------------


def test_negotiate_cases():
    assert negotiate(None) == "text/turtle"
    assert negotiate("*/*") == "text/turtle"
    assert negotiate("application/n-triples") == "application/n-triples"
    assert negotiate("text/turtle;q=0.5, application/n-triples") == "application/n-triples"
    assert negotiate("application/json") is None
    assert negotiate("text/*") == "text/turtle"


@pytest.fixture
def http_registry():
    reg = Registry(QuadStore(), BASE)
    reg.put_catalogue("cat1")
    svc = HttpService(build_registry_router(reg, token=TOKEN)).start()
    yield reg, svc.url
    svc.stop()


def auth():
    return {"Authorization": f"Bearer {TOKEN}"}


def test_http_put_get_roundtrip(http_registry):
    reg, url = http_registry
    resp = requests.put(
        f"{url}/datasets/d1?catalogue=cat1",
        data=dataset_turtle(),
        headers={**auth(), "Content-Type": "text/turtle"},
        timeout=10,
    )
    assert resp.status_code == 201, resp.text
    assert resp.json() == {"id": "d1", "result": "created"}

    turtle = requests.get(f"{url}/datasets/d1", headers={"Accept": "*/*"}, timeout=10)
    assert turtle.status_code == 200
    assert turtle.headers["Content-Type"].startswith("text/turtle")

    nt = requests.get(f"{url}/datasets/d1", headers={"Accept": "application/n-triples"}, timeout=10)
    assert nt.status_code == 200
    assert nt.headers["Content-Type"].startswith("application/n-triples")

    g1 = parse_turtle(turtle.text, base_iri=BASE)
    g2 = parse_ntriples(nt.text)
    assert canonical_ntriples(g1) == canonical_ntriples(g2)
    # N-Triples body is already canonical
    assert nt.text == serialize_ntriples(g2)


def test_http_not_acceptable(http_registry):
    reg, url = http_registry
    requests.put(
        f"{url}/datasets/d1?catalogue=cat1", data=dataset_turtle(), headers=auth(), timeout=10
    )
    resp = requests.get(f"{url}/datasets/d1", headers={"Accept": "application/json"}, timeout=10)
    assert resp.status_code == 406


def test_http_delete_then_404(http_registry):
    reg, url = http_registry
    requests.put(f"{url}/datasets/d1?catalogue=cat1", data=dataset_turtle(), headers=auth(), timeout=10)
    assert requests.delete(f"{url}/datasets/d1", headers=auth(), timeout=10).status_code == 204
    assert requests.get(f"{url}/datasets/d1", timeout=10).status_code == 404


def test_http_writes_need_token(http_registry):
    reg, url = http_registry
    resp = requests.put(f"{url}/datasets/d1?catalogue=cat1", data=dataset_turtle(), timeout=10)
    assert resp.status_code == 401


def test_http_ntriples_body_accepted(http_registry):
    reg, url = http_registry
    body = serialize_ntriples(parse_turtle(dataset_turtle()))
    resp = requests.put(
        f"{url}/datasets/nt1?catalogue=cat1",
        data=body,
        headers={**auth(), "Content-Type": "application/n-triples"},
        timeout=10,
    )
    assert resp.status_code == 201


@pytest.mark.parametrize(
    "query",
    [{"page": "-1"}, {"pageSize": "0"}, {"pageSize": "-5"}, {"page": "x"}],
    ids=["negative-page", "zero-page-size", "negative-page-size", "not-an-integer"],
)
def test_http_listing_rejects_bad_paging(registry, query):
    for i in range(8):
        registry.put_dataset("cat1", f"d{i}", parse_turtle(dataset_turtle(title=f"t{i}")))
    router = build_registry_router(registry)
    resp = router.dispatch("GET", "/catalogues/cat1/datasets", query, {}, b"")
    assert resp.status == 400, resp.body
    ok = router.dispatch("GET", "/catalogues/cat1/datasets", {"page": "1", "pageSize": "5"}, {}, b"")
    assert ok.status == 200
    assert [row["id"] for row in json.loads(ok.body)["datasets"]] == ["d5", "d6", "d7"]


def test_http_put_with_malformed_unicode_escape_is_a_400(registry):
    router = build_registry_router(registry)
    for body in (dataset_turtle(title="\\UFFFFFFFF"), dataset_turtle(title="caf\\u 0E9")):
        resp = router.dispatch(
            "PUT", "/datasets/d1", {"catalogue": "cat1"}, {"content-type": "text/turtle"}, body.encode()
        )
        assert resp.status == 400, resp.body
        assert json.loads(resp.body)["error"] == "ParseError"
    assert registry.dataset_ids() == []


@pytest.mark.parametrize("content_type", ["text/turtle", "application/n-triples"])
def test_http_put_of_a_body_that_is_not_utf8_is_a_400_and_writes_nothing(registry, content_type):
    router = build_registry_router(registry)
    quads = len(registry.store)
    headers = {"content-type": content_type}
    for path, query in (("/datasets/d1", {"catalogue": "cat1"}), ("/catalogues/cat9", {})):
        resp = router.dispatch("PUT", path, query, headers, b"\xff\xfe bad")
        assert resp.status == 400, resp.body
        assert json.loads(resp.body)["error"] == "BadRequest"
        assert "UTF-8" in json.loads(resp.body)["message"]
    assert registry.dataset_ids() == []
    assert not registry.has_catalogue("cat9")
    assert len(registry.store) == quads


def test_http_bulk_write_takes_each_item_alone_and_answers_in_order():
    reg = Registry(QuadStore(), BASE)
    reg.put_catalogue("cat1")
    reg.put_catalogue("cat2")
    search = SearchService(reg)
    svc = HttpService(build_registry_router(reg, token=TOKEN)).start()
    nt = serialize_ntriples(parse_turtle(dataset_turtle("Snow")))
    no_node = '<http://x/a> <http://x/p> "v" .'
    two_nodes = dataset_turtle(extra="<http://source.example/d2> a <http://www.w3.org/ns/dcat#Dataset> .")
    items = [
        ("g1", "text/turtle", dataset_turtle("Rain")),
        ("bad-parse", "text/turtle", dataset_turtle(title="\\UFFFFFFFF")),
        ("g2", "application/n-triples", nt),
        ("no-node", "text/turtle", no_node),
        ("two-nodes", "text/turtle", two_nodes),
        ("", "text/turtle", dataset_turtle("Fog")),
        ("g3", "text/turtle", dataset_turtle("Hail")),
    ]
    body = {"datasets": [{"originalId": o, "contentType": t, "content": c} for o, t, c in items]}
    try:
        resp = requests.post(f"{svc.url}/catalogues/cat1/datasets", json=body, headers=auth(), timeout=10)
        assert resp.status_code == 200, resp.text
        results = resp.json()["results"]
        assert [(r["originalId"], r.get("result") or r["error"], r.get("status")) for r in results] == [
            ("g1", "created", None),
            ("bad-parse", "ParseError", 400),
            ("g2", "created", None),
            ("no-node", "NoDatasetNode", 400),
            ("two-nodes", "MultipleDatasetNodes", 400),
            ("", "EmptyId", 400),
            ("g3", "created", None),
        ]
        assert [r.get("id") for r in results] == ["g1", None, "g2", None, None, None, "g3"]
        assert all(r["message"] for r in results if "error" in r)
        assert reg.dataset_ids("cat1") == ["g1", "g2", "g3"]
        assert [h["id"] for h in search.index.search("", {}, 0, 10)["hits"]] == ["g1", "g2", "g3"]
        assert [h["id"] for h in search.index.search("hail", {}, 0, 10)["hits"]] == ["g3"]

        unknown = requests.post(f"{svc.url}/catalogues/nope/datasets", json=body, headers=auth(), timeout=10)
        assert unknown.status_code == 404 and unknown.json()["error"] == "UnknownCatalogue"
        assert requests.post(f"{svc.url}/catalogues/cat1/datasets", json=body, timeout=10).status_code == 401
        for malformed in ({"datasets": [{"originalId": "g4", "content": "x"}]}, {"ids": []}, [1]):
            resp = requests.post(f"{svc.url}/catalogues/cat1/datasets", json=malformed, headers=auth(), timeout=10)
            assert resp.status_code == 400, malformed
        assert reg.dataset_ids() == ["g1", "g2", "g3"]

        client = RegistryClient(svc.url, TOKEN)
        assert client.put_dataset("cat1", "g3", dataset_turtle("Sleet"), "text/turtle") == "updated"
        with pytest.raises(RegistryError, match="NoDatasetNode|no dcat:Dataset"):
            client.put_dataset("cat1", "g4", no_node, "text/turtle")
        assert reg.dataset_ids() == ["g1", "g2", "g3"]

        # deletions answer per id; an id of another catalogue is absent there
        resp = requests.post(
            f"{svc.url}/catalogues/cat2/deletions", json={"ids": ["g1"]}, headers=auth(), timeout=10
        )
        assert resp.json()["results"] == [{"id": "g1", "result": "absent"}]
        resp = requests.post(
            f"{svc.url}/catalogues/cat1/deletions", json={"ids": ["g1", "nope", "g1"]}, headers=auth(), timeout=10
        )
        assert resp.status_code == 200, resp.text
        assert [r["result"] for r in resp.json()["results"]] == ["deleted", "absent", "absent"]
        assert reg.dataset_ids() == ["g2", "g3"]
        assert requests.post(f"{svc.url}/catalogues/cat1/deletions", json={"ids": ["g2"]}, timeout=10).status_code == 401
        resp = requests.post(f"{svc.url}/catalogues/nope/deletions", json={"ids": ["g2"]}, headers=auth(), timeout=10)
        assert resp.status_code == 404
        resp = requests.post(f"{svc.url}/catalogues/cat1/deletions", json={"ids": "g2"}, headers=auth(), timeout=10)
        assert resp.status_code == 400
        assert reg.dataset_ids() == ["g2", "g3"]
    finally:
        svc.stop()
