import json

import pytest

from odcat import ns
from odcat.harvester import (
    FetchError,
    IdentifierList,
    InconsistentCountError,
    MappingError,
    MappingRuleSet,
    MockPortal,
    PathError,
    RunEnvelope,
    SourceRecord,
    default_mapping_rules,
    import_paged_json,
    import_rdf_dump,
    parse_envelope,
    records_to_dump_turtle,
    resolve_path,
    synthetic_records,
    transform,
)
from odcat.pipeline import Payload
from odcat.rdf import BlankNode, IRI, Literal, canonical_ntriples, parse_turtle

BASE = "http://odcat.test"


# -- path resolution ---------------------------------------------------------


def test_resolve_paths():
    obj = {"a": {"b": [{"c": 1}, {"c": 2}]}, "tags": ["x", "y"]}
    assert resolve_path(obj, "a.b[0].c") == [1]
    assert resolve_path(obj, "a.b[*].c") == [1, 2]
    assert resolve_path(obj, "tags[*]") == ["x", "y"]
    assert resolve_path(obj, "missing.path") == []
    with pytest.raises(PathError):
        resolve_path(obj, "a..b")
    with pytest.raises(PathError):
        resolve_path(obj, "a[x]")


# -- run envelope ----------------------------------------------------------


def test_run_envelope_round_trip():
    run = RunEnvelope(
        IdentifierList("cat1", "run-1", ["a", "b"]),
        [SourceRecord("a", "cat1", "{}", "application/json", "2024-01-01T00:00:00Z")],
        [{"sourceId": "b", "message": "required path 'title' is absent"}],
    )
    assert parse_envelope(run.to_payload()) == run


@pytest.mark.parametrize(
    "payload, message",
    [
        (Payload("text", "application/json", dataRef="http://x/run"), "inline"),
        (None, "no payload"),
        (Payload.json_data({"kind": "record", "record": {}}), "not a harvest envelope"),
        (Payload.json_data({"kind": "harvest", "records": []}), "malformed"),
    ],
)
def test_parse_envelope_refuses(payload, message):
    with pytest.raises(ValueError, match=message):
        parse_envelope(payload)


# -- transform ------------------------------------------------------------


def record_of(obj, source_id="rec 1"):
    return SourceRecord(source_id, "cat1", json.dumps(obj), "application/json")


def test_transform_title_rule():
    rules = MappingRuleSet.from_json(
        {"rules": [{"sourcePath": "title", "targetPredicate": ns.DCT_TITLE, "termKind": "langLiteral", "lang": "en"}]}
    )
    triples = transform(record_of({"title": "Rain"}), rules, BASE)
    assert (
        IRI(f"{BASE}/datasets/rec-1"),
        IRI(ns.DCT_TITLE),
        Literal("Rain", lang="en"),
    ) in triples


def test_transform_value_map_to_iri():
    rules = MappingRuleSet.from_json(
        {
            "rules": [
                {
                    "sourcePath": "format",
                    "targetPredicate": ns.DCT_FORMAT,
                    "termKind": "iri",
                    "valueMap": {"csv": "http://publications.europa.eu/resource/authority/file-type/CSV"},
                }
            ]
        }
    )
    triples = transform(record_of({"format": "csv"}), rules, BASE)
    objects = [o for s, p, o in triples if p.value == ns.DCT_FORMAT]
    assert objects == [IRI("http://publications.europa.eu/resource/authority/file-type/CSV")]


def test_transform_required_path_missing():
    rules = MappingRuleSet.from_json(
        {"rules": [{"sourcePath": "title", "targetPredicate": ns.DCT_TITLE, "termKind": "literal", "required": True}]}
    )
    with pytest.raises(MappingError):
        transform(record_of({"name": "no title"}), rules, BASE)


def test_transform_full_fixture_matches_handwritten_expectation():
    record = record_of(
        {
            "id": "rec 1",
            "title": "Rain Berlin",
            "description": "Daily rain.",
            "keywords": ["rain", "berlin"],
            "theme": "http://publications.europa.eu/resource/authority/data-theme/ENVI",
            "spatial": "http://sws.geonames.org/1/",
            "issued": "2024-01-01T00:00:00Z",
            "publisher": "Berlin ODO",
            "license": "http://publications.europa.eu/resource/authority/licence/CC0",
            "resources": [{"format": "csv", "url": "http://files.portal.test/x.csv"}],
        }
    )
    rules = MappingRuleSet.from_json(default_mapping_rules())
    got = transform(record, rules, BASE)
    expected = parse_turtle(
        f"""
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        @prefix dct: <http://purl.org/dc/terms/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        <{BASE}/datasets/rec-1> a dcat:Dataset ;
            dct:identifier "rec 1" ;
            dct:title "Rain Berlin"@en ;
            dct:description "Daily rain."@en ;
            dcat:keyword "rain"@en, "berlin"@en ;
            dcat:theme <http://publications.europa.eu/resource/authority/data-theme/ENVI> ;
            dct:spatial <http://sws.geonames.org/1/> ;
            dct:issued "2024-01-01T00:00:00Z"^^xsd:dateTime ;
            dct:publisher "Berlin ODO" ;
            dct:license <http://publications.europa.eu/resource/authority/licence/CC0> ;
            dcat:distribution _:d0 .
        _:d0 a dcat:Distribution ;
            dct:format <http://publications.europa.eu/resource/authority/file-type/CSV> ;
            dcat:accessURL <http://files.portal.test/x.csv> .
        """
    )
    assert canonical_ntriples(got) == canonical_ntriples(expected)


def test_transform_deterministic():
    record = record_of(synthetic_records(1)[0])
    rules = MappingRuleSet.from_json(default_mapping_rules())
    a = canonical_ntriples(transform(record, rules, BASE))
    b = canonical_ntriples(transform(record, rules, BASE))
    assert a == b


def test_transform_rdf_passthrough():
    turtle = '<http://x/d> a <http://www.w3.org/ns/dcat#Dataset> .'
    record = SourceRecord("d", "cat1", turtle, "text/turtle")
    rules = MappingRuleSet.from_json({"rules": []})
    assert transform(record, rules, BASE) == parse_turtle(turtle)


# -- rdf dump importer -------------------------------------------------------


def cbd_oracle(graph, subject):
    """Independent reachability oracle: BFS through blanks + distributions."""
    reached = {subject}
    frontier = [subject]
    triples = set()
    while frontier:
        node = frontier.pop()
        for s, p, o in graph:
            if s == node:
                triples.add((s, p, o))
                follow = isinstance(o, BlankNode) or p.value == ns.DCAT_DISTRIBUTION
                if follow and not isinstance(o, Literal) and o not in reached:
                    reached.add(o)
                    frontier.append(o)
    return triples


@pytest.fixture
def dump_portal():
    records = synthetic_records(3)
    portal = MockPortal(records=records, dump_turtle=records_to_dump_turtle(records)).start()
    yield portal
    portal.stop()


def test_rdf_dump_three_datasets(dump_portal):
    records, ids, warnings = import_rdf_dump(dump_portal.dump_url, "cat1")
    assert len(records) == 3
    assert ids == ["set-00000", "set-00001", "set-00002"]
    assert warnings == 0
    assert all(r.contentType == "application/n-triples" for r in records)


def test_rdf_dump_record_contains_bounded_description(dump_portal):
    records, ids, _ = import_rdf_dump(dump_portal.dump_url, "cat1")
    full = parse_turtle(dump_portal.dump_turtle, base_iri="http://portal.test/")
    for record in records:
        subject = IRI(f"http://portal.test/datasets/{record.sourceId}")
        got = parse_turtle(record.content)
        want = cbd_oracle(full, subject)
        assert canonical_ntriples(got) == canonical_ntriples(list(want)), record.sourceId
        # distributions reachable through blank nodes are present
        assert any(p.value == ns.DCAT_ACCESS_URL for s, p, o in got)


def test_empty_dump_emits_empty_identifier_list():
    portal = MockPortal(records=[], dump_turtle="").start()
    try:
        records, ids, _ = import_rdf_dump(portal.dump_url, "cat1")
        assert records == [] and ids == []
    finally:
        portal.stop()


def test_dump_identifier_falls_back_to_iri():
    turtle = "<http://x/no-ident> a <http://www.w3.org/ns/dcat#Dataset> ."
    portal = MockPortal(records=[], dump_turtle=turtle).start()
    try:
        records, ids, _ = import_rdf_dump(portal.dump_url, "cat1")
        assert ids == ["http://x/no-ident"]
    finally:
        portal.stop()


def test_fetch_error_on_500():
    portal = MockPortal(records=[]).start()
    portal.fail_after(0)
    try:
        with pytest.raises(FetchError):
            import_rdf_dump(portal.dump_url, "cat1")
    finally:
        portal.stop()


# -- paged json importer --------------------------------------------------------


def test_paged_json_pagination_counts():
    records_in = [{"id": f"r{i}", "title": f"t{i}"} for i in range(5)]
    portal = MockPortal(records=records_in).start()
    try:
        before = portal.requests_served
        records, ids, warnings = import_paged_json(portal.api_url, "cat1", page_size=2)
        assert portal.requests_served - before == 3  # pages of 2, 2, 1
        assert len(records) == 5
        assert ids == [f"r{i}" for i in range(5)]
        assert warnings == 0
    finally:
        portal.stop()


def test_paged_json_missing_id_skipped():
    portal = MockPortal(records=[{"id": "a"}, {"title": "no id"}, {"id": "b"}]).start()
    try:
        records, ids, warnings = import_paged_json(portal.api_url, "cat1", page_size=10)
        assert ids == ["a", "b"]
        assert warnings == 1
    finally:
        portal.stop()


def test_duplicate_source_ids_kept_once():
    portal = MockPortal(records=[{"id": "a", "v": 1}, {"id": "a", "v": 2}, {"id": "b"}]).start()
    try:
        records, ids, warnings = import_paged_json(portal.api_url, "cat1", page_size=10)
        assert ids == ["a", "b"]
        assert warnings == 1
        assert json.loads(records[0].content)["v"] == 1
    finally:
        portal.stop()


def test_paged_json_hundred_records_ground_truth():
    truth = synthetic_records(100)
    portal = MockPortal(records=truth).start()
    try:
        records, ids, _ = import_paged_json(portal.api_url, "cat1", page_size=17)
        assert set(ids) == {r["id"] for r in truth}
        assert len(records) == 100
    finally:
        portal.stop()


def test_inconsistent_count_refetches_once_then_fails():
    truth = synthetic_records(6)
    portal = MockPortal(records=truth).start()
    original_page = portal._page
    calls = {"n": 0}

    def shrinking_page(req):
        calls["n"] += 1
        if calls["n"] % 2 == 0:  # change the total between pages, every time
            portal.set_records(truth[: 6 - calls["n"] // 2])
        return original_page(req)

    portal.router._routes = []
    portal.router.route("GET", "/api/datasets", shrinking_page)
    try:
        with pytest.raises(InconsistentCountError):
            import_paged_json(portal.api_url, "cat1", page_size=2)
        assert calls["n"] > 2  # a full retry happened before giving up
    finally:
        portal.stop()
