import csv
import io
import json

import pytest

from odcat import ns
from odcat.httpkit import HttpService
from odcat.quality import (
    QualityService,
    aggregate_catalogue,
    annotate,
    build_quality_router,
    render,
    report_to_triples,
)
from odcat.quality.scoring import QualityMeasurement, QualityReport
from odcat.quality.service import similarity_text
from odcat.quality.similarity import shingles
from odcat.quality.urlcheck import UrlCheckResult
from odcat.rdf import IRI, Literal, QuadStore, parse_turtle
from odcat.registry import Registry
from odcat.search import SearchIndex
from odcat.translation import EchoProvider, translate_dataset

import requests

BASE = "http://odcat.test"


def make_report(ds_id, f=60.0, a=50.0, i=100.0, r=70.0, overall=70):
    return QualityReport(
        dataset_iri=f"{BASE}/datasets/{ds_id}",
        dataset_id=ds_id,
        catalogue_id="cat1",
        dimensions={
            "findability": f,
            "accessibility": a,
            "interoperability": i,
            "reusability": r,
        },
        overall=overall,
    )


def full_dataset(n=0):
    return f"""
    @prefix dcat: <http://www.w3.org/ns/dcat#> .
    @prefix dct: <http://purl.org/dc/terms/> .
    <http://src/d{n}> a dcat:Dataset ;
        dct:title "Dataset {n} about rainfall measurements"@en ;
        dct:description "Long running rainfall measurement series number {n}."@en ;
        dcat:keyword "rain"@en ;
        dct:publisher <http://src/agency> .
    """


@pytest.fixture
def registry():
    reg = Registry(QuadStore(), BASE)
    reg.put_catalogue("cat1")
    return reg


@pytest.fixture
def quality(registry):
    svc = QualityService(registry, search_index=SearchIndex(), check_urls_enabled=False)
    return svc


def test_report_triples_have_measurement_nodes():
    report = make_report("d1")
    from odcat.quality.scoring import QualityMeasurement

    report.measurements = [
        QualityMeasurement(ns.ODN + name, value, report.dataset_iri, "2024-01-01T00:00:00Z")
        for name, value in [
            ("findabilityScore", 60.0),
            ("accessibilityScore", 50.0),
            ("interoperabilityScore", 100.0),
            ("reusabilityScore", 70.0),
            ("keywordAvailability", True),
        ]
    ]
    triples = report_to_triples(report, f"{BASE}/metrics/d1")
    nodes = {s for s, p, o in triples if p.value == ns.RDF_TYPE and o.value == ns.DQV_QUALITY_MEASUREMENT}
    assert len(nodes) >= 4
    values = {o.lexical for s, p, o in triples if p.value == ns.DQV_VALUE}
    assert "60" in values and "true" in values
    computed = {o.value for s, p, o in triples if p.value == ns.DQV_COMPUTED_ON}
    assert computed == {f"{BASE}/datasets/d1"}


def per_measurement_triples(report, metrics_graph_iri):
    """The DQV triples of a report, every term built anew for each measurement."""
    triples = []
    for i, m in enumerate(report.measurements):
        node = IRI(f"{metrics_graph_iri}#m{i}")
        triples.append((node, IRI(ns.RDF_TYPE), IRI(ns.DQV_QUALITY_MEASUREMENT)))
        triples.append((node, IRI(ns.DQV_IS_MEASUREMENT_OF), IRI(m.metric_id)))
        if isinstance(m.value, bool):
            value = Literal("true" if m.value else "false", ns.XSD + "boolean")
        else:
            value = Literal(f"{m.value:g}", ns.XSD + "decimal")
        triples.append((node, IRI(ns.DQV_VALUE), value))
        triples.append((node, IRI(ns.DQV_COMPUTED_ON), IRI(m.computed_on)))
        triples.append((node, IRI(ns.PROV_GENERATED_AT), Literal(m.timestamp, ns.XSD + "dateTime")))
    return triples


@pytest.mark.parametrize("distributions", [0, 1, 2])
def test_report_triples_equal_per_measurement_construction(distributions):
    dists = "".join(
        f"""<http://src/d1> dcat:distribution <http://src/d1/dist{i}> .
        <http://src/d1/dist{i}> dct:format "CSV" ; dcat:accessURL <http://files.test/{i}> .
        """
        for i in range(distributions)
    )
    graph = parse_turtle(full_dataset(1) + dists)
    reachable = {f"http://src/d1/dist{i}": UrlCheckResult(200, i == 0, 1) for i in range(distributions)}
    report = annotate(graph, [], reachable, frozenset({"CSV"}), frozenset(), dataset_id="d1")
    report.measurements += [
        QualityMeasurement(ns.ODN + "extraScore", value, report.dataset_iri, "2024-01-01T00:00:00Z")
        for value in (0.0, 87.5, 100.0, 0, 100, True, False)
    ]
    metrics_iri = f"{BASE}/metrics/d1"
    got = report_to_triples(report, metrics_iri)
    expected = per_measurement_triples(report, metrics_iri)
    assert [(type(t), t) for triple in got for t in triple] == [(type(t), t) for triple in expected for t in triple]
    values = {o.lexical for _, p, o in got if p.value == ns.DQV_VALUE}
    assert {"0", "87.5", "100", "true", "false"} <= values
    computed = {o.value for _, p, o in got if p.value == ns.DQV_COMPUTED_ON}
    assert len(computed) == 1 + distributions


def test_aggregate_mean_of_two():
    agg = aggregate_catalogue(
        "cat1",
        [make_report("a", overall=40), make_report("b", overall=60)],
    )
    assert agg["overallScore"] == 50
    assert agg["datasetCount"] == 2


def test_csv_round_trips_through_parser():
    agg = aggregate_catalogue("cat1", [make_report("a"), make_report("b"), make_report("c")])
    content_type, body = render(agg, "csv")
    assert content_type.startswith("text/csv")
    rows = list(csv.DictReader(io.StringIO(body.decode("utf-8"))))
    assert [r["datasetId"] for r in rows] == ["a", "b", "c"]
    assert all(r["overallScore"] == "70" for r in rows)
    # column order is stable
    header = body.decode("utf-8").splitlines()[0]
    assert header == "datasetId,findability,accessibility,interoperability,reusability,overallScore,violations,warnings"


def test_render_json_and_html():
    report = make_report("a")
    ct, body = render(report, "json")
    assert json.loads(body)["overallScore"] == 70
    ct, body = render(report, "html")
    assert ct.startswith("text/html")
    assert b"<table" in body and b">a<" in body
    with pytest.raises(ValueError):
        render(report, "pdf")


# -- service wiring --------------------------------------------------------


def test_assessment_persists_metrics_graph(registry, quality):
    registry.put_dataset("cat1", "d1", parse_turtle(full_dataset(1)))
    quality.drain()
    metrics = registry.metrics_graph("d1")
    assert metrics, "metrics graph should exist after assessment"
    measurement_nodes = {
        s for s, p, o in metrics if p.value == ns.RDF_TYPE and o.value == ns.DQV_QUALITY_MEASUREMENT
    }
    assert len(measurement_nodes) >= 4
    # exactly one metrics graph per dataset
    metric_graphs = [g for g in registry.store.graphs() if "/metrics/" in g]
    assert metric_graphs == [f"{BASE}/metrics/d1"]


def test_reassessment_writes_metrics_only_when_a_value_changed(registry, quality, monkeypatch):
    registry.put_dataset("cat1", "d1", parse_turtle(full_dataset(1)))
    quality.drain()
    first, stored = quality.reports["d1"], registry.metrics_graph("d1")
    writes = []
    put_metrics = registry.put_metrics
    monkeypatch.setattr(registry, "put_metrics", lambda *args: (writes.append(args[0]), put_metrics(*args)))

    # a translation-like write-back adds literals no measurement reads
    registry.put_dataset("cat1", "d1", parse_turtle(full_dataset(1) + '<http://src/d1> dct:title "Jeu 1"@fr .'))
    quality.drain()
    assert writes == [] and quality.reports["d1"].measurements == first.measurements
    assert registry.metrics_graph("d1") == stored

    registry.put_dataset("cat1", "d1", parse_turtle(full_dataset(1).replace('dcat:keyword "rain"@en ;', "")))
    quality.drain()
    assert writes == ["d1"] and quality.reports["d1"].measurements != first.measurements


def test_similarity_basis_leaves_out_machine_translations(registry, quality):
    for original_id in ("d1", "d2"):  # twins: same title and description
        registry.put_dataset("cat1", original_id, parse_turtle(full_dataset(1)))
    quality.drain()

    def signature():
        return quality.minhash.signature(shingles(similarity_text(registry.dataset_graph("d1"))))

    before = signature()
    assert quality.similar("d1") == [{"id": "d2", "estimatedJaccard": 1.0}]
    summary = translate_dataset(registry, "d1", ["de", "fr"], EchoProvider())
    assert summary["added"] == 4
    quality.drain()
    assert signature() == before
    assert similarity_text(registry.dataset_graph("d1")) == similarity_text(registry.dataset_graph("d2"))
    assert quality.similar("d1") == [{"id": "d2", "estimatedJaccard": 1.0}]


def test_deleted_dataset_leaves_no_metrics(registry, quality):
    registry.put_dataset("cat1", "d1", parse_turtle(full_dataset(1)))
    quality.drain()
    registry.delete_dataset("d1")
    assert registry.metrics_graph("d1") == []
    assert [g for g in registry.store.graphs() if "/metrics/" in g] == []
    assert quality.reports == {}


def test_quality_score_joined_into_search(registry, quality):
    # the search service normally indexes first; emulate its document
    from odcat.search import SearchDocument

    quality.search_index.index(SearchDocument(id="d1"))
    registry.put_dataset("cat1", "d1", parse_turtle(full_dataset(1)))
    quality.drain()
    score = quality.search_index.get("d1").qualityScore
    assert score is not None and score == float(quality.reports["d1"].overall)


def test_http_endpoints(registry, quality):
    svc = HttpService(build_quality_router(quality)).start()
    try:
        registry.put_dataset("cat1", "near-a", parse_turtle(full_dataset(7)))
        registry.put_dataset("cat1", "near-b", parse_turtle(full_dataset(7).replace("d7", "d8")))
        quality.drain()

        resp = requests.get(f"{svc.url}/datasets/near-a/quality", timeout=10)
        assert resp.status_code == 200
        payload = resp.json()
        assert set(payload["dimensions"]) == {
            "findability",
            "accessibility",
            "interoperability",
            "reusability",
        }
        assert 0 <= payload["overallScore"] <= 100

        resp = requests.get(f"{svc.url}/datasets/near-a/similar", timeout=10)
        assert resp.status_code == 200
        similar = resp.json()["similar"]
        assert similar and similar[0]["id"] == "near-b"
        assert similar[0]["estimatedJaccard"] > 0.8

        for fmt, marker in (("json", b"datasetCount"), ("csv", b"datasetId"), ("html", b"<table")):
            resp = requests.get(
                f"{svc.url}/catalogues/cat1/quality/report?format={fmt}", timeout=10
            )
            assert resp.status_code == 200
            assert marker in resp.content

        assert requests.get(f"{svc.url}/datasets/ghost/quality", timeout=10).status_code == 404
    finally:
        svc.stop()
