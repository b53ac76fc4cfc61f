"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the criterion lines.
"""

import json
import random
import time
import uuid
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
import requests

from harness import TOKEN, PipeHarness, make_suite, run_harvest

from odcat import cli, ns
from odcat.harvester import synthetic_records
from odcat.httpkit import HttpService, Response, Router
from odcat.pipeline import (
    AlreadyProcessedError,
    DescriptorSchemaError,
    Payload,
    forward,
    parse_descriptor,
)
from odcat.quality import (
    DEFAULT_SHAPES,
    MinHashIndex,
    annotate,
    check_urls,
    exact_jaccard,
    shingles,
    validate,
)
from odcat.rdf import (
    IRI,
    BlankNode,
    GraphQuery,
    Literal,
    QuadStore,
    Var,
    canonical_ntriples,
    parse_ntriples,
    parse_turtle,
    query,
    serialize_ntriples,
    serialize_turtle,
)
from odcat.registry import Registry
from odcat.translation import EXTENDED_TAG_RE, EchoProvider, is_machine_tag, translate_dataset
from odcat.vocab import load_format_lists, load_vocabularies

from conftest import blank_labels, isomorphic_oracle
from test_rdf_store_query import naive_query, _binding_set
from test_quality_scoring import build_graph, reach, CSV_IRI, CC0
from test_translation import TARGET_25, GERMAN_DATASET


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] {description}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"\n[criterion {number:2d}] {description}: PASS ({time.monotonic() - start:.1f}s)")


# -- 1: descriptor protocol ----------------------------------------------------


def generate_descriptor(rng: random.Random) -> dict:
    n = rng.randint(1, 6)
    segments = []
    for i in range(n):
        nxt = None
        if i < n - 1 and rng.random() < 0.4:
            pool = list(range(i + 1, n))
            nxt = sorted(rng.sample(pool, rng.randint(1, len(pool))))
        payload = None
        if rng.random() < 0.5:
            payload = {"dataType": "text", "dataMimeType": "text/plain", "data": f"payload-{i}"}
        segments.append(
            {
                "header": {"serviceId": f"svc-{rng.randint(0, 3)}", "segmentNumber": i, "processed": False}
                | ({"next": nxt} if nxt is not None else {}),
                "body": {"config": {"k": rng.randint(0, 9)}} | ({"payload": payload} if payload else {}),
            }
        )
    return {
        "header": {
            "pipeId": str(uuid.UUID(int=rng.getrandbits(128))),
            "runId": str(uuid.UUID(int=rng.getrandbits(128))),
            "name": f"pipe-{rng.randint(0, 99)}",
            "version": "1.0",
            "startTime": "2024-01-01T00:00:00Z",
        },
        "body": {"segments": segments},
    }


def test_criterion_01_descriptor_protocol(tmp_path):
    with criterion(1, "descriptor protocol: 1000 generated descriptors + live 4-service pipe"):
        start = time.monotonic()
        rng = random.Random(1001)
        for i in range(1000):
            doc = generate_descriptor(rng)
            d1 = parse_descriptor(json.dumps(doc))
            d2 = parse_descriptor(d1.dumps())
            assert d1 == d2, f"round-trip failed on descriptor {i}"

            # forward-only: a backward edge must be rejected
            if len(doc["body"]["segments"]) >= 2:
                bad = json.loads(json.dumps(doc))
                bad["body"]["segments"][1]["header"]["next"] = [0]
                with pytest.raises(DescriptorSchemaError):
                    parse_descriptor(json.dumps(bad))

            # exactly-once marking: completing a segment twice is an error
            d = parse_descriptor(json.dumps(doc))
            first = min(s.segmentNumber for s in d.segments)
            forward(d, first, Payload.text("x"))
            with pytest.raises(AlreadyProcessedError):
                forward(d, first)

            # fan-out isolation on every generated fan-out
            d = parse_descriptor(json.dumps(doc))
            fan = next((s for s in d.segments if s.next and len(s.next) >= 2 and not s.processed), None)
            if fan is not None and fan.segmentNumber == first:
                copies = forward(d, fan.segmentNumber, Payload.text("orig"))
                copies[0][1].segment(fan.next[0]).payload.data = "mutated"
                for _, sibling in copies[1:]:
                    assert sibling.segment(fan.next[0]).payload.data == "orig"

        harness = PipeHarness(tmp_path, [(f"s{i}", False) for i in range(4)])
        try:
            run_id = harness.put_and_launch(["s0", "s1", "s2", "s3"])
            view = harness.wait_run_terminal(run_id)
            assert view["state"] == "succeeded"
            order = [
                (name, seg)
                for name in ("s0", "s1", "s2", "s3")
                for rid, seg in harness.handlers[name].calls
                if rid == run_id
            ]
            assert order == [("s0", 0), ("s1", 1), ("s2", 2), ("s3", 3)]
            receivers = [svc for svc, path in harness.request_log if path == "/pipe"]
            assert receivers == ["s0", "s1", "s2", "s3"], "descriptor reached a non-addressed party"
        finally:
            harness.close()
        assert time.monotonic() - start < 60, "criterion 1 exceeded its 1-minute budget"


# -- 2: sync convergence ------------------------------------------------------


def test_criterion_02_sync_convergence(tmp_path):
    with criterion(2, "sync convergence: 200 datasets, 30 removed, fault-injected run deletes nothing"):
        suite = make_suite(
            tmp_path,
            ["scheduler", "registry", "importer", "transformer", "exporter", "portal"],
            records=synthetic_records(200),
        )
        try:
            requests.put(
                f"{suite.url('registry')}/catalogues/mock",
                data="",
                headers={"Authorization": f"Bearer {TOKEN}"},
                timeout=30,
            ).raise_for_status()
            pipe = cli.fixture_pipe_definition(suite.url("portal").removeprefix("http://"))
            view = run_harvest(suite, pipe, timeout=120)
            assert view["state"] == "succeeded"

            def registry_ids():
                out = set()
                page = 0
                while True:
                    payload = requests.get(
                        f"{suite.url('registry')}/catalogues/mock/datasets?page={page}&pageSize=100",
                        timeout=30,
                    ).json()
                    out |= {row["originalId"] for row in payload["datasets"]}
                    if (page + 1) * 100 >= payload["total"]:
                        return out
                    page += 1

            assert registry_ids() == {r["id"] for r in suite.portal.records}

            survivors = suite.portal.records[:170]
            suite.portal.set_records(survivors)
            view = run_harvest(suite, pipe, timeout=120)
            assert view["state"] == "succeeded"
            summary = cli.harvest_summary(view)
            assert summary["deleted"] == 30
            assert registry_ids() == {r["id"] for r in survivors}

            before = registry_ids()
            suite.portal.set_records(survivors[:100])
            suite.portal.fail_after(1)
            view = run_harvest(suite, pipe, timeout=120)
            assert view["state"] == "failed"
            assert registry_ids() == before, "a failed run must never delete"
        finally:
            suite.stop()


# -- 3: throughput ------------------------------------------------------------


def test_criterion_03_throughput_10k(tmp_path):
    with criterion(3, "throughput: 10,000 datasets harvested, registered, indexed in < 5 min"):
        suite = make_suite(
            tmp_path,
            ["scheduler", "registry", "search", "importer", "transformer", "exporter", "portal"],
            records=synthetic_records(10_000),
        )
        try:
            requests.put(
                f"{suite.url('registry')}/catalogues/mock",
                data="",
                headers={"Authorization": f"Bearer {TOKEN}"},
                timeout=30,
            ).raise_for_status()
            pipe = cli.fixture_pipe_definition(suite.url("portal").removeprefix("http://"))
            pipe["descriptorTemplate"]["body"]["segments"][0]["body"]["config"]["pageSize"] = 500

            start = time.monotonic()
            view = run_harvest(suite, pipe, timeout=300)
            elapsed = time.monotonic() - start
            assert view["state"] == "succeeded", view
            summary = cli.harvest_summary(view)
            assert summary["created"] == 10_000
            assert summary["failed"] == 0
            assert elapsed < 300, f"harvest took {elapsed:.0f}s"

            assert suite.registry is not None and suite.search is not None
            registry_ids = set(suite.registry.dataset_ids("mock"))
            index_ids = set(suite.search.index.ids())
            assert len(registry_ids) == 10_000
            assert registry_ids == index_ids, "index/registry inconsistency after harvest"
            print(f"    10k end-to-end in {elapsed:.1f}s")
        finally:
            suite.stop()


# -- 4: RDF core ---------------------------------------------------------------


def random_rdf_graph(rng: random.Random, max_blanks: int = 6):
    iris = [IRI(f"http://a.test/r{i}") for i in range(4)]
    preds = [IRI(f"http://a.test/p{i}") for i in range(3)]
    blanks = [BlankNode(f"b{i}") for i in range(rng.randint(0, max_blanks))]
    literals = [
        Literal("plain"),
        Literal("Rain", lang="en"),
        Literal("Regen", lang="de-AT"),
        Literal("5", "http://www.w3.org/2001/XMLSchema#integer"),
        Literal('esc"ape\n'),
    ]
    graph = set()
    for _ in range(rng.randint(1, 14)):
        s = rng.choice(iris + blanks) if blanks else rng.choice(iris)
        o = rng.choice(iris + blanks + literals)
        graph.add((s, rng.choice(preds), o))
    return list(graph)


def test_criterion_04_rdf_core():
    with criterion(4, "rdf core: 500 round-trips, canonicalization oracle, 200 query pairs"):
        rng = random.Random(4004)
        for i in range(500):
            g = random_rdf_graph(rng)
            assert canonical_ntriples(parse_ntriples(serialize_ntriples(g))) == canonical_ntriples(g), i
            assert canonical_ntriples(parse_turtle(serialize_turtle(g))) == canonical_ntriples(g), i

        # canonicalization matches the factorial-search oracle
        for i in range(150):
            g = random_rdf_graph(rng, max_blanks=6)
            labels = blank_labels(g)
            perm = labels[:]
            rng.shuffle(perm)
            h = [
                (
                    BlankNode("z" + dict(zip(labels, perm))[s.label]) if isinstance(s, BlankNode) else s,
                    p,
                    BlankNode("z" + dict(zip(labels, perm))[o.label]) if isinstance(o, BlankNode) else o,
                )
                for s, p, o in g
            ]
            assert isomorphic_oracle(g, h)
            assert canonical_ntriples(g) == canonical_ntriples(h), f"perm {i}"
            other = random_rdf_graph(rng, max_blanks=4)
            assert (canonical_ntriples(g) == canonical_ntriples(other)) == isomorphic_oracle(g, other), i

        # BGP evaluation equals the nested-loop oracle on 200 random pairs
        subjects = [IRI(f"http://a.test/s{i}") for i in range(4)]
        preds = [IRI(f"http://a.test/p{i}") for i in range(3)]
        objects = subjects + [Literal("a"), Literal("b")]
        for i in range(200):
            store = QuadStore()
            for _ in range(rng.randint(0, 15)):
                store.add(
                    rng.choice(["http://g/1", "http://g/2"]),
                    (rng.choice(subjects), rng.choice(preds), rng.choice(objects)),
                )

            def pos(name):
                return Var(name) if rng.random() < 0.5 else rng.choice(subjects + objects)

            patterns = [
                (pos("a"), Var("p") if rng.random() < 0.5 else rng.choice(preds), pos("b"))
                for _ in range(rng.randint(1, 2))
            ]
            graph_scope = rng.choice([None, "http://g/1", "http://g/2"])
            got = query(store, GraphQuery(patterns, graph_scope))
            want = naive_query(store.match(), patterns, graph_scope)
            assert _binding_set(got) == _binding_set(want), f"query pair {i}"


# -- 5: validator fixture corpus --------------------------------------------------


def test_criterion_05_validator_corpus():
    with criterion(5, "validator: fixture corpus violation multisets match exactly"):
        import odcat

        fixtures = Path(odcat.__file__).parent / "fixtures" / "validation"
        expected = json.loads((fixtures / "expected.json").read_text())
        assert len(expected) == 10
        for name, expected_list in sorted(expected.items()):
            graph = parse_turtle((fixtures / name).read_text())
            got = Counter((v.focus_node, v.path, v.kind, v.severity) for v in validate(graph, DEFAULT_SHAPES))
            want = Counter((e["focusNode"], e["path"], e["kind"], e["severity"]) for e in expected_list)
            assert got == want, name


# -- 6: quality scoring ---------------------------------------------------------


def test_criterion_06_quality_scoring():
    with criterion(6, "scoring: hand-computed fixtures, monotonicity, live accessibility"):
        machine, open_formats = load_format_lists()
        licenses = load_vocabularies()["licenses"]

        def run(graph, urls=None):
            return annotate(graph, [], urls or {}, machine, open_formats, licenses)

        # five hand-computed fixtures (weights: see scoring tests)
        cases = [
            (build_graph(keywords=True, spatial=True, temporal=True, theme=True), None,
             (100.0, 0.0, 0.0, 0.0), 25),
            (parse_turtle("<http://q.test/datasets/x> a <http://www.w3.org/ns/dcat#Dataset> ."), None,
             (0.0, 0.0, 0.0, 0.0), 0),
            (build_graph(keywords=True, theme=True, publisher=True, license_iri=CC0,
                         dists=[{"format": CSV_IRI}, {"format": CSV_IRI}]),
             reach({0: True, 1: False}), (60.0, 50.0, 100.0, 100.0), 78),
            (build_graph(spatial=True, temporal=True, publisher=True,
                         dists=[{"format": "http://publications.europa.eu/resource/authority/file-type/XLS"}]),
             reach({0: False}), (40.0, 0.0, 30.0, 20.0), 23),
            (build_graph(keywords=True, publisher=True, license_iri="http://custom/lic"), None,
             (30.0, 0.0, 0.0, 80.0), 28),
        ]
        for i, (graph, urls, dims, overall) in enumerate(cases):
            report = run(graph, urls)
            got = tuple(report.dimensions[d] for d in ("findability", "accessibility", "interoperability", "reusability"))
            assert got == dims, f"fixture {i}: {got}"
            assert report.overall == overall, f"fixture {i}"

        # monotonicity over 1000 randomized indicator toggles
        rng = random.Random(66)
        names = ["keywords", "spatial", "temporal", "theme", "publisher"]
        for _ in range(1000):
            state = {n: rng.random() < 0.5 for n in names}
            off = [n for n in names if not state[n]]
            if not off:
                continue
            flip = rng.choice(off)
            base = run(build_graph(**state))
            improved_state = dict(state, **{flip: True})
            improved = run(build_graph(**improved_state))
            for dim in base.dimensions:
                assert improved.dimensions[dim] >= base.dimensions[dim]

        # accessibility equals reachable fraction against live mock servers
        router = Router(name="acc")
        router.route("GET", "/ok", lambda req: Response.text("d"))
        router.route("HEAD", "/redirect", lambda req: Response(301, b"", headers={"Location": "/ok"}))
        router.route("HEAD", "/missing", lambda req: Response(404, b""))

        def slow(req):
            time.sleep(2)
            return Response.text("late")

        router.route("HEAD", "/slow", slow)
        svc = HttpService(router).start()
        try:
            urls = [f"{svc.url}/ok", f"{svc.url}/redirect", f"{svc.url}/missing", f"{svc.url}/slow"]
            lines = ["@prefix dcat: <http://www.w3.org/ns/dcat#> .", f"<{DS}> a dcat:Dataset "]
            for i, u in enumerate(urls):
                lines.append(f"; dcat:distribution <{DS}#dist-{i}> ")
            lines.append(".")
            for i, u in enumerate(urls):
                lines.append(f"<{DS}#dist-{i}> a dcat:Distribution ; dcat:accessURL <{u}> .")
            graph = parse_turtle("\n".join(lines))
            results = check_urls(graph, timeout=0.5, per_host_spacing=0.0)
            report = run(graph, results)
            reachable = sum(1 for r in results.values() if r.reachable)
            assert reachable == 2
            assert report.dimensions["accessibility"] == 100.0 * reachable / 4
        finally:
            svc.stop()


DS = "http://q.test/datasets/x"


# -- 7: similarity ----------------------------------------------------------------


def test_criterion_07_similarity():
    with criterion(7, "similarity: estimate within 0.15 of exact Jaccard on >=95% of 200 pairs"):
        words = [f"w{i}" for i in range(30)]
        rng = random.Random(7007)
        index_a, index_b = MinHashIndex(), MinHashIndex()
        within = 0
        total = 0
        for i in range(200):
            base = [rng.choice(words) for _ in range(rng.randint(10, 50))]
            mutated = list(base)
            for _ in range(rng.randint(0, len(base))):
                mutated[rng.randrange(len(mutated))] = rng.choice(words)
            a, b = shingles(" ".join(base)), shingles(" ".join(mutated))
            if not a or not b:
                continue
            total += 1
            sig_a1 = index_a.signature(a)
            sig_a2 = index_b.signature(a)
            assert sig_a1 == sig_a2, "signatures differ across runs"
            index_a.add(f"a{i}", a)
            index_a.add(f"b{i}", b)
            if abs(index_a.estimate(f"a{i}", f"b{i}") - exact_jaccard(a, b)) <= 0.15:
                within += 1
        assert total >= 190
        assert within / total >= 0.95, f"only {within}/{total} within tolerance"


# -- 8: translation tagging ---------------------------------------------------------


def test_criterion_08_translation_tagging():
    with criterion(8, "translation: tag grammar, idempotent re-run, 25 target languages"):
        registry = Registry(QuadStore(), "http://odcat.test")
        registry.put_catalogue("cat1")
        _, ds_id = registry.put_dataset("cat1", "d1", parse_turtle(GERMAN_DATASET))
        provider = EchoProvider(tag="echo")
        summary = translate_dataset(registry, ds_id, TARGET_25, provider, default_lang="de")
        assert summary["added"] == 50  # title + description per target

        graph = registry.dataset_graph(ds_id)
        machine_literals = [
            o for s, p, o in graph
            if isinstance(o, Literal) and is_machine_tag(o.lang)
        ]
        assert machine_literals, "no machine-written literals"
        for lit in machine_literals:
            assert EXTENDED_TAG_RE.match(lit.lang), lit.lang

        titles = [o for s, p, o in graph if p.value == ns.DCT_TITLE and isinstance(o, Literal) and is_machine_tag(o.lang)]
        assert len(titles) == 25
        assert len({t.lang for t in titles}) == 25

        before = sorted(map(repr, graph))
        rerun = translate_dataset(registry, ds_id, TARGET_25, provider, default_lang="de")
        after = sorted(map(repr, registry.dataset_graph(ds_id)))
        assert rerun["added"] == 0
        assert before == after, "re-run must add zero triples"


# -- 9: content negotiation ---------------------------------------------------------


def test_criterion_09_content_negotiation(tmp_path):
    with criterion(9, "content negotiation: Turtle and N-Triples canonicalize identically"):
        suite = make_suite(tmp_path, ["registry"])
        try:
            requests.put(
                f"{suite.url('registry')}/catalogues/c",
                data="",
                headers={"Authorization": f"Bearer {TOKEN}"},
                timeout=30,
            ).raise_for_status()
            bodies = [
                """
                @prefix dcat: <http://www.w3.org/ns/dcat#> .
                @prefix dct: <http://purl.org/dc/terms/> .
                <http://s/d> a dcat:Dataset ; dct:title "Rain"@en, "Regen"@de ;
                    dct:publisher [ a <http://xmlns.com/foaf/0.1/Agent> ;
                                    <http://xmlns.com/foaf/0.1/name> "Agency" ] ;
                    dcat:distribution [ dcat:accessURL <http://files/x.csv> ],
                                      [ dcat:accessURL <http://files/y.json> ] .
                """,
                '<http://s/d2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/ns/dcat#Dataset> .\n'
                '<http://s/d2> <http://purl.org/dc/terms/title> "Esc\\"aped\\n"@en .',
            ]
            for i, body in enumerate(bodies):
                content_type = "text/turtle" if i == 0 else "application/n-triples"
                resp = requests.put(
                    f"{suite.url('registry')}/datasets/ds-{i}?catalogue=c",
                    data=body.encode("utf-8"),
                    headers={"Authorization": f"Bearer {TOKEN}", "Content-Type": content_type},
                    timeout=30,
                )
                assert resp.status_code == 201, resp.text
                ds_id = resp.json()["id"]
                turtle = requests.get(
                    f"{suite.url('registry')}/datasets/{ds_id}",
                    headers={"Accept": "text/turtle"},
                    timeout=30,
                )
                ntriples = requests.get(
                    f"{suite.url('registry')}/datasets/{ds_id}",
                    headers={"Accept": "application/n-triples"},
                    timeout=30,
                )
                g1 = parse_turtle(turtle.text, base_iri="http://odcat.example")
                g2 = parse_ntriples(ntriples.text)
                assert canonical_ntriples(g1) == canonical_ntriples(g2), f"dataset {i}"
        finally:
            suite.stop()


# -- 10: CLI end-to-end ----------------------------------------------------------------


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    with criterion(10, "cli: harvest run exits 0 and summary matches registry state"):
        suite = make_suite(
            tmp_path,
            ["scheduler", "registry", "search", "importer", "transformer", "exporter", "portal"],
            records=synthetic_records(100),
        )
        try:
            requests.put(
                f"{suite.url('registry')}/catalogues/mock",
                data="",
                headers={"Authorization": f"Bearer {TOKEN}"},
                timeout=30,
            ).raise_for_status()
            config_path = tmp_path / "config.json"
            config_path.write_text(
                json.dumps(
                    {
                        "apiToken": TOKEN,
                        "dataDir": str(tmp_path / "cli-data"),
                        "addresses": {
                            name: suite.url(name).removeprefix("http://") for name in suite._http
                        },
                    }
                )
            )
            pipe_path = tmp_path / "pipe.json"
            pipe_path.write_text(
                json.dumps(cli.fixture_pipe_definition(suite.url("portal").removeprefix("http://")))
            )
            rc = cli.main(["--config", str(config_path), "harvest", "run", str(pipe_path)])
            out_lines = capsys.readouterr().out.strip().splitlines()
            summary = json.loads(out_lines[-1])
            assert rc == 0
            assert summary["state"] == "succeeded"
            assert summary["created"] == 100 and summary["failed"] == 0

            payload = requests.get(
                f"{suite.url('registry')}/catalogues/mock/datasets?page=0&pageSize=500",
                timeout=30,
            ).json()
            assert payload["total"] == summary["created"] - summary["deleted"]
        finally:
            suite.stop()
