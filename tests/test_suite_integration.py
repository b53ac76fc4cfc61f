import json
import os
import signal
import subprocess
import sys
import threading
import time
import uuid

import requests

import odcat
from conftest import free_port
from harness import TOKEN, make_suite, run_harvest, wait_until

from odcat import ns
from odcat.cli import fixture_pipe_definition, harvest_summary
from odcat.config import Config
from odcat.harvester import synthetic_records
from odcat.quality import service as quality_service
from odcat.rdf import QuadStore, parse_turtle
from odcat.registry import Registry
from odcat.translation import EchoProvider

ALL = [
    "scheduler", "registry", "search", "quality", "translation",
    "importer", "transformer", "exporter", "portal",
]


def test_quality_recheck_schedulable_as_pipe(tmp_path):
    """A pipe addressed to the quality service re-scores a whole catalogue."""
    suite = make_suite(
        tmp_path,
        ALL,
        records=synthetic_records(8),
        quality_events=False,  # only the pipe should produce reports
        translation_targets=[],
    )
    try:
        requests.put(
            f"{suite.url('registry')}/catalogues/mock",
            data="",
            headers={"Authorization": f"Bearer {TOKEN}"},
            timeout=30,
        ).raise_for_status()
        harvest = fixture_pipe_definition(suite.url("portal").removeprefix("http://"))
        assert run_harvest(suite, harvest)["state"] == "succeeded"
        assert suite.quality.reports == {}

        pipe_id = str(uuid.uuid4())
        recheck = {
            "pipeId": pipe_id,
            "name": "catalogue-recheck",
            "enabled": True,
            "descriptorTemplate": {
                "header": {"pipeId": pipe_id, "runId": None, "name": "recheck", "version": "1.0", "startTime": ""},
                "body": {
                    "segments": [
                        {
                            "header": {"serviceId": "quality", "segmentNumber": 0, "processed": False},
                            "body": {"config": {"catalogue": "mock"}},
                        }
                    ]
                },
            },
            "triggers": [],
        }
        view = run_harvest(suite, recheck)
        assert view["state"] == "succeeded"
        assert len(suite.quality.reports) == 8
        resp = requests.get(f"{suite.url('quality')}/datasets/set-00000/quality", timeout=30)
        assert resp.status_code == 200
    finally:
        suite.stop()


def test_translation_triggered_by_registry_events(tmp_path):
    suite = make_suite(
        tmp_path,
        ["registry", "translation"],
        quality_events=False,
        translation_targets=["en", "fr"],
        default_language="de",
    )
    try:
        requests.put(
            f"{suite.url('registry')}/catalogues/c",
            data="",
            headers={"Authorization": f"Bearer {TOKEN}"},
            timeout=30,
        ).raise_for_status()
        body = """
        @prefix dcat: <http://www.w3.org/ns/dcat#> .
        @prefix dct: <http://purl.org/dc/terms/> .
        <http://s/d> a dcat:Dataset ; dct:title "Regen"@de ; dct:description "Nass."@de .
        """
        resp = requests.put(
            f"{suite.url('registry')}/datasets/d1?catalogue=c",
            data=body,
            headers={"Authorization": f"Bearer {TOKEN}", "Content-Type": "text/turtle"},
            timeout=30,
        )
        assert resp.status_code == 201
        suite.wait_quiescent()
        turtle = requests.get(f"{suite.url('registry')}/datasets/d1", timeout=30).text
        assert "en-t-de-t0-echo" in turtle
        assert "fr-t-de-t0-echo" in turtle

        # manual endpoint is idempotent afterwards
        resp = requests.post(
            f"{suite.url('translation')}/translate/d1",
            headers={"Authorization": f"Bearer {TOKEN}"},
            timeout=30,
        )
        assert resp.status_code == 200
        assert resp.json()["added"] == 0
    finally:
        suite.stop()


TITLED = """@prefix dcat: <http://www.w3.org/ns/dcat#> . @prefix dct: <http://purl.org/dc/terms/> .
<http://s/d> a dcat:Dataset ; dct:title "{}"@en ."""


def titles(graph):
    return sorted((o.lexical, o.lang) for s, p, o in graph if p.value == ns.DCT_TITLE)


def test_translation_write_back_never_reverts_a_newer_version(tmp_path, monkeypatch):
    """A second version stored while the first is being translated wins, gets
    its own translation, and is what the last quality assessment sees."""
    assessed = []
    validate = quality_service.validate

    def recording_validate(graph, shapes):
        assessed.append(titles(graph))
        return validate(graph, shapes)

    monkeypatch.setattr(quality_service, "validate", recording_validate)

    class GatedEcho(EchoProvider):
        started, release = threading.Event(), threading.Event()

        def submit(self, texts, source, targets):
            self.started.set()
            assert self.release.wait(10)
            return super().submit(texts, source, targets)

    suite = make_suite(tmp_path, ["registry", "quality", "translation"], translation_targets=["fr"])
    provider = suite.translation.provider = GatedEcho()
    try:
        suite.registry.put_catalogue("c")
        suite.registry.put_dataset("c", "d", parse_turtle(TITLED.format("first version")))
        assert provider.started.wait(10)  # the first version is being translated
        suite.registry.put_dataset("c", "d", parse_turtle(TITLED.format("second version")))
        provider.release.set()
        suite.wait_quiescent()
        expected = [("[en→fr] second version", "fr-t-en-t0-echo"), ("second version", "en")]
        assert titles(suite.registry.dataset_graph("d")) == expected
        assert assessed[-1] == expected
    finally:
        suite.stop()


def test_stop_lands_queued_enrichment_before_the_store_closes(tmp_path, monkeypatch):
    started = threading.Event()
    validate = quality_service.validate

    def slow_validate(graph, shapes):
        started.set()
        time.sleep(0.2)  # still assessing when stop() begins
        return validate(graph, shapes)

    monkeypatch.setattr(quality_service, "validate", slow_validate)
    before = set(threading.enumerate())
    suite = make_suite(tmp_path, ["registry", "quality", "translation"], translation_targets=["fr"])
    auth = {"Authorization": f"Bearer {TOKEN}"}
    registry_url = suite.url("registry")
    requests.put(f"{registry_url}/catalogues/c", data="", headers=auth, timeout=30).raise_for_status()
    resp = requests.put(
        f"{registry_url}/datasets/d?catalogue=c",
        data=TITLED.format("a title"),
        headers={**auth, "Content-Type": "text/turtle"},
        timeout=30,
    )
    assert resp.status_code == 201
    assert started.wait(10)
    suite.stop()
    leaked = [
        t.name for t in threading.enumerate()
        if t not in before and t.name.startswith(("quality", "translate"))
    ]
    assert leaked == []
    store = QuadStore(tmp_path / "data" / "store")
    try:
        reopened = Registry(store, suite.config.base_iri)
        assert reopened.metrics_graph("d")
        assert ("[en→fr] a title", "fr-t-en-t0-echo") in titles(reopened.dataset_graph("d"))
    finally:
        store.close()


def test_a_second_harvest_of_unchanged_records_writes_nothing_back(tmp_path, monkeypatch):
    suite = make_suite(tmp_path, ALL, records=synthetic_records(200), translation_targets=["fr"])
    try:
        suite.registry.put_catalogue("mock")
        harvest = fixture_pipe_definition(suite.url("portal").removeprefix("http://"))
        assert harvest_summary(run_harvest(suite, harvest))["created"] == 200
        assert suite.wait_quiescent()
        writebacks, assessed = [], []
        update = suite.registry.update_dataset_triples
        monkeypatch.setattr(
            suite.registry, "update_dataset_triples",
            lambda ds_id, *args: (writebacks.append(ds_id), update(ds_id, *args))[1],
        )
        validate = quality_service.validate
        monkeypatch.setattr(
            quality_service, "validate", lambda graph, shapes: (assessed.append(graph), validate(graph, shapes))[1]
        )

        summary = harvest_summary(run_harvest(suite, harvest))
        assert suite.wait_quiescent()
        assert (summary["created"], summary["updated"], summary["deleted"]) == (0, 200, 0)
        assert suite.registry.results["unchanged"] == 200
        assert writebacks == [] and assessed == []
        assert "fr-t-en-t0-echo" in {lang for _, lang in titles(suite.registry.dataset_graph("set-00000"))}
    finally:
        suite.stop()


def test_an_unchanged_put_after_a_restart_still_gets_enriched(tmp_path):
    store = QuadStore(tmp_path / "data" / "store")
    registry = Registry(store, Config().base_iri)
    registry.put_catalogue("c")
    registry.put_dataset("c", "d", parse_turtle(TITLED.format("a title")))
    store.close()

    suite = make_suite(tmp_path, ["registry", "quality", "translation"], translation_targets=["fr"])
    try:
        resp = requests.put(
            f"{suite.url('registry')}/datasets/d?catalogue=c",
            data=TITLED.format("a title"),
            headers={"Authorization": f"Bearer {TOKEN}", "Content-Type": "text/turtle"},
            timeout=30,
        )
        assert (resp.status_code, resp.json()) == (200, {"id": "d", "result": "updated"})
        assert suite.wait_quiescent()
        assert suite.registry.results == {"unchanged": 1}
        assert ("[en→fr] a title", "fr-t-en-t0-echo") in titles(suite.registry.dataset_graph("d"))
        assert "d" in suite.quality.reports and suite.registry.metrics_graph("d")
    finally:
        suite.stop()


def test_serve_cli_subprocess(tmp_path):
    """The installed entry point serves, answers health checks, stops cleanly."""
    port = free_port()
    config = {
        "apiToken": "subproc-token",
        "dataDir": str(tmp_path / "data"),
        "addresses": {"registry": f"127.0.0.1:{port}"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    # the child imports the same odcat as this process, installed or not
    source = os.path.dirname(os.path.dirname(odcat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "odcat.cli", "--config", str(config_path), "serve", "--services", "registry"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        def healthy():
            try:
                return requests.get(f"http://127.0.0.1:{port}/health", timeout=1).status_code == 200
            except requests.RequestException:
                return False

        assert wait_until(healthy, timeout=20), "registry never came up"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=20)
        assert proc.returncode == 0
        output = proc.stdout.read()
        assert "registry: listening" in output
        assert "stores flushed" in output
    finally:
        if proc.poll() is None:
            proc.kill()
