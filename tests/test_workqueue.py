"""WorkQueue semantics, ordered with events rather than sleeps."""

import json
import threading
import uuid

import pytest

from odcat.httpkit import HttpClient
from odcat.pipeline import PipeService
from odcat.pipeline import service as pipe_service
from odcat.rdf import QuadStore, parse_turtle
from odcat.registry import Registry
from odcat.translation import ProviderError, TranslationService
from odcat.workqueue import WorkQueue

WAIT = 10.0


class GatedJob:
    """Records every run; a run of `gated` signals `started`, then waits for `release`."""

    def __init__(self, gated=None):
        self.gated = gated
        self.runs = []
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, item):
        self.runs.append(item)
        if item == self.gated:
            self.started.set()
            assert self.release.wait(WAIT)


def test_submits_of_a_queued_key_coalesce_into_one_run():
    job = GatedJob(gated="blocker")
    queue = WorkQueue(job, "wq-test", workers=1, keyed=True)
    queue.submit("blocker")
    assert job.started.wait(WAIT)
    for _ in range(5):
        assert queue.submit("k")
    job.release.set()
    assert queue.drain(WAIT)
    assert job.runs == ["blocker", "k"]
    queue.close()


def test_a_submit_during_a_run_runs_exactly_once_more():
    job = GatedJob(gated="k")
    queue = WorkQueue(job, "wq-test", workers=2, keyed=True)
    queue.submit("k")
    assert job.started.wait(WAIT)
    for _ in range(3):
        assert queue.submit("k")
    job.release.set()
    assert queue.drain(WAIT)
    assert job.runs == ["k", "k"]
    queue.close()


def test_a_job_that_resubmits_its_own_key_runs_once():
    runs = []

    def job(key):
        runs.append(key)
        queue.submit(key)

    queue = WorkQueue(job, "wq-test", workers=2, keyed=True)
    queue.submit("k")
    assert queue.drain(WAIT)
    assert runs == ["k"]
    queue.close()


def test_unkeyed_queue_runs_every_item_in_order():
    job = GatedJob()
    queue = WorkQueue(job, "wq-test")
    for i in [1, 1, 2, 3]:
        assert queue.submit(i)
    assert queue.drain(WAIT)
    assert job.runs == [1, 1, 2, 3]
    queue.close()


def test_a_failing_provider_is_called_once_per_external_event():
    class FailingProvider:
        tag = "fail"
        batch_limit = 100

        def __init__(self):
            self.calls = 0

        def submit(self, texts, source, targets):
            self.calls += 1
            raise ProviderError("provider down")

    registry = Registry(QuadStore(), "http://odcat.test")
    registry.put_catalogue("c")
    provider = FailingProvider()
    translation = TranslationService(registry, provider, ["fr"])
    turtle = """@prefix dcat: <http://www.w3.org/ns/dcat#> . @prefix dct: <http://purl.org/dc/terms/> .
    <http://s/d> a dcat:Dataset ; dct:title "{}"@en ."""
    for version in (1, 2):
        registry.put_dataset("c", "d", parse_turtle(turtle.format(f"version {version}")))
        assert translation.queue.drain(WAIT)
        assert provider.calls == version
    translation.queue.close()


def test_a_full_queue_refuses_a_submit():
    job = GatedJob(gated=1)
    queue = WorkQueue(job, "wq-test", capacity=1)
    assert queue.submit(1)
    assert job.started.wait(WAIT)
    assert queue.submit(2)
    assert not queue.submit(3)
    job.release.set()
    assert queue.drain(WAIT)
    assert job.runs == [1, 2]
    queue.close()


def test_a_full_pipe_queue_answers_503(monkeypatch):
    monkeypatch.setattr(pipe_service, "QUEUE_CAPACITY", 1)
    monkeypatch.setattr(pipe_service, "ADMISSION_WAIT", 0.0)
    started, release = threading.Event(), threading.Event()

    def handler(ctx):
        started.set()
        assert release.wait(WAIT)

    service = PipeService("solo", handler, workers=1).start()
    client = HttpClient(timeout=WAIT)

    def post():
        doc = {
            "header": {
                "pipeId": str(uuid.uuid4()),
                "runId": str(uuid.uuid4()),
                "name": "direct",
                "version": "1.0",
                "startTime": "2024-01-01T00:00:00Z",
            },
            "body": {
                "segments": [
                    {"header": {"serviceId": "solo", "segmentNumber": 0, "processed": False}, "body": {"config": {}}}
                ]
            },
        }
        return client.request("POST", service.url + "/pipe", json.dumps(doc).encode("utf-8")).status

    try:
        assert post() == 202
        assert started.wait(WAIT)
        assert post() == 202
        assert post() == 503
    finally:
        release.set()
        service.stop()


def test_drain_reports_timeout_and_idleness():
    job = GatedJob(gated="k")
    queue = WorkQueue(job, "wq-test", keyed=True)
    assert queue.drain(0)
    queue.submit("k")
    assert job.started.wait(WAIT)
    assert not queue.drain(0.05)
    job.release.set()
    assert queue.drain(WAIT)
    queue.close()


def test_close_runs_accepted_work_and_joins_every_worker():
    job = GatedJob(gated=0)
    queue = WorkQueue(job, "wq-close", workers=3)
    for i in range(6):
        queue.submit(i)
    assert job.started.wait(WAIT)
    closer = threading.Thread(target=queue.close)
    closer.start()
    closer.join(0.1)
    assert closer.is_alive()  # job 0 is still running
    job.release.set()
    closer.join(WAIT)
    assert not closer.is_alive()
    assert not queue.submit(99)
    assert sorted(job.runs) == [0, 1, 2, 3, 4, 5]
    assert not [t for t in threading.enumerate() if t.name.startswith("wq-close")]


@pytest.mark.parametrize("workers", [1, 4])
def test_workers_start_on_demand(workers):
    queue = WorkQueue(lambda item: None, "wq-demand", workers=workers)
    assert not [t for t in threading.enumerate() if t.name.startswith("wq-demand")]
    queue.submit(1)
    assert queue.drain(WAIT)
    queue.submit(2)
    assert queue.drain(WAIT)
    assert len([t for t in threading.enumerate() if t.name.startswith("wq-demand")]) == 1
    queue.close()
