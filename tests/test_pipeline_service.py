import json
import uuid

import pytest
import requests

from harness import FAST_RETRIES, PipeHarness, RecordingHandler, wait_until

from odcat.httpkit import HttpService, Response, Router
from odcat.pipeline import PipeService, parse_descriptor
from odcat.scheduler import DispatchError, PipeDefinition, Scheduler, Trigger


@pytest.fixture
def three_services(tmp_path):
    harness = PipeHarness(tmp_path, [("alpha", False), ("beta", False), ("gamma", False)])
    yield harness
    harness.close()


def descriptor_doc(services, run_id=None):
    return {
        "header": {
            "pipeId": str(uuid.uuid4()),
            "runId": run_id or str(uuid.uuid4()),
            "name": "direct",
            "version": "1.0",
            "startTime": "2024-01-01T00:00:00Z",
        },
        "body": {
            "segments": [
                {"header": {"serviceId": s, "segmentNumber": i, "processed": False}, "body": {"config": {}}}
                for i, s in enumerate(services)
            ]
        },
    }


def submit_descriptor(url, services, run_id=None):
    return requests.post(f"{url}/pipe", data=json.dumps(descriptor_doc(services, run_id)), timeout=10)


def test_accepts_with_202_and_runs_handler_once(three_services):
    h = three_services
    resp = submit_descriptor(h.directory["gamma"], ["gamma"])
    assert resp.status_code == 202
    assert wait_until(lambda: len(h.handlers["gamma"].calls) == 1)


def test_rejects_descriptor_not_addressed_here(three_services):
    h = three_services
    resp = submit_descriptor(h.directory["beta"], ["alpha", "gamma"])
    assert resp.status_code == 400
    assert resp.json()["error"] == "NotAddressed"
    assert not h.handlers["alpha"].calls and not h.handlers["gamma"].calls


def test_malformed_descriptor_is_400(three_services):
    resp = requests.post(f"{three_services.directory['alpha']}/pipe", data=b"{broken", timeout=10)
    assert resp.status_code == 400


def test_linear_run_executes_in_order(three_services):
    h = three_services
    run_id = h.put_and_launch(["alpha", "beta", "gamma"])
    view = h.wait_run_terminal(run_id)
    assert view["state"] == "succeeded"
    order = [
        (name, seg)
        for name in ("alpha", "beta", "gamma")
        for (rid, seg) in h.handlers[name].calls
        if rid == run_id
    ]
    assert order == [("alpha", 0), ("beta", 1), ("gamma", 2)]


def test_handler_failure_blocks_successors(tmp_path):
    harness = PipeHarness(tmp_path, [("ok", False), ("boom", True), ("after", False)])
    try:
        run_id = harness.put_and_launch(["ok", "boom", "after"])
        view = harness.wait_run_terminal(run_id)
        assert view["state"] == "failed"
        failed = [s for s in view["statuses"] if s["state"] == "failed"]
        assert failed and failed[0]["segmentNumber"] == 1
        assert harness.handlers["after"].calls == []
        pipe_posts = [(svc, path) for svc, path in harness.request_log if path == "/pipe"]
        assert [svc for svc, _ in pipe_posts].count("after") == 0
    finally:
        harness.close()


def test_unreachable_successor_reports_failed(tmp_path):
    harness = PipeHarness(tmp_path, [("solo", False)])
    try:
        harness.directory["ghost"] = "http://127.0.0.1:1"  # nothing listens there
        run_id = harness.put_and_launch(["solo", "ghost"])
        view = harness.wait_run_terminal(run_id)
        assert view["state"] == "failed"
        (failed,) = [s for s in view["statuses"] if s["state"] == "failed"]
        assert failed["segmentNumber"] == 0
        assert "unreachable" in failed["message"]
        assert "'ghost'" in failed["message"]
    finally:
        harness.close()


def scripted_pipe_service(statuses):
    """A /pipe endpoint answering the given statuses in turn, then the last one."""
    bodies = []
    router = Router("scripted")

    def pipe(req):
        bodies.append(req.body)
        return Response.json({}, statuses[min(len(bodies), len(statuses)) - 1])

    router.route("POST", "/pipe", pipe)
    return HttpService(router).start(), bodies


def deliver_through(caller, tmp_path, url):
    """Send one descriptor to service "svc" through the scheduler's launch or
    a pipe service's send: None once accepted, else the failure."""
    directory = {"svc": url}
    if caller == "scheduler":
        scheduler = Scheduler(tmp_path, directory=directory, retry_delays=FAST_RETRIES)
        template = parse_descriptor(json.dumps(descriptor_doc(["svc"])))
        try:
            scheduler.launch(PipeDefinition("p", "p", template), Trigger(triggerId="t", kind="immediate"))
        except DispatchError as exc:
            return str(exc)
        return None
    service = PipeService("upstream", RecordingHandler("upstream"), directory=directory, retry_delays=FAST_RETRIES)
    try:
        return service.send("svc", parse_descriptor(json.dumps(descriptor_doc(["svc"]))))
    finally:
        service.stop()


@pytest.mark.parametrize("caller", ["scheduler", "pipe-service"])
def test_delivery_retries_busy_service_until_accepted(caller, tmp_path):
    http, bodies = scripted_pipe_service([503, 503, 202])
    try:
        assert deliver_through(caller, tmp_path, http.url) is None
        assert len(bodies) == 3
    finally:
        http.stop()


@pytest.mark.parametrize("caller", ["scheduler", "pipe-service"])
def test_delivery_does_not_retry_a_rejection(caller, tmp_path):
    http, bodies = scripted_pipe_service([400, 202])
    try:
        error = deliver_through(caller, tmp_path, http.url)
        assert error is not None and "400" in error
        assert len(bodies) == 1
    finally:
        http.stop()


def test_decentralized_no_coordinator_after_launch(tmp_path):
    """Only the addressed services ever receive the descriptor."""
    harness = PipeHarness(tmp_path, [(n, False) for n in ("s0", "s1", "s2", "s3")])
    try:
        run_id = harness.put_and_launch(["s0", "s1", "s2", "s3"])
        view = harness.wait_run_terminal(run_id)
        assert view["state"] == "succeeded"
        pipe_receivers = [svc for svc, path in harness.request_log if path == "/pipe"]
        assert pipe_receivers == ["s0", "s1", "s2", "s3"]
    finally:
        harness.close()


def test_exactly_once_across_many_runs(tmp_path):
    harness = PipeHarness(tmp_path, [("a", False), ("b", False)])
    try:
        run_ids = [harness.put_and_launch(["a", "b"]) for _ in range(5)]
        for run_id in run_ids:
            assert harness.wait_run_terminal(run_id)["state"] == "succeeded"
        for name in ("a", "b"):
            counts = {rid: 0 for rid in run_ids}
            for rid, _seg in harness.handlers[name].calls:
                counts[rid] += 1
            assert all(c == 1 for c in counts.values())
    finally:
        harness.close()


def test_many_concurrent_submissions(three_services):
    """Each of 50 concurrently submitted descriptors executes exactly once."""
    import concurrent.futures

    h = three_services
    with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
        futures = [
            pool.submit(submit_descriptor, h.directory["alpha"], ["alpha"])
            for _ in range(50)
        ]
        codes = [f.result().status_code for f in futures]
    assert codes == [202] * 50
    assert wait_until(lambda: len(h.handlers["alpha"].calls) == 50)
    run_ids = [rid for rid, _ in h.handlers["alpha"].calls]
    assert len(set(run_ids)) == 50


def test_connection_bursts_are_not_reset(three_services):
    """Ten bursts of 50 new connections from 16 threads: none is reset by a
    full listen backlog."""
    import concurrent.futures

    h = three_services
    for _ in range(10):
        with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
            futures = [
                pool.submit(submit_descriptor, h.directory["alpha"], ["alpha"])
                for _ in range(50)
            ]
            errors = [f.exception() for f in futures if f.exception() is not None]
        assert errors == []
        assert [f.result().status_code for f in futures] == [202] * 50
    assert wait_until(lambda: len(h.handlers["alpha"].calls) == 500, timeout=60)


def test_standalone_service_without_runlog():
    handler = RecordingHandler("lone")
    service = PipeService("lone", handler, retry_delays=FAST_RETRIES).start()
    try:
        resp = submit_descriptor(service.url, ["lone"])
        assert resp.status_code == 202
        assert wait_until(lambda: handler.calls)
        assert service.reporter.local[0].state == "succeeded"
    finally:
        service.stop()
