import itertools
import json
import uuid
from datetime import datetime, timezone

import pytest
import requests

from harness import FAST_RETRIES, TOKEN, PipeHarness, wait_until

from odcat.httpkit import ClientResponse
from odcat.pipeline import RunStatus, parse_descriptor
from odcat.scheduler import (
    DispatchError,
    PipeDefinition,
    RunLog,
    Scheduler,
    TerminalOverwriteError,
    Trigger,
    UnknownRunError,
)


def two_segment_template(services=("alpha", "beta"), config0=None):
    return parse_descriptor(
        json.dumps(
            {
                "header": {
                    "pipeId": str(uuid.uuid4()),
                    "name": "p",
                    "version": "1.0",
                    "startTime": "",
                },
                "body": {
                    "segments": [
                        {
                            "header": {"serviceId": s, "segmentNumber": i, "processed": False},
                            "body": {"config": (config0 if i == 0 else None) or {}},
                        }
                        for i, s in enumerate(services)
                    ]
                },
            }
        )
    )


# -- run log -------------------------------------------------------------


def test_run_succeeds_when_all_segments_succeed():
    log = RunLog()
    log.register("r1", "p1", [0, 1])
    log.record(RunStatus("r1", "p1", 0, "succeeded"))
    assert log.run_state("r1") == "running"
    log.record(RunStatus("r1", "p1", 1, "succeeded"))
    assert log.run_state("r1") == "succeeded"


def test_any_failed_segment_fails_run():
    log = RunLog()
    log.register("r1", "p1", [0, 1])
    log.record(RunStatus("r1", "p1", 0, "succeeded"))
    log.record(RunStatus("r1", "p1", 1, "failed", "boom"))
    assert log.run_state("r1") == "failed"


def test_terminal_states_immutable():
    log = RunLog()
    log.register("r1", "p1", [0])
    log.record(RunStatus("r1", "p1", 0, "succeeded"))
    with pytest.raises(TerminalOverwriteError):
        log.record(RunStatus("r1", "p1", 0, "failed"))
    with pytest.raises(TerminalOverwriteError):
        log.record(RunStatus("r1", "p1", 0, "running"))


def test_unknown_run_rejected():
    log = RunLog()
    with pytest.raises(UnknownRunError):
        log.record(RunStatus("nope", "p1", 0, "running"))


def test_running_to_terminal_allowed():
    log = RunLog()
    log.register("r1", "p1", [0])
    log.record(RunStatus("r1", "p1", 0, "running"))
    log.record(RunStatus("r1", "p1", 0, "succeeded"))
    assert log.run_state("r1") == "succeeded"


# -- launch ---------------------------------------------------------------


def test_launch_happy_path_run_log(tmp_path):
    harness = PipeHarness(tmp_path, [("alpha", False), ("beta", False)])
    try:
        run_id = harness.put_and_launch(["alpha", "beta"])
        view = harness.wait_run_terminal(run_id)
        assert view["state"] == "succeeded"
        states = [(s["state"], s["segmentNumber"]) for s in view["statuses"]]
        assert states[0] == ("running", 0)
        assert ("succeeded", 0) in states and ("succeeded", 1) in states
    finally:
        harness.close()


def test_launch_first_service_down(tmp_path):
    scheduler = Scheduler(tmp_path, directory={"gone": "http://127.0.0.1:1"}, retry_delays=FAST_RETRIES)
    pipe = PipeDefinition("p1", "p1", two_segment_template(("gone", "beta")))
    with pytest.raises(DispatchError):
        scheduler.launch(pipe, Trigger(triggerId="t", kind="immediate"))
    run_id = next(iter(scheduler.runlog._runs))
    assert scheduler.runlog.run_state(run_id) == "failed"
    statuses = scheduler.runlog.statuses(run_id)
    assert statuses[-1].state == "failed" and "DispatchError" in statuses[-1].message


def shallow_merge_oracle(base, overlay):
    merged = {}
    for key in set(base) | set(overlay):
        merged[key] = overlay[key] if key in overlay else base[key]
    return merged


def test_trigger_overlay_shallow_merge(tmp_path):
    harness = PipeHarness(tmp_path, [("alpha", False)])
    try:
        seen = {}
        harness.handlers["alpha"].result_payload = None
        original = harness.handlers["alpha"].__call__

        def capture(ctx):
            seen.update(ctx.config)
            return original(ctx)

        harness.services["alpha"].handler = capture

        pipe_id = str(uuid.uuid4())
        definition = harness.pipe_definition(
            pipe_id,
            ["alpha"],
            triggers=[
                {
                    "triggerId": "imm",
                    "kind": "immediate",
                    "configOverlay": {"limit": 5},
                }
            ],
            config0={"limit": 10, "url": "http://src"},
        )
        requests.put(
            f"{harness.scheduler_http.url}/pipes/{pipe_id}",
            data=json.dumps(definition),
            headers={"Authorization": f"Bearer {TOKEN}"},
            timeout=10,
        ).raise_for_status()
        harness.scheduler.run_pending()
        assert wait_until(lambda: seen)
        assert seen == {"limit": 5, "url": "http://src"}
        assert seen == shallow_merge_oracle({"limit": 10, "url": "http://src"}, {"limit": 5})
    finally:
        harness.close()


def test_shallow_merge_brute_force_over_key_sets(tmp_path):
    scheduler = Scheduler(tmp_path, directory={"sink": "http://sink"}, retry_delays=())
    dispatched = []

    class FakeClient:
        def request(self, method, url, body=b"", headers=None):
            dispatched.append(parse_descriptor(body))
            return ClientResponse(202, b"")

    scheduler.client = FakeClient()
    keys = ["a", "b", "c"]
    subsets = list(itertools.chain.from_iterable(itertools.combinations(keys, r) for r in range(4)))
    for base_keys in subsets:
        for over_keys in subsets:
            base = {k: f"base-{k}" for k in base_keys}
            overlay = {k: f"over-{k}" for k in over_keys}
            pipe = PipeDefinition("p", "p", two_segment_template(("sink",), config0=base))
            trigger = Trigger(triggerId="t", kind="immediate", configOverlay=overlay)
            scheduler.launch(pipe, trigger)
            got = dispatched[-1].segment(0).config
            assert got == shallow_merge_oracle(base, overlay)


def test_run_log_reconstruction_multiset(tmp_path):
    harness = PipeHarness(tmp_path, [("a", False), ("b", False), ("c", False)])
    try:
        run_id = harness.put_and_launch(["a", "b", "c"])
        view = harness.wait_run_terminal(run_id)
        terminal = sorted(
            (s["state"], s["segmentNumber"]) for s in view["statuses"] if s["state"] != "running"
        )
        assert terminal == [("succeeded", 0), ("succeeded", 1), ("succeeded", 2)]
    finally:
        harness.close()


def test_scheduler_only_contacts_first_service(tmp_path):
    harness = PipeHarness(tmp_path, [("first", False), ("second", False)])
    outgoing = []
    original_request = harness.scheduler.client.request

    def spying_request(method, url, *args, **kwargs):
        outgoing.append(url)
        return original_request(method, url, *args, **kwargs)

    harness.scheduler.client.request = spying_request
    try:
        run_id = harness.put_and_launch(["first", "second"])
        harness.wait_run_terminal(run_id)
        assert outgoing == [harness.directory["first"] + "/pipe"]
        pipe_posts = [svc for svc, path in harness.request_log if path == "/pipe"]
        assert pipe_posts == ["first", "second"]
    finally:
        harness.close()


def test_disabled_pipe_cannot_launch(tmp_path):
    from odcat.scheduler.core import DisabledPipeError

    scheduler = Scheduler(tmp_path, directory={}, retry_delays=())
    pipe = PipeDefinition("p1", "p1", two_segment_template(), enabled=False)
    scheduler.put_pipe(pipe)
    with pytest.raises(DisabledPipeError):
        scheduler.launch_manual("p1")
    assert scheduler.runlog._runs == {}


def test_run_log_survives_restart(tmp_path):
    log = RunLog(tmp_path)
    log.register("r1", "p1", [0, 1])
    log.record(RunStatus("r1", "p1", 0, "succeeded"))
    log.record(RunStatus("r1", "p1", 1, "succeeded"))

    reloaded = RunLog(tmp_path)
    assert reloaded.run_state("r1") == "succeeded"
    assert len(reloaded.run_view("r1")["statuses"]) == 2
    with pytest.raises(TerminalOverwriteError):
        reloaded.record(RunStatus("r1", "p1", 0, "failed"))


def test_wal_auto_compaction(tmp_path):
    from odcat.rdf import IRI, Literal, QuadStore

    store = QuadStore(tmp_path, compact_every=50)
    for i in range(120):
        store.add("http://g/1", (IRI(f"http://x/{i}"), IRI("http://x/p"), Literal(str(i))))
    # the WAL was folded into the snapshot at least once
    assert (tmp_path / "snapshot.nq").exists()
    wal_lines = (tmp_path / "wal.nq").read_text().count("\n")
    assert wal_lines < 120
    del store
    reloaded = QuadStore(tmp_path)
    assert len(reloaded) == 120


def test_definition_persistence_reload(tmp_path):
    scheduler = Scheduler(tmp_path, directory={})
    pipe = PipeDefinition("keep-me", "keep-me", two_segment_template())
    scheduler.put_pipe(pipe)

    reloaded = Scheduler(tmp_path, directory={})
    assert "keep-me" in reloaded.pipes
    assert reloaded.pipes["keep-me"].descriptorTemplate.segments[0].serviceId == "alpha"


def test_periodic_trigger_fires_via_run_pending(tmp_path):
    harness = PipeHarness(tmp_path, [("alpha", False)])
    try:
        pipe_id = str(uuid.uuid4())
        definition = harness.pipe_definition(
            pipe_id,
            ["alpha"],
            triggers=[
                {
                    "triggerId": "hourly",
                    "kind": "periodic",
                    "interval": "hourly",
                    "createdAt": "2024-01-01T00:00:00Z",
                    "maxExecutions": 3,
                }
            ],
        )
        requests.put(
            f"{harness.scheduler_http.url}/pipes/{pipe_id}",
            data=json.dumps(definition),
            headers={"Authorization": f"Bearer {TOKEN}"},
            timeout=10,
        ).raise_for_status()
        # missed fires collapse into a single catch-up launch
        fired = harness.scheduler.run_pending(datetime(2024, 1, 1, 5, tzinfo=timezone.utc))
        assert fired == 1
        fired_again = harness.scheduler.run_pending(datetime(2024, 1, 1, 5, 0, 1, tzinfo=timezone.utc))
        assert fired_again == 0
        assert wait_until(lambda: len(harness.handlers["alpha"].calls) == 1)
        state = harness.scheduler.trigger_state[pipe_id]["hourly"]
        assert state["executions"] == 1
    finally:
        harness.close()


def test_mutating_endpoints_require_token(tmp_path):
    harness = PipeHarness(tmp_path, [("alpha", False)])
    try:
        pipe_id = str(uuid.uuid4())
        definition = harness.pipe_definition(pipe_id, ["alpha"])
        resp = requests.put(
            f"{harness.scheduler_http.url}/pipes/{pipe_id}", data=json.dumps(definition), timeout=10
        )
        assert resp.status_code == 401
        resp = requests.get(f"{harness.scheduler_http.url}/pipes", timeout=10)
        assert resp.status_code == 200
    finally:
        harness.close()
