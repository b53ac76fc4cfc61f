"""In-process service harness used by pipeline and scheduler tests."""

from __future__ import annotations

import json
import threading
import time
import uuid

import requests

from odcat.config import Config
from odcat.httpkit import HttpService
from odcat.pipeline import HandlerResult, PipeService
from odcat.scheduler import Scheduler
from odcat.suite import Suite

TOKEN = "test-token"
FAST_RETRIES = (0.05, 0.05, 0.05)

EPHEMERAL_ADDRESSES = {name: "127.0.0.1:0" for name in (
    "scheduler", "registry", "search", "quality", "translation",
    "importer", "transformer", "exporter", "portal",
)}


def make_suite(tmp_path, services=None, records=None, **overrides) -> Suite:
    """Suite on ephemeral ports with fast retries, URL checks off."""
    config = Config(
        data_dir=str(tmp_path / "data"),
        api_token=TOKEN,
        addresses=dict(EPHEMERAL_ADDRESSES),
        check_urls=False,
        retry_delays=FAST_RETRIES,
        scheduler_tick=0.1,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return Suite(config, services=services, portal_records=records).start()


def run_harvest(suite: Suite, pipe_doc: dict, timeout: float = 60.0) -> dict:
    """Register + launch a pipe, wait for a terminal run, return the view."""
    scheduler_url = suite.url("scheduler")
    resp = requests.put(
        f"{scheduler_url}/pipes/{pipe_doc['pipeId']}",
        json=pipe_doc,
        headers={"Authorization": f"Bearer {TOKEN}"},
        timeout=30,
    )
    assert resp.status_code in (200, 201), resp.text
    resp = requests.post(
        f"{scheduler_url}/pipes/{pipe_doc['pipeId']}/launch",
        headers={"Authorization": f"Bearer {TOKEN}"},
        timeout=30,
    )
    assert resp.status_code == 202, resp.text
    run_id = resp.json()["runId"]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = requests.get(f"{scheduler_url}/runs/{run_id}", timeout=30).json()
        if view["state"] != "running":
            return view
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} did not finish within {timeout}s")


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class RecordingHandler:
    """Counts executions per run and optionally fails."""

    def __init__(self, name: str, fail: bool = False, result_payload=None):
        self.name = name
        self.fail = fail
        self.result_payload = result_payload
        self.calls: list[tuple[str, int]] = []
        self.lock = threading.Lock()

    def __call__(self, ctx):
        with self.lock:
            self.calls.append((ctx.descriptor.runId, ctx.segment.segmentNumber))
        if self.fail:
            raise RuntimeError(f"{self.name} exploded")
        return HandlerResult(payload=self.result_payload)


class PipeHarness:
    """N pipe services plus a scheduler, all HTTP, all on loopback."""

    def __init__(self, tmp_path, service_specs, tick_seconds: float = 0.1):
        self.handlers: dict[str, RecordingHandler] = {}
        self.services: dict[str, PipeService] = {}
        self.directory: dict[str, str] = {}
        self.request_log: list[tuple[str, str]] = []  # (serviceId, path)

        self.scheduler = Scheduler(
            tmp_path,
            directory=self.directory,
            token=TOKEN,
            retry_delays=FAST_RETRIES,
            tick_seconds=tick_seconds,
        )
        self.scheduler_http = HttpService(self.scheduler.router).start()

        for name, fail in service_specs:
            handler = RecordingHandler(name, fail=fail)
            service = PipeService(
                name,
                handler,
                directory=self.directory,
                runlog_url=self.scheduler_http.url,
                token=TOKEN,
                retry_delays=FAST_RETRIES,
            )
            service.start()
            self._instrument(service)
            self.handlers[name] = handler
            self.services[name] = service
            self.directory[name] = service.url

    def _instrument(self, service: PipeService) -> None:
        original = service.router.dispatch
        log = self.request_log
        name = service.service_id

        def logged(method, path, query, headers, body):
            log.append((name, path))
            return original(method, path, query, headers, body)

        service.router.dispatch = logged

    def pipe_definition(self, pipe_id: str, services: list[str], triggers=None, config0=None):
        segments = []
        for i, name in enumerate(services):
            segments.append(
                {
                    "header": {"serviceId": name, "segmentNumber": i, "processed": False},
                    "body": {"config": (config0 if i == 0 else None) or {}},
                }
            )
        return {
            "pipeId": pipe_id,
            "name": pipe_id,
            "enabled": True,
            "descriptorTemplate": {
                "header": {
                    "pipeId": pipe_id,
                    "runId": None,
                    "name": pipe_id,
                    "version": "1.0",
                    "startTime": "",
                },
                "body": {"segments": segments},
            },
            "triggers": triggers or [],
        }

    def put_and_launch(self, services: list[str], config0=None) -> str:
        pipe_id = str(uuid.uuid4())
        definition = self.pipe_definition(pipe_id, services, config0=config0)
        resp = requests.put(
            f"{self.scheduler_http.url}/pipes/{pipe_id}",
            data=json.dumps(definition),
            headers={"Authorization": f"Bearer {TOKEN}"},
            timeout=10,
        )
        assert resp.status_code in (200, 201), resp.text
        resp = requests.post(
            f"{self.scheduler_http.url}/pipes/{pipe_id}/launch",
            headers={"Authorization": f"Bearer {TOKEN}"},
            timeout=10,
        )
        assert resp.status_code in (202, 502), resp.text
        return resp.json()["runId"]

    def run_view(self, run_id: str) -> dict:
        resp = requests.get(f"{self.scheduler_http.url}/runs/{run_id}", timeout=10)
        resp.raise_for_status()
        return resp.json()

    def wait_run_terminal(self, run_id: str, timeout: float = 10.0) -> dict:
        assert wait_until(lambda: self.run_view(run_id)["state"] != "running", timeout)
        return self.run_view(run_id)

    def close(self) -> None:
        for service in self.services.values():
            service.stop()
        self.scheduler.stop()
        self.scheduler_http.stop()
