"""Service-side pipe runtime: receive, execute, report, forward.

Submissions are acknowledged with 202 before the handler runs (503 while the
queue stays full), so slow handlers never block the upstream service. Every
descriptor between the suite's services, the scheduler's launch included, goes
through `deliver`: busy or unreachable services are retried with backoff, then
reported as failed.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

from ..httpkit import ClientError, HttpClient, HttpService, Request, Response, Router
from ..workqueue import WorkQueue
from .descriptor import (
    NotAddressedError,
    Payload,
    PipeDescriptor,
    RunStatus,
    Segment,
    forward,
    my_segment,
    parse_descriptor,
)

logger = logging.getLogger(__name__)

# descriptors waiting to run, and how long a POST waits for room before a 503
QUEUE_CAPACITY = 1024
ADMISSION_WAIT = 5.0


def utcnow_iso() -> str:
    return datetime.now(timezone.utc).isoformat().replace("+00:00", "Z")


def deliver(
    client: HttpClient,
    directory: dict[str, str],
    service_id: str,
    descriptor: PipeDescriptor,
    retry_delays: tuple[float, ...],
) -> str | None:
    """POST a descriptor to a service's /pipe: None once accepted, else why not.

    A status below 400 is accepted and a 4xx is final; a 5xx or an unreachable
    service is tried again after each of `retry_delays`.
    """
    base = directory.get(service_id)
    if base is None:
        return f"no address for service {service_id!r}"
    url = base.rstrip("/") + "/pipe"
    body = descriptor.dumps().encode("utf-8")
    for attempt in range(len(retry_delays) + 1):
        try:
            resp = client.request("POST", url, body)
        except ClientError as exc:
            error = f"service {service_id!r} unreachable: {exc}"
        else:
            if resp.status < 400:
                return None
            error = f"service {service_id!r} answered {resp.status}"
            if resp.status < 500:
                return error
        if attempt < len(retry_delays):
            time.sleep(retry_delays[attempt])
    return error


class StatusReporter:
    """Run-status posting in order from one worker, retried until it succeeds or the reporter stops."""

    def __init__(self, runlog_url: str | None, token: str | None = None):
        self.runlog_url = runlog_url
        self.local: list[RunStatus] = []
        self._headers = {"Content-Type": "application/json"}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"
        self._client = HttpClient(timeout=10)
        self.queue = WorkQueue(self._post, "status-reporter")

    def report(self, status: RunStatus) -> None:
        if not status.timestamp:
            status.timestamp = utcnow_iso()
        self.local.append(status)
        if self.runlog_url:
            self.queue.submit(status)

    def _post(self, status: RunStatus) -> None:
        body = json.dumps(status.to_json()).encode("utf-8")
        while True:
            try:
                self._client.request("POST", self.runlog_url + "/runs/status", body, self._headers)
                return
            except ClientError:
                if self.queue.closed:
                    return
                time.sleep(0.2)

    def stop(self) -> None:
        self.queue.close()
        self._client.close()


@dataclass
class HandlerResult:
    """A handler's outcome: the payload its successors receive and its status message."""

    payload: Payload | None = None
    message: str = ""


class PipeContext:
    """What a handler sees: the run's descriptor, its segment, config and payload."""

    def __init__(self, descriptor: PipeDescriptor, segment: Segment):
        self.descriptor = descriptor
        self.segment = segment
        self.config = segment.config
        self.payload = segment.payload


Handler = Callable[[PipeContext], "HandlerResult | Payload | None"]


class PipeService:
    """HTTP pipe endpoint wrapping one handler.

    The directory maps serviceId -> base URL and is the only routing
    knowledge a service holds; there is no central coordinator.
    """

    def __init__(
        self,
        service_id: str,
        handler: Handler,
        directory: dict[str, str] | None = None,
        runlog_url: str | None = None,
        token: str | None = None,
        workers: int = 8,
        retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0),
    ):
        self.service_id = service_id
        self.handler = handler
        self.directory = directory if directory is not None else {}
        self.reporter = StatusReporter(runlog_url, token)
        self.retry_delays = retry_delays
        self.queue = WorkQueue(
            lambda job: self._execute(*job), f"pipe-{service_id}", workers, False, QUEUE_CAPACITY, ADMISSION_WAIT
        )
        self.router = Router(name=service_id, token=token)
        self.router.route("POST", "/pipe", self._receive)
        self.client = HttpClient(timeout=30)
        self._http: HttpService | None = None

    # -- wire ----------------------------------------------------------

    def _receive(self, req: Request) -> Response:
        try:
            descriptor = parse_descriptor(req.body, require_run_id=True)
        except ValueError as exc:
            return Response.error(400, type(exc).__name__, str(exc))
        try:
            segment = my_segment(descriptor, self.service_id)
        except NotAddressedError as exc:
            return Response.error(400, "NotAddressed", str(exc))
        if not self.queue.submit((descriptor, segment)):
            return Response.error(503, "Busy", f"{self.service_id} has no room for run {descriptor.runId}")
        return Response.json(
            {"accepted": True, "runId": descriptor.runId, "segmentNumber": segment.segmentNumber},
            status=202,
        )

    def _execute(self, descriptor: PipeDescriptor, segment: Segment) -> None:
        try:
            outcome = self.handler(PipeContext(descriptor, segment))
            if not isinstance(outcome, HandlerResult):
                outcome = HandlerResult(payload=outcome)
            for target, doc in forward(descriptor, segment.segmentNumber, outcome.payload):
                error = self.send(target, doc)
                if error is not None:
                    raise RuntimeError(f"successor {target!r} not reached: {error}")
        except Exception as exc:
            logger.warning("%s: segment failed on run %s: %s", self.service_id, descriptor.runId, exc)
            self._report(descriptor, segment.segmentNumber, "failed", str(exc))
            return
        self._report(descriptor, segment.segmentNumber, "succeeded", outcome.message)

    def _report(self, descriptor: PipeDescriptor, segment_number: int, state: str, message: str = "") -> None:
        self.reporter.report(
            RunStatus(
                runId=descriptor.runId or "",
                pipeId=descriptor.pipeId,
                segmentNumber=segment_number,
                state=state,
                message=message,
            )
        )

    def send(self, target_service_id: str, descriptor: PipeDescriptor) -> str | None:
        """POST a descriptor to the target service: None once accepted, else why not."""
        return deliver(self.client, self.directory, target_service_id, descriptor, self.retry_delays)

    # -- lifecycle -----------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> "PipeService":
        self._http = HttpService(self.router, host, port).start()
        return self

    @property
    def url(self) -> str:
        assert self._http is not None, "service not started"
        return self._http.url

    def stop(self) -> None:
        if self._http is not None:
            self._http.stop()
        self.queue.close()
        self.reporter.stop()
        self.client.close()
