"""Pipe definitions, run log, launch dispatch, and the scheduling loop."""

from __future__ import annotations

import json
import logging
import threading
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from ..httpkit import HttpClient, Request, Response, Router
from ..pipeline.descriptor import (
    PipeDescriptor,
    RunStatus,
    TERMINAL_STATES,
    parse_descriptor,
)
from ..pipeline.service import deliver
from .triggers import Trigger, format_timestamp, next_fire_time, parse_timestamp

logger = logging.getLogger(__name__)


class UnknownRunError(KeyError):
    """Status posted for a run the scheduler never launched."""


class TerminalOverwriteError(RuntimeError):
    """A segment that already reached succeeded/failed got another status."""


class DispatchError(RuntimeError):
    """First service unreachable after retries; the run is recorded failed."""


class UnknownPipeError(KeyError):
    pass


class DisabledPipeError(RuntimeError):
    pass


@dataclass
class PipeDefinition:
    pipeId: str
    name: str
    descriptorTemplate: PipeDescriptor
    triggers: list[Trigger] = field(default_factory=list)
    enabled: bool = True

    def to_json(self) -> dict:
        return {
            "pipeId": self.pipeId,
            "name": self.name,
            "enabled": self.enabled,
            "descriptorTemplate": self.descriptorTemplate.to_json(),
            "triggers": [t.to_json() for t in self.triggers],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PipeDefinition":
        template = parse_descriptor(json.dumps(obj["descriptorTemplate"]))
        return cls(
            pipeId=str(obj["pipeId"]),
            name=str(obj.get("name", obj["pipeId"])),
            descriptorTemplate=template,
            triggers=[Trigger.from_json(t) for t in obj.get("triggers", [])],
            enabled=bool(obj.get("enabled", True)),
        )


class RunLog:
    """Per-run status history; terminal segment states are immutable."""

    def __init__(self, data_dir: Path | None = None):
        self._data_dir = data_dir
        self._runs: dict[str, dict] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._global = threading.Lock()
        if data_dir is not None:
            (data_dir / "runs").mkdir(parents=True, exist_ok=True)

    def register(self, run_id: str, pipe_id: str, segments: list[int]) -> None:
        with self._global:
            self._runs[run_id] = {
                "pipeId": pipe_id,
                "segments": sorted(segments),
                "statuses": [],
                "segment_state": {},
            }
            self._locks[run_id] = threading.Lock()
        if self._data_dir is not None:
            meta = {"runId": run_id, "pipeId": pipe_id, "segments": sorted(segments)}
            (self._data_dir / "runs" / f"{run_id}.meta.json").write_text(json.dumps(meta), encoding="utf-8")

    def _load_from_disk(self, run_id: str) -> dict | None:
        """Rebuild one run's state from its persisted log after a restart."""
        if self._data_dir is None:
            return None
        meta_path = self._data_dir / "runs" / f"{run_id}.meta.json"
        if not meta_path.exists():
            return None
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        run = {
            "pipeId": meta.get("pipeId", ""),
            "segments": list(meta.get("segments", [])),
            "statuses": [],
            "segment_state": {},
        }
        log_path = self._data_dir / "runs" / f"{run_id}.ndjson"
        if log_path.exists():
            for line in log_path.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                status = RunStatus.from_json(json.loads(line))
                run["statuses"].append(status)
                run["segment_state"][status.segmentNumber] = status.state
        with self._global:
            self._runs.setdefault(run_id, run)
            self._locks.setdefault(run_id, threading.Lock())
            return self._runs[run_id]

    def _get(self, run_id: str) -> dict | None:
        with self._global:
            run = self._runs.get(run_id)
        if run is None:
            run = self._load_from_disk(run_id)
        return run

    def record(self, status: RunStatus) -> None:
        run = self._get(status.runId)
        with self._global:
            lock = self._locks.get(status.runId)
        if run is None or lock is None:
            raise UnknownRunError(status.runId)
        if status.state not in TERMINAL_STATES and status.state != "running":
            raise ValueError(f"unknown run state {status.state!r}")
        with lock:
            current = run["segment_state"].get(status.segmentNumber)
            if current in TERMINAL_STATES:
                raise TerminalOverwriteError(
                    f"segment {status.segmentNumber} of run {status.runId} already {current}"
                )
            run["segment_state"][status.segmentNumber] = status.state
            if not status.timestamp:
                status.timestamp = format_timestamp(datetime.now(timezone.utc))
            run["statuses"].append(status)
            if self._data_dir is not None:
                path = self._data_dir / "runs" / f"{status.runId}.ndjson"
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(status.to_json()) + "\n")

    def run_state(self, run_id: str) -> str:
        run = self._get(run_id)
        if run is None:
            raise UnknownRunError(run_id)
        states = run["segment_state"]
        if any(s == "failed" for s in states.values()):
            return "failed"
        if run["segments"] and all(states.get(n) == "succeeded" for n in run["segments"]):
            return "succeeded"
        return "running"

    def run_view(self, run_id: str) -> dict:
        run = self._get(run_id)
        if run is None:
            raise UnknownRunError(run_id)
        return {
            "runId": run_id,
            "pipeId": run["pipeId"],
            "state": self.run_state(run_id),
            "statuses": [s.to_json() for s in run["statuses"]],
        }

    def statuses(self, run_id: str) -> list[RunStatus]:
        run = self._get(run_id)
        if run is None:
            raise UnknownRunError(run_id)
        return list(run["statuses"])


class Scheduler:
    """Stores pipe definitions, fires triggers, dispatches run descriptors.

    Dispatch only ever contacts the first segment's service; everything after
    that is carried by the services themselves.
    """

    def __init__(
        self,
        data_dir: str | Path,
        directory: dict[str, str] | None = None,
        token: str | None = None,
        retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0),
        tick_seconds: float = 0.5,
    ):
        self.data_dir = Path(data_dir)
        (self.data_dir / "pipes").mkdir(parents=True, exist_ok=True)
        self.directory = directory if directory is not None else {}
        self.token = token
        self.retry_delays = retry_delays
        self.tick_seconds = tick_seconds
        self.runlog = RunLog(self.data_dir)
        self.pipes: dict[str, PipeDefinition] = {}
        self.trigger_state: dict[str, dict[str, dict]] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.client = HttpClient(timeout=30)
        self._load()
        self.router = self._build_router()

    # -- persistence -----------------------------------------------------

    def _pipe_path(self, pipe_id: str) -> Path:
        return self.data_dir / "pipes" / f"{pipe_id}.json"

    def _state_path(self, pipe_id: str) -> Path:
        return self.data_dir / "pipes" / f"{pipe_id}.state.json"

    def _load(self) -> None:
        for path in sorted((self.data_dir / "pipes").glob("*.json")):
            if path.name.endswith(".state.json"):
                continue
            try:
                definition = PipeDefinition.from_json(json.loads(path.read_text(encoding="utf-8")))
            except (ValueError, KeyError) as exc:
                logger.warning("skipping unreadable pipe file %s: %s", path, exc)
                continue
            self.pipes[definition.pipeId] = definition
            state_path = self._state_path(definition.pipeId)
            if state_path.exists():
                self.trigger_state[definition.pipeId] = json.loads(state_path.read_text(encoding="utf-8"))
            else:
                self.trigger_state[definition.pipeId] = {}

    def _save_state(self, pipe_id: str) -> None:
        self._state_path(pipe_id).write_text(
            json.dumps(self.trigger_state.get(pipe_id, {})), encoding="utf-8"
        )

    # -- pipe management ---------------------------------------------------

    def put_pipe(self, definition: PipeDefinition) -> None:
        with self._lock:
            self.pipes[definition.pipeId] = definition
            self.trigger_state.setdefault(definition.pipeId, {})
            # prune state of removed triggers
            known = {t.triggerId for t in definition.triggers}
            state = self.trigger_state[definition.pipeId]
            for trigger_id in list(state):
                if trigger_id not in known:
                    del state[trigger_id]
            self._pipe_path(definition.pipeId).write_text(
                json.dumps(definition.to_json(), indent=2), encoding="utf-8"
            )
            self._save_state(definition.pipeId)

    def get_pipe(self, pipe_id: str) -> PipeDefinition:
        pipe = self.pipes.get(pipe_id)
        if pipe is None:
            raise UnknownPipeError(pipe_id)
        return pipe

    def delete_pipe(self, pipe_id: str) -> None:
        with self._lock:
            if pipe_id not in self.pipes:
                raise UnknownPipeError(pipe_id)
            del self.pipes[pipe_id]
            self.trigger_state.pop(pipe_id, None)
            self._pipe_path(pipe_id).unlink(missing_ok=True)
            self._state_path(pipe_id).unlink(missing_ok=True)

    # -- launching ---------------------------------------------------------

    def launch(self, pipe: PipeDefinition, trigger: Trigger) -> str:
        """Mint a run, overlay trigger config onto segment 0, dispatch."""
        if not pipe.enabled:
            raise DisabledPipeError(f"pipe {pipe.pipeId!r} is disabled")
        descriptor = pipe.descriptorTemplate.copy()
        descriptor.runId = str(uuid.uuid4())
        descriptor.startTime = format_timestamp(datetime.now(timezone.utc))
        first = descriptor.segment(0)
        merged = dict(first.config)
        merged.update(trigger.configOverlay)
        first.config = merged

        self.runlog.register(descriptor.runId, pipe.pipeId, [s.segmentNumber for s in descriptor.segments])
        self.runlog.record(RunStatus(descriptor.runId, pipe.pipeId, 0, "running", f"trigger {trigger.triggerId}"))

        error = deliver(self.client, self.directory, first.serviceId, descriptor, self.retry_delays)
        if error is None:
            return descriptor.runId
        self.runlog.record(RunStatus(descriptor.runId, pipe.pipeId, 0, "failed", f"DispatchError: {error}"))
        raise DispatchError(error)

    def launch_manual(self, pipe_id: str) -> str:
        pipe = self.get_pipe(pipe_id)
        trigger = Trigger(triggerId="manual", kind="immediate")
        return self.launch(pipe, trigger)

    # -- scheduling loop -----------------------------------------------------

    def run_pending(self, now: datetime | None = None) -> int:
        """Fire every due trigger once; missed fires collapse into one."""
        now = now or datetime.now(timezone.utc)
        fired = 0
        with self._lock:
            pipes = [p for p in self.pipes.values() if p.enabled]
        for pipe in pipes:
            for trigger in pipe.triggers:
                state = self.trigger_state.setdefault(pipe.pipeId, {}).setdefault(
                    trigger.triggerId, {"executions": 0, "lastFire": None}
                )
                if trigger.maxExecutions is not None and state["executions"] >= trigger.maxExecutions:
                    continue
                if trigger.kind == "immediate":
                    due = state["executions"] == 0
                else:
                    after = parse_timestamp(state["lastFire"]) if state["lastFire"] else trigger.anchor
                    candidate = next_fire_time(trigger, after)
                    due = candidate is not None and candidate <= now
                if not due:
                    continue
                try:
                    self.launch(pipe, trigger)
                except DispatchError as exc:
                    logger.warning("pipe %s trigger %s: %s", pipe.pipeId, trigger.triggerId, exc)
                state["executions"] += 1
                state["lastFire"] = format_timestamp(now)
                self._save_state(pipe.pipeId)
                fired += 1
        return fired

    def start(self) -> "Scheduler":
        self._thread = threading.Thread(target=self._loop, name="scheduler-loop", daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.tick_seconds):
            try:
                self.run_pending()
            except Exception:
                logger.exception("scheduling tick failed")

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.client.close()

    # -- HTTP API -------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router(name="scheduler", token=self.token)

        def put_pipe(req: Request) -> Response:
            try:
                obj = req.json()
                obj.setdefault("pipeId", req.params["pipeId"])
                if obj["pipeId"] != req.params["pipeId"]:
                    return Response.error(400, "BadRequest", "pipeId in body does not match path")
                definition = PipeDefinition.from_json(obj)
            except (ValueError, KeyError) as exc:
                return Response.error(400, type(exc).__name__, str(exc))
            created = definition.pipeId not in self.pipes
            self.put_pipe(definition)
            return Response.json(definition.to_json(), status=201 if created else 200)

        def get_pipes(req: Request) -> Response:
            return Response.json({"pipes": [p.to_json() for p in self.pipes.values()]})

        def get_pipe(req: Request) -> Response:
            try:
                return Response.json(self.get_pipe(req.params["pipeId"]).to_json())
            except UnknownPipeError:
                return Response.error(404, "NotFound", f"no pipe {req.params['pipeId']!r}")

        def delete_pipe(req: Request) -> Response:
            try:
                self.delete_pipe(req.params["pipeId"])
            except UnknownPipeError:
                return Response.error(404, "NotFound", f"no pipe {req.params['pipeId']!r}")
            return Response(status=204, body=b"")

        def launch_pipe(req: Request) -> Response:
            try:
                run_id = self.launch_manual(req.params["pipeId"])
            except UnknownPipeError:
                return Response.error(404, "NotFound", f"no pipe {req.params['pipeId']!r}")
            except DisabledPipeError as exc:
                return Response.error(409, "DisabledPipe", str(exc))
            except DispatchError as exc:
                return Response.json({"error": "DispatchError", "message": str(exc)}, status=502)
            return Response.json({"runId": run_id}, status=202)

        def post_status(req: Request) -> Response:
            try:
                status = RunStatus.from_json(req.json())
                self.runlog.record(status)
            except UnknownRunError as exc:
                return Response.error(404, "UnknownRun", str(exc))
            except TerminalOverwriteError as exc:
                return Response.error(409, "TerminalOverwrite", str(exc))
            except ValueError as exc:
                return Response.error(400, "BadRequest", str(exc))
            return Response.json({"recorded": True})

        def get_run(req: Request) -> Response:
            try:
                return Response.json(self.runlog.run_view(req.params["runId"]))
            except UnknownRunError:
                return Response.error(404, "NotFound", f"no run {req.params['runId']!r}")

        router.route("PUT", "/pipes/{pipeId}", put_pipe, protected=True)
        router.route("GET", "/pipes", get_pipes)
        router.route("GET", "/pipes/{pipeId}", get_pipe)
        router.route("DELETE", "/pipes/{pipeId}", delete_pipe, protected=True)
        router.route("POST", "/pipes/{pipeId}/launch", launch_pipe, protected=True)
        router.route("POST", "/runs/status", post_status, protected=True)
        router.route("GET", "/runs/{runId}", get_run)
        return router
