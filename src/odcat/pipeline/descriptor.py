"""Pipe descriptor wire format: parsing, validation, segment routing.

A descriptor is a plain JSON document carrying an ordered list of segments.
Flow is forward-only and acyclic; the full document travels from service to
service with no central coordinator.
"""

from __future__ import annotations

import base64
import binascii
import json
import uuid
from dataclasses import dataclass, field, replace
from datetime import datetime


class DescriptorSyntaxError(ValueError):
    """The submitted document is not well-formed JSON."""


class DescriptorSchemaError(ValueError):
    """The document is JSON but violates the descriptor schema."""


class NotAddressedError(LookupError):
    """No unprocessed segment matches this service; the descriptor was misrouted."""


class AlreadyProcessedError(RuntimeError):
    """Attempt to complete a segment that was already marked processed."""


@dataclass
class Payload:
    dataType: str = "text"
    dataMimeType: str = "text/plain"
    data: str | None = None
    dataRef: str | None = None

    def to_json(self) -> dict:
        out = {"dataType": self.dataType, "dataMimeType": self.dataMimeType}
        if self.data is not None:
            out["data"] = self.data
        if self.dataRef is not None:
            out["dataRef"] = self.dataRef
        return out

    @classmethod
    def text(cls, data: str, mime: str = "text/plain") -> "Payload":
        return cls("text", mime, data)

    @classmethod
    def json_data(cls, obj, mime: str = "application/json") -> "Payload":
        return cls("text", mime, json.dumps(obj))

    def decoded(self) -> bytes:
        """Inline payload bytes (text or base64)."""
        if self.data is None:
            raise ValueError("payload carries no inline data")
        if self.dataType == "base64":
            return base64.b64decode(self.data, validate=True)
        return self.data.encode("utf-8")


@dataclass
class Segment:
    serviceId: str
    segmentNumber: int
    processed: bool = False
    next: list[int] | None = None
    config: dict = field(default_factory=dict)
    payload: Payload | None = None

    def to_json(self) -> dict:
        header: dict = {
            "serviceId": self.serviceId,
            "segmentNumber": self.segmentNumber,
            "processed": self.processed,
        }
        if self.next is not None:
            header["next"] = list(self.next)
        body: dict = {"config": self.config}
        if self.payload is not None:
            body["payload"] = self.payload.to_json()
        return {"header": header, "body": body}

    def copy(self) -> "Segment":
        """A copy with its own header fields, payload and top-level config
        dict. The config's values, mapping rules among them, stay shared:
        handlers read their config and never mutate it."""
        return Segment(
            self.serviceId,
            self.segmentNumber,
            self.processed,
            None if self.next is None else list(self.next),
            dict(self.config),
            None if self.payload is None else replace(self.payload),
        )


@dataclass
class PipeDescriptor:
    pipeId: str
    name: str
    segments: list[Segment]
    runId: str | None = None
    version: str = "1.0"
    startTime: str = ""

    def to_json(self) -> dict:
        return {
            "header": {
                "pipeId": self.pipeId,
                "runId": self.runId,
                "name": self.name,
                "version": self.version,
                "startTime": self.startTime,
            },
            "body": {"segments": [s.to_json() for s in self.segments]},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    def segment(self, number: int) -> Segment:
        for s in self.segments:
            if s.segmentNumber == number:
                return s
        raise DescriptorSchemaError(f"no segment numbered {number}")

    def copy(self) -> "PipeDescriptor":
        """A copy whose header, segment list and segments are its own; see
        `Segment.copy` for what the segments share."""
        return replace(self, segments=[s.copy() for s in self.segments])


@dataclass
class RunStatus:
    runId: str
    pipeId: str
    segmentNumber: int
    state: str  # running | succeeded | failed
    message: str = ""
    timestamp: str = ""

    def to_json(self) -> dict:
        return {
            "runId": self.runId,
            "pipeId": self.pipeId,
            "segmentNumber": self.segmentNumber,
            "state": self.state,
            "message": self.message,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunStatus":
        try:
            return cls(
                runId=str(obj["runId"]),
                pipeId=str(obj.get("pipeId", "")),
                segmentNumber=int(obj["segmentNumber"]),
                state=str(obj["state"]),
                message=str(obj.get("message", "")),
                timestamp=str(obj.get("timestamp", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DescriptorSchemaError(f"bad run status: {exc}") from exc


TERMINAL_STATES = ("succeeded", "failed")


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise DescriptorSchemaError(f"missing field {key!r} in {where}")
    return obj[key]


def _parse_timestamp(value: str, where: str) -> None:
    try:
        datetime.fromisoformat(value.replace("Z", "+00:00"))
    except (ValueError, AttributeError):
        raise DescriptorSchemaError(f"{where} is not an RFC 3339 timestamp: {value!r}") from None


def _parse_payload(obj: dict, where: str) -> Payload:
    data_type = _require(obj, "dataType", where)
    if data_type not in ("text", "base64"):
        raise DescriptorSchemaError(f"{where}: dataType must be 'text' or 'base64'")
    mime = _require(obj, "dataMimeType", where)
    data = obj.get("data")
    data_ref = obj.get("dataRef")
    if data is not None and data_ref is not None:
        raise DescriptorSchemaError(f"{where}: only one of data and dataRef may be set")
    if data_type == "base64" and data is not None:
        try:
            base64.b64decode(data, validate=True)
        except (binascii.Error, ValueError):
            raise DescriptorSchemaError(f"{where}: data is not valid base64") from None
    return Payload(data_type, str(mime), data, data_ref)


def parse_descriptor(raw: bytes | str, require_run_id: bool = False) -> PipeDescriptor:
    """Parse and validate a descriptor document.

    `require_run_id=False` admits stored templates whose runId is still unset.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DescriptorSyntaxError(f"descriptor is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DescriptorSyntaxError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DescriptorSchemaError("descriptor must be a JSON object")

    header = _require(doc, "header", "descriptor")
    body = _require(doc, "body", "descriptor")
    pipe_id = str(_require(header, "pipeId", "header"))
    name = str(_require(header, "name", "header"))
    version = _require(header, "version", "header")
    if version != "1.0":
        raise DescriptorSchemaError(f"unsupported descriptor version {version!r}")
    start_time = str(_require(header, "startTime", "header"))
    if start_time:
        _parse_timestamp(start_time, "header.startTime")

    run_id = header.get("runId")
    if run_id is None and require_run_id:
        raise DescriptorSchemaError("header.runId is required for execution")
    for label, value in (("pipeId", pipe_id), ("runId", run_id)):
        if value is not None and value != "":
            try:
                uuid.UUID(str(value))
            except ValueError:
                raise DescriptorSchemaError(f"header.{label} is not a UUID: {value!r}") from None

    raw_segments = _require(body, "segments", "body")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise DescriptorSchemaError("body.segments must be a non-empty list")

    segments: list[Segment] = []
    for i, raw_seg in enumerate(raw_segments):
        where = f"segment {i}"
        seg_header = _require(raw_seg, "header", where)
        seg_body = _require(raw_seg, "body", where)
        service_id = _require(seg_header, "serviceId", where)
        if not isinstance(service_id, str) or not service_id:
            raise DescriptorSchemaError(f"{where}: serviceId must be a non-empty string")
        number = _require(seg_header, "segmentNumber", where)
        if not isinstance(number, int) or isinstance(number, bool) or number < 0:
            raise DescriptorSchemaError(f"{where}: segmentNumber must be a non-negative integer")
        processed = _require(seg_header, "processed", where)
        if not isinstance(processed, bool):
            raise DescriptorSchemaError(f"{where}: processed must be a boolean")
        nxt = seg_header.get("next")
        if nxt is not None:
            if not isinstance(nxt, list) or not all(isinstance(n, int) and not isinstance(n, bool) for n in nxt):
                raise DescriptorSchemaError(f"{where}: next must be a list of segment numbers")
        config = seg_body.get("config", {})
        if not isinstance(config, dict):
            raise DescriptorSchemaError(f"{where}: config must be an object")
        payload = None
        if seg_body.get("payload") is not None:
            payload = _parse_payload(seg_body["payload"], f"{where} payload")
        segments.append(Segment(service_id, number, processed, nxt, config, payload))

    numbers = [s.segmentNumber for s in segments]
    seen: set[int] = set()
    for s in segments:
        if s.segmentNumber in seen:
            raise DescriptorSchemaError(f"segment {s.segmentNumber}: duplicate segmentNumber")
        seen.add(s.segmentNumber)
    if sorted(numbers) != list(range(len(numbers))):
        raise DescriptorSchemaError(
            f"segment numbers must be contiguous from 0, got {sorted(numbers)}"
        )
    for s in segments:
        for n in s.next or []:
            if n not in seen:
                raise DescriptorSchemaError(
                    f"segment {s.segmentNumber}: next references unknown segment {n}"
                )
            if n <= s.segmentNumber:
                raise DescriptorSchemaError(
                    f"segment {s.segmentNumber}: next must reference a later segment, got {n}"
                )

    return PipeDescriptor(
        pipeId=pipe_id,
        name=name,
        segments=sorted(segments, key=lambda s: s.segmentNumber),
        runId=str(run_id) if run_id not in (None, "") else None,
        version="1.0",
        startTime=start_time,
    )


def my_segment(descriptor: PipeDescriptor, service_id: str) -> Segment:
    """Lowest-numbered unprocessed segment addressed to this service."""
    for seg in sorted(descriptor.segments, key=lambda s: s.segmentNumber):
        if not seg.processed and seg.serviceId == service_id:
            return seg
    raise NotAddressedError(f"no unprocessed segment for service {service_id!r}")


def successors(descriptor: PipeDescriptor, completed: int) -> list[int]:
    seg = descriptor.segment(completed)
    if seg.next is not None:
        return list(seg.next)
    follower = completed + 1
    return [follower] if any(s.segmentNumber == follower for s in descriptor.segments) else []


def forward(
    descriptor: PipeDescriptor, completed: int, out_payload: Payload | None = None
) -> list[tuple[str, PipeDescriptor]]:
    """Mark a segment done and produce one descriptor copy per successor.

    The done segment's payload was its input and is dropped, so a copy
    carries only the payloads its successors read. Each copy has its own
    segments and payloads, so downstream mutation of one copy never leaks
    into its siblings (`Segment.copy` says what they share). A terminal
    segment yields an empty list.
    """
    seg = descriptor.segment(completed)
    if seg.processed:
        raise AlreadyProcessedError(f"segment {completed} already processed")
    seg.processed = True
    seg.payload = None
    targets = successors(descriptor, completed)
    for number in targets:
        descriptor.segment(number).payload = None if out_payload is None else replace(out_payload)
    out: list[tuple[str, PipeDescriptor]] = []
    for number in targets:
        out.append((descriptor.segment(number).serviceId, descriptor.copy()))
    return out
