"""Record and identifier-list envelopes carried in pipe payloads."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..pipeline.descriptor import Payload

# the content type of RDF records between importer, transformer and exporter
WIRE_TYPE = "application/n-triples"


@dataclass
class SourceRecord:
    sourceId: str
    catalogueId: str
    content: str
    contentType: str
    fetchedAt: str = ""

    def to_json(self) -> dict:
        return {
            "sourceId": self.sourceId,
            "catalogueId": self.catalogueId,
            "content": self.content,
            "contentType": self.contentType,
            "fetchedAt": self.fetchedAt,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SourceRecord":
        return cls(
            sourceId=str(obj["sourceId"]),
            catalogueId=str(obj["catalogueId"]),
            content=str(obj["content"]),
            contentType=str(obj["contentType"]),
            fetchedAt=str(obj.get("fetchedAt", "")),
        )


@dataclass
class IdentifierList:
    catalogueId: str
    runId: str
    sourceIds: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"catalogueId": self.catalogueId, "runId": self.runId, "sourceIds": list(self.sourceIds)}

    @classmethod
    def from_json(cls, obj: dict) -> "IdentifierList":
        return cls(str(obj["catalogueId"]), str(obj["runId"]), [str(x) for x in obj["sourceIds"]])


def record_payload(record: SourceRecord) -> Payload:
    return Payload.json_data({"kind": "record", "record": record.to_json()})


def record_error_payload(source_id: str, message: str) -> Payload:
    return Payload.json_data({"kind": "record-error", "sourceId": source_id, "message": message})


def marker_payload(id_list: IdentifierList, record_total: int) -> Payload:
    """Final per-run marker carrying the complete identifier list inline."""
    return Payload.json_data(
        {"kind": "identifiers", "identifierList": id_list.to_json(), "recordTotal": record_total}
    )


def parse_envelope(payload: Payload | None) -> dict:
    """Decode a harvest payload envelope; harvest payloads are always inline."""
    if payload is None:
        return {"kind": "none"}
    if payload.dataRef is not None:
        raise ValueError(f"harvest payloads travel inline, got a dataRef: {payload.dataRef}")
    raw = payload.decoded() if payload.data is not None else b""
    if not raw:
        return {"kind": "none"}
    obj = json.loads(raw.decode("utf-8"))
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("payload is not a harvest envelope")
    return obj
