"""Record and identifier-list envelopes carried in pipe payloads."""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..pipeline.descriptor import Payload
from ..pipeline.service import resolve_payload_bytes

# identifier lists up to this size travel inline; larger ones via file pointer
INLINE_ID_LIMIT = 10000
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


def marker_payload(
    id_list: IdentifierList, record_total: int, spill_dir: str | Path | None = None
) -> Payload:
    """Final per-run marker; large identifier lists spill to a file pointer."""
    envelope = {
        "kind": "identifiers",
        "identifierList": id_list.to_json(),
        "recordTotal": record_total,
    }
    if len(id_list.sourceIds) > INLINE_ID_LIMIT and spill_dir is not None:
        spill = Path(spill_dir) / "payloads"
        spill.mkdir(parents=True, exist_ok=True)
        path = spill / f"ids-{id_list.runId or uuid.uuid4()}.json"
        path.write_text(json.dumps(envelope), encoding="utf-8")
        return Payload("text", "application/json", data=None, dataRef=path.resolve().as_uri())
    return Payload.json_data(envelope)


def parse_envelope(payload: Payload | None) -> dict:
    """Decode a harvest payload envelope (resolving file/http pointers)."""
    if payload is None:
        return {"kind": "none"}
    raw = resolve_payload_bytes(payload)
    if not raw:
        return {"kind": "none"}
    obj = json.loads(raw.decode("utf-8"))
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("payload is not a harvest envelope")
    return obj
