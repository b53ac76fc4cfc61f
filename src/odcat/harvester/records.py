"""Source records, identifier lists and the run envelope that carries them through a pipe."""

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


@dataclass
class RunEnvelope:
    """One harvest run as it crosses a hop: the records still on their way, the
    records a stage could not carry on, and the source's complete identifier
    list for the end-of-run synchronization."""

    identifierList: IdentifierList
    records: list[SourceRecord] = field(default_factory=list)
    failed: list[dict] = field(default_factory=list)  # {"sourceId", "message"} each

    def to_payload(self) -> Payload:
        return Payload.json_data(
            {
                "kind": "harvest",
                "records": [r.to_json() for r in self.records],
                "failed": self.failed,
                "identifierList": self.identifierList.to_json(),
            }
        )


def parse_envelope(payload: Payload | None) -> RunEnvelope:
    """Decode a run envelope; harvest payloads always travel inline."""
    if payload is None:
        raise ValueError("harvest segment received no payload")
    if payload.dataRef is not None:
        raise ValueError(f"harvest payloads travel inline, got a dataRef: {payload.dataRef}")
    obj = json.loads(payload.decoded().decode("utf-8"))
    if not isinstance(obj, dict) or obj.get("kind") != "harvest":
        raise ValueError("payload is not a harvest envelope")
    try:
        return RunEnvelope(
            IdentifierList.from_json(obj["identifierList"]),
            [SourceRecord.from_json(r) for r in obj["records"]],
            [{"sourceId": str(f["sourceId"]), "message": str(f["message"])} for f in obj["failed"]],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed harvest envelope: {exc!r}") from exc
