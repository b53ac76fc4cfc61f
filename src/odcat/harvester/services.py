"""Pipe-service wiring for importer, transformer, and exporter roles.

Records stream as successive descriptor copies sharing one runId; the final
copy carries the complete identifier list and, at the exporter, triggers the
synchronization step once every record of the run has been handled.
"""

from __future__ import annotations

import json
import logging
import threading
from collections import Counter

from ..pipeline.service import HandlerResult, PipeContext, PipeService
from ..rdf import (  # noqa: F401 - bench/tracing.py times serialize_turtle here by name
    ParseError,
    serialize_turtle,
    serialize_wire,
)
from .exporter import RegistryClient, RegistryError, finalize_sync
from .importers import import_paged_json, import_rdf_dump
from .mapping import MappingError, MappingRuleSet, PathError, transform
from .records import (
    WIRE_TYPE,
    IdentifierList,
    SourceRecord,
    marker_payload,
    parse_envelope,
    record_error_payload,
    record_payload,
)

logger = logging.getLogger(__name__)


def make_importer(
    directory: dict[str, str],
    runlog_url: str | None = None,
    token: str | None = None,
    workers: int = 4,
    retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> PipeService:
    """Importer service: fetch, stream records, emit the identifier list.

    Segment config keys: "sourceUrl", "sourceType" ("rdf-dump"|"paged-json"),
    "catalogue", "pageSize".
    """

    def handler(ctx: PipeContext) -> HandlerResult:
        config = ctx.config
        source_url = config.get("sourceUrl")
        source_type = config.get("sourceType", "rdf-dump")
        catalogue = config.get("catalogue", "")
        if not source_url or not catalogue:
            raise ValueError("importer needs 'sourceUrl' and 'catalogue' in its segment config")
        if source_type == "paged-json":
            records, ids, warnings = import_paged_json(
                source_url, catalogue, page_size=int(config.get("pageSize", 100))
            )
        elif source_type == "rdf-dump":
            records, ids, warnings = import_rdf_dump(source_url, catalogue)
        else:
            raise ValueError(f"unknown sourceType {source_type!r}")

        for record in records:
            ctx.emit(record_payload(record))
        id_list = IdentifierList(catalogue, ctx.descriptor.runId or "", ids)
        ctx.emit(marker_payload(id_list, record_total=len(records)))
        return HandlerResult(
            forward=False,
            message=json.dumps({"records": len(records), "warnings": warnings}),
        )

    return make_pipe_service("importer", handler, directory, runlog_url, token, workers, retry_delays)


def make_transformer(
    directory: dict[str, str],
    runlog_url: str | None = None,
    token: str | None = None,
    base_iri: str = "http://odcat.example",
    workers: int = 4,
    retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> PipeService:
    """Transformer service: apply the segment's "mappingRules" to records.

    Record-level mapping failures are forwarded as error envelopes so the
    exporter's run accounting stays exact.
    """

    def handler(ctx: PipeContext) -> HandlerResult:
        envelope = parse_envelope(ctx.payload)
        if envelope["kind"] == "identifiers":
            return HandlerResult(payload=ctx.payload, report_status=True)
        if envelope["kind"] == "record-error":
            return HandlerResult(payload=ctx.payload, report_status=False)
        if envelope["kind"] != "record":
            raise ValueError(f"unexpected payload kind {envelope['kind']!r}")
        record = SourceRecord.from_json(envelope["record"])
        rules = MappingRuleSet.from_json(ctx.config.get("mappingRules", {"rules": []}))
        try:
            triples = transform(record, rules, base_iri)
        except (MappingError, PathError, ParseError) as exc:
            logger.warning("transform failed for %s: %s", record.sourceId, exc)
            return HandlerResult(
                payload=record_error_payload(record.sourceId, str(exc)), report_status=False
            )
        out = SourceRecord(
            sourceId=record.sourceId,
            catalogueId=record.catalogueId,
            content=serialize_wire(triples),
            contentType=WIRE_TYPE,
            fetchedAt=record.fetchedAt,
        )
        return HandlerResult(payload=record_payload(out), report_status=False)

    return make_pipe_service("transformer", handler, directory, runlog_url, token, workers, retry_delays)


class _RunAccounting:
    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._runs: dict[str, Counter] = {}

    def bump(self, run_id: str, outcome: str) -> None:
        with self._cond:
            self._runs.setdefault(run_id, Counter()).update(("handled", outcome))
            self._cond.notify_all()

    def finish(self, run_id: str, total: int, timeout: float) -> tuple[bool, Counter]:
        """Wait for `total` records of the run, then forget it: (False, counts) on timeout."""
        with self._cond:
            done = self._cond.wait_for(lambda: self._runs.get(run_id, Counter())["handled"] >= total, timeout)
            return done, self._runs.pop(run_id, Counter())


def make_exporter(
    directory: dict[str, str],
    registry_url: str,
    runlog_url: str | None = None,
    token: str | None = None,
    workers: int = 8,
    retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0),
    sync_wait_seconds: float = 120.0,
) -> PipeService:
    """Exporter service: write records to the registry, then synchronize.

    The marker waits until the run's record count is fully handled; if
    records never arrive the run is failed and no deletion happens.
    Segment config keys: "allowEmptySync" (default false).
    """
    client = RegistryClient(registry_url, token)
    accounting = _RunAccounting()

    def handler(ctx: PipeContext) -> HandlerResult:
        envelope = parse_envelope(ctx.payload)
        run_id = ctx.descriptor.runId or ""

        if envelope["kind"] == "record":
            record = SourceRecord.from_json(envelope["record"])
            try:
                result = client.put_dataset(record.catalogueId, record.sourceId, record.content, record.contentType)
                accounting.bump(run_id, result)
            except RegistryError as exc:
                logger.warning("export failed for %s: %s", record.sourceId, exc)
                accounting.bump(run_id, "failed")
            return HandlerResult(report_status=False)

        if envelope["kind"] == "record-error":
            accounting.bump(run_id, "failed")
            return HandlerResult(report_status=False)

        if envelope["kind"] != "identifiers":
            raise ValueError(f"unexpected payload kind {envelope['kind']!r}")

        record_total = int(envelope.get("recordTotal", 0))
        done, counts = accounting.finish(run_id, record_total, sync_wait_seconds)
        if not done:
            raise RuntimeError(
                f"sync abandoned: only {counts['handled']} of {record_total} records arrived"
            )

        id_list = IdentifierList.from_json(envelope["identifierList"])
        sync = finalize_sync(client, id_list, allow_empty=bool(ctx.config.get("allowEmptySync", False)))
        summary = {
            "records": counts["handled"],
            "created": counts["created"],
            "updated": counts["updated"],
            "failed": counts["failed"],
            "deleted": sync["deleted"],
            "kept": sync["kept"],
            "refusedEmptySync": sync["refusedEmptySync"],
        }
        return HandlerResult(report_status=True, message=json.dumps(summary))

    return make_pipe_service("exporter", handler, directory, runlog_url, token, max(workers, 2), retry_delays)


def make_pipe_service(
    service_id: str,
    handler,
    directory: dict[str, str],
    runlog_url: str | None,
    token: str | None,
    workers: int,
    retry_delays: tuple[float, ...],
) -> PipeService:
    return PipeService(
        service_id,
        handler,
        directory=directory,
        runlog_url=runlog_url,
        token=token,
        workers=workers,
        retry_delays=retry_delays,
    )
