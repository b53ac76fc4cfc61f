"""Pipe-service wiring for importer, transformer, and exporter roles.

Each hop carries one descriptor per run: a `RunEnvelope` holding the run's
records and its complete identifier list. The importer fills it, the
transformer maps every record in one call, and the exporter writes them in
order, 100 to a registry request, then synchronizes the catalogue against
the identifier list.
"""

from __future__ import annotations

import json
import logging
from dataclasses import replace

from ..pipeline.service import HandlerResult, PipeContext, PipeService
from ..rdf import (  # noqa: F401 - bench/tracing.py times serialize_turtle here by name
    ParseError,
    serialize_turtle,
    serialize_wire,
)
from .exporter import RegistryClient, export_records, finalize_sync
from .importers import import_paged_json, import_rdf_dump
from .mapping import MappingError, MappingRuleSet, PathError, transform
from .records import WIRE_TYPE, IdentifierList, RunEnvelope, parse_envelope

logger = logging.getLogger(__name__)


def make_importer(
    directory: dict[str, str],
    runlog_url: str | None = None,
    token: str | None = None,
    workers: int = 4,
    retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> PipeService:
    """Importer service: fetch the source, forward its records and identifier list.

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

        run = RunEnvelope(IdentifierList(catalogue, ctx.descriptor.runId or "", ids), records)
        return HandlerResult(run.to_payload(), json.dumps({"records": len(records), "warnings": warnings}))

    return make_pipe_service("importer", handler, directory, runlog_url, token, workers, retry_delays)


def make_transformer(
    directory: dict[str, str],
    runlog_url: str | None = None,
    token: str | None = None,
    base_iri: str = "http://odcat.example",
    workers: int = 4,
    retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> PipeService:
    """Transformer service: apply the segment's "mappingRules" to a run's records.

    N-Triples records are already in the form the registry takes and pass
    through unparsed. A record that cannot be mapped moves to the envelope's
    `failed` list, so the exporter counts it and the sync still keeps its
    dataset.
    """

    def handler(ctx: PipeContext) -> HandlerResult:
        run = parse_envelope(ctx.payload)
        rules = MappingRuleSet.from_json(ctx.config.get("mappingRules", {"rules": []}))
        mapped = []
        for record in run.records:
            if record.contentType == WIRE_TYPE:
                mapped.append(record)
                continue
            try:
                triples = transform(record, rules, base_iri)
            except (MappingError, PathError, ParseError) as exc:
                logger.warning("transform failed for %s: %s", record.sourceId, exc)
                run.failed.append({"sourceId": record.sourceId, "message": str(exc)})
                continue
            mapped.append(replace(record, content=serialize_wire(triples), contentType=WIRE_TYPE))
        run.records = mapped
        return HandlerResult(run.to_payload())

    return make_pipe_service("transformer", handler, directory, runlog_url, token, workers, retry_delays)


def make_exporter(
    directory: dict[str, str],
    registry_url: str,
    runlog_url: str | None = None,
    token: str | None = None,
    workers: int = 8,
    retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> PipeService:
    """Exporter service: write a run's records to the registry, then synchronize.

    Segment config keys: "allowEmptySync" (default false).
    """
    client = RegistryClient(registry_url, token)

    def handler(ctx: PipeContext) -> HandlerResult:
        run = parse_envelope(ctx.payload)
        counts = export_records(client, run.identifierList.catalogueId, run.records)
        counts["failed"] += len(run.failed)
        sync = finalize_sync(client, run.identifierList, allow_empty=bool(ctx.config.get("allowEmptySync", False)))
        summary = {
            "records": len(run.records) + len(run.failed),
            "created": counts["created"],
            "updated": counts["updated"],
            "failed": counts["failed"],
            "deleted": sync["deleted"],
            "kept": sync["kept"],
            "refusedEmptySync": sync["refusedEmptySync"],
        }
        return HandlerResult(message=json.dumps(summary))

    return make_pipe_service("exporter", handler, directory, runlog_url, token, workers, retry_delays)


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
