"""Importers: fetch source metadata and return one record per dataset plus the
complete identifier list used for the final synchronization step."""

from __future__ import annotations

import json
import logging
from collections import deque
from datetime import datetime, timezone

import requests

from .. import ns
from ..rdf import (  # noqa: F401 - bench/tracing.py times serialize_turtle here by name
    IRI,
    BlankNode,
    Literal,
    Term,
    Triple,
    parse_ntriples,
    parse_turtle,
    plain_text,
    serialize_turtle,
    serialize_wire,
)
from .records import WIRE_TYPE, SourceRecord

logger = logging.getLogger(__name__)

_DISTRIBUTION = IRI(ns.DCAT_DISTRIBUTION)


class FetchError(RuntimeError):
    """Source unreachable or answered with a non-2xx status."""


class InconsistentCountError(FetchError):
    """The portal's total count changed while paging (after one retry)."""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat().replace("+00:00", "Z")


def _fetch(url: str, timeout: float) -> requests.Response:
    try:
        resp = requests.get(url, timeout=timeout)
    except requests.RequestException as exc:
        raise FetchError(f"cannot fetch {url}: {exc}") from exc
    if not (200 <= resp.status_code < 300):
        raise FetchError(f"{url} answered {resp.status_code}")
    return resp


def subject_map(graph: list[Triple]) -> dict[Term, list[Triple]]:
    """Each subject's triples, in document order."""
    by_subject: dict[Term, list[Triple]] = {}
    for t in graph:
        by_subject.setdefault(t[0], []).append(t)
    return by_subject


def bounded_description(by_subject: dict[Term, list[Triple]], subject: Term) -> list[Triple]:
    """Triples reachable from the subject through blank nodes plus its
    distribution nodes (the record's concise bounded description).

    `by_subject` is the dump's `subject_map`, built once for all its datasets.
    """
    out: list[Triple] = []
    seen_nodes = {subject}
    queue = deque([subject])
    while queue:
        for t in by_subject.get(queue.popleft(), ()):
            out.append(t)
            obj = t[2]
            if isinstance(obj, BlankNode) or t[1] == _DISTRIBUTION:
                if obj not in seen_nodes and not isinstance(obj, Literal):
                    seen_nodes.add(obj)
                    queue.append(obj)
    return out


def import_rdf_dump(
    url: str,
    catalogue_id: str,
    timeout: float = 30.0,
) -> tuple[list[SourceRecord], list[str], int]:
    """Split an RDF dump into per-dataset records.

    Returns (records, identifier list, warning count). A parse failure
    propagates so the run fails without forwarding a partial identifier list.
    """
    resp = _fetch(url, timeout)
    content_type = resp.headers.get("Content-Type", "").split(";")[0].strip().lower()
    text = resp.text
    if content_type == "application/n-triples" or url.endswith(".nt"):
        graph = parse_ntriples(text)
    else:
        graph = parse_turtle(text, base_iri=url)

    subjects = ns.dataset_subjects(graph)
    by_subject = subject_map(graph)
    records: list[SourceRecord] = []
    ids: list[str] = []
    seen: set[str] = set()
    warnings = 0
    fetched_at = _now()
    for subject in subjects:
        description = bounded_description(by_subject, subject)
        identifiers = [
            o.lexical
            for s, p, o in description
            if s == subject and p.value == ns.DCT_IDENTIFIER and isinstance(o, Literal)
        ]
        source_id = identifiers[0] if identifiers else plain_text(subject)
        if source_id in seen:
            warnings += 1
            logger.warning("duplicate identifier %r in dump; keeping the first record", source_id)
            continue
        seen.add(source_id)
        records.append(
            SourceRecord(
                sourceId=source_id,
                catalogueId=catalogue_id,
                content=serialize_wire(description),
                contentType=WIRE_TYPE,
                fetchedAt=fetched_at,
            )
        )
        ids.append(source_id)
    return records, ids, warnings


def _fetch_all_pages(url: str, page_size: int, timeout: float) -> tuple[list[dict], int]:
    sep = "&" if "?" in url else "?"
    offset = 0
    expected: int | None = None
    results: list[dict] = []
    while True:
        page_url = f"{url}{sep}offset={offset}&limit={page_size}"
        payload = _fetch(page_url, timeout).json()
        try:
            count = int(payload["count"])
            page = list(payload["results"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FetchError(f"{page_url}: malformed page object: {exc}") from exc
        if expected is None:
            expected = count
        elif count != expected:
            raise InconsistentCountError(f"count changed from {expected} to {count} while paging")
        results.extend(page)
        offset += page_size
        if offset >= expected or not page:
            break
    return results, expected or 0


def import_paged_json(
    url: str,
    catalogue_id: str,
    page_size: int = 100,
    timeout: float = 30.0,
) -> tuple[list[SourceRecord], list[str], int]:
    """Iterate offset pages of a {"count", "results"} endpoint.

    A count change mid-harvest triggers one full re-fetch before failing.
    Results without an "id" member are skipped and counted as warnings.
    """
    try:
        results, _ = _fetch_all_pages(url, page_size, timeout)
    except InconsistentCountError:
        logger.warning("count changed while paging %s; re-fetching once", url)
        results, _ = _fetch_all_pages(url, page_size, timeout)

    records: list[SourceRecord] = []
    ids: list[str] = []
    seen: set[str] = set()
    warnings = 0
    fetched_at = _now()
    for obj in results:
        source_id = obj.get("id") if isinstance(obj, dict) else None
        if not source_id:
            warnings += 1
            continue
        if str(source_id) in seen:
            warnings += 1
            logger.warning("duplicate identifier %r in page results; keeping the first record", source_id)
            continue
        seen.add(str(source_id))
        records.append(
            SourceRecord(
                sourceId=str(source_id),
                catalogueId=catalogue_id,
                content=json.dumps(obj, sort_keys=True),
                contentType="application/json",
                fetchedAt=fetched_at,
            )
        )
        ids.append(str(source_id))
    return records, ids, warnings
