"""Registry export and end-of-run synchronization."""

from __future__ import annotations

import json
import logging
from collections import Counter
from urllib.parse import quote

from ..httpkit import ClientError, ClientResponse, HttpClient
from .records import IdentifierList, SourceRecord

logger = logging.getLogger(__name__)

# records or ids per bulk registry request, which bounds each request body
CHUNK = 100


class RegistryError(RuntimeError):
    """Registry answered with a non-2xx status."""


class RegistryClient:
    """Thin HTTP client for the registry's write and listing surface."""

    def __init__(self, base_url: str, token: str | None = None, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self._headers = {"Authorization": f"Bearer {token}"} if token else {}
        self._client = HttpClient(timeout)

    def _call(self, method: str, path: str, body: bytes = b"", content_type: str | None = None) -> ClientResponse:
        headers = dict(self._headers)
        if content_type:
            headers["Content-Type"] = content_type
        try:
            return self._client.request(method, self.base_url + path, body, headers)
        except ClientError as exc:
            raise RegistryError(f"registry unreachable: {exc}") from exc

    def _post(self, path: str, payload: dict, sent: int) -> list[dict]:
        """POST a bulk JSON body; the answer's one result per sent item, in order."""
        resp = self._call("POST", path, json.dumps(payload).encode("utf-8"), "application/json")
        if resp.status != 200:
            raise RegistryError(f"POST {path} answered {resp.status}: {resp.text[:200]}")
        results = resp.json()["results"]
        if len(results) != sent:
            raise RegistryError(f"POST {path} answered {len(results)} results for {sent} items")
        return results

    def put_datasets(self, catalogue_id: str, records: list[SourceRecord]) -> list[dict]:
        """Write dataset graphs of one catalogue in one request: per record
        `{"originalId", "id", "result"}`, or `{"originalId", "status", "error",
        "message"}` for one the registry refused."""
        path = f"/catalogues/{quote(catalogue_id, safe='')}/datasets"
        items = [{"originalId": r.sourceId, "contentType": r.contentType, "content": r.content} for r in records]
        return self._post(path, {"datasets": items}, len(items))

    def put_dataset(self, catalogue_id: str, original_id: str, rdf: str, content_type: str) -> str:
        """Write one dataset graph, as Turtle or N-Triples per `content_type`,
        through the bulk route; RegistryError if it is refused. (The exporter
        writes in chunks; `bench/tracing.py` still patches this name.)"""
        (item,) = self.put_datasets(catalogue_id, [SourceRecord(original_id, catalogue_id, rdf, content_type)])
        if "error" in item:
            raise RegistryError(f"dataset {original_id!r} refused ({item['status']}): {item['message'][:200]}")
        return item["result"]

    def delete_datasets(self, catalogue_id: str, dataset_ids: list[str]) -> list[dict]:
        """Delete datasets of one catalogue in one request: per id `{"id", "result"}`,
        the result `deleted` or `absent`."""
        path = f"/catalogues/{quote(catalogue_id, safe='')}/deletions"
        return self._post(path, {"ids": dataset_ids}, len(dataset_ids))

    def list_ids(self, catalogue_id: str, page_size: int = 500) -> dict[str, str]:
        """originalId -> id for every dataset of the catalogue."""
        out: dict[str, str] = {}
        page = 0
        while True:
            resp = self._call(
                "GET", f"/catalogues/{quote(catalogue_id)}/datasets?page={page}&pageSize={page_size}"
            )
            if resp.status != 200:
                raise RegistryError(f"listing answered {resp.status}")
            payload = resp.json()
            for row in payload["datasets"]:
                out[row["originalId"]] = row["id"]
            if (page + 1) * page_size >= payload["total"]:
                return out
            page += 1


def finalize_sync(client: RegistryClient, id_list: IdentifierList, allow_empty: bool = False) -> dict:
    """Delete registry datasets that vanished from the source.

    A zero-id list is refused unless explicitly allowed: an empty source is
    more often an upstream fault than a genuine total wipe.
    """
    existing = client.list_ids(id_list.catalogueId)
    if not id_list.sourceIds and not allow_empty:
        logger.warning(
            "refusing empty-id sync for catalogue %s (%d datasets kept)",
            id_list.catalogueId,
            len(existing),
        )
        return {"kept": len(existing), "deleted": 0, "refusedEmptySync": True}
    keep = set(id_list.sourceIds)
    vanished = [dataset_id for original_id, dataset_id in sorted(existing.items()) if original_id not in keep]
    deleted = 0
    for start in range(0, len(vanished), CHUNK):
        results = client.delete_datasets(id_list.catalogueId, vanished[start : start + CHUNK])
        deleted += sum(item["result"] == "deleted" for item in results)
    return {"kept": len(existing) - len(vanished), "deleted": deleted, "refusedEmptySync": False}


def export_records(client: RegistryClient, catalogue_id: str, records: list[SourceRecord]) -> Counter:
    """Write a run's records in chunks of at most CHUNK and count each record's
    `created`, `updated` or `failed`. A record the registry refuses fails alone;
    a chunk whose request fails counts as failed whole."""
    counts: Counter = Counter()
    for start in range(0, len(records), CHUNK):
        chunk = records[start : start + CHUNK]
        try:
            results = client.put_datasets(catalogue_id, chunk)
        except RegistryError as exc:
            logger.warning("export of %d records failed: %s", len(chunk), exc)
            counts["failed"] += len(chunk)
            continue
        for item in results:
            if "error" in item:
                logger.warning("export failed for %s: %s", item["originalId"], item["message"])
                counts["failed"] += 1
            else:
                counts[item["result"]] += 1
    return counts
