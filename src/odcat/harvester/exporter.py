"""Registry export and end-of-run synchronization."""

from __future__ import annotations

import logging
from urllib.parse import quote

from ..httpkit import ClientError, ClientResponse, HttpClient
from .records import IdentifierList

logger = logging.getLogger(__name__)


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

    def put_dataset(self, catalogue_id: str, original_id: str, rdf: str, content_type: str) -> str:
        """Write one dataset graph, as Turtle or N-Triples per `content_type`."""
        path = f"/datasets/{quote(original_id, safe='')}?catalogue={quote(catalogue_id)}"
        resp = self._call("PUT", path, rdf.encode("utf-8"), content_type)
        if resp.status not in (200, 201):
            raise RegistryError(f"PUT dataset {original_id!r} answered {resp.status}: {resp.text[:200]}")
        return resp.json().get("result", "updated")

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

    def delete_dataset(self, dataset_id: str) -> None:
        resp = self._call("DELETE", f"/datasets/{quote(dataset_id, safe='')}")
        if resp.status not in (204, 404):
            raise RegistryError(f"DELETE answered {resp.status}")


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
    deleted = 0
    for original_id, dataset_id in sorted(existing.items()):
        if original_id not in keep:
            client.delete_dataset(dataset_id)
            deleted += 1
    return {"kept": len(existing) - deleted, "deleted": deleted, "refusedEmptySync": False}
