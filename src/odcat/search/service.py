"""Search service: registry event consumer plus the /search endpoint."""

from __future__ import annotations

import logging

from ..httpkit import Request, Response, Router, paging
from ..registry.core import Event, Registry
from ..vocab import Vocabulary, load_vocabularies
from .flatten import flatten
from .index import FACET_FIELDS, SearchIndex

logger = logging.getLogger(__name__)


class SearchService:
    """Keeps the index in lockstep with the registry."""

    def __init__(self, registry: Registry, vocabularies: dict[str, Vocabulary] | None = None):
        self.registry = registry
        self.vocabularies = vocabularies if vocabularies is not None else load_vocabularies()
        self.index = SearchIndex()
        registry.events.subscribe(self.on_event)
        self.rebuild()

    def rebuild(self) -> None:
        for dataset_id in self.registry.dataset_ids():
            self._index_dataset(dataset_id)

    def _index_dataset(self, dataset_id: str) -> None:
        try:
            graph = self.registry.dataset_graph(dataset_id)
            catalogue_id, _ = self.registry.dataset_info(dataset_id)
        except KeyError:
            return
        self.index.index(flatten(graph, self.vocabularies, dataset_id, catalogue_id))

    def on_event(self, event: Event) -> None:
        if event.kind == "deleted":
            self.index.remove(event.dataset_id)
        elif event.kind != "unchanged":  # the index already holds the stored graph
            self._index_dataset(event.dataset_id)


def build_search_router(index: SearchIndex) -> Router:
    router = Router(name="search")

    def search(req: Request) -> Response:
        try:
            page, page_size = paging(req.query, 10)
        except ValueError as exc:
            return Response.error(400, "BadRequest", str(exc))
        facets = {fld: req.query.get(fld, "") for fld in FACET_FIELDS}
        return Response.json(index.search(req.query.get("q", ""), facets, page, page_size))

    router.route("GET", "/search", search)
    return router
