"""REST surface of the registry with RDF content negotiation."""

from __future__ import annotations

from ..httpkit import Request, Response, Router, paging
from ..rdf import ParseError, parse_ntriples, parse_turtle, serialize_ntriples, serialize_turtle
from .core import (
    MultipleDatasetNodesError,
    NoDatasetNodeError,
    NotFoundError,
    Registry,
    UnknownCatalogueError,
)
from .ids import EmptyIdError

TURTLE = "text/turtle"
NTRIPLES = "application/n-triples"
SUPPORTED = (TURTLE, NTRIPLES)


def negotiate(accept_header: str | None) -> str | None:
    """Pick a supported RDF media type from an Accept header, else None.

    Empty or wildcard headers fall back to Turtle.
    """
    if not accept_header or accept_header.strip() == "":
        return TURTLE
    choices = []
    for i, part in enumerate(accept_header.split(",")):
        bits = part.strip().split(";")
        media = bits[0].strip().lower()
        if not media:
            continue
        q = 1.0
        for param in bits[1:]:
            param = param.strip()
            if param.startswith("q="):
                try:
                    q = float(param[2:])
                except ValueError:
                    q = 0.0
        choices.append((q, -i, media))
    for q, _, media in sorted(choices, reverse=True):
        if q <= 0:
            continue
        if media in SUPPORTED:
            return media
        if media == "*/*":
            return TURTLE
        if media == "text/*":
            return TURTLE
        if media == "application/*":
            return NTRIPLES
    return None


def _parse_body(req: Request) -> list:
    content_type = req.headers.get("content-type", TURTLE).split(";")[0].strip().lower()
    text = req.text()
    if content_type == NTRIPLES:
        return parse_ntriples(text)
    return parse_turtle(text, base_iri="http://local.submission/")


def _serialize_graph(triples, media: str) -> Response:
    if media == NTRIPLES:
        return Response.text(serialize_ntriples(triples), content_type=NTRIPLES)
    return Response.text(serialize_turtle(triples), content_type=TURTLE + "; charset=utf-8")


def build_registry_router(registry: Registry, token: str | None = None) -> Router:
    router = Router(name="registry", token=token)

    def put_catalogue(req: Request) -> Response:
        try:
            triples = _parse_body(req) if req.body.strip() else []
        except ParseError as exc:
            return Response.error(400, "ParseError", str(exc))
        result = registry.put_catalogue(req.params["cid"], triples)
        return Response.json(
            {"id": req.params["cid"], "result": result},
            status=201 if result == "created" else 200,
        )

    def get_catalogue(req: Request) -> Response:
        media = negotiate(req.headers.get("accept"))
        if media is None:
            return Response.error(406, "NotAcceptable", f"supported: {', '.join(SUPPORTED)}")
        try:
            triples = registry.catalogue_graph(req.params["cid"])
        except NotFoundError:
            return Response.error(404, "NotFound", f"no catalogue {req.params['cid']!r}")
        return _serialize_graph(triples, media)

    def put_dataset(req: Request) -> Response:
        catalogue_id = req.query.get("catalogue", "")
        if not catalogue_id:
            return Response.error(400, "BadRequest", "query parameter 'catalogue' is required")
        try:
            triples = _parse_body(req)
            result, ds_id = registry.put_dataset(catalogue_id, req.params["originalId"], triples)
        except ParseError as exc:
            return Response.error(400, "ParseError", str(exc))
        except UnknownCatalogueError:
            return Response.error(404, "UnknownCatalogue", f"no catalogue {catalogue_id!r}")
        except (NoDatasetNodeError, MultipleDatasetNodesError, EmptyIdError) as exc:
            return Response.error(400, type(exc).__name__.removesuffix("Error"), str(exc))
        return Response.json({"id": ds_id, "result": result}, status=201 if result == "created" else 200)

    def get_dataset(req: Request) -> Response:
        media = negotiate(req.headers.get("accept"))
        if media is None:
            return Response.error(406, "NotAcceptable", f"supported: {', '.join(SUPPORTED)}")
        try:
            triples = registry.dataset_graph(req.params["id"])
        except NotFoundError:
            return Response.error(404, "NotFound", f"no dataset {req.params['id']!r}")
        return _serialize_graph(triples, media)

    def delete_dataset(req: Request) -> Response:
        try:
            registry.delete_dataset(req.params["id"])
        except NotFoundError:
            return Response.error(404, "NotFound", f"no dataset {req.params['id']!r}")
        return Response(status=204, body=b"")

    def list_datasets(req: Request) -> Response:
        try:
            page, page_size = paging(req.query, 100)
        except ValueError as exc:
            return Response.error(400, "BadRequest", str(exc))
        try:
            total, rows = registry.list_datasets(req.params["cid"], page, page_size)
        except UnknownCatalogueError:
            return Response.error(404, "UnknownCatalogue", f"no catalogue {req.params['cid']!r}")
        return Response.json({"total": total, "page": page, "pageSize": page_size, "datasets": rows})

    router.route("PUT", "/catalogues/{cid}", put_catalogue, protected=True)
    router.route("GET", "/catalogues/{cid}", get_catalogue)
    router.route("GET", "/catalogues/{cid}/datasets", list_datasets)
    router.route("PUT", "/datasets/{originalId}", put_dataset, protected=True)
    router.route("GET", "/datasets/{id}", get_dataset)
    router.route("DELETE", "/datasets/{id}", delete_dataset, protected=True)
    return router
