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


def _parse(content_type: str, text: str) -> list:
    if content_type.split(";")[0].strip().lower() == NTRIPLES:
        return parse_ntriples(text)
    return parse_turtle(text, base_iri="http://local.submission/")


def _parse_body(req: Request) -> list:
    return _parse(req.headers.get("content-type", TURTLE), req.text())


def _write_dataset(
    registry: Registry, catalogue_id: str, original_id: str, content_type: str, text: str
) -> tuple[int, dict]:
    """Parse one dataset body by its content type and store it through
    `Registry.put_dataset`: (HTTP status, answer body)."""
    try:
        result, ds_id = registry.put_dataset(catalogue_id, original_id, _parse(content_type, text))
    except ParseError as exc:
        return 400, {"error": "ParseError", "message": str(exc)}
    except UnknownCatalogueError:
        return 404, {"error": "UnknownCatalogue", "message": f"no catalogue {catalogue_id!r}"}
    except (NoDatasetNodeError, MultipleDatasetNodesError, EmptyIdError) as exc:
        return 400, {"error": type(exc).__name__.removesuffix("Error"), "message": str(exc)}
    return (201 if result == "created" else 200), {"id": ds_id, "result": result}


def _items(req: Request, key: str, valid) -> list:
    """The list under `key` of a JSON body, each item checked by `valid`; ValueError if malformed."""
    try:
        body = req.json()
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"body is not JSON: {exc}") from None
    items = body.get(key) if isinstance(body, dict) else None
    if not isinstance(items, list) or not all(valid(item) for item in items):
        raise ValueError(f"body must be {{{key!r}: [...]}} with well-formed items")
    return items


def _dataset_item(item) -> bool:
    return isinstance(item, dict) and all(
        isinstance(item.get(k), str) for k in ("originalId", "contentType", "content")
    )


def _not_utf8(exc: UnicodeDecodeError) -> Response:
    return Response.error(400, "BadRequest", f"body is not UTF-8: {exc}")


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
        except UnicodeDecodeError as exc:
            return _not_utf8(exc)
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
            text = req.text()
        except UnicodeDecodeError as exc:
            return _not_utf8(exc)
        status, answer = _write_dataset(
            registry, catalogue_id, req.params["originalId"], req.headers.get("content-type", TURTLE), text
        )
        return Response.json(answer, status)

    def put_datasets(req: Request) -> Response:
        """Store many datasets of one catalogue, one at a time; an item that
        fails fails alone, and the answer lists one result per item, in order."""
        catalogue_id = req.params["cid"]
        if not registry.has_catalogue(catalogue_id):
            return Response.error(404, "UnknownCatalogue", f"no catalogue {catalogue_id!r}")
        try:
            items = _items(req, "datasets", _dataset_item)
        except ValueError as exc:
            return Response.error(400, "BadRequest", str(exc))
        results = []
        for item in items:
            status, answer = _write_dataset(
                registry, catalogue_id, item["originalId"], item["contentType"], item["content"]
            )
            if "error" in answer:
                answer["status"] = status
            results.append({"originalId": item["originalId"], **answer})
        return Response.json({"results": results})

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

    def delete_datasets(req: Request) -> Response:
        """Delete datasets of one catalogue by id; each answers `deleted`, or
        `absent` when the catalogue holds no dataset of that id."""
        catalogue_id = req.params["cid"]
        if not registry.has_catalogue(catalogue_id):
            return Response.error(404, "UnknownCatalogue", f"no catalogue {catalogue_id!r}")
        try:
            ids = _items(req, "ids", lambda item: isinstance(item, str))
        except ValueError as exc:
            return Response.error(400, "BadRequest", str(exc))
        results = []
        for ds_id in ids:
            result = "absent"
            try:
                if registry.dataset_info(ds_id)[0] == catalogue_id:
                    registry.delete_dataset(ds_id)
                    result = "deleted"
            except NotFoundError:
                pass
            results.append({"id": ds_id, "result": result})
        return Response.json({"results": results})

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
    router.route("POST", "/catalogues/{cid}/datasets", put_datasets, protected=True)
    router.route("POST", "/catalogues/{cid}/deletions", delete_datasets, protected=True)
    router.route("PUT", "/datasets/{originalId}", put_dataset, protected=True)
    router.route("GET", "/datasets/{id}", get_dataset)
    router.route("DELETE", "/datasets/{id}", delete_dataset, protected=True)
    return router
