"""Quality service: event-driven assessment, aggregation, HTTP surface."""

from __future__ import annotations

from .. import ns
from ..enrichment import is_machine_tag
from ..httpkit import Request, Response, Router
from ..rdf import IRI, Literal
from ..registry.core import Event, Registry
from ..search.flatten import lang_map
from ..vocab import Vocabulary, load_format_lists, load_vocabularies
from ..workqueue import WorkQueue
from .reports import aggregate_catalogue, render, report_to_triples
from .scoring import QualityReport, annotate
from .shapes import DEFAULT_SHAPES, Shape, validate
from .similarity import EmptyTokenSetError, MinHashIndex, shingle_text, shingles
from .urlcheck import check_urls


class UnknownDatasetError(KeyError):
    pass


_TITLE, _DESCRIPTION = IRI(ns.DCT_TITLE), IRI(ns.DCT_DESCRIPTION)


def similarity_text(graph) -> str:
    """The dataset's title and description text that similarity compares.

    Machine translations are left out: their languages would otherwise
    displace the original's, and a translated dataset would stop matching
    an untranslated twin."""
    dataset = next(iter(ns.dataset_subjects(graph)), None)
    literals: dict[IRI, list[Literal]] = {_TITLE: [], _DESCRIPTION: []}
    for s, p, o in graph:
        if s == dataset and p in literals and isinstance(o, Literal) and not is_machine_tag(o.lang):
            literals[p].append(o)
    return shingle_text(lang_map(literals[_TITLE]), lang_map(literals[_DESCRIPTION]))


def _values(report: QualityReport) -> list[tuple]:
    """What the metrics graph stores of a report, apart from each measurement's time."""
    return [(m.metric_id, m.value, m.computed_on) for m in report.measurements]


class QualityService:
    """Validates, checks URLs, scores, persists, and indexes similarity."""

    def __init__(
        self,
        registry: Registry,
        search_index=None,
        shapes: list[Shape] | None = None,
        vocabularies: dict[str, Vocabulary] | None = None,
        check_urls_enabled: bool = True,
        url_timeout: float = 10.0,
        url_concurrency: int = 16,
        per_host_spacing: float = 1.0,
        similarity_floor: float = 0.3,
        workers: int = 4,
        subscribe: bool = True,
    ):
        self.registry = registry
        self.search_index = search_index
        self.shapes = shapes if shapes is not None else DEFAULT_SHAPES
        vocabs = vocabularies if vocabularies is not None else load_vocabularies()
        self.license_vocab = vocabs.get("licenses", Vocabulary("licenses"))
        self.machine_readable, self.non_proprietary = load_format_lists()
        self.check_urls_enabled = check_urls_enabled
        self.url_timeout = url_timeout
        self.url_concurrency = url_concurrency
        self.per_host_spacing = per_host_spacing
        self.similarity_floor = similarity_floor
        self.reports: dict[str, QualityReport] = {}
        self.minhash = MinHashIndex()
        self.queue = WorkQueue(lambda dataset_id: self.assess(dataset_id), "quality", workers, keyed=True)
        if subscribe:
            registry.events.subscribe(self.on_event)

    # -- event handling --------------------------------------------------

    def on_event(self, event: Event) -> None:
        if event.kind == "deleted":
            self.reports.pop(event.dataset_id, None)
            self.minhash.remove(event.dataset_id)
            return
        if event.kind == "unchanged" and event.dataset_id in self.reports:
            return  # assessed since the start, and the graph has not changed
        self.queue.submit(event.dataset_id)

    def drain(self, timeout: float = 30.0) -> bool:
        return self.queue.drain(timeout)

    # -- assessment ---------------------------------------------------------

    def assess(self, dataset_id: str) -> QualityReport:
        try:
            graph = self.registry.dataset_graph(dataset_id)
            catalogue_id, _ = self.registry.dataset_info(dataset_id)
        except KeyError:
            raise UnknownDatasetError(dataset_id) from None
        violations = validate(graph, self.shapes)
        url_results = {}
        if self.check_urls_enabled:
            url_results = check_urls(
                graph,
                timeout=self.url_timeout,
                concurrency=self.url_concurrency,
                per_host_spacing=self.per_host_spacing,
            )
        report = annotate(
            graph,
            violations,
            url_results,
            self.machine_readable,
            self.non_proprietary,
            self.license_vocab,
            dataset_id=dataset_id,
            catalogue_id=catalogue_id,
        )
        previous = self.reports.get(dataset_id)
        if previous is not None and _values(previous) == _values(report):
            # the stored measurements still hold: keep them and their times, write nothing
            report.measurements = previous.measurements
        else:
            self.persist(report)
        self.reports[dataset_id] = report
        if self.search_index is not None:
            self.search_index.set_quality(dataset_id, float(report.overall))
        self._index_similarity(dataset_id, graph)
        return report

    def persist(self, report: QualityReport) -> None:
        metrics_iri = self.registry.scheme.metrics(report.dataset_id)
        self.registry.put_metrics(report.dataset_id, report_to_triples(report, metrics_iri))

    def _index_similarity(self, dataset_id: str, graph) -> None:
        try:
            self.minhash.add(dataset_id, shingles(similarity_text(graph)))
        except EmptyTokenSetError:
            self.minhash.remove(dataset_id)

    def report_for(self, dataset_id: str) -> QualityReport:
        report = self.reports.get(dataset_id)
        if report is None:
            report = self.assess(dataset_id)
        return report

    def aggregate(self, catalogue_id: str) -> dict:
        ids = self.registry.dataset_ids(catalogue_id)
        reports = [self.report_for(ds_id) for ds_id in ids]
        return aggregate_catalogue(catalogue_id, reports)

    def similar(self, dataset_id: str) -> list[dict]:
        pairs = self.minhash.similar(dataset_id, self.similarity_floor)
        return [{"id": other, "estimatedJaccard": est} for other, est in pairs]

    def recheck_catalogue(self, catalogue_id: str) -> dict:
        ids = self.registry.dataset_ids(catalogue_id)
        for ds_id in ids:
            self.assess(ds_id)
        return {"checked": len(ids)}


def build_quality_router(
    service: QualityService, token: str | None = None, router: Router | None = None
) -> Router:
    if router is None:
        router = Router(name="quality", token=token)

    def get_quality(req: Request) -> Response:
        try:
            report = service.report_for(req.params["id"])
        except UnknownDatasetError:
            return Response.error(404, "UnknownDataset", f"no dataset {req.params['id']!r}")
        return Response.json(report.to_json())

    def get_catalogue_report(req: Request) -> Response:
        cid = req.params["cid"]
        if not service.registry.has_catalogue(cid):
            return Response.error(404, "NotFound", f"no catalogue {cid!r}")
        fmt = req.query.get("format", "json")
        try:
            content_type, body = render(service.aggregate(cid), fmt)
        except ValueError as exc:
            return Response.error(400, "BadRequest", str(exc))
        return Response(200, body, content_type)

    def get_similar(req: Request) -> Response:
        ds_id = req.params["id"]
        if not service.registry.has_dataset(ds_id):
            return Response.error(404, "UnknownDataset", f"no dataset {ds_id!r}")
        return Response.json({"id": ds_id, "similar": service.similar(ds_id)})

    router.route("GET", "/datasets/{id}/quality", get_quality)
    router.route("GET", "/catalogues/{cid}/quality/report", get_catalogue_report)
    router.route("GET", "/datasets/{id}/similar", get_similar)
    return router
