"""Original-language detection and dataset translation orchestration."""

from __future__ import annotations

import logging
from datetime import datetime, timezone

from .. import ns
from ..enrichment import STATUS_PREDICATES, is_enrichment
from ..httpkit import Request, Response, Router
from ..rdf import IRI, Literal, Term, Triple
from ..registry.core import Event, Registry
from ..workqueue import WorkQueue
from .providers import ProviderError
from .tags import ExtendedLangTag

logger = logging.getLogger(__name__)

DEFAULT_PROPERTIES = (ns.DCT_TITLE, ns.DCT_DESCRIPTION)


def _now_literal() -> Literal:
    ts = datetime.now(timezone.utc).isoformat().replace("+00:00", "Z")
    return Literal(ts, ns.XSD + "dateTime")


def detect_original(graph: list[Triple], catalogue_default_lang: str = "en") -> list[tuple[Term, str, Literal, str]]:
    """(subject, predicate, literal, source language) for every original literal.

    A literal's own tag wins; untagged literals assume the catalogue default;
    enrichment (machine-translated literals with extended "-t-" tags, the
    translation status) is never original.
    """
    out = []
    for t in graph:
        s, p, o = t
        if not isinstance(o, Literal) or is_enrichment(t):
            continue
        if o.lang is not None:
            source = o.lang.split("-", 1)[0]
        else:
            source = catalogue_default_lang
        out.append((s, p.value, o, source))
    return out


def translate_dataset(
    registry: Registry,
    dataset_id: str,
    targets: list[str],
    provider,
    properties: tuple[str, ...] = DEFAULT_PROPERTIES,
    default_lang: str = "en",
) -> dict:
    """Translate missing target languages for the configured properties.

    Human translations (plain target-language tags) and previous machine
    translations are never overwritten; a run with nothing to do leaves the
    graph byte-identical.
    """
    graph = registry.dataset_graph(dataset_id)
    dataset_nodes = ns.dataset_subjects(graph)
    if not dataset_nodes:
        return {"added": 0, "targets": []}
    dataset = dataset_nodes[0]

    originals: dict[tuple[Term, str], list[tuple[Literal, str]]] = {}
    for s, p, lit, lang in detect_original(graph, default_lang):
        originals.setdefault((s, p), []).append((lit, lang))

    present_langs: dict[str, set[str]] = {p: set() for p in properties}
    for s, p, o in graph:
        if s == dataset and p.value in present_langs and isinstance(o, Literal):
            lang = (o.lang or "und").split("-", 1)[0]
            present_langs[p.value].add(lang)

    # one bundled request per source language
    work: dict[str, list[tuple[str, str, str]]] = {}  # source -> [(prop, text, target)]
    for prop in properties:
        candidates = originals.get((dataset, prop), [])
        if not candidates:
            continue
        by_lang = {lang: lit for lit, lang in candidates}
        source = default_lang if default_lang in by_lang else sorted(by_lang)[0]
        text = by_lang[source].lexical
        for target in targets:
            if target == source:
                continue
            if target in present_langs[prop]:
                continue
            work.setdefault(source, []).append((prop, text, target))

    if not work:
        return {"added": 0, "targets": []}

    started = (dataset, IRI(ns.ODN_TRANSLATION_STARTED), _now_literal())
    new_triples = [t for t in graph if not (t[0] == dataset and t[1] in STATUS_PREDICATES)]
    new_triples.append(started)

    added = 0
    added_targets: set[str] = set()
    failed = False
    for source, items in sorted(work.items()):
        texts = sorted({text for _, text, _ in items})
        wanted = sorted({target for _, _, target in items})
        translations: dict[tuple[str, str], str] = {}
        batch = max(1, getattr(provider, "batch_limit", 100))
        try:
            for i in range(0, len(texts), batch):
                result = provider.submit(texts[i : i + batch], source, wanted)
                translations.update(result.translations)
        except ProviderError:
            # leave status at started; a later registry event retries
            failed = True
            logger.warning("provider failed for dataset %s (source %s)", dataset_id, source)
            continue
        for prop, text, target in items:
            translated = translations.get((text, target))
            if translated is None:
                continue  # partial result: missing languages stay absent
            tag = ExtendedLangTag(target, source, provider.tag).render()
            new_triples.append((dataset, IRI(prop), Literal(translated, lang=tag)))
            added += 1
            added_targets.add(target)

    if not failed:
        new_triples.append((dataset, IRI(ns.ODN_TRANSLATION_COMPLETED), _now_literal()))
    if not registry.update_dataset_triples(dataset_id, new_triples, graph):
        # a newer write landed meanwhile; its event translates that version
        return {"added": 0, "targets": [], "completed": False}
    return {"added": added, "targets": sorted(added_targets), "completed": not failed}


class TranslationService:
    """Translates datasets on registry mutation events."""

    def __init__(
        self,
        registry: Registry,
        provider,
        targets: list[str],
        default_lang: str = "en",
        workers: int = 4,
    ):
        self.registry = registry
        self.provider = provider
        self.targets = targets
        self.default_lang = default_lang
        self.queue = WorkQueue(self.translate_now, "translate", workers, keyed=True)
        registry.events.subscribe(self.on_event)

    def on_event(self, event: Event) -> None:
        # `unchanged` too: a no-op without a write when nothing is missing,
        # and the retry of a translation that failed before
        if event.kind != "deleted" and self.targets:
            self.queue.submit(event.dataset_id)

    def translate_now(self, dataset_id: str) -> dict:
        return translate_dataset(
            self.registry, dataset_id, self.targets, self.provider, default_lang=self.default_lang
        )


def build_translation_router(service: TranslationService, token: str | None = None) -> Router:
    router = Router(name="translation", token=token)

    def translate(req: Request) -> Response:
        dataset_id = req.params["datasetId"]
        if not service.registry.has_dataset(dataset_id):
            return Response.error(404, "NotFound", f"no dataset {dataset_id!r}")
        return Response.json(service.translate_now(dataset_id))

    router.route("POST", "/translate/{datasetId}", translate, protected=True)
    return router
