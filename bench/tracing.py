"""Spans around the public functions of each layer of the suite.

`install(tracer)` patches every traced name where its callers look it up,
before the suite starts. A span records name, start, end (time.monotonic,
which is system-wide, so the benchmark process can compare it with its own
phase boundaries), the span that was open on the same thread when it began,
and a byte count where one applies. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, sized=None, namer=None):
        """`sized(args, result)` gives the span's byte count; `namer(args)`
        picks the span name per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                size = sized(args, result) if sized is not None and result is not None else 0
                label = namer(args, kwargs) if namer is not None else name
                self.spans.append((span_id, label, start, end, parent, size))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _body_bytes(args, resp) -> int:
    body = args[3] if len(args) > 3 else b""
    return len(body or b"") + len(resp.body)


def _query_kind(args, kwargs) -> str:
    q = args[1] if len(args) > 1 else kwargs.get("q", "")
    return "search.query.keyword" if q.strip() else "search.query.browse"


class _RequestsProxy:
    """Stands in for the `requests` module inside the importers, so that only
    their page and dump fetches are timed."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self.get = tracer.wrap("harvester.fetch", module.get)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


# (module, attribute path, span name[, wrap options]): each name is patched
# where its callers look it up
FUNCTIONS = [
    ("odcat.httpkit", "HttpClient.request", "httpkit.client", {"sized": _body_bytes}),
    ("odcat.httpkit", "Router.dispatch", "httpkit.dispatch"),
    ("odcat.pipeline.service", "PipeService.send", "pipeline.send"),
    ("odcat.pipeline.descriptor", "PipeDescriptor.copy", "pipeline.copy"),
    ("odcat.pipeline.descriptor", "PipeDescriptor.dumps", "pipeline.dumps", {"sized": lambda args, text: len(text)}),
    ("odcat.pipeline.service", "parse_descriptor", "pipeline.parse"),
    ("odcat.scheduler.core", "Scheduler.launch", "scheduler.launch"),
    ("odcat.scheduler.core", "RunLog.record", "scheduler.status"),
    ("odcat.harvester.importers", "parse_turtle", "harvester.dump_parse"),
    ("odcat.harvester.importers", "parse_ntriples", "harvester.dump_parse"),
    ("odcat.harvester.importers", "bounded_description", "harvester.split"),
    ("odcat.harvester.importers", "serialize_turtle", "rdf.serialize"),
    ("odcat.harvester.mapping", "MappingRuleSet.from_json", "harvester.rules_parse"),
    ("odcat.harvester.services", "transform", "harvester.transform"),
    ("odcat.harvester.services", "serialize_turtle", "rdf.serialize"),
    ("odcat.harvester.services", "finalize_sync", "harvester.sync"),
    ("odcat.harvester.mapping", "parse_turtle", "rdf.parse"),
    ("odcat.harvester.mapping", "parse_ntriples", "rdf.parse"),
    ("odcat.harvester.exporter", "RegistryClient.put_dataset", "harvester.put"),
    ("odcat.registry.http", "parse_turtle", "rdf.parse"),
    ("odcat.registry.http", "parse_ntriples", "rdf.parse"),
    ("odcat.registry.http", "serialize_turtle", "rdf.serialize"),
    ("odcat.rdf.store", "QuadStore.__init__", "rdf.replay"),
    ("odcat.rdf.store", "QuadStore.replace_graph", "rdf.replace_graph"),
    ("odcat.registry.core", "Registry.__init__", "registry.rebuild"),
    ("odcat.registry.core", "Registry.put_dataset", "registry.put"),
    ("odcat.registry.core", "Registry.dataset_graph", "registry.get"),
    ("odcat.registry.core", "Registry.update_dataset_triples", "translation.writeback"),
    ("odcat.registry.core", "EventBus.emit", "registry.events"),
    ("odcat.search.service", "flatten", "search.flatten"),
    ("odcat.search.service", "SearchService.rebuild", "search.rebuild"),
    ("odcat.search.index", "SearchIndex.index", "search.index"),
    ("odcat.search.index", "SearchIndex.remove", "search.remove"),
    ("odcat.search.index", "SearchIndex.search", "search.query", {"namer": _query_kind}),
    ("odcat.quality.service", "QualityService.assess", "quality.assess"),
    ("odcat.quality.service", "QualityService.persist", "quality.persist"),
    ("odcat.quality.service", "validate", "quality.validate"),
    ("odcat.quality.service", "annotate", "quality.annotate"),
    ("odcat.quality.service", "shingles", "quality.similarity"),
    ("odcat.quality.similarity", "MinHashIndex.add", "quality.similarity"),
    ("odcat.translation.translator", "translate_dataset", "translation.translate"),
]


def _patch(owner, attr: str, wrap) -> None:
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attr, wrap(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    for module_name, path, span, *options in FUNCTIONS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        _patch(owner, attr, functools.partial(tracer.wrap, span, **(options[0] if options else {})))

    importers = importlib.import_module("odcat.harvester.importers")
    importers.requests = _RequestsProxy(importers.requests, tracer)

    # each pipe handler's own span, named after its service
    services = importlib.import_module("odcat.harvester.services")
    make_pipe_service = services.make_pipe_service

    def traced_make(service_id, handler, *args, **kwargs):
        return make_pipe_service(
            service_id, tracer.wrap(f"pipeline.handler.{service_id}", handler), *args, **kwargs
        )

    services.make_pipe_service = traced_make
