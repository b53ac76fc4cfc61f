"""Assembles and runs any subset of the suite's services in one process.

Every enabled service gets its own listener; the shared quad store is only
touched through the registry core. Pipe services discover each other through
a service directory filled in as listeners bind.
"""

from __future__ import annotations

from pathlib import Path

from .config import Config, SERVICE_NAMES, BadConfigError
from .httpkit import HttpService, Router
from .pipeline.service import PipeService
from .quality import QualityService, build_quality_router
from .rdf import QuadStore
from .registry import Registry, build_registry_router
from .registry.core import EventBus
from .scheduler import Scheduler
from .search import SearchService, build_search_router
from .translation import DictionaryProvider, EchoProvider, TranslationService, build_translation_router
from .harvester import MockPortal, make_exporter, make_importer, make_transformer
from .harvester.fixtures import synthetic_records
from .pipeline.service import HandlerResult
from .vocab import load_vocabularies


def make_provider(spec: dict):
    kind = spec.get("kind", "echo")
    timeout = float(spec.get("timeoutSeconds", 60.0))
    if kind == "echo":
        return EchoProvider(
            tag=spec.get("tag", "echo"), batch_limit=int(spec.get("batchLimit", 100)), timeout=timeout
        )
    if kind == "dictionary":
        return DictionaryProvider(
            dictionary=spec.get("dictionary", {}),
            tag=spec.get("tag", "mock"),
            batch_limit=int(spec.get("batchLimit", 100)),
            timeout=timeout,
        )
    raise BadConfigError(f"provider.kind must be 'echo' or 'dictionary', got {kind!r}")


class Suite:
    def __init__(
        self,
        config: Config,
        services: list[str] | None = None,
        portal_records: list[dict] | None = None,
        portal_fixture_dir: str | None = None,
    ):
        self.config = config
        self.services = list(services) if services else list(SERVICE_NAMES)
        config.validate(self.services)
        self.directory: dict[str, str] = {}
        self._http: dict[str, HttpService] = {}
        self._pipe_services: dict[str, PipeService] = {}
        self.portal: MockPortal | None = None
        self.scheduler: Scheduler | None = None
        self.registry: Registry | None = None
        self.search: SearchService | None = None
        self.translation: TranslationService | None = None
        self.quality: QualityService | None = None
        self.store: QuadStore | None = None
        self._portal_records = portal_records
        self._portal_fixture_dir = portal_fixture_dir

    def enabled(self, name: str) -> bool:
        return name in self.services

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Suite":
        cfg = self.config
        token = cfg.api_token
        vocabularies = load_vocabularies(cfg.vocab_dir)

        needs_registry_core = any(
            self.enabled(n) for n in ("registry", "search", "quality", "translation")
        )
        if needs_registry_core:
            self.store = QuadStore(Path(cfg.data_dir) / "store")
            self.registry = Registry(self.store, cfg.base_iri, EventBus())

        # scheduler binds first so pipe services can post run statuses
        if self.enabled("scheduler"):
            self.scheduler = Scheduler(
                Path(cfg.data_dir),
                directory=self.directory,
                token=token,
                retry_delays=cfg.retry_delays,
                tick_seconds=cfg.scheduler_tick,
            )
            self._bind("scheduler", self.scheduler.router)
            self.scheduler.start()
        runlog_url = self._http["scheduler"].url if "scheduler" in self._http else None

        if self.enabled("portal"):
            records = self._portal_records
            if records is None and self._portal_fixture_dir is None:
                records = synthetic_records(100)
            self.portal = MockPortal(records=records, fixture_dir=self._portal_fixture_dir)
            host, port = cfg.address_of("portal")
            self.portal.start(host, port)
            self._http["portal"] = self.portal._http

        if self.enabled("registry"):
            assert self.registry is not None
            self._bind("registry", build_registry_router(self.registry, token))
        registry_url = self._http["registry"].url if "registry" in self._http else None

        if self.enabled("search"):
            assert self.registry is not None
            self.search = SearchService(self.registry, vocabularies)
            self._bind("search", build_search_router(self.search.index))

        if self.enabled("translation"):
            assert self.registry is not None
            self.translation = TranslationService(
                self.registry,
                make_provider(cfg.provider),
                targets=list(cfg.translation_targets),
                default_lang=cfg.default_language,
            )
            self._bind("translation", build_translation_router(self.translation, token))

        if self.enabled("quality"):
            assert self.registry is not None
            self.quality = QualityService(
                self.registry,
                search_index=self.search.index if self.search else None,
                vocabularies=vocabularies,
                check_urls_enabled=cfg.check_urls,
                url_timeout=cfg.url_timeout,
                url_concurrency=cfg.url_concurrency,
                per_host_spacing=cfg.per_host_spacing,
                subscribe=cfg.quality_events,
            )
            quality = self.quality

            def recheck_handler(ctx):
                result = quality.recheck_catalogue(ctx.config.get("catalogue", ""))
                return HandlerResult(message=str(result.get("checked", 0)))

            pipe = PipeService(
                "quality",
                recheck_handler,
                directory=self.directory,
                runlog_url=runlog_url,
                token=token,
                workers=2,
                retry_delays=cfg.retry_delays,
            )
            build_quality_router(quality, token, router=pipe.router)
            self._pipe_services["quality"] = pipe
            self._bind("quality", pipe.router)
            self.directory["quality"] = self._http["quality"].url

        if self.enabled("importer"):
            svc = make_importer(
                self.directory,
                runlog_url,
                token,
                workers=cfg.service_workers,
                retry_delays=cfg.retry_delays,
            )
            self._pipe_services["importer"] = svc
            self._bind("importer", svc.router)
            self.directory["importer"] = self._http["importer"].url

        if self.enabled("transformer"):
            svc = make_transformer(
                self.directory,
                runlog_url,
                token,
                base_iri=cfg.base_iri,
                workers=cfg.service_workers,
                retry_delays=cfg.retry_delays,
            )
            self._pipe_services["transformer"] = svc
            self._bind("transformer", svc.router)
            self.directory["transformer"] = self._http["transformer"].url

        if self.enabled("exporter"):
            if registry_url is None:
                raise BadConfigError("exporter requires the registry service to be enabled")
            svc = make_exporter(
                self.directory,
                registry_url,
                runlog_url,
                token,
                workers=cfg.service_workers,
                retry_delays=cfg.retry_delays,
            )
            self._pipe_services["exporter"] = svc
            self._bind("exporter", svc.router)
            self.directory["exporter"] = self._http["exporter"].url

        return self

    def _bind(self, name: str, router: Router) -> None:
        host, port = self.config.address_of(name)
        self._http[name] = HttpService(router, host, port).start()

    def url(self, name: str) -> str:
        return self._http[name].url

    def wait_quiescent(self, timeout: float = 30.0) -> bool:
        """Wait until quality and translation are idle together; False if either
        drain times out. Translation goes first: its write-backs queue assessments."""
        services = [svc for svc in (self.translation, self.quality) if svc is not None]
        return all(svc.queue.drain(timeout) for svc in services)

    def stop(self) -> None:
        if self.scheduler is not None:
            self.scheduler.stop()
        for svc in self._pipe_services.values():
            svc.stop()
        for http in self._http.values():
            http.stop()
        # all writers are stopped; accepted enrichment lands before the store closes
        for svc in (self.translation, self.quality):
            if svc is not None:
                svc.queue.close()
        if self.store is not None:
            self.store.close()
