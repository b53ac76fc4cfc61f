"""Registry core: URI schemata, dataset/catalogue graphs, mutation events."""

from __future__ import annotations

import logging
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from .. import ns
from ..enrichment import is_enrichment
from ..rdf import IRI, Literal, Quad, QuadStore, Term, Triple
from .ids import normalize_id

logger = logging.getLogger(__name__)

RDF_TYPE = IRI(ns.RDF_TYPE)
DCAT_CATALOG = IRI(ns.DCAT_CATALOG)
DCAT_DATASET_LINK = IRI(ns.DCAT_DATASET_LINK)
DCAT_DISTRIBUTION = IRI(ns.DCAT_DISTRIBUTION)
DCAT_DISTRIBUTION_CLASS = IRI(ns.DCAT_DISTRIBUTION_CLASS)
DCT_IDENTIFIER = IRI(ns.DCT_IDENTIFIER)


class NotFoundError(KeyError):
    pass


class UnknownCatalogueError(KeyError):
    pass


class NoDatasetNodeError(ValueError):
    """Submitted graph contains no dcat:Dataset subject."""


class MultipleDatasetNodesError(ValueError):
    """Submitted graph contains more than one dcat:Dataset subject."""


@dataclass(frozen=True)
class Event:
    kind: str  # created | updated | unchanged | deleted
    dataset_id: str
    catalogue_id: str


class EventBus:
    """Synchronous in-process feed of dataset events: created | updated | unchanged | deleted.

    `unchanged` is a `put_dataset` that matched the stored graph and wrote
    nothing. Asynchronous consumers hand each event to a WorkQueue.
    """

    def __init__(self) -> None:
        self._subscribers: list[Callable[[Event], None]] = []

    def subscribe(self, fn: Callable[[Event], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, event: Event) -> None:
        for fn in self._subscribers:
            try:
                fn(event)
            except Exception:
                logger.exception("event subscriber failed on %s", event)


@dataclass
class UriScheme:
    """Consistent IRIs for catalogues, datasets, distributions, metrics."""

    base_iri: str

    def catalogue(self, catalogue_id: str) -> str:
        return f"{self.base_iri}/catalogues/{catalogue_id}"

    def dataset(self, dataset_id: str) -> str:
        return f"{self.base_iri}/datasets/{dataset_id}"

    def metrics(self, dataset_id: str) -> str:
        return f"{self.base_iri}/metrics/{dataset_id}"

    def distribution(self, dataset_iri: str, ordinal: int) -> str:
        return f"{dataset_iri}#dist-{ordinal}"

    def dataset_id_of(self, graph_name: str) -> str | None:
        prefix = self.base_iri + "/datasets/"
        return graph_name[len(prefix):] if graph_name.startswith(prefix) else None

    def catalogue_id_of(self, graph_name: str) -> str | None:
        prefix = self.base_iri + "/catalogues/"
        return graph_name[len(prefix):] if graph_name.startswith(prefix) else None


def _rewrite(triples: Iterable[Triple], mapping: dict[Term, Term]) -> list[Triple]:
    return [(mapping.get(s, s), p, mapping.get(o, o)) for s, p, o in triples]


class Registry:
    """Graph-per-dataset storage with harmonized IRIs and identifiers.

    Writes are serialized by one lock. Every successful `put_dataset` and
    `delete_dataset` is published on the event bus and counted in `results`.
    A `put_dataset` whose graph is already stored writes nothing and is
    published as `unchanged` (see `_unchanged`).
    """

    def __init__(self, store: QuadStore, base_iri: str, events: EventBus | None = None):
        self.store = store
        self.scheme = UriScheme(base_iri.rstrip("/"))
        self.events = events or EventBus()
        self._datasets: dict[str, tuple[str, str]] = {}  # id -> (catalogueId, originalId)
        self._catalogues: dict[str, set[str]] = {}  # catalogueId -> dataset ids
        # ids whose last put_dataset in this process carried no enrichment triples
        self._plain_puts: set[str] = set()
        self.results: Counter[str] = Counter()  # created | updated | unchanged | deleted
        self._write_lock = threading.RLock()
        self._rebuild()

    # -- startup -----------------------------------------------------------

    def _rebuild(self) -> None:
        graphs = self.store.graphs()
        owner: dict[Term, str] = {}  # dataset IRI -> first catalogue linking it
        for graph_name in graphs:
            cid = self.scheme.catalogue_id_of(graph_name)
            if cid is not None and not self.scheme.dataset_id_of(graph_name):
                self._catalogues.setdefault(cid, set())
                for dataset in self.store.objects(graph_name, IRI(graph_name), DCAT_DATASET_LINK):
                    owner.setdefault(dataset, cid)
        for graph_name in graphs:
            ds_id = self.scheme.dataset_id_of(graph_name)
            if ds_id is None:
                continue
            subject = IRI(graph_name)
            original = next(
                (o.lexical for o in self.store.objects(graph_name, subject, DCT_IDENTIFIER) if isinstance(o, Literal)),
                ds_id,
            )
            catalogue_id = owner.get(subject, "")
            self._datasets[ds_id] = (catalogue_id, original)
            if catalogue_id:
                self._catalogues[catalogue_id].add(ds_id)

    # -- catalogues ----------------------------------------------------------

    def put_catalogue(self, catalogue_id: str, triples: list[Triple] | None = None) -> str:
        cat_iri = IRI(self.scheme.catalogue(catalogue_id))
        graph_name = cat_iri.value
        with self._write_lock:
            created = catalogue_id not in self._catalogues
            links = [q.triple for q in self.store.match(graph_name, cat_iri, DCAT_DATASET_LINK, None)]
            new_triples: list[Triple] = []
            if triples:
                subjects = {s for s, p, o in triples if p == RDF_TYPE and o == DCAT_CATALOG}
                mapping: dict[Term, Term] = {s: cat_iri for s in subjects}
                new_triples = _rewrite(triples, mapping)
            type_triple = (cat_iri, RDF_TYPE, DCAT_CATALOG)
            if type_triple not in new_triples:
                new_triples.append(type_triple)
            self.store.replace_graph(graph_name, new_triples + links)
            self._catalogues.setdefault(catalogue_id, set())
            return "created" if created else "updated"

    def has_catalogue(self, catalogue_id: str) -> bool:
        return catalogue_id in self._catalogues

    def catalogue_graph(self, catalogue_id: str) -> list[Triple]:
        if catalogue_id not in self._catalogues:
            raise NotFoundError(catalogue_id)
        return self.store.graph(self.scheme.catalogue(catalogue_id))

    def catalogue_ids(self) -> list[str]:
        return sorted(self._catalogues)

    # -- datasets ---------------------------------------------------------

    def put_dataset(self, catalogue_id: str, original_id: str, triples: list[Triple]) -> tuple[str, str]:
        """Harmonize and store one dataset graph; returns (result, id)."""
        if catalogue_id not in self._catalogues:
            raise UnknownCatalogueError(catalogue_id)
        unique_subjects = ns.dataset_subjects(triples)
        if not unique_subjects:
            raise NoDatasetNodeError("graph contains no dcat:Dataset subject")
        if len(unique_subjects) > 1:
            raise MultipleDatasetNodesError(
                f"graph contains {len(unique_subjects)} dcat:Dataset subjects"
            )
        source_node = unique_subjects[0]

        with self._write_lock:
            ds_id = normalize_id(original_id, catalogue_id, taken=self._datasets)
            graph_name = self.scheme.dataset(ds_id)
            ds_iri = IRI(graph_name)
            mapping: dict[Term, Term] = {source_node: ds_iri}
            triples = _rewrite(triples, mapping)

            # distribution nodes get fragment IRIs in document order
            dist_mapping: dict[Term, Term] = {}
            ordinal = 0
            for s, p, o in triples:
                if s == ds_iri and p == DCAT_DISTRIBUTION and o not in dist_mapping:
                    dist_mapping[o] = IRI(self.scheme.distribution(graph_name, ordinal))
                    ordinal += 1
            triples = _rewrite(triples, dist_mapping)
            for dist_iri in dist_mapping.values():
                type_triple = (dist_iri, RDF_TYPE, DCAT_DISTRIBUTION_CLASS)
                if type_triple not in triples:
                    triples.append(type_triple)

            triples = [t for t in triples if not (t[0] == ds_iri and t[1] == DCT_IDENTIFIER)]
            triples.append((ds_iri, DCT_IDENTIFIER, Literal(original_id)))

            if self._unchanged(ds_id, catalogue_id, triples):
                kind = "unchanged"
            else:
                kind = "updated" if self.store.has_graph(graph_name) else "created"
                cat_graph = self.scheme.catalogue(catalogue_id)
                link = Quad(IRI(cat_graph), DCAT_DATASET_LINK, ds_iri, cat_graph)
                self.store.replace_graph(graph_name, triples, also_add=(link,))
                self._datasets[ds_id] = (catalogue_id, original_id)
                self._catalogues[catalogue_id].add(ds_id)
            if any(is_enrichment(t) for t in triples):
                self._plain_puts.discard(ds_id)
            else:
                self._plain_puts.add(ds_id)
            self.results[kind] += 1

        self.events.emit(Event(kind, ds_id, catalogue_id))
        return ("created" if kind == "created" else "updated"), ds_id

    def _unchanged(self, ds_id: str, catalogue_id: str, triples: list[Triple]) -> bool:
        """Whether the stored graph is `triples` plus only enrichment the suite added.

        Enrichment triples in the stored graph are known to be the suite's own
        only if the dataset's last put in this process carried none; after a
        restart that is unknown, so such a graph is rewritten.
        """
        known = self._datasets.get(ds_id)
        if known is None or known[0] != catalogue_id:
            return False
        stored = self.store.graph(self.scheme.dataset(ds_id))
        harvested = {t for t in stored if not is_enrichment(t)}
        if len(harvested) < len(stored) and ds_id not in self._plain_puts:
            return False
        # membership first: a changed graph stops at its first new triple
        return all(t in harvested for t in triples) and len(set(triples)) == len(harvested)

    def has_dataset(self, dataset_id: str) -> bool:
        return dataset_id in self._datasets

    def dataset_graph(self, dataset_id: str) -> list[Triple]:
        if dataset_id not in self._datasets:
            raise NotFoundError(dataset_id)
        return self.store.graph(self.scheme.dataset(dataset_id))

    def dataset_info(self, dataset_id: str) -> tuple[str, str]:
        """(catalogueId, originalId) for a stored dataset."""
        if dataset_id not in self._datasets:
            raise NotFoundError(dataset_id)
        return self._datasets[dataset_id]

    def update_dataset_triples(self, dataset_id: str, triples: list[Triple], expected: list[Triple]) -> bool:
        """Replace a harmonized dataset graph if it still equals `expected` as a set; False if not."""
        with self._write_lock:
            if dataset_id not in self._datasets:
                raise NotFoundError(dataset_id)
            catalogue_id, _ = self._datasets[dataset_id]
            graph_name = self.scheme.dataset(dataset_id)
            if set(self.store.graph(graph_name)) != set(expected):
                return False
            self.store.replace_graph(graph_name, triples)
        self.events.emit(Event("updated", dataset_id, catalogue_id))
        return True

    def delete_dataset(self, dataset_id: str) -> None:
        with self._write_lock:
            if dataset_id not in self._datasets:
                raise NotFoundError(dataset_id)
            catalogue_id, _ = self._datasets.pop(dataset_id)
            self._plain_puts.discard(dataset_id)
            graph_name = self.scheme.dataset(dataset_id)
            self.store.delete_graph(graph_name)
            self.store.delete_graph(self.scheme.metrics(dataset_id))
            if catalogue_id:
                cat_graph = self.scheme.catalogue(catalogue_id)
                self.store.remove(cat_graph, (IRI(cat_graph), DCAT_DATASET_LINK, IRI(graph_name)))
                self._catalogues.get(catalogue_id, set()).discard(dataset_id)
            self.results["deleted"] += 1
        self.events.emit(Event("deleted", dataset_id, catalogue_id))

    def list_datasets(self, catalogue_id: str, page: int = 0, page_size: int = 100) -> tuple[int, list[dict]]:
        """Stable id-ordered page of {id, originalId} rows."""
        if catalogue_id not in self._catalogues:
            raise UnknownCatalogueError(catalogue_id)
        ids = sorted(self._catalogues[catalogue_id])
        window = ids[page * page_size : (page + 1) * page_size]
        return len(ids), [
            {"id": ds_id, "originalId": self._datasets[ds_id][1]} for ds_id in window
        ]

    def dataset_ids(self, catalogue_id: str | None = None) -> list[str]:
        if catalogue_id is None:
            return sorted(self._datasets)
        return sorted(self._catalogues.get(catalogue_id, set()))

    # -- metrics graphs ------------------------------------------------------

    def put_metrics(self, dataset_id: str, triples: list[Triple]) -> None:
        if dataset_id not in self._datasets:
            raise NotFoundError(dataset_id)
        with self._write_lock:
            self.store.replace_graph(self.scheme.metrics(dataset_id), triples)

    def metrics_graph(self, dataset_id: str) -> list[Triple]:
        return self.store.graph(self.scheme.metrics(dataset_id))
