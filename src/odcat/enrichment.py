"""What the suite's own enrichment adds to a stored dataset graph.

Translation adds machine-translated literals (extended "-t-" language tags)
and the `odn:translationStarted` / `odn:translationCompleted` status triples.
The registry strips exactly these before it compares a harvested graph with
the stored one; translation never reads them as originals.
"""

from __future__ import annotations

from . import ns
from .rdf import IRI, Literal, Triple

STATUS_PREDICATES = frozenset((IRI(ns.ODN_TRANSLATION_STARTED), IRI(ns.ODN_TRANSLATION_COMPLETED)))


def is_machine_tag(lang: str | None) -> bool:
    return bool(lang) and "-t-" in lang


def is_enrichment(triple: Triple) -> bool:
    _, p, o = triple
    return p in STATUS_PREDICATES or (isinstance(o, Literal) and is_machine_tag(o.lang))
