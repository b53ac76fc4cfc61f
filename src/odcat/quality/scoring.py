"""Quality dimensions and report assembly.

Four dimensions scored 0-100. The indicator weights below are
artifact-defined constants (non-normative), kept in one block so they are
easy to review and adjust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .. import ns
from ..rdf import IRI, Literal, Term, Triple, plain_text
from ..vocab import Vocabulary
from .shapes import ConstraintViolation
from .urlcheck import UrlCheckResult

# -- non-normative scoring weights ------------------------------------------
DIMENSION_WEIGHTS = {
    "findability": {"keywords": 30, "spatial": 20, "temporal": 20, "theme": 30},
    "interoperability": {"format_present": 30, "machine_readable": 35, "non_proprietary": 35},
    "reusability": {"license_present": 60, "license_vocabulary": 20, "publisher_present": 20},
}
# accessibility = 100 * fraction of reachable distributions
# ---------------------------------------------------------------------------

METRIC_NS = ns.ODN
DIMENSIONS = ("findability", "accessibility", "interoperability", "reusability")


@dataclass(frozen=True)
class QualityMeasurement:
    metric_id: str
    value: bool | float
    computed_on: str
    timestamp: str

    def to_json(self) -> dict:
        return {
            "metricId": self.metric_id,
            "value": self.value,
            "computedOn": self.computed_on,
            "timestamp": self.timestamp,
        }


@dataclass
class QualityReport:
    dataset_iri: str
    dataset_id: str
    catalogue_id: str
    dimensions: dict[str, float]
    overall: int
    measurements: list[QualityMeasurement] = field(default_factory=list)
    violations: list[ConstraintViolation] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "datasetIri": self.dataset_iri,
            "datasetId": self.dataset_id,
            "catalogueId": self.catalogue_id,
            "dimensions": self.dimensions,
            "overallScore": self.overall,
            "measurements": [m.to_json() for m in self.measurements],
            "violations": [v.to_json() for v in self.violations],
        }


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _format_label(term: Term) -> str:
    if isinstance(term, IRI):
        return term.local_name().lower()
    if isinstance(term, Literal):
        return term.lexical.lower()
    return ""


def annotate(
    graph: list[Triple],
    violations: list[ConstraintViolation],
    url_results: dict[str, UrlCheckResult],
    machine_readable: frozenset[str],
    non_proprietary: frozenset[str],
    license_vocab: Vocabulary | None = None,
    dataset_id: str = "",
    catalogue_id: str = "",
) -> QualityReport:
    """Score one dataset graph from validation, URL-check, and graph facts."""
    by_sp: dict[tuple[Term, str], list[Term]] = {}
    for s, p, o in graph:
        by_sp.setdefault((s, p.value), []).append(o)
    dataset = next(iter(ns.dataset_subjects(graph)), None)

    def objs(node, pred):
        if node is None:
            return []
        return by_sp.get((node, pred), [])

    dataset_iri = plain_text(dataset) if dataset else ""
    now = datetime.now(timezone.utc).isoformat().replace("+00:00", "Z")
    measurements: list[QualityMeasurement] = []

    def measure(metric: str, value, computed_on: str = ""):
        measurements.append(
            QualityMeasurement(METRIC_NS + metric, value, computed_on or dataset_iri, now)
        )
        return value

    # findability: metadata completeness indicators
    fw = DIMENSION_WEIGHTS["findability"]
    findability = 0.0
    findability += fw["keywords"] * measure("keywordAvailability", bool(objs(dataset, ns.DCAT_KEYWORD)))
    findability += fw["spatial"] * measure("spatialAvailability", bool(objs(dataset, ns.DCT_SPATIAL)))
    findability += fw["temporal"] * measure("temporalAvailability", bool(objs(dataset, ns.DCT_TEMPORAL)))
    findability += fw["theme"] * measure("themeAvailability", bool(objs(dataset, ns.DCAT_THEME)))

    # accessibility: reachable fraction over distributions
    distributions = list(dict.fromkeys(objs(dataset, ns.DCAT_DISTRIBUTION)))
    reachable = 0
    for dist in distributions:
        result = url_results.get(plain_text(dist))
        ok = bool(result and result.reachable)
        measure("accessUrlReachable", ok, plain_text(dist))
        reachable += ok
    accessibility = 100.0 * reachable / len(distributions) if distributions else 0.0

    # interoperability: format quality per distribution, averaged
    iw = DIMENSION_WEIGHTS["interoperability"]
    per_dist_scores = []
    for dist in distributions:
        formats = objs(dist, ns.DCT_FORMAT) + objs(dist, ns.DCAT_MEDIA_TYPE)
        labels = {_format_label(f) for f in formats if _format_label(f)}
        present = bool(labels)
        machine = present and bool(labels & machine_readable)
        open_format = present and bool(labels & non_proprietary)
        measure("formatAvailability", present, plain_text(dist))
        measure("formatMachineReadable", machine, plain_text(dist))
        measure("formatNonProprietary", open_format, plain_text(dist))
        per_dist_scores.append(
            iw["format_present"] * present + iw["machine_readable"] * machine + iw["non_proprietary"] * open_format
        )
    interoperability = sum(per_dist_scores) / len(per_dist_scores) if per_dist_scores else 0.0

    # reusability: licensing and provenance
    rw = DIMENSION_WEIGHTS["reusability"]
    license_terms = list(objs(dataset, ns.DCT_LICENSE))
    for dist in distributions:
        license_terms.extend(objs(dist, ns.DCT_LICENSE))
    license_present = measure("licenseAvailability", bool(license_terms))
    on_vocabulary = False
    if license_vocab is not None:
        on_vocabulary = any(isinstance(t, IRI) and license_vocab.knows(t.value) for t in license_terms)
    license_listed = measure("licenseVocabulary", bool(on_vocabulary))
    publisher_present = measure("publisherAvailability", bool(objs(dataset, ns.DCT_PUBLISHER)))
    reusability = (
        rw["license_present"] * license_present
        + rw["license_vocabulary"] * license_listed
        + rw["publisher_present"] * publisher_present
    )

    dimensions = {
        "findability": float(findability),
        "accessibility": float(accessibility),
        "interoperability": float(interoperability),
        "reusability": float(reusability),
    }
    overall = _round_half_up(sum(dimensions.values()) / 4.0)
    for name in DIMENSIONS:
        measure(name + "Score", dimensions[name])
    measure("overallScore", float(overall))

    return QualityReport(
        dataset_iri=dataset_iri,
        dataset_id=dataset_id,
        catalogue_id=catalogue_id,
        dimensions=dimensions,
        overall=overall,
        measurements=measurements,
        violations=list(violations),
    )
