"""Quality report persistence and rendering (json, csv, html)."""

from __future__ import annotations

import csv
import html
import io
import json
from collections import Counter

from .. import ns
from ..rdf import IRI, Literal, Triple
from .scoring import DIMENSIONS, QualityReport, _round_half_up

CSV_COLUMNS = (
    "datasetId",
    "findability",
    "accessibility",
    "interoperability",
    "reusability",
    "overallScore",
    "violations",
    "warnings",
)


_TYPE = IRI(ns.RDF_TYPE)
_MEASUREMENT = IRI(ns.DQV_QUALITY_MEASUREMENT)
_IS_MEASUREMENT_OF = IRI(ns.DQV_IS_MEASUREMENT_OF)
_VALUE = IRI(ns.DQV_VALUE)
_COMPUTED_ON = IRI(ns.DQV_COMPUTED_ON)
_GENERATED_AT = IRI(ns.PROV_GENERATED_AT)
_BOOLEANS = {True: Literal("true", ns.XSD + "boolean"), False: Literal("false", ns.XSD + "boolean")}


def report_to_triples(report: QualityReport, metrics_graph_iri: str) -> list[Triple]:
    """DQV-style measurement nodes for one dataset report."""
    ms = report.measurements
    # a report repeats its metric ids, subjects and time: build each term once
    iris = {v: IRI(v) for v in {m.metric_id for m in ms} | {m.computed_on for m in ms}}
    times = {t: Literal(t, ns.XSD + "dateTime") for t in {m.timestamp for m in ms}}
    triples: list[Triple] = []
    for i, m in enumerate(ms):
        node = IRI(f"{metrics_graph_iri}#m{i}")
        if isinstance(m.value, bool):
            value = _BOOLEANS[m.value]
        else:
            value = Literal(f"{m.value:g}", ns.XSD + "decimal")
        triples += (
            (node, _TYPE, _MEASUREMENT),
            (node, _IS_MEASUREMENT_OF, iris[m.metric_id]),
            (node, _VALUE, value),
            (node, _COMPUTED_ON, iris[m.computed_on]),
            (node, _GENERATED_AT, times[m.timestamp]),
        )
    return triples


def _report_row(report: QualityReport) -> dict:
    return {
        "datasetId": report.dataset_id,
        "findability": f"{report.dimensions['findability']:g}",
        "accessibility": f"{report.dimensions['accessibility']:g}",
        "interoperability": f"{report.dimensions['interoperability']:g}",
        "reusability": f"{report.dimensions['reusability']:g}",
        "overallScore": str(report.overall),
        "violations": str(sum(1 for v in report.violations if v.severity == "violation")),
        "warnings": str(sum(1 for v in report.violations if v.severity == "warning")),
    }


def aggregate_catalogue(catalogue_id: str, reports: list[QualityReport]) -> dict:
    """Per-dimension means, violation counts by path, dataset count."""
    count = len(reports)
    dimensions = {
        dim: (sum(r.dimensions[dim] for r in reports) / count if count else 0.0)
        for dim in DIMENSIONS
    }
    overall = _round_half_up(sum(r.overall for r in reports) / count) if count else 0
    violations_by_path: Counter = Counter()
    for r in reports:
        violations_by_path.update(v.path for v in r.violations)
    return {
        "catalogueId": catalogue_id,
        "datasetCount": count,
        "dimensions": dimensions,
        "overallScore": overall,
        "violationsByPath": dict(sorted(violations_by_path.items())),
        "datasets": [_report_row(r) for r in sorted(reports, key=lambda r: r.dataset_id)],
    }


def render(payload: QualityReport | dict, fmt: str = "json") -> tuple[str, bytes]:
    """(content type, body) for a dataset report or a catalogue aggregate."""
    if fmt == "json":
        obj = payload.to_json() if isinstance(payload, QualityReport) else payload
        return "application/json", json.dumps(obj, indent=2).encode("utf-8")
    if fmt == "csv":
        rows = (
            [_report_row(payload)]
            if isinstance(payload, QualityReport)
            else list(payload.get("datasets", []))
        )
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return "text/csv; charset=utf-8", buffer.getvalue().encode("utf-8")
    if fmt == "html":
        return "text/html; charset=utf-8", _render_html(payload)
    raise ValueError(f"unknown report format {fmt!r}")


def _render_html(payload: QualityReport | dict) -> bytes:
    if isinstance(payload, QualityReport):
        title = f"Quality report: {html.escape(payload.dataset_id)}"
        rows = [_report_row(payload)]
        summary = ""
    else:
        title = f"Catalogue quality report: {html.escape(payload['catalogueId'])}"
        rows = payload.get("datasets", [])
        dims = " / ".join(f"{d}: {payload['dimensions'][d]:.1f}" for d in DIMENSIONS)
        summary = (
            f"<p>{payload['datasetCount']} datasets, overall {payload['overallScore']}"
            f" &mdash; {html.escape(dims)}</p>"
        )
    head = "".join(f"<th>{html.escape(c)}</th>" for c in CSV_COLUMNS)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(row[c]))}</td>" for c in CSV_COLUMNS) + "</tr>"
        for row in rows
    )
    doc = (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{title}</title></head><body><h1>{title}</h1>{summary}"
        f"<table border='1'><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
        "</body></html>"
    )
    return doc.encode("utf-8")
