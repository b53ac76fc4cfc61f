"""Shape validation with explicit violation paths.

A shape targets one class and carries per-property constraints; validation
evaluates every (focus node, constraint) pair and reports each deficit with
its focus node, property path, constraint kind, and severity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import ns
from ..rdf import IRI, Literal, Term, Triple, plain_text

CONSTRAINT_KINDS = ("minCount", "maxCount", "class", "datatype", "nodeKind", "inList")
NODE_KINDS = ("iri", "literal", "blank", "iri_or_blank", "iri_or_literal", "blank_or_literal")
SEVERITIES = ("violation", "warning")


class MalformedShapeError(ValueError):
    pass


@dataclass(frozen=True)
class PropertyConstraint:
    path: str
    kind: str
    severity: str = "violation"
    count: int | None = None
    class_iri: str | None = None
    datatype: str | None = None
    node_kind: str | None = None
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CONSTRAINT_KINDS:
            raise MalformedShapeError(f"unknown constraint kind {self.kind!r}")
        if self.severity not in SEVERITIES:
            raise MalformedShapeError(f"unknown severity {self.severity!r}")
        if self.kind in ("minCount", "maxCount") and (self.count is None or self.count < 0):
            raise MalformedShapeError(f"{self.kind} needs a non-negative count")
        if self.kind == "class" and not self.class_iri:
            raise MalformedShapeError("class constraint needs class_iri")
        if self.kind == "datatype" and not self.datatype:
            raise MalformedShapeError("datatype constraint needs a datatype IRI")
        if self.kind == "nodeKind" and self.node_kind not in NODE_KINDS:
            raise MalformedShapeError(f"nodeKind must be one of {NODE_KINDS}")
        if self.kind == "inList" and not self.values:
            raise MalformedShapeError("inList constraint needs a value list")


@dataclass(frozen=True)
class Shape:
    target_class: str
    constraints: tuple[PropertyConstraint, ...]


@dataclass(frozen=True)
class ConstraintViolation:
    focus_node: str
    path: str
    kind: str
    message: str
    severity: str

    def to_json(self) -> dict:
        return {
            "focusNode": self.focus_node,
            "path": self.path,
            "kind": self.kind,
            "message": self.message,
            "severity": self.severity,
        }

    @property
    def key(self) -> tuple[str, str, str, str]:
        """Identity used for multiset comparison (message text excluded)."""
        return (self.focus_node, self.path, self.kind, self.severity)


def _node_kind_of(term: Term) -> str:
    if isinstance(term, IRI):
        return "iri"
    if isinstance(term, Literal):
        return "literal"
    return "blank"


def _kind_accepts(node_kind: str, term: Term) -> bool:
    actual = _node_kind_of(term)
    return actual in node_kind.split("_or_")


def validate(graph: list[Triple], shapes: list[Shape]) -> list[ConstraintViolation]:
    """Evaluate every (focus node of the target class, constraint) pair."""
    by_sp: dict[tuple[Term, str], list[Term]] = {}
    types: dict[Term, set[str]] = {}
    for s, p, o in graph:
        by_sp.setdefault((s, p.value), []).append(o)
        if p.value == ns.RDF_TYPE and isinstance(o, IRI):
            types.setdefault(s, set()).add(o.value)

    out: list[ConstraintViolation] = []
    for shape in shapes:
        focus_nodes = sorted(
            (node for node, classes in types.items() if shape.target_class in classes),
            key=plain_text,
        )
        for focus in focus_nodes:
            for c in shape.constraints:
                values = by_sp.get((focus, c.path), [])
                if c.kind == "minCount":
                    if len(values) < c.count:
                        out.append(
                            ConstraintViolation(
                                plain_text(focus), c.path, "minCount",
                                f"expected at least {c.count} value(s) for <{c.path}>, found {len(values)}",
                                c.severity,
                            )
                        )
                elif c.kind == "maxCount":
                    if len(values) > c.count:
                        out.append(
                            ConstraintViolation(
                                plain_text(focus), c.path, "maxCount",
                                f"expected at most {c.count} value(s) for <{c.path}>, found {len(values)}",
                                c.severity,
                            )
                        )
                elif c.kind == "class":
                    for v in values:
                        if isinstance(v, Literal) or c.class_iri not in types.get(v, set()):
                            out.append(
                                ConstraintViolation(
                                    plain_text(focus), c.path, "class",
                                    f"value {plain_text(v)!r} of <{c.path}> is not a <{c.class_iri}>",
                                    c.severity,
                                )
                            )
                elif c.kind == "datatype":
                    for v in values:
                        if not isinstance(v, Literal) or v.datatype != c.datatype:
                            out.append(
                                ConstraintViolation(
                                    plain_text(focus), c.path, "datatype",
                                    f"value of <{c.path}> must be a literal typed <{c.datatype}>",
                                    c.severity,
                                )
                            )
                elif c.kind == "nodeKind":
                    for v in values:
                        if not _kind_accepts(c.node_kind, v):
                            out.append(
                                ConstraintViolation(
                                    plain_text(focus), c.path, "nodeKind",
                                    f"value of <{c.path}> must be {c.node_kind}, got {_node_kind_of(v)}",
                                    c.severity,
                                )
                            )
                elif c.kind == "inList":
                    for v in values:
                        if plain_text(v) not in c.values:
                            out.append(
                                ConstraintViolation(
                                    plain_text(focus), c.path, "inList",
                                    f"value {plain_text(v)!r} of <{c.path}> is not in the allowed list",
                                    c.severity,
                                )
                            )
    return out


_ACCESS_RIGHTS = (
    "http://publications.europa.eu/resource/authority/access-right/PUBLIC",
    "http://publications.europa.eu/resource/authority/access-right/RESTRICTED",
    "http://publications.europa.eu/resource/authority/access-right/NON_PUBLIC",
)

# Default rule set: mandatory dataset/distribution properties at violation
# severity, recommended ones at warning severity.
DEFAULT_SHAPES = [
    Shape(
        target_class=ns.DCAT_DATASET,
        constraints=(
            PropertyConstraint(ns.DCT_TITLE, "minCount", "violation", count=1),
            PropertyConstraint(ns.DCT_DESCRIPTION, "minCount", "violation", count=1),
            PropertyConstraint(ns.DCAT_KEYWORD, "minCount", "warning", count=1),
            PropertyConstraint(ns.DCAT_THEME, "minCount", "warning", count=1),
            PropertyConstraint(ns.DCT_PUBLISHER, "minCount", "warning", count=1),
            PropertyConstraint(ns.DCT_ISSUED, "maxCount", "warning", count=1),
            PropertyConstraint(ns.DCT_ACCESS_RIGHTS, "inList", "warning", values=_ACCESS_RIGHTS),
        ),
    ),
    Shape(
        target_class=ns.DCAT_DISTRIBUTION_CLASS,
        constraints=(
            PropertyConstraint(ns.DCAT_ACCESS_URL, "minCount", "violation", count=1),
            PropertyConstraint(ns.DCAT_ACCESS_URL, "nodeKind", "violation", node_kind="iri"),
            PropertyConstraint(ns.DCT_FORMAT, "minCount", "warning", count=1),
            PropertyConstraint(ns.DCT_LICENSE, "minCount", "warning", count=1),
            PropertyConstraint(ns.DCAT_BYTE_SIZE, "datatype", "warning", datatype=ns.XSD + "decimal"),
        ),
    ),
]
