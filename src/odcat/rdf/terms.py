"""RDF term model: IRIs, literals, blank nodes, quads."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATETIME = XSD + "dateTime"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF_NS + "type"
RDF_LANGSTRING = RDF_NS + "langString"

_IRI_FORBIDDEN = set(" \t\n\r\f\v<>\"{}|^`")
_IRI_FORBIDDEN_RE = re.compile("[" + "".join(re.escape(c) for c in sorted(_IRI_FORBIDDEN)) + "]")


@dataclass(frozen=True, slots=True)
class IRI:
    value: str

    def __post_init__(self) -> None:
        if _IRI_FORBIDDEN_RE.search(self.value):
            raise ValueError(f"IRI contains forbidden character: {self.value!r}")

    def __str__(self) -> str:
        return self.value

    def local_name(self) -> str:
        """Text after the last '#' or '/' (used as a label fallback)."""
        v = self.value.rstrip("#/")
        for sep in ("#", "/", ":"):
            if sep in v:
                v = v.rsplit(sep, 1)[1]
                break
        return v


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str

    def __str__(self) -> str:
        return "_:" + self.label


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: str = XSD_STRING
    lang: str | None = None

    def __post_init__(self) -> None:
        if self.lang is not None:
            object.__setattr__(self, "lang", self.lang.lower())
            object.__setattr__(self, "datatype", RDF_LANGSTRING)
        elif self.datatype == RDF_LANGSTRING:
            raise ValueError("language-string literal requires a language tag")

    def __str__(self) -> str:
        return self.lexical


Term = Union[IRI, Literal, BlankNode]
Triple = tuple[Term, IRI, Term]


@dataclass(frozen=True, slots=True)
class Quad:
    subject: Term
    predicate: IRI
    object: Term
    graph: str

    @property
    def triple(self) -> Triple:
        return (self.subject, self.predicate, self.object)
