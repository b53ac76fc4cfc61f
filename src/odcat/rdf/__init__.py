"""Embedded named-graph RDF store with Turtle/N-Triples support."""

from .terms import IRI, BlankNode, Literal, Quad, Term, Triple, plain_text
from .turtle import ParseError, UnresolvedPrefixError, parse_turtle
from .ntriples import parse_ntriples
from .serialize import serialize, serialize_ntriples, serialize_turtle, serialize_wire
from .canon import canonical_ntriples, canonicalize, isomorphic
from .store import QuadStore
from .query import GraphQuery, Var, query

__all__ = [
    "IRI",
    "BlankNode",
    "Literal",
    "Quad",
    "Term",
    "Triple",
    "plain_text",
    "ParseError",
    "UnresolvedPrefixError",
    "parse_turtle",
    "parse_ntriples",
    "serialize",
    "serialize_ntriples",
    "serialize_turtle",
    "serialize_wire",
    "canonicalize",
    "canonical_ntriples",
    "isomorphic",
    "QuadStore",
    "GraphQuery",
    "Var",
    "query",
]
