"""Basic graph pattern matching over the quad store."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .store import QuadStore
from .terms import IRI, Term

Binding = dict[str, Term]


@dataclass(frozen=True, slots=True)
class Var:
    name: str


PatternTerm = Union[Term, Var]
Pattern = tuple[PatternTerm, PatternTerm, PatternTerm]


@dataclass
class GraphQuery:
    """Conjunctive (s, p, o) patterns against one graph or all graphs."""

    patterns: list[Pattern]
    graph: str | None = None

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("a query needs at least one pattern")


def _concrete(term: PatternTerm, binding: Binding) -> Term | None:
    if isinstance(term, Var):
        return binding.get(term.name)
    return term


def query(store: QuadStore, q: GraphQuery) -> list[Binding]:
    """All duplicate-free variable bindings satisfying every pattern."""
    bindings: list[Binding] = [{}]
    for s_pat, p_pat, o_pat in q.patterns:
        next_bindings: list[Binding] = []
        for binding in bindings:
            s = _concrete(s_pat, binding)
            p = _concrete(p_pat, binding)
            o = _concrete(o_pat, binding)
            if p is not None and not isinstance(p, IRI):
                continue
            for quad in store.match(q.graph, s, p, o):
                extended = dict(binding)
                ok = True
                for pat, value in ((s_pat, quad.subject), (p_pat, quad.predicate), (o_pat, quad.object)):
                    if isinstance(pat, Var):
                        bound = extended.get(pat.name)
                        if bound is None:
                            extended[pat.name] = value
                        elif bound != value:
                            ok = False
                            break
                if ok:
                    next_bindings.append(extended)
        bindings = next_bindings
        if not bindings:
            return []
    unique: dict[tuple, Binding] = {}
    for b in bindings:
        unique[tuple(sorted(b.items()))] = b
    return list(unique.values())
