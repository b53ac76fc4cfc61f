"""Deterministic blank-node canonicalization.

Iterative hash refinement over blank-node neighborhoods; remaining ties are
resolved by individualizing one node of the smallest tied color class and
re-refining. All members of the first tied class are tried and the
lexicographically smallest outcome wins, so the result is independent of the
input labels. Graphs whose blank nodes form automorphic cycles may exceed the
branching budget; beyond it a single branch is followed (documented
limitation), which is still deterministic for a fixed input.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from .terms import BlankNode, Term, Triple

_BRANCH_BUDGET = 5000


def _h(*parts: bytes) -> bytes:
    return hashlib.sha256(b"\x1f".join(parts)).digest()


def _ground(term: Term) -> bytes:
    if isinstance(term, BlankNode):
        return b"*"
    # "surrogatepass", as for predicates: a term read from JSON may hold a lone surrogate
    return term.encode("utf-8", "surrogatepass")


# Colors are keyed by the blank node itself: the nodes of one graph sort as
# their labels do, since every node's text is "_:" and its label.


def _initial_colors(triples: list[Triple], labels: set[BlankNode]) -> dict[BlankNode, bytes]:
    sigs: dict[BlankNode, list[bytes]] = {lb: [] for lb in labels}
    for s, p, o in triples:
        pb = p.value.encode("utf-8", "surrogatepass")
        if isinstance(s, BlankNode):
            sigs[s].append(_h(b"s", pb, _ground(o)))
        if isinstance(o, BlankNode):
            sigs[o].append(_h(b"o", pb, _ground(s)))
    return {lb: _h(b"init", *sorted(sig)) for lb, sig in sigs.items()}


def _refine(colors: dict[BlankNode, bytes], triples: list[Triple]) -> dict[BlankNode, bytes]:
    while True:
        contrib: dict[BlankNode, list[bytes]] = {lb: [] for lb in colors}
        for s, p, o in triples:
            pb = p.value.encode("utf-8", "surrogatepass")
            if isinstance(s, BlankNode):
                other = colors[o] if isinstance(o, BlankNode) else _ground(o)
                contrib[s].append(_h(b"out", pb, other))
            if isinstance(o, BlankNode):
                other = colors[s] if isinstance(s, BlankNode) else _ground(s)
                contrib[o].append(_h(b"in", pb, other))
        new = {lb: _h(colors[lb], *sorted(contrib[lb])) for lb in colors}
        if _partition(new) == _partition(colors):
            return new
        colors = new


def _partition(colors: dict[BlankNode, bytes]) -> list[tuple[BlankNode, ...]]:
    groups: dict[bytes, list[BlankNode]] = {}
    for lb, c in colors.items():
        groups.setdefault(c, []).append(lb)
    return sorted(tuple(sorted(g)) for g in groups.values())


def _relabel(triples: list[Triple], mapping: dict[BlankNode, BlankNode]) -> list[Triple]:
    return [(mapping.get(s, s), p, mapping.get(o, o)) for s, p, o in triples]


def _lines(triples: list[Triple]) -> list[str]:
    """The distinct N-Triples lines of a graph, in code-point (UTF-8 byte) order."""
    return sorted({f"{s} {p} {o} ." for s, p, o in triples})


def canonicalize(triples: list[Triple]) -> list[Triple]:
    """Return the graph with blank nodes relabeled to canonical c0, c1, ..."""
    labels = {t for tr in triples for t in (tr[0], tr[2]) if isinstance(t, BlankNode)}
    if not labels:
        return list(triples)

    budget = [_BRANCH_BUDGET]
    best: list[str | None] = [None]
    best_mapping: list[dict[BlankNode, BlankNode] | None] = [None]

    def search(colors: dict[BlankNode, bytes]) -> None:
        colors = _refine(colors, triples)
        classes: dict[bytes, list[BlankNode]] = {}
        for lb, c in colors.items():
            classes.setdefault(c, []).append(lb)
        tied = sorted((c for c, members in classes.items() if len(members) > 1))
        if not tied:
            order = sorted(labels, key=lambda lb: colors[lb])
            mapping = {lb: BlankNode(f"c{i}") for i, lb in enumerate(order)}
            blob = "\n".join(_lines(_relabel(triples, mapping)))
            if best[0] is None or blob < best[0]:
                best[0] = blob
                best_mapping[0] = mapping
            return
        members = sorted(classes[tied[0]])
        for lb in members:
            if budget[0] <= 0 and best[0] is not None:
                return
            budget[0] -= 1
            forked = dict(colors)
            forked[lb] = _h(colors[lb], b"pick")
            search(forked)

    search(_initial_colors(triples, labels))
    assert best_mapping[0] is not None
    return _relabel(triples, best_mapping[0])


def canonical_ntriples(triples: Iterable[Triple]) -> str:
    """Canonical N-Triples: deterministic blank labels, bytewise-sorted lines.
    Equal strings mean isomorphic graphs."""
    lines = _lines(canonicalize(list(triples)))
    return "\n".join(lines) + ("\n" if lines else "")


def isomorphic(a: list[Triple], b: list[Triple]) -> bool:
    """Blank-node isomorphism via canonical-form equality."""
    return canonical_ntriples(a) == canonical_ntriples(b)
