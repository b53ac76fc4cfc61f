import random

from hypothesis import given, settings

from odcat.rdf import IRI, BlankNode, Literal, canonical_ntriples, canonicalize, isomorphic, parse_turtle

from conftest import blank_labels, graphs, isomorphic_oracle, relabeled

P = IRI("http://x/p")
Q = IRI("http://x/q")


def test_no_blank_nodes_unchanged():
    g = [(IRI("http://x/s"), P, Literal("v"))]
    assert canonicalize(g) == g


def test_two_parses_differing_labels():
    a = parse_turtle("<http://x/d> <http://x/p> _:x . _:x <http://x/q> \"v\" .")
    b = parse_turtle("<http://x/d> <http://x/p> _:other . _:other <http://x/q> \"v\" .")
    assert canonical_ntriples(a) == canonical_ntriples(b)


def test_lone_surrogates_canonicalize():
    # json.loads('"\\ud800"') gives a lone surrogate, which strict UTF-8 refuses
    g = [(IRI("http://x/\ud800"), P, BlankNode("d")), (BlankNode("d"), Q, Literal("\udfff"))]
    relabeled = [(IRI("http://x/\ud800"), P, BlankNode("e")), (BlankNode("e"), Q, Literal("\udfff"))]
    assert canonical_ntriples(g) == canonical_ntriples(relabeled) == '<http://x/\ud800> <http://x/p> _:c0 .\n_:c0 <http://x/q> "\udfff" .\n'
    assert not isomorphic(g, [(IRI("http://x/\ud800"), P, BlankNode("d"))])


def test_symmetric_blank_nodes_stable():
    g = [
        (BlankNode("a"), P, Literal("same")),
        (BlankNode("b"), P, Literal("same")),
    ]
    swapped = [
        (BlankNode("b"), P, Literal("same")),
        (BlankNode("a"), P, Literal("same")),
    ]
    assert canonical_ntriples(g) == canonical_ntriples(swapped)
    # brute force: canonical form equals the smallest over all relabelings
    forms = []
    for mapping in ({"a": "c0", "b": "c1"}, {"a": "c1", "b": "c0"}):
        lines = sorted(
            f"{s} {p} {o}"
            for s, p, o in [(str(x), str(y), str(z)) for x, y, z in relabeled(g, mapping)]
        )
        forms.append(lines)
    assert forms[0] == forms[1]


def test_automorphic_cycle_relabelings_agree():
    """Rotation-symmetric blank cycles still canonicalize identically."""
    def cycle(labels):
        return [(BlankNode(a), P, BlankNode(b)) for a, b in zip(labels, labels[1:] + labels[:1])]

    base = cycle(["x", "y", "z"])
    for rotated in (["y", "z", "x"], ["z", "x", "y"], ["a", "b", "c"]):
        assert canonical_ntriples(cycle(rotated)) == canonical_ntriples(base)
    # two disjoint 2-cycles versus one 4-cycle: same degree profile, not isomorphic
    two_pairs = cycle(["p", "q"]) + cycle(["r", "s"])
    four_cycle = cycle(["p", "q", "r", "s"])
    assert isomorphic_oracle(two_pairs, four_cycle) is False
    assert canonical_ntriples(two_pairs) != canonical_ntriples(four_cycle)


def _random_graph(rng, n_blanks):
    labels = [f"n{i}" for i in range(n_blanks)]
    nodes = [BlankNode(l) for l in labels] + [IRI("http://x/r"), Literal("leaf")]
    g = set()
    for _ in range(rng.randint(n_blanks, n_blanks * 2 + 2)):
        s = rng.choice(nodes[:n_blanks] + [IRI("http://x/r")])
        p = rng.choice([P, Q])
        o = rng.choice(nodes)
        g.add((s, p, o))
    return list(g)


def test_agreement_with_factorial_oracle():
    rng = random.Random(42)
    for trial in range(120):
        n = rng.randint(1, 6)
        g = _random_graph(rng, n)
        labels = blank_labels(g)
        perm = labels[:]
        rng.shuffle(perm)
        h = relabeled(g, dict(zip(labels, [f"z{p}" for p in perm])))
        assert isomorphic_oracle(g, h)
        assert canonical_ntriples(g) == canonical_ntriples(h), f"trial {trial}"
        if not labels:
            continue
        # a genuinely different graph must not collide
        mutated = g + [(BlankNode(labels[0]), Q, Literal(f"extra-{trial}"))]
        if not isomorphic_oracle(g, mutated):
            assert canonical_ntriples(g) != canonical_ntriples(mutated)


def test_oracle_rejects_nonisomorphic_pairs():
    rng = random.Random(7)
    disagreements = 0
    for _ in range(60):
        a = _random_graph(rng, rng.randint(1, 4))
        b = _random_graph(rng, rng.randint(1, 4))
        assert isomorphic(a, b) == isomorphic_oracle(a, b)
        disagreements += isomorphic_oracle(a, b)
    # mostly distinct graphs; sanity that the loop tested something
    assert disagreements < 60


@settings(max_examples=100, deadline=None)
@given(graphs)
def test_canonicalize_preserves_structure(g):
    c = canonicalize(g)
    assert isomorphic_oracle_small(g, c)


def isomorphic_oracle_small(a, b):
    if len(blank_labels(a)) > 6:
        return isomorphic(a, b)
    return isomorphic_oracle(a, b)
