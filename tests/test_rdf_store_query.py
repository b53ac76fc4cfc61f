import itertools
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcat.rdf import IRI, BlankNode, GraphQuery, Literal, ParseError, Quad, QuadStore, Var, parse_ntriples, query

RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
DATASET = IRI("http://www.w3.org/ns/dcat#Dataset")
TITLE = IRI("http://purl.org/dc/terms/title")
G1 = "http://x/graphs/1"
G2 = "http://x/graphs/2"
G3 = "http://x/graphs/3"


def test_insert_idempotent():
    store = QuadStore()
    t = (IRI("http://x/d"), TITLE, Literal("t"))
    assert store.add(G1, t)
    assert not store.add(G1, t)
    assert len(store) == 1


def test_graphs_hold_plain_triples_sharing_one_object_per_predicate():
    store = QuadStore()
    first, second = (parse_ntriples(f'<http://x/{n}> <{TITLE.value}> "{n}" .') for n in "ab")
    assert first[0][1] == second[0][1] and first[0][1] is not second[0][1]
    store.replace_graph(G1, first)
    store.add_all(G2, second)
    (t1,), (t2,) = store.graph(G1), store.graph(G2)
    assert type(t1) is tuple and t1[1] is t2[1]
    assert [q.triple for q in store.match(G2)] == second


def test_graph_deletion_scoped():
    store = QuadStore()
    store.add(G1, (IRI("http://x/a"), TITLE, Literal("1")))
    store.add(G2, (IRI("http://x/b"), TITLE, Literal("2")))
    assert store.delete_graph(G1) == 1
    assert len(store) == 1
    assert store.graph(G2)


def test_replace_graph_atomic_swap():
    store = QuadStore()
    store.add(G1, (IRI("http://x/a"), TITLE, Literal("old")))
    store.replace_graph(G1, [(IRI("http://x/a"), TITLE, Literal("new"))])
    assert store.graph(G1) == [(IRI("http://x/a"), TITLE, Literal("new"))]


def test_persistence_replay(tmp_path):
    store = QuadStore(tmp_path)
    store.add(G1, (IRI("http://x/a"), TITLE, Literal("keep")))
    store.add(G1, (IRI("http://x/a"), TITLE, Literal("drop")))
    store.remove(G1, (IRI("http://x/a"), TITLE, Literal("drop")))
    store.add(G2, (IRI("http://x/b"), RDF_TYPE, DATASET))
    store.delete_graph(G2)
    del store

    reloaded = QuadStore(tmp_path)
    assert reloaded.graph(G1) == [(IRI("http://x/a"), TITLE, Literal("keep"))]
    assert not reloaded.has_graph(G2)


def test_persistence_snapshot_compact(tmp_path):
    store = QuadStore(tmp_path)
    for i in range(5):
        store.add(G1, (IRI(f"http://x/{i}"), TITLE, Literal(str(i))))
    store.compact()
    store.add(G1, (IRI("http://x/post"), TITLE, Literal("after")))
    store.close()

    reloaded = QuadStore(tmp_path)
    assert len(reloaded) == 6


def _last_mutation(store, op):
    if op == "A":
        store.add(G2, (IRI("http://x/b"), TITLE, Literal("naïve ✓ \u2028 \"q\"", lang="fr")))
    elif op == "D":
        store.remove(G1, (IRI("http://x/a"), TITLE, Literal("zwei")))
    elif op == "C":
        store.delete_graph(G1)
    elif op == "R":  # a clear line and three adds
        store.replace_graph(G1, [(IRI("http://x/a"), TITLE, Literal(f"neu {i} ☂")) for i in range(3)])
    else:  # two adds
        store.add_all(G2, [(IRI("http://x/c"), TITLE, Literal("ä")), (IRI("http://x/c"), TITLE, Literal("b"))])


@pytest.mark.parametrize("op", ["A", "D", "C", "R", "M"])
def test_torn_wal_tail_reopens_at_the_state_before_the_last_mutation(tmp_path, op):
    store = QuadStore(tmp_path / "live")
    store.add(G1, (IRI("http://x/a"), TITLE, Literal("café\t\x01 ☂", lang="en")))
    store.add(G1, (IRI("http://x/a"), TITLE, Literal("zwei")))
    store.add(G2, (BlankNode("b1"), TITLE, Literal("3", "http://www.w3.org/2001/XMLSchema#integer")))
    before = set(store.match())
    last = (tmp_path / "live" / "wal.nq").stat().st_size
    _last_mutation(store, op)
    after = set(store.match())
    assert after != before
    data = (tmp_path / "live" / "wal.nq").read_bytes()
    store.close()
    mutation = data[last:].decode("utf-8").split("\n")[:-1]
    if op in "ADC":
        assert len(mutation) == 1 and mutation[0].startswith(f"{op} ")
    else:  # several lines behind a header that counts them
        assert mutation[0] == f"B {len(mutation) - 1}" and len(mutation) > 2

    extra = (IRI("http://x/extra"), TITLE, Literal("après"))
    for cut in range(last, len(data) + 1):
        directory = tmp_path / f"cut-{cut}"
        directory.mkdir()
        (directory / "wal.nq").write_bytes(data[:cut])
        reopened = QuadStore(directory)
        torn = last < cut < len(data)
        assert set(reopened.match()) == (after if cut == len(data) else before), cut
        assert reopened.torn_wal_lines == int(torn), cut
        assert (directory / "wal.nq").read_bytes() == (data[:last] if torn else data[:cut]), cut
        reopened.add(G1, extra)
        del reopened  # a crash: no compaction, the next open replays the log
        again = QuadStore(directory)
        expected = (after if cut == len(data) else before) | {Quad(*extra, G1)}
        assert set(again.match()) == expected, cut
        assert again.torn_wal_lines == 0
        again.close()


def test_wal_without_batch_headers_still_replays(tmp_path):
    lines = [
        f'A <http://x/a> <{TITLE.value}> "one" <{G1}> .',
        f"C <{G1}>",
        f'A <http://x/a> <{TITLE.value}> "two" <{G1}> .',
        f'A <http://x/b> <{TITLE.value}> "three" <{G1}> .',
        f'D <http://x/b> <{TITLE.value}> "three" <{G1}> .',
    ]
    (tmp_path / "wal.nq").write_text("\n".join(lines) + "\n", encoding="utf-8")
    store = QuadStore(tmp_path)
    assert set(store.match()) == {Quad(IRI("http://x/a"), TITLE, Literal("two"), G1)}
    assert store.torn_wal_lines == 0


@pytest.mark.parametrize(
    "bad_line",
    [
        "A <http://x/a> <http://purl.org/dc/terms/title",
        'A <http://x/a> <http://purl.org/dc/terms/title> "x" .',
        "C <http://x/graphs/1",
        "X <http://x/graphs/1>",
    ],
)
def test_bad_wal_line_before_the_tail_names_its_line(tmp_path, bad_line):
    good = f'A <http://x/a> <http://purl.org/dc/terms/title> "t" <{G1}> .'
    (tmp_path / "wal.nq").write_text(f"{good}\n{bad_line}\n{good}", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        QuadStore(tmp_path)
    assert err.value.line == 2


_tricky_text = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(["", "\\", '"', "\\u00E9", "tab\there", "line\nbreak\r", "\x00\x01\x1f\x7f", "\x85\u2028\u2029", "☂ café 😀"]),
)
_store_literals = st.one_of(
    st.builds(Literal, _tricky_text),
    st.builds(Literal, _tricky_text, lang=st.sampled_from(["en", "de-AT", "zh-Hant-TW"])),
    st.builds(Literal, _tricky_text, st.sampled_from(["http://www.w3.org/2001/XMLSchema#integer", "http://x/dt#é"])),
)
_store_nodes = st.one_of(
    st.sampled_from([IRI("http://x/a"), IRI("http://x/ü/ß?q=1#f"), IRI("urn:x:1")]),
    st.builds(BlankNode, st.sampled_from(["b0", "b.1", "_x-y"])),
)
_store_quads = st.lists(
    st.builds(
        Quad,
        _store_nodes,
        st.sampled_from([TITLE, RDF_TYPE, IRI("http://x/p/ä")]),
        st.one_of(_store_nodes, _store_literals),
        st.sampled_from([G1, G2, G3]),
    ),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(_store_quads)
def test_store_round_trips_quads_through_wal_and_snapshot(quads):
    with tempfile.TemporaryDirectory() as directory:
        store = QuadStore(directory)
        expected = set()
        for q in quads:
            store.add(q.graph, q.triple)
            expected.add(q)
        for q in quads[::3]:
            store.remove(q.graph, q.triple)
            expected.discard(q)
        # also_add repeats quads G2 already holds: they must not count twice
        store.replace_graph(G1, [q.triple for q in quads[1::2]], also_add=[q for q in expected if q.graph == G2])
        expected = {q for q in expected if q.graph != G1} | {Quad(*q.triple, G1) for q in quads[1::2]}
        assert store.delete_graph(G3) == sum(q.graph == G3 for q in expected)
        expected = {q for q in expected if q.graph != G3}

        def check(s):
            assert set(s.match()) == expected
            assert len(s) == len(expected)
            for q in quads:
                for pos in itertools.product(*((None, v) for v in (q.graph, q.subject, q.predicate, q.object))):
                    want = {
                        e for e in expected if all(v is None or v == f for v, f in zip(pos, (e.graph, *e.triple)))
                    }
                    got = s.match(*pos)
                    assert set(got) == want and len(got) == len(want), pos

        check(store)
        del store
        from_wal = QuadStore(directory)
        check(from_wal)
        from_wal.close()
        from_snapshot = QuadStore(directory)
        check(from_snapshot)
        from_snapshot.close()


def test_concurrent_writers_consistent(tmp_path):
    import concurrent.futures

    store = QuadStore(tmp_path)

    def writer(k):
        graph = f"http://x/graphs/{k}"
        for i in range(40):
            store.add(graph, (IRI(f"http://x/{k}/{i}"), TITLE, Literal(str(i))))
        if k % 2 == 0:
            store.delete_graph(graph)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(writer, range(10)))
    assert len(store) == 5 * 40
    del store
    reloaded = QuadStore(tmp_path)
    assert len(reloaded) == 5 * 40
    assert all(len(reloaded.graph(f"http://x/graphs/{k}")) == 40 for k in range(1, 10, 2))


def test_query_type_pattern():
    store = QuadStore()
    for i in range(3):
        store.add(G1, (IRI(f"http://x/d{i}"), RDF_TYPE, DATASET))
    out = query(store, GraphQuery([(Var("d"), RDF_TYPE, DATASET)]))
    assert len(out) == 3
    assert {b["d"].value for b in out} == {f"http://x/d{i}" for i in range(3)}


def test_query_empty_store():
    assert query(QuadStore(), GraphQuery([(Var("s"), Var("p"), Var("o"))])) == []


def test_query_requires_patterns():
    with pytest.raises(ValueError):
        GraphQuery([])


def naive_query(quads, patterns, graph):
    """Nested-loop reference evaluator."""
    rows = [q for q in quads if graph is None or q.graph == graph]
    bindings = [{}]
    for pat in patterns:
        out = []
        for b in bindings:
            for q in rows:
                trial = dict(b)
                ok = True
                for slot, val in zip(pat, (q.subject, q.predicate, q.object)):
                    if isinstance(slot, Var):
                        if slot.name in trial and trial[slot.name] != val:
                            ok = False
                            break
                        trial[slot.name] = val
                    elif slot != val:
                        ok = False
                        break
                if ok:
                    out.append(trial)
        bindings = out
    seen = {}
    for b in bindings:
        seen[tuple(sorted((k, repr(v)) for k, v in b.items()))] = b
    return list(seen.values())


def _binding_set(bindings):
    return {tuple(sorted((k, repr(v)) for k, v in b.items())) for b in bindings}


def test_join_matches_nested_loop_oracle():
    rng = random.Random(99)
    subjects = [IRI(f"http://x/s{i}") for i in range(4)]
    preds = [IRI(f"http://x/p{i}") for i in range(3)]
    objects = subjects + [Literal("a"), Literal("b")]
    graphs_ = [G1, G2]

    for trial in range(200):
        store = QuadStore()
        for _ in range(rng.randint(0, 15)):
            store.add(rng.choice(graphs_), (rng.choice(subjects), rng.choice(preds), rng.choice(objects)))

        def pos(var_name):
            return Var(var_name) if rng.random() < 0.5 else rng.choice(subjects + preds + objects)

        patterns = [
            (pos("a"), Var("p") if rng.random() < 0.5 else rng.choice(preds), pos("b"))
            for _ in range(rng.randint(1, 2))
        ]
        graph = rng.choice([None, G1, G2])
        got = query(store, GraphQuery(patterns, graph))
        want = naive_query(store.match(), patterns, graph)
        assert _binding_set(got) == _binding_set(want), f"trial {trial}"
