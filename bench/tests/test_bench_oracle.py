"""Fast tests of the benchmark's own expectations: the naive-scan search
model, the set-difference harvest counts and the seeded inputs.

    python3 -m pytest -q bench/tests
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import oracle  # noqa: E402

CC0 = f"{inputs.AUTHORITY}/licence/CC0"
CC_BY = f"{inputs.AUTHORITY}/licence/CC_BY"


def record(rid, title, formats=("csv",), license_iri=CC0, city="berlin"):
    return {
        "id": rid,
        "title": title,
        "description": f"{title} data for {city}.",
        "keywords": [city],
        "issued": "2020-01-01T00:00:00Z",
        "publisher": f"{city.title()} Open Data Office",
        "license": license_iri,
        "resources": [{"format": f, "url": f"http://files.portal.test/{rid}/{k}"} for k, f in enumerate(formats)],
    }


def corpus_of(*docs):
    corpus = oracle.Corpus()
    for doc in docs:
        corpus.put(doc)
    return corpus


def test_keyword_search_is_and_over_title_description_and_keywords():
    corpus = corpus_of(
        oracle.make_doc(record("a", "Rainfall annual 2020"), "c1"),
        oracle.make_doc(record("b", "Rainfall monthly 2021", city="hamburg"), "c1"),
        oracle.make_doc(record("c", "Noise annual 2020"), "c2"),
    )
    assert corpus.search("rainfall", {})[0] == {"a", "b"}
    assert corpus.search("Rainfall 2020", {})[0] == {"a"}
    assert corpus.search("hamburg", {})[0] == {"b"}  # keyword and description
    assert corpus.search("rainfall noise", {})[0] == set()
    assert corpus.search("", {})[0] == {"a", "b", "c"}


def test_facet_counts_ignore_their_own_filter_only():
    corpus = corpus_of(
        oracle.make_doc(record("a", "Rain", formats=("csv", "json")), "c1"),
        oracle.make_doc(record("b", "Rain", formats=("csv",), license_iri=CC_BY), "c1"),
        oracle.make_doc(record("c", "Rain", formats=("xml",)), "c2"),
    )
    hits, counts = corpus.search("", {"format": "CSV"})
    assert hits == {"a", "b"}
    # the format field still shows every alternative
    assert counts["format"] == {"CSV": 2, "JSON": 1, "XML": 1}
    # the other fields count only documents that pass the format filter
    assert counts["license"] == {"CC BY 4.0": 1, "CC0 1.0": 1}
    assert counts["catalogue"] == {"c1": 2}
    hits, counts = corpus.search("rain", {"format": "CSV", "catalogue": "c2"})
    assert hits == set()
    assert counts["format"] == {"XML": 1}
    assert counts["catalogue"] == {"c1": 2}


def test_machine_translation_adds_only_language_codes():
    plain = oracle.make_doc(record("a", "Rainfall annual 2020"), "c1")
    translated = oracle.make_doc(record("a", "Rainfall annual 2020"), "c1", ("de", "fr"))
    assert translated.words - plain.words == {"en", "de", "fr"}
    assert not {"en", "de", "fr"} & set(inputs.QUERY_WORDS)


def test_put_replaces_the_document():
    corpus = corpus_of(oracle.make_doc(record("a", "Rainfall annual 2020"), "c1"))
    corpus.put(oracle.make_doc(record("a", "Rainfall annual 2020 zqr0n7"), "c1"))
    assert corpus.search("zqr0n7", {})[0] == {"a"}
    assert len(corpus.docs) == 1


def test_replace_catalogue_leaves_exactly_the_harvested_documents():
    corpus = corpus_of(
        oracle.make_doc(record("a", "Rainfall annual 2020 zqr0n1"), "src"),
        oracle.make_doc(record("b", "Noise annual 2020"), "src"),
        oracle.make_doc(record("c", "Noise annual 2020"), "other"),
    )
    corpus.replace_catalogue("src", [oracle.make_doc(record("a", "Rainfall annual 2020"), "src", ("de",))])
    assert set(corpus.docs) == {"a", "c"}
    assert corpus.search("zqr0n1", {})[0] == set()  # the harvest wrote the source title again
    assert corpus.search("de", {})[0] == {"a"}


def test_expected_summary_is_set_differences():
    previous = {"a", "b", "c", "d"}
    source = {"b", "c", "e"}
    assert oracle.expected_summary(previous, source) == {
        "records": 3, "created": 1, "updated": 2, "deleted": 2, "failed": 0,
    }
    assert oracle.expected_summary(set(), {"x", "y"})["created"] == 2


def test_reharvest_plan_counts_are_exact_and_agree_with_the_summary():
    plan = inputs.reharvest_plan("src", 200, 25, random.Random(3))
    previous = {r["id"] for r in plan.previous}
    dump = {r["id"] for r in plan.dump}
    assert (len(plan.edited), len(plan.removed), len(plan.new)) == (25, 25, 25)
    assert dump == (previous - plan.removed) | plan.new
    assert plan.edited <= dump and not plan.edited & plan.removed
    changed = {r["id"] for r in plan.dump if r not in plan.previous}
    assert changed == plan.edited | plan.new
    summary = oracle.expected_summary(previous, dump)
    assert (summary["created"], summary["updated"], summary["deleted"]) == (25, 175, 25)
    # harvesting the previous version again reverses every change
    back = oracle.expected_summary(dump, previous)
    assert (back["created"], back["updated"], back["deleted"]) == (25, 175, 25)


def test_inputs_depend_only_on_the_seed():
    a = inputs.reharvest_plan("src", 48, 6, random.Random("w:1"))
    b = inputs.reharvest_plan("src", 48, 6, random.Random("w:1"))
    c = inputs.reharvest_plan("src", 48, 6, random.Random("w:2"))
    assert a.dump == b.dump
    assert a.dump != c.dump


def test_mix_holds_each_kind_and_variant_equally_often():
    records = [record("a", "Rainfall berlin annual 2020"), record("b", "Air quality essen monthly 2021")]
    ops = inputs.make_mix(120, random.Random(1), records, ["c1"], "r0b0")
    kinds = [kind for kind, _, _ in ops]
    assert {k: kinds.count(k) for k in inputs.KINDS} == {"keyword": 30, "browse": 30, "get": 30, "put": 30}
    lengths = [len(q.split()) for kind, q, _ in ops if kind == "keyword"]
    assert [lengths.count(n) for n in (1, 2, 3)] == [10, 10, 10]
    filters = [f[0] if f else None for kind, _, f in ops if kind == "browse"]
    assert [filters.count(f) for f in (None, *inputs.FACET_FIELDS)] == [6] * 5
    marks = [mark for kind, _, mark in ops if kind == "put"]
    assert len(set(marks)) == len(marks)


def test_keyword_queries_find_the_record_they_came_from():
    records = [record("a", "Rainfall berlin annual 2020"), record("b", "Noise levels essen monthly 2021", city="essen")]
    corpus = corpus_of(*(oracle.make_doc(r, "c1") for r in records))
    ops = inputs.make_mix(120, random.Random(2), records, ["c1"], "r0b0")
    for kind, q, _ in ops:
        if kind == "keyword":
            assert corpus.search(q, {})[0], q


def test_mix_refuses_unequal_kinds():
    with pytest.raises(ValueError):
        inputs.make_mix(42, random.Random(1), [record("a", "Rainfall annual 2020")], ["c1"], "x")


def test_record_turtle_carries_every_field_the_model_reads():
    rec = record("src-00001", "Rainfall annual 2020", formats=("csv", "geojson"))
    text = inputs.record_turtle(rec)
    assert '"Rainfall annual 2020"@en' in text
    assert text.count(f"<{inputs.DCAT}distribution>") == 2
    assert inputs.FORMATS["geojson"][0] in text
