import itertools
import json
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcat.pipeline import (
    AlreadyProcessedError,
    DescriptorSchemaError,
    DescriptorSyntaxError,
    NotAddressedError,
    Payload,
    forward,
    my_segment,
    parse_descriptor,
)


def make_doc(segments, run_id=None, pipe_id=None):
    return {
        "header": {
            "pipeId": pipe_id or str(uuid.uuid4()),
            "runId": run_id or str(uuid.uuid4()),
            "name": "test-pipe",
            "version": "1.0",
            "startTime": "2024-01-01T00:00:00Z",
        },
        "body": {"segments": segments},
    }


def make_segment(service, number, processed=False, nxt=None, config=None, payload=None):
    header = {"serviceId": service, "segmentNumber": number, "processed": processed}
    if nxt is not None:
        header["next"] = nxt
    body = {"config": config or {}}
    if payload is not None:
        body["payload"] = payload
    return {"header": header, "body": body}


def dumps(doc):
    return json.dumps(doc).encode("utf-8")


# -- parsing ------------------------------------------------------------


def test_two_segment_descriptor_parses():
    doc = make_doc([make_segment("importer", 0), make_segment("exporter", 1)])
    d = parse_descriptor(dumps(doc))
    assert len(d.segments) == 2
    assert d.segments[0].serviceId == "importer"


def test_malformed_json_is_syntax_error():
    with pytest.raises(DescriptorSyntaxError):
        parse_descriptor(b"{not json")


def test_duplicate_segment_numbers_named():
    doc = make_doc([make_segment("a", 0), make_segment("b", 0)])
    with pytest.raises(DescriptorSchemaError) as err:
        parse_descriptor(dumps(doc))
    assert "segment 0" in str(err.value)


def test_backward_next_rejected():
    doc = make_doc([make_segment("a", 0), make_segment("b", 1, nxt=[0])])
    with pytest.raises(DescriptorSchemaError) as err:
        parse_descriptor(dumps(doc))
    assert "segment 1" in str(err.value)


def test_all_two_segment_next_configurations():
    """Brute force: only forward-pointing edges validate."""
    options = [None, [], [0], [1], [0, 1], [1, 0], [2]]
    for next0, next1 in itertools.product(options, repeat=2):
        doc = make_doc([make_segment("a", 0, nxt=next0), make_segment("b", 1, nxt=next1)])
        valid_by_rule = all(n == 1 for n in (next0 or [])) and (next1 or []) == []
        try:
            parse_descriptor(dumps(doc))
            assert valid_by_rule, f"accepted invalid next0={next0} next1={next1}"
        except DescriptorSchemaError:
            assert not valid_by_rule, f"rejected valid next0={next0} next1={next1}"


def test_both_data_and_dataref_rejected():
    payload = {"dataType": "text", "dataMimeType": "text/plain", "data": "x", "dataRef": "http://x/y"}
    doc = make_doc([make_segment("a", 0, payload=payload)])
    with pytest.raises(DescriptorSchemaError):
        parse_descriptor(dumps(doc))


def test_invalid_base64_rejected():
    payload = {"dataType": "base64", "dataMimeType": "application/octet-stream", "data": "!!!"}
    doc = make_doc([make_segment("a", 0, payload=payload)])
    with pytest.raises(DescriptorSchemaError):
        parse_descriptor(dumps(doc))


def test_missing_run_id_admitted_for_templates():
    doc = make_doc([make_segment("a", 0)])
    del doc["header"]["runId"]
    assert parse_descriptor(dumps(doc)).runId is None
    with pytest.raises(DescriptorSchemaError):
        parse_descriptor(dumps(doc), require_run_id=True)


# -- my_segment ----------------------------------------------------------


def test_my_segment_picks_unprocessed():
    d = parse_descriptor(dumps(make_doc([make_segment("importer", 0), make_segment("exporter", 1)])))
    assert my_segment(d, "importer").segmentNumber == 0


def test_my_segment_not_addressed_when_processed():
    d = parse_descriptor(dumps(make_doc([make_segment("importer", 0, processed=True), make_segment("exporter", 1)])))
    with pytest.raises(NotAddressedError):
        my_segment(d, "importer")


def test_my_segment_lowest_of_repeats_vs_reference_scan():
    """Reference oracle: linear scan over every ordering of 3 segments."""
    specs = [("transformer", 1, False), ("other", 2, False), ("transformer", 3, False)]
    base = [("start", 0, True)]
    for perm in itertools.permutations(specs):
        segments = [make_segment(s, n, processed=p) for s, n, p in base + list(perm)]
        d = parse_descriptor(dumps(make_doc(sorted(segments, key=lambda x: x["header"]["segmentNumber"]))))

        def reference(service):
            candidates = [n for s, n, p in base + list(perm) if s == service and not p]
            return min(candidates) if candidates else None

        assert my_segment(d, "transformer").segmentNumber == reference("transformer") == 1


# -- forward ---------------------------------------------------------------


def linear(*services):
    return parse_descriptor(dumps(make_doc([make_segment(s, i) for i, s in enumerate(services)])))


def test_forward_linear():
    d = linear("a", "b", "c")
    out = forward(d, 0, Payload.text("hello"))
    assert [t for t, _ in out] == ["b"]
    assert d.segment(0).processed
    assert out[0][1].segment(1).payload.data == "hello"
    # the next hop carries the new payload, not the one segment 1 consumed
    ((_, onward),) = forward(out[0][1], 1, Payload.text("mapped"))
    assert onward.segment(1).payload is None and onward.segment(2).payload.data == "mapped"


def test_forward_fan_out_duplicates_payload():
    doc = make_doc([
        make_segment("a", 0, nxt=[1, 2]),
        make_segment("b", 1),
        make_segment("c", 2),
    ])
    d = parse_descriptor(dumps(doc))
    out = forward(d, 0, Payload.text("dup"))
    assert sorted(t for t, _ in out) == ["b", "c"]
    for _, copy_ in out:
        assert copy_.segment(1).payload.data == "dup"
        assert copy_.segment(2).payload.data == "dup"


def test_forward_terminal_returns_empty():
    d = linear("a", "b")
    forward(d, 0)
    assert forward(d, 1) == []
    assert d.segment(1).processed


def test_forward_already_processed():
    d = linear("a", "b")
    forward(d, 0)
    with pytest.raises(AlreadyProcessedError):
        forward(d, 0)


def test_fan_out_isolation():
    doc = make_doc([make_segment("a", 0, nxt=[1, 2]), make_segment("b", 1), make_segment("c", 2)])
    d = parse_descriptor(dumps(doc))
    out = forward(d, 0, Payload.text("orig"))
    first, second = out[0][1], out[1][1]
    first.segment(1).payload.data = "mutated"
    first.segment(1).config["poison"] = True
    assert second.segment(1).payload.data == "orig"
    assert "poison" not in second.segment(1).config


def test_copies_own_their_segments_and_payloads():
    doc = make_doc([make_segment("a", 0, nxt=[1, 2]), make_segment("b", 1), make_segment("c", 2)])
    original = parse_descriptor(dumps(doc))
    original.segment(1).payload = Payload.text("orig")
    before = original.dumps()
    first, second = original.copy(), original.copy()
    first.segment(0).processed = True
    first.segment(0).next.append(3)
    first.segment(1).payload.data = "mutated"
    first.segment(2).payload = Payload.text("new")
    first.segments.pop()
    first.runId = "changed"
    assert original.dumps() == before
    assert second.dumps() == before
    assert second.segment(1).config is not original.segment(1).config


# -- round-trip property ---------------------------------------------------

service_names = st.sampled_from(["importer", "transformer", "exporter", "indexer"])
configs = st.dictionaries(
    st.sampled_from(["url", "limit", "catalogue", "flag"]),
    st.one_of(st.integers(-5, 99), st.text(max_size=8), st.booleans()),
    max_size=3,
)
payloads = st.one_of(
    st.none(),
    st.builds(
        lambda data: {"dataType": "text", "dataMimeType": "text/plain", "data": data},
        st.text(max_size=20),
    ),
    st.just({"dataType": "base64", "dataMimeType": "application/octet-stream", "data": "aGVsbG8="}),
    st.just({"dataType": "text", "dataMimeType": "text/plain", "dataRef": "http://x/blob/1"}),
)


@st.composite
def descriptors(draw):
    n = draw(st.integers(1, 5))
    segments = []
    for i in range(n):
        nxt = None
        if i < n - 1 and draw(st.booleans()):
            nxt = sorted(draw(st.sets(st.integers(i + 1, n - 1), min_size=1, max_size=n - 1 - i)))
        segments.append(
            make_segment(
                draw(service_names),
                i,
                processed=draw(st.booleans()),
                nxt=nxt,
                config=draw(configs),
                payload=draw(payloads),
            )
        )
    return make_doc(segments)


@settings(max_examples=250, deadline=None)
@given(descriptors())
def test_serialize_parse_round_trip(doc):
    first = parse_descriptor(dumps(doc))
    second = parse_descriptor(first.dumps().encode("utf-8"))
    assert first == second
    assert first.to_json() == second.to_json()
