import json
import random
import uuid
from collections import Counter

import pytest
import requests

from harness import TOKEN, make_suite, run_harvest, wait_until

from odcat.cli import fixture_pipe_definition, harvest_summary
from odcat.harvester import parse_envelope, synthetic_records

HARVEST_SERVICES = ["scheduler", "registry", "search", "importer", "transformer", "exporter", "portal"]


def portal_address(suite):
    return suite.url("portal").removeprefix("http://")


def registry_original_ids(suite, catalogue="mock"):
    out = {}
    page = 0
    while True:
        resp = requests.get(
            f"{suite.url('registry')}/catalogues/{catalogue}/datasets?page={page}&pageSize=100",
            timeout=30,
        )
        resp.raise_for_status()
        payload = resp.json()
        for row in payload["datasets"]:
            out[row["originalId"]] = row["id"]
        if (page + 1) * 100 >= payload["total"]:
            return out
        page += 1


@pytest.fixture
def stack(tmp_path):
    suite = make_suite(tmp_path, HARVEST_SERVICES, records=synthetic_records(200))
    yield suite
    suite.stop()


def catalogue_setup(suite, catalogue="mock"):
    resp = requests.put(
        f"{suite.url('registry')}/catalogues/{catalogue}",
        data="",
        headers={"Authorization": f"Bearer {TOKEN}"},
        timeout=30,
    )
    assert resp.status_code in (200, 201)


def test_sync_convergence_after_removals(stack):
    catalogue_setup(stack)
    pipe = fixture_pipe_definition(portal_address(stack))

    view = run_harvest(stack, pipe)
    assert view["state"] == "succeeded"
    summary = harvest_summary(view)
    assert summary["created"] == 200
    assert summary["deleted"] == 0
    assert set(registry_original_ids(stack)) == {r["id"] for r in stack.portal.records}

    # remove 30 datasets at the source, re-harvest
    survivors = stack.portal.records[:170]
    stack.portal.set_records(survivors)
    view = run_harvest(stack, pipe)
    summary = harvest_summary(view)
    assert view["state"] == "succeeded"
    assert summary["deleted"] == 30
    assert summary["updated"] == 170
    assert set(registry_original_ids(stack)) == {r["id"] for r in survivors}


def test_no_deletions_on_importer_fault(stack):
    catalogue_setup(stack)
    pipe = fixture_pipe_definition(portal_address(stack))
    view = run_harvest(stack, pipe)
    assert view["state"] == "succeeded"
    before = registry_original_ids(stack)
    assert len(before) == 200

    # source shrinks AND the portal faults mid-harvest: nothing may be deleted
    stack.portal.set_records(stack.portal.records[:100])
    stack.portal.fail_after(1)
    view = run_harvest(stack, pipe)
    assert view["state"] == "failed"
    assert registry_original_ids(stack) == before

    stack.portal.fail_after(None)


def test_second_identical_run_updates_everything(stack):
    catalogue_setup(stack)
    pipe = fixture_pipe_definition(portal_address(stack))
    run_harvest(stack, pipe)
    view = run_harvest(stack, pipe)
    summary = harvest_summary(view)
    assert summary["created"] == 0
    assert summary["updated"] == 200
    assert summary["deleted"] == 0


def test_empty_source_refuses_total_wipe(stack):
    catalogue_setup(stack)
    pipe = fixture_pipe_definition(portal_address(stack))
    run_harvest(stack, pipe)
    assert len(registry_original_ids(stack)) == 200

    stack.portal.set_records([])
    view = run_harvest(stack, pipe)
    summary = harvest_summary(view)
    assert view["state"] == "succeeded"
    assert summary["deleted"] == 0
    assert summary["refusedEmptySync"] is True
    assert len(registry_original_ids(stack)) == 200


def test_empty_source_wipes_when_allowed(tmp_path):
    suite = make_suite(tmp_path, HARVEST_SERVICES, records=synthetic_records(5))
    try:
        catalogue_setup(suite)
        pipe = fixture_pipe_definition(portal_address(suite))
        run_harvest(suite, pipe)
        assert len(registry_original_ids(suite)) == 5

        suite.portal.set_records([])
        pipe["descriptorTemplate"]["body"]["segments"][2]["body"]["config"]["allowEmptySync"] = True
        view = run_harvest(suite, pipe)
        summary = harvest_summary(view)
        assert summary["deleted"] == 5
        assert registry_original_ids(suite) == {}
    finally:
        suite.stop()


def test_randomized_sync_matches_set_difference_oracle(tmp_path):
    rng = random.Random(99)
    records = synthetic_records(60)
    suite = make_suite(tmp_path, HARVEST_SERVICES, records=records)
    try:
        catalogue_setup(suite)
        pipe = fixture_pipe_definition(portal_address(suite))
        run_harvest(suite, pipe)
        current = {r["id"] for r in records}

        for round_no in range(3):
            survivors = [r for r in records if rng.random() < 0.7]
            extra = synthetic_records(10, seed=100 + round_no)
            new_records = survivors + extra
            suite.portal.set_records(new_records)
            view = run_harvest(suite, pipe)
            summary = harvest_summary(view)
            new_ids = {r["id"] for r in new_records}
            # set-difference oracle
            assert summary["deleted"] == len(current - new_ids), f"round {round_no}"
            assert set(registry_original_ids(suite)) == new_ids
            current = new_ids
            records = new_records
    finally:
        suite.stop()


def test_search_index_follows_harvest(stack):
    catalogue_setup(stack)
    pipe = fixture_pipe_definition(portal_address(stack))
    run_harvest(stack, pipe)
    resp = requests.get(f"{stack.url('search')}/search?q=rainfall+berlin&pageSize=5", timeout=30)
    payload = resp.json()
    assert payload["total"] >= 1
    hit = payload["hits"][0]
    assert "berlin" in hit["title"]["en"].lower()
    assert hit["catalogueId"] == "mock"

    # registry/index consistency
    assert set(stack.search.index.ids()) == set(registry_original_ids(stack).values())

    # deletion reaches the index
    victim = payload["hits"][0]["id"]
    resp = requests.delete(
        f"{stack.url('registry')}/datasets/{victim}",
        headers={"Authorization": f"Bearer {TOKEN}"},
        timeout=30,
    )
    assert resp.status_code == 204
    after = requests.get(f"{stack.url('search')}/search?q=rainfall+berlin&pageSize=50", timeout=30).json()
    assert victim not in [h["id"] for h in after["hits"]]


def test_large_identifier_list_travels_inline(tmp_path):
    """A run of 10,001 records crosses to the transformer in one send, records
    and ids inline, and nothing lands under dataDir."""
    records = [{"id": f"r{i}"} for i in range(10_001)]
    suite = make_suite(tmp_path, ["importer", "portal"], records=records)
    importer = suite._pipe_services["importer"]
    sent = []
    importer.send = lambda target, doc: sent.append((target, doc))  # every send is accepted
    doc = fixture_pipe_definition(portal_address(suite))["descriptorTemplate"]
    doc["header"]["runId"] = str(uuid.uuid4())
    doc["body"]["segments"][0]["body"]["config"]["pageSize"] = 10_001
    try:
        resp = requests.post(f"{suite.url('importer')}/pipe", data=json.dumps(doc), timeout=30)
        assert resp.status_code == 202
        assert wait_until(lambda: importer.reporter.local, timeout=60)
        assert [s.state for s in importer.reporter.local] == ["succeeded"]
        ((target, run_doc),) = sent
        payload = run_doc.segment(1).payload
        assert target == "transformer" and payload.dataRef is None
        run = parse_envelope(payload)
        assert [r.sourceId for r in run.records] == [r["id"] for r in records]
        assert [json.loads(r.content) for r in run.records] == records
        assert run.identifierList.sourceIds == [r["id"] for r in records]
        assert run.failed == []
        assert list((tmp_path / "data").iterdir()) == []
    finally:
        suite.stop()


def count_pipe_posts(suite) -> Counter:
    """Count the POST /pipe requests each of the suite's pipe services receives."""
    posts: Counter = Counter()
    for name, service in suite._pipe_services.items():

        def logged(method, path, query, headers, body, name=name, original=service.router.dispatch):
            if (method, path) == ("POST", "/pipe"):
                posts[name] += 1
            return original(method, path, query, headers, body)

        service.router.dispatch = logged
    return posts


@pytest.mark.parametrize("size", [1, 200])
def test_each_hop_carries_one_descriptor_per_run(tmp_path, size):
    """The launch and two hops: three POST /pipe calls, whatever the run's size."""
    suite = make_suite(tmp_path, HARVEST_SERVICES, records=synthetic_records(size))
    posts = count_pipe_posts(suite)
    try:
        catalogue_setup(suite)
        view = run_harvest(suite, fixture_pipe_definition(portal_address(suite)))
        assert view["state"] == "succeeded"
        assert harvest_summary(view)["created"] == size
        assert posts == {"importer": 1, "transformer": 1, "exporter": 1}
    finally:
        suite.stop()


def without_title(records, ids):
    """The records, those named in `ids` without the title the mapping requires."""
    return [{k: v for k, v in r.items() if k != "title"} if r["id"] in ids else r for r in records]


def test_records_that_cannot_be_mapped_fail_alone_and_are_kept_by_the_sync(tmp_path):
    records = synthetic_records(40)
    broken = {r["id"] for r in records[::8]}
    suite = make_suite(tmp_path, HARVEST_SERVICES, records=without_title(records, broken))
    try:
        catalogue_setup(suite)
        pipe = fixture_pipe_definition(portal_address(suite))
        view = run_harvest(suite, pipe)
        assert view["state"] == "succeeded"
        summary = harvest_summary(view)
        assert (summary["records"], summary["failed"], summary["created"]) == (40, 5, 35)
        assert summary["deleted"] == 0
        assert set(registry_original_ids(suite)) == {r["id"] for r in records} - broken

        # those five are mended and five stored ones break: the sync keeps the five
        rebroken = {r["id"] for r in records[1::8]}
        suite.portal.set_records(without_title(records, rebroken))
        view = run_harvest(suite, pipe)
        summary = harvest_summary(view)
        assert (summary["failed"], summary["created"], summary["updated"]) == (5, 5, 30)
        assert summary["deleted"] == 0
        assert set(registry_original_ids(suite)) == {r["id"] for r in records}
    finally:
        suite.stop()
