#!/usr/bin/env python3
"""odcat benchmark: first harvest, restart-and-reharvest, and portal reads.

    python3 bench/run.py --workload harvest-json --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The suite runs in its own process
(bench/launcher.py); this process runs the mock source portal and one
closed-loop client, with at most two threads. A run repeats whole rounds of
its workload (restart, harvests, timed reads) within --seconds, checks every
output against expectations computed here, prints one line per metric and
then, as the last line, a JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 1 the suite records spans around each layer and the
metrics are the per-layer ones (see bench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, quote, urlencode, urlsplit

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from stats import harvest_rate, mix_rate, percentile  # noqa: E402

TOKEN = "bench-token"
BASE_IRI = "http://odcat.example"
PIPE_ID = "6f1f2f3e-0b6e-4c53-9a55-0d7f1a2b3c4d"
TARGETS = ("de", "fr")
HARVEST_SERVICES = ["scheduler", "registry", "search", "importer", "transformer", "exporter"]
HARVEST_TIMEOUT = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    services: list[str]
    harvested: int  # source records per harvest
    harvests: int  # harvests per round
    mix_blocks: int  # timed blocks of MIX_BLOCK read-mix operations per round
    warmup_ops: int = 0
    stored_catalogues: int = 0  # catalogues in the stored registry besides the harvested ones
    stored_per_catalogue: int = 0
    dump: bool = False


# portal-read stores 2,000 datasets, where the quadratic Registry rebuild is a
# quarter of a restart; reharvest-dump stores 1,000, so that a round of a
# restart and three reharvests with quality and translation fits twice in 30 s
WORKLOADS = {
    w.name: w
    for w in [
        Workload("harvest-json", HARVEST_SERVICES, harvested=200, harvests=1, mix_blocks=4),
        Workload(
            "reharvest-dump",
            HARVEST_SERVICES + ["quality", "translation"],
            harvested=200,
            harvests=3,
            mix_blocks=9,
            stored_catalogues=8,
            stored_per_catalogue=100,
            dump=True,
        ),
        Workload(
            "portal-read",
            HARVEST_SERVICES,
            harvested=100,
            harvests=3,
            mix_blocks=20,
            warmup_ops=40,
            stored_catalogues=10,
            stored_per_catalogue=200,
        ),
    ]
}
MIX_BLOCK = 40  # operations per timed block: ten of each kind
DUMP_CHANGES = 8  # the dump edits, removes and adds one record in eight each


# -- mock source portal -------------------------------------------------------


class PortalServer:
    """MockPortal's routes on one single-threaded listener."""

    def __init__(self, portal) -> None:
        router = portal.router

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                parts = urlsplit(self.path)
                query = {k: v[0] for k, v in parse_qs(parts.query).items()}
                resp = router.dispatch("GET", parts.path, query, {}, b"")
                self.send_response(resp.status)
                self.send_header("Content-Type", resp.content_type)
                self.send_header("Content-Length", str(len(resp.body)))
                self.end_headers()
                self.wfile.write(resp.body)

            def log_message(self, fmt, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(target=self.server.serve_forever, name="portal", daemon=True)
        self.thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


# -- suite process ----------------------------------------------------------------


class Client:
    """Keep-alive HTTP client with one connection per service."""

    def __init__(self) -> None:
        self._conns: dict[str, http.client.HTTPConnection] = {}

    def call(self, method: str, url: str, body: bytes = b"", headers: dict | None = None) -> tuple[int, bytes]:
        parts = urlsplit(url)
        conn = self._conns.get(parts.netloc)
        if conn is None:
            conn = self._conns[parts.netloc] = http.client.HTTPConnection(parts.netloc, timeout=60)
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        try:
            conn.request(method, target, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            del self._conns[parts.netloc]
            raise

    def json(self, method: str, url: str, payload=None, auth: bool = False):
        headers = {"Authorization": f"Bearer {TOKEN}"} if auth else {}
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, data = self.call(method, url, body, headers)
        return status, (json.loads(data) if data else None)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()


_CLK_TCK = os.sysconf("SC_CLK_TCK")


class SuiteProcess:
    """A suite started by launcher.py; set-up time runs from spawning the
    process until every service answers /health."""

    def __init__(self, workdir: Path, config: dict, trace_path: Path | None) -> None:
        config_path = workdir / "suite-config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        self.log = open(workdir / "suite.log", "ab")
        cmd = [sys.executable, str(HERE / "launcher.py"), "serve", str(config_path)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        start = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        try:
            self.urls = self._read(120.0)["urls"]
            probe = Client()
            for url in self.urls.values():
                while probe.call("GET", url + "/health")[0] != 200:
                    time.sleep(0.005)
            probe.close()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - start
        self.threads_peak = 0

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"suite process gave no answer (exit code {self.proc.poll()})")
        return json.loads(line)

    def command(self, op: str, timeout: float = 120.0, **args) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **args}) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def _status(self, key: str) -> int:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
        raise KeyError(key)

    def peak_rss_mb(self) -> float:
        return self._status("VmHWM") / 1024.0

    def stop(self) -> None:
        try:
            self.command("stop", timeout=120.0)
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        self.log.close()


# -- measurements -----------------------------------------------------------------


@dataclass
class Tally:
    setup_s: list[float] = field(default_factory=list)
    harvests: list[tuple[int, float, float]] = field(default_factory=list)  # (datasets, wall s, CPU s)
    store_bytes_per_dataset: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    mix_blocks: list[tuple[int, float]] = field(default_factory=list)  # (ops, wall s without untimed waits)
    latencies: dict[str, list[float]] = field(default_factory=lambda: {kind: [] for kind in inputs.KINDS})  # ms
    timed_wall: float = 0.0
    timed_cpu: float = 0.0
    threads_peak: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rounds: list[dict] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)


def store_bytes(data_dir: Path) -> int:
    return sum(p.stat().st_size for p in (data_dir / "store").iterdir() if p.is_file())


def pipe_definition(source_url: str, source_type: str, catalogue: str) -> dict:
    segments = [
        ("importer", {"sourceUrl": source_url, "sourceType": source_type, "catalogue": catalogue, "pageSize": 50}),
        ("transformer", {"mappingRules": inputs.mapping_rules()}),
        ("exporter", {"allowEmptySync": False}),
    ]
    return {
        "pipeId": PIPE_ID,
        "name": "bench-harvest",
        "enabled": True,
        "descriptorTemplate": {
            "header": {"pipeId": PIPE_ID, "runId": None, "name": "bench-harvest", "version": "1.0", "startTime": ""},
            "body": {
                "segments": [
                    {
                        "header": {"serviceId": service, "segmentNumber": n, "processed": False},
                        "body": {"config": config},
                    }
                    for n, (service, config) in enumerate(segments)
                ]
            },
        },
        "triggers": [],
    }


def terminal_summary(view: dict) -> dict | None:
    """The JSON message of the highest-numbered segment's success status."""
    statuses = view.get("statuses", [])
    last = max((s["segmentNumber"] for s in statuses), default=None)
    for s in statuses:
        if s["segmentNumber"] == last and s["state"] == "succeeded":
            return json.loads(s["message"])
    return None


def harvest(suite: SuiteProcess, client: Client, tally: Tally, round_info: dict, catalogue: str,
            source_url: str, source_type: str, expected: dict, registry_total: int, quiesce: bool) -> None:
    """Launch one harvest and time it until convergence: the run ended (the
    launcher watches the run log in the suite process) and, with quality and
    translation running, both have drained."""
    scheduler, registry = suite.urls["scheduler"], suite.urls["registry"]
    data_dir = round_info["data_dir"]
    status, _ = client.json("PUT", f"{scheduler}/pipes/{PIPE_ID}", pipe_definition(source_url, source_type, catalogue), auth=True)
    tally.check(status in (200, 201), f"PUT pipe answered {status}")
    status, _ = client.call("PUT", f"{registry}/catalogues/{catalogue}", b"", {"Authorization": f"Bearer {TOKEN}"})
    tally.check(status in (200, 201), f"PUT catalogue answered {status}")
    size_before = store_bytes(data_dir)

    cpu0 = suite.cpu_s()
    t0 = time.monotonic()
    status, launched = client.json("POST", f"{scheduler}/pipes/{PIPE_ID}/launch", auth=True)
    if status != 202:
        raise RuntimeError(f"launch answered {status}: {launched}")
    waited = suite.command("wait_run", timeout=3 * HARVEST_TIMEOUT, runId=launched["runId"],
                           seconds=HARVEST_TIMEOUT, quiesce=quiesce)
    t1 = time.monotonic()
    cpu1 = suite.cpu_s()
    suite.threads_peak = max(suite.threads_peak, waited["threads"])
    _, view = client.json("GET", f"{scheduler}/runs/{launched['runId']}")
    client.close()

    summary = terminal_summary(view) if view["state"] == "succeeded" else None
    tally.check(summary is not None, f"harvest of {catalogue} ended {view['state']}: {view['statuses'][-3:]}")
    summary = summary or {}
    got = {k: summary.get(k) for k in expected}
    tally.check(got == expected, f"harvest summary {got} != expected {expected}")
    tally.attempted += expected["records"]
    tally.failed += expected["records"] if not summary else int(summary.get("failed", 0))

    size = store_bytes(data_dir)
    tally.harvests.append((expected["records"], t1 - t0, cpu1 - cpu0))
    tally.store_bytes_per_dataset.append(size / registry_total)
    tally.timed_wall += t1 - t0
    tally.timed_cpu += cpu1 - cpu0
    round_info["harvests"].append((t0, t1, expected["records"], size - size_before))


# -- read mix ---------------------------------------------------------------------


def run_block(suite: SuiteProcess, client: Client, tally: Tally, round_info: dict, ops: list[tuple],
              records: dict[str, tuple[str, dict]], log: list[tuple], timed: bool, quiesce: bool) -> None:
    """One block of closed-loop operations; appends to `log` what the checks
    replay.

    A timed block records every operation's latency and the block's rate.
    With `quiesce`, each PUT is followed by an untimed wait until quality and
    translation have handled it, so no timed operation competes with the
    work an earlier PUT set off. `records` maps dataset id -> (catalogue,
    current record) and follows every PUT, so dataset GETs are checked
    against the latest title.
    """
    registry, search = suite.urls["registry"], suite.urls["search"]
    auth = {"Authorization": f"Bearer {TOKEN}"}
    turtle = {"Accept": "text/turtle"}
    size0 = store_bytes(round_info["data_dir"])
    puts = 0
    waited = 0.0
    gc.disable()  # no collector pauses in the load generator while it measures
    cpu0 = suite.cpu_s()
    b0 = time.monotonic()
    for kind, arg, extra in ops:
        start = time.perf_counter()
        if kind in ("keyword", "browse"):
            params = {"q": arg} if arg else {}
            if extra:
                params[extra[0]] = extra[1]
            status, body = client.call("GET", f"{search}/search?{urlencode(params)}")
            elapsed = time.perf_counter() - start
            ok = status == 200
            if ok:
                result = json.loads(body)
                log.append(("query", arg, dict([extra]) if extra else {}, result["total"],
                            [h["id"] for h in result["hits"]], result["facets"]))
        elif kind == "get":
            status, body = client.call("GET", f"{registry}/datasets/{quote(arg, safe='')}", b"", turtle)
            elapsed = time.perf_counter() - start
            ok = status == 200
            tally.check(ok and f'"{records[arg][1]["title"]}"@en'.encode() in body,
                        f"GET {arg} answered {status} without its current title")
        else:
            catalogue, record = records[arg]
            edited = dict(record, title=f"{record['title']} {extra}")
            status, body = client.call(
                "PUT", f"{registry}/datasets/{quote(arg, safe='')}?catalogue={catalogue}",
                inputs.record_turtle(edited).encode(), {**auth, "Content-Type": "text/turtle"},
            )
            elapsed = time.perf_counter() - start
            ok = status == 200 and json.loads(body) == {"id": arg, "result": "updated"}
            if ok:
                records[arg] = (catalogue, edited)
                log.append(("put", arg, catalogue, edited, extra))
                puts += 1
            if quiesce:
                w0 = time.monotonic()
                suite.command("quiesce")
                waited += time.monotonic() - w0
        if timed:
            tally.latencies[kind].append(elapsed * 1000.0)
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            tally.check(False, f"{kind} {arg} answered {status}: {body[:200]!r}")
    b1 = time.monotonic()
    gc.enable()
    if timed:
        tally.mix_blocks.append((len(ops), b1 - b0 - waited))
        tally.timed_wall += b1 - b0
        tally.timed_cpu += suite.cpu_s() - cpu0
        round_info["mix"].append((b0, b1, puts, store_bytes(round_info["data_dir"]) - size0))


def check_mix(tally: Tally, corpus: oracle.Corpus, log: list[tuple], put_langs: tuple[str, ...]) -> None:
    """Replay the round's harvests, PUTs and queries on the naive-scan model
    and compare every answer. `put_langs` are the languages a dataset is
    translated to after it is harvested or changed by a PUT."""
    for entry in log:
        if entry[0] == "harvest":
            _, catalogue, records = entry
            corpus.replace_catalogue(catalogue, [oracle.make_doc(r, catalogue, put_langs) for r in records])
            continue
        if entry[0] == "put":
            _, dataset_id, catalogue, record, _ = entry
            corpus.put(oracle.make_doc(record, catalogue, put_langs))
            continue
        _, q, facets, total, hit_ids, facet_counts = entry
        want_ids, want_counts = corpus.search(q, facets)
        tally.check(total == len(want_ids), f"search q={q!r} {facets}: total {total} != {len(want_ids)}")
        tally.check(set(hit_ids) <= want_ids and len(hit_ids) == min(10, len(want_ids)),
                    f"search q={q!r} {facets}: hits {hit_ids[:3]} are not hits of the model")
        tally.check(facet_counts == want_counts, f"search q={q!r} {facets}: facet counts differ from the model")


def check_state(suite: SuiteProcess, client: Client, tally: Tally, expected_ids: dict[str, set[str]],
                log: list[tuple]) -> None:
    """Registry listings per catalogue, registry == index, and each PUT's new
    title found by search."""
    registry, search = suite.urls["registry"], suite.urls["search"]
    registry_ids: set[str] = set()
    for catalogue, want in expected_ids.items():
        got: dict[str, str] = {}
        page = 0
        while True:
            status, listing = client.json("GET", f"{registry}/catalogues/{catalogue}/datasets?page={page}&pageSize=500")
            if status != 200:
                tally.check(False, f"listing {catalogue} answered {status}")
                break
            got.update({row["originalId"]: row["id"] for row in listing["datasets"]})
            page += 1
            if page * 500 >= listing["total"]:
                break
        tally.check(set(got) == want, f"catalogue {catalogue}: {len(got)} listed, {len(want)} expected")
        registry_ids |= set(got.values())
    _, everything = client.json("GET", f"{search}/search?pageSize=1000000")
    index_ids = {hit["id"] for hit in everything["hits"]}
    tally.check(index_ids == registry_ids,
                f"index holds {len(index_ids)} ids, registry {len(registry_ids)}; differ by {len(index_ids ^ registry_ids)}")
    # a later harvest of the same catalogue writes the source's title again
    marks: dict[str, tuple[str, str]] = {}  # PUT title word -> (catalogue, dataset id)
    for entry in log:
        if entry[0] == "harvest":
            marks = {mark: put for mark, put in marks.items() if put[0] != entry[1]}
        elif entry[0] == "put":
            _, dataset_id, catalogue, _, mark = entry
            marks[mark] = (catalogue, dataset_id)
    for mark, (_, dataset_id) in marks.items():
        _, found = client.json("GET", f"{search}/search?q={mark}")
        tally.check([h["id"] for h in found["hits"]] == [dataset_id], f"search for PUT title {mark} found {found['hits'][:2]}")
    client.close()


def check_enrichment(suite: SuiteProcess, client: Client, tally: Tally, ids: list[str]) -> None:
    """Each dataset has a quality report with a metrics graph, and title and
    description machine-translated to every target language."""
    inspected = suite.command("inspect", ids=ids)
    for dataset_id in ids:
        info = inspected[dataset_id]
        tally.check(info["report"] and info["metricsTriples"] > 0, f"{dataset_id}: no quality report")
        _, body = client.call("GET", f"{suite.urls['registry']}/datasets/{dataset_id}", b"", {"Accept": "text/turtle"})
        for target in TARGETS:
            tag = f"@{target}-t-en-t0-echo".encode()
            tally.check(body.count(tag) >= 2, f"{dataset_id}: title and description lack {tag!r}")
    client.close()


# -- workloads ----------------------------------------------------------------------


def suite_config(workload: Workload, data_dir: Path) -> dict:
    return {
        "services": workload.services,
        "base_iri": BASE_IRI,
        "data_dir": str(data_dir),
        "api_token": TOKEN,
        "addresses": {name: "127.0.0.1:0" for name in workload.services},
        "translation_targets": list(TARGETS),
        "provider": {"kind": "echo", "tag": "echo", "batchLimit": 100},
        "check_urls": False,
        "retry_delays": [0.5, 1.0, 2.0],
        "scheduler_tick": 0.5,
        "sync_wait_seconds": HARVEST_TIMEOUT,
    }


@dataclass
class HarvestSpec:
    catalogue: str
    records: list[dict]  # what the portal serves
    previous_ids: set[str]  # the catalogue's ids before this harvest
    dump: str | None = None  # the records as one Turtle dump, on a dump workload


@dataclass
class Inputs:
    """Everything a round needs, made once per run from the seed."""

    stored: dict[str, list[dict]]  # catalogue -> records in the stored registry
    harvests: list[HarvestSpec]  # every round's harvests, in order


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{workload.name}:{seed}")
    stored = {
        f"cat{c:02d}": inputs.catalogue_records(f"cat{c:02d}", workload.stored_per_catalogue, rng)
        for c in range(workload.stored_catalogues)
    }
    if not workload.dump:
        harvests = [
            HarvestSpec(f"new{h}", inputs.catalogue_records(f"new{h}", workload.harvested, rng), set())
            for h in range(workload.harvests)
        ]
        return Inputs(stored, harvests)
    # the stored registry holds the previous version; the harvests alternate
    # between the changed dump and the previous version again
    plan = inputs.reharvest_plan("src", workload.harvested, workload.harvested // DUMP_CHANGES, rng)
    stored["src"] = plan.previous
    versions = [(plan.dump, inputs.dump_turtle(plan.dump)), (plan.previous, inputs.dump_turtle(plan.previous))]
    harvests = []
    previous = plan.previous
    for h in range(workload.harvests):
        records, dump = versions[h % 2]
        harvests.append(HarvestSpec("src", records, {r["id"] for r in previous}, dump))
        previous = records
    return Inputs(stored, harvests)


def build_stored(workdir: Path, stored: dict[str, list[dict]]) -> Path:
    data_dir = workdir / "stored"
    plan = {
        "dataDir": str(data_dir),
        "baseIri": BASE_IRI,
        "catalogues": {c: [(r["id"], inputs.record_turtle(r)) for r in recs] for c, recs in stored.items()},
    }
    plan_path = workdir / "stored-plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(workdir / "suite.log", "ab") as log:
        subprocess.run([sys.executable, str(HERE / "launcher.py"), "build", str(plan_path)],
                       check=True, stderr=log, timeout=170)
    return data_dir


def run_round(workload: Workload, spec: Inputs, n: int, workdir: Path, stored_dir: Path | None,
              portal, portal_url: str, rng: random.Random, tally: Tally, trace: bool) -> None:
    """Start the suite; run each harvest followed by its share of the timed
    read blocks (the warm-up goes before the first block), so that every
    metric's samples are spread over the round; check every output and stop
    the suite."""
    data_dir = workdir / f"round{n}"
    if stored_dir is not None:
        shutil.copytree(stored_dir, data_dir)
    else:
        data_dir.mkdir()
    spans = workdir / f"spans{n}.json"
    round_info: dict = {"spans": str(spans) if trace else None, "data_dir": data_dir, "harvests": [], "mix": []}
    suite = SuiteProcess(workdir, suite_config(workload, data_dir), spans if trace else None)
    tally.setup_s.append(suite.setup_s)
    client = Client()
    enriched = "quality" in workload.services
    put_langs = TARGETS if "translation" in workload.services else ()
    current = dict(spec.stored)  # catalogue -> its records as last stored or harvested
    records = {r["id"]: (c, r) for c, recs in current.items() for r in recs}  # also follows PUTs
    log: list[tuple] = []
    harvests = len(spec.harvests)
    try:
        for h, step in enumerate(spec.harvests):
            if step.dump is not None:
                portal.dump_turtle = step.dump
                source_url, source_type = f"{portal_url}/dump.ttl", "rdf-dump"
            else:
                portal.set_records(step.records)
                source_url, source_type = f"{portal_url}/api/datasets", "paged-json"
            current[step.catalogue] = step.records
            expected = oracle.expected_summary(step.previous_ids, {r["id"] for r in step.records})
            harvest(suite, client, tally, round_info, step.catalogue, source_url, source_type, expected,
                    sum(len(recs) for recs in current.values()), enriched)
            records = {i: entry for i, entry in records.items() if entry[0] != step.catalogue}
            records.update((r["id"], (step.catalogue, r)) for r in step.records)
            log.append(("harvest", step.catalogue, step.records))

            # blocks are drawn from the records as harvested, not as edited
            # by PUTs, so that every query's words are in the source titles
            harvested = [r for c in sorted(current) for r in current[c]]
            catalogues = sorted(current)
            if h == 0 and workload.warmup_ops:
                run_block(suite, client, tally, round_info,
                          inputs.make_mix(workload.warmup_ops, rng, harvested, catalogues, f"w{n}"),
                          records, log, False, enriched)
            blocks = workload.mix_blocks // harvests + (h < workload.mix_blocks % harvests)
            for b in range(blocks):
                run_block(suite, client, tally, round_info,
                          inputs.make_mix(MIX_BLOCK, rng, harvested, catalogues, f"r{n}h{h}b{b}"),
                          records, log, True, enriched)
            client.close()

        if enriched:
            last = spec.harvests[-1]
            check_enrichment(suite, client, tally,
                             sorted(random.Random(f"sample:{n}").sample(sorted(r["id"] for r in last.records), 10)))
        corpus = oracle.Corpus()
        for catalogue, recs in spec.stored.items():
            corpus.replace_catalogue(catalogue, [oracle.make_doc(r, catalogue) for r in recs])
        check_mix(tally, corpus, log, put_langs)
        check_state(suite, client, tally, {c: {r["id"] for r in recs} for c, recs in current.items()}, log)
        tally.peak_rss_mb.append(suite.peak_rss_mb())
        tally.threads_peak = max(tally.threads_peak, suite.threads_peak)
    finally:
        client.close()
        suite.stop()
    tally.rounds.append(round_info)
    shutil.rmtree(data_dir, ignore_errors=True)


LATENCY_METRICS = (("keyword", "search_keyword_ms_mean"), ("browse", "search_browse_ms_mean"),
                   ("get", "dataset_get_ms_mean"), ("put", "dataset_put_ms_mean"))


def end_to_end(tally: Tally) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples). Rates and CPU time are totals over
    the run's harvests or timed blocks, latencies means over every timed
    operation of their kind, and set-up time and sizes medians over rounds.

    The machine runs at one of two speeds, about 1.7 times apart, for a few
    seconds at a time, so a run's samples are a mixture of the two. A
    median over them lands in whichever speed held most of the run and
    jumps between runs; a total or a mean moves only as far as the share
    of the fast spells moves."""
    out = {
        "setup_s": (statistics.median(tally.setup_s), "s", len(tally.setup_s)),
        "harvest_datasets_per_s": (harvest_rate(tally), "datasets/s", len(tally.harvests)),
        "harvest_cpu_ms_per_dataset": (
            1000 * sum(cpu for _, _, cpu in tally.harvests) / sum(n for n, _, _ in tally.harvests), "ms", len(tally.harvests)
        ),
        "store_bytes_per_dataset": (statistics.median(tally.store_bytes_per_dataset), "bytes", len(tally.store_bytes_per_dataset)),
        "peak_rss_mb": (statistics.median(tally.peak_rss_mb), "MB", len(tally.peak_rss_mb)),
        "portal_ops_per_s": (mix_rate(tally), "ops/s", len(tally.mix_blocks)),
    }
    for kind, name in LATENCY_METRICS:
        samples = tally.latencies[kind]
        out[name] = (statistics.fmean(samples), "ms", len(samples))
    return out


def reference_percentiles(tally: Tally) -> list[str]:
    """Each kind's median and the p99 over every timed operation, where
    enough samples lie beyond them; printed, not part of the result."""
    lines = []
    for kind, _ in LATENCY_METRICS:
        samples = tally.latencies[kind]
        value = percentile(samples, 0.5)
        lines.append(f"{kind}_ms_p50 = " + (f"{value:.4g} ms" if value is not None else "not reported") + f" (n={len(samples)})")
    everything = [x for samples in tally.latencies.values() for x in samples]
    value = percentile(everything, 0.99)
    lines.append("portal_ms_p99 = " + (f"{value:.4g} ms" if value is not None else "not reported") + f" (n={len(everything)})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/odcat/suite.py").is_file():
        print("error: run from the root of an odcat source checkout (src/odcat not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    from odcat.harvester.mock_portal import MockPortal

    # a signal to stop ends the run through the same clean-ups as an error
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The suite, the mock portal and the client share one CPU, which every
    # process started from here inherits. Spread over two CPUs, the suite's
    # threads hand the interpreter lock from one CPU to the other on most
    # switches: a harvest then costs about half as much CPU time again, and
    # how much more varies with the host's scheduling from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    spec = make_inputs(workload, args.seed)
    workdir = HERE / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    portal = MockPortal()
    server = PortalServer(portal)
    tally = Tally()
    try:
        stored_dir = build_stored(workdir, spec.stored) if spec.stored else None
        rng = random.Random(f"mix:{workload.name}:{args.seed}")
        # whole rounds, at least two, and another only while a round of the
        # mean length so far still ends within --seconds
        start = time.monotonic()
        n = 0
        while n < 2 or (time.monotonic() - start) * (n + 1) / n <= args.seconds:
            run_round(workload, spec, n, workdir, stored_dir, portal, server.url, rng, tally, bool(args.trace))
            n += 1
        if args.trace:
            metrics = layers.per_layer(tally)
        else:
            metrics = end_to_end(tally)
    finally:
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, samples) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit} (n={samples})")
    print(f"{workload.name} rounds = {len(tally.rounds)}")
    for line in reference_percentiles(tally):
        print(f"{workload.name} reference {line}")
    for message in tally.errors:
        print(f"{workload.name} CHECK FAILED: {message}")
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    samples = {
        "setup_s": tally.setup_s,
        "harvests": tally.harvests,
        "mix_blocks": tally.mix_blocks,
        "latency_ms": tally.latencies,
    }
    record = dict(result, counts={name: n for name, (_, _, n) in metrics.items()}, samples=samples)
    (out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
