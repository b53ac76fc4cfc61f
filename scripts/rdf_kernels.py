#!/usr/bin/env python3
"""CPU cost per dataset of the RDF term layer on a harvest's record path.

Maps the benchmark's synthetic JSON records (`bench/inputs.py`, seed 1, in
four catalogues) with the benchmark's mapping rules and times each stage a
record passes through, in this process pinned to one CPU:

  transform + serialize_wire   the transformer's work on one record
  parse_ntriples               the registry's parse of the wire form
  put_dataset + search         `Registry.put_dataset` into a store on disk,
                               with a `SearchService` subscribed
  replay WAL / snapshot        reopening a `QuadStore` on the log those puts
                               wrote, and on the snapshot `close()` folds it to

Each stage runs R rounds over every record and prints the fastest round, in
ms of process CPU time per dataset. Run from the repository root:

    python scripts/rdf_kernels.py --datasets 2000 --rounds 5
"""

import argparse
import gc
import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path[:0] = ["src", "."]

from bench.inputs import catalogue_records, mapping_rules
from odcat.harvester.mapping import MappingRuleSet, transform
from odcat.harvester.records import SourceRecord
from odcat.rdf import QuadStore, parse_ntriples
from odcat.rdf.serialize import serialize_wire
from odcat.registry import Registry
from odcat.search import SearchService
from odcat.search.service import load_vocabularies

BASE = "http://portal.test"
CATALOGUES = 4


def fastest(rounds: int, work, prepare=lambda: None) -> float:
    """The least process CPU time, in s, of `rounds` calls of `work(prepare())`."""
    best = float("inf")
    for _ in range(rounds):
        arg = prepare()
        gc.collect()
        t0 = time.process_time()
        work(arg)
        best = min(best, time.process_time() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--datasets", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    rng = random.Random(1)
    records = [
        SourceRecord(r["id"], f"cat{c}", json.dumps(r, sort_keys=True), "application/json")
        for c in range(CATALOGUES)
        for r in catalogue_records(f"cat{c}", args.datasets // CATALOGUES, rng)
    ]
    n = len(records)
    rules = MappingRuleSet.from_json(mapping_rules())
    wire = [serialize_wire(transform(r, rules, BASE)) for r in records]
    graphs = [parse_ntriples(text) for text in wire]
    vocabularies = load_vocabularies()
    scratch = Path(tempfile.mkdtemp(prefix="rdf_kernels-"))
    timings = {}
    try:
        timings["transform + serialize_wire"] = fastest(
            args.rounds, lambda _: [serialize_wire(transform(r, rules, BASE)) for r in records]
        )
        timings["parse_ntriples"] = fastest(args.rounds, lambda _: [parse_ntriples(text) for text in wire])

        stores: list[tuple[QuadStore, Path]] = []

        def fresh_registry() -> Registry:
            data_dir = Path(tempfile.mkdtemp(dir=scratch))
            registry = Registry(QuadStore(data_dir), BASE)
            SearchService(registry, vocabularies)
            for c in range(CATALOGUES):
                registry.put_catalogue(f"cat{c}")
            stores.append((registry.store, data_dir))
            return registry

        def put_all(registry: Registry) -> None:
            for record, triples in zip(records, graphs):
                registry.put_dataset(record.catalogueId, record.sourceId, triples)

        timings["put_dataset + search"] = fastest(args.rounds, put_all, fresh_registry)
        # the log of a store left open holds every put; close() folds it into a snapshot
        last, puts = stores[-1]
        wal = Path(shutil.copytree(puts, scratch / "wal"))
        for store, _ in stores:
            store.close()

        opened: list[QuadStore] = []
        for label, source in (("replay WAL", wal), ("replay snapshot", puts)):
            copy = lambda: Path(shutil.copytree(source, tempfile.mkdtemp(dir=scratch), dirs_exist_ok=True))
            timings[label] = fastest(args.rounds, lambda d: opened.append(QuadStore(d)), copy)
            quads = {len(store) for store in opened} | {len(last)}
            for store in opened:
                store.close()
            opened.clear()
            if len(quads) != 1:
                raise SystemExit(f"{label}: a reopened store disagrees with the one written: {sorted(quads)} quads")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{n} datasets, CPU {cpu} only, fastest of {args.rounds} rounds, ms of CPU per dataset")
    for label, seconds in timings.items():
        print(f"  {label:<28} {seconds / n * 1000:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
