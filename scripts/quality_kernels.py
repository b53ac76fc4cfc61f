#!/usr/bin/env python3
"""CPU cost per dataset of one quality assessment and one translation.

Stores the benchmark's synthetic records (`bench/inputs.py`, seed 1, in four
catalogues, each record as the Turtle the `reharvest-dump` workload harvests)
in an in-memory registry and times, in this process pinned to one CPU:

  validate             the SHACL-style shape checks of each dataset graph
  annotate             scoring the graph into a report (no URL checks)
  report_to_triples    the report's DQV measurement triples
  signature            the MinHash signature of each dataset's shingles
  assess (first)       `QualityService.assess` on a service that has no
                       report yet: all of the above, plus the metrics write
  assess (repeat)      `assess` again with unchanged values: nothing written
  translate_dataset    machine translation to de and fr (`EchoProvider`),
                       written back to the registry

Each stage runs R rounds over every dataset and prints the fastest round, in
ms of process CPU time per dataset. Stages that write start each round on a
freshly filled registry, built outside the timed part. Run from the
repository root:

    python scripts/quality_kernels.py --datasets 2000 --rounds 5
"""

import argparse
import gc
import os
import random
import sys
import time

sys.path[:0] = ["src", "."]

from bench.inputs import catalogue_records, record_turtle
from odcat.quality import QualityService, annotate, report_to_triples, shingles, validate
from odcat.quality.service import similarity_text
from odcat.rdf import QuadStore, parse_turtle
from odcat.registry import Registry
from odcat.translation import EchoProvider, translate_dataset

BASE = "http://portal.test"
CATALOGUES = 4
TARGETS = ["de", "fr"]


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
        (f"cat{c}", r["id"], parse_turtle(record_turtle(r, BASE)))
        for c in range(CATALOGUES)
        for r in catalogue_records(f"cat{c}", args.datasets // CATALOGUES, rng)
    ]
    n = len(records)

    def filled() -> tuple[Registry, list[str]]:
        registry = Registry(QuadStore(), BASE)
        for c in range(CATALOGUES):
            registry.put_catalogue(f"cat{c}")
        ids = [registry.put_dataset(cid, oid, triples)[1] for cid, oid, triples in records]
        return registry, ids

    registry, ids = filled()
    service = QualityService(registry, check_urls_enabled=False, subscribe=False)
    graphs = [registry.dataset_graph(ds_id) for ds_id in ids]
    violations = [validate(graph, service.shapes) for graph in graphs]
    reports = [
        annotate(graph, found, {}, service.machine_readable, service.non_proprietary, service.license_vocab, ds_id)
        for graph, found, ds_id in zip(graphs, violations, ids)
    ]
    metrics_iris = [registry.scheme.metrics(ds_id) for ds_id in ids]
    tokens = [shingles(similarity_text(graph)) for graph in graphs]

    def quality_on_filled(assessed_once: bool):
        def prepare() -> tuple[QualityService, list[str]]:
            target, target_ids = filled()
            quality = QualityService(target, check_urls_enabled=False, subscribe=False)
            if assessed_once:
                for ds_id in target_ids:
                    quality.assess(ds_id)
            return quality, target_ids

        return prepare

    def assess_all(arg: tuple[QualityService, list[str]]) -> None:
        quality, target_ids = arg
        for ds_id in target_ids:
            quality.assess(ds_id)

    timings = {
        "validate": fastest(args.rounds, lambda _: [validate(graph, service.shapes) for graph in graphs]),
        "annotate": fastest(
            args.rounds,
            lambda _: [
                annotate(g, v, {}, service.machine_readable, service.non_proprietary, service.license_vocab, ds_id)
                for g, v, ds_id in zip(graphs, violations, ids)
            ],
        ),
        "report_to_triples": fastest(
            args.rounds, lambda _: [report_to_triples(r, iri) for r, iri in zip(reports, metrics_iris)]
        ),
        "signature": fastest(args.rounds, lambda _: [service.minhash.signature(t) for t in tokens if t]),
        "assess (first)": fastest(args.rounds, assess_all, quality_on_filled(False)),
        "assess (repeat)": fastest(args.rounds, assess_all, quality_on_filled(True)),
        "translate_dataset": fastest(
            args.rounds,
            lambda arg: [translate_dataset(arg[0], ds_id, TARGETS, EchoProvider()) for ds_id in arg[1]],
            filled,
        ),
    }

    print(f"{n} datasets, CPU {cpu} only, fastest of {args.rounds} rounds, ms of CPU per dataset")
    for label, seconds in timings.items():
        print(f"  {label:<20} {seconds / n * 1000:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
