#!/usr/bin/env python3
"""Memory the quad store and registry keep per stored dataset (tracemalloc).

Stores the benchmark's synthetic records (`bench/inputs.py`, seed 1) in four
catalogues of an in-memory registry and prints the traced bytes still held
after the last write, per dataset, twice: once with every dataset parsed
before tracing starts, so only the store's and registry's own structures
count, and once parsed inside the traced window, so the terms the store
keeps count too. Run from the repository root:

    python scripts/store_memory.py --datasets 2000
"""

import argparse
import random
import sys
import tracemalloc

sys.path[:0] = ["src", "."]

from bench.inputs import catalogue_records, record_turtle
from odcat.rdf import QuadStore, parse_turtle
from odcat.registry import Registry

CATALOGUES = 4


def _store_all(datasets: dict[str, list], parse) -> tuple[int, int]:
    """Traced bytes held after storing every dataset, and the quad count."""
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    store = QuadStore()
    registry = Registry(store, "http://portal.test")
    for catalogue_id, items in datasets.items():
        registry.put_catalogue(catalogue_id)
        for original_id, rdf in items:
            registry.put_dataset(catalogue_id, original_id, parse(rdf))
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return held, len(store)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--datasets", type=int, default=2000)
    args = parser.parse_args()
    rng = random.Random(1)
    turtle = {
        f"cat{c}": [(r["id"], record_turtle(r)) for r in catalogue_records(f"cat{c}", args.datasets // CATALOGUES, rng)]
        for c in range(CATALOGUES)
    }
    n = sum(len(items) for items in turtle.values())
    parsed = {cid: [(oid, parse_turtle(text)) for oid, text in items] for cid, items in turtle.items()}
    for label, datasets, parse in (
        ("parsed before tracing", parsed, lambda triples: triples),
        ("parsed while tracing", turtle, parse_turtle),
    ):
        held, quads = _store_all(datasets, parse)
        print(f"{n} datasets, {quads} quads, {label}: {held / n / 1024:.2f} KB per dataset")
    return 0


if __name__ == "__main__":
    sys.exit(main())
