#!/usr/bin/env python3
"""SHA-256 digests of every text form the RDF layer writes, to show that a
change to the term model leaves each of them byte-identical.

Maps the benchmark's synthetic JSON records (`bench/inputs.py`, seed 1, in
four catalogues) with the benchmark's mapping rules. One record in ten gets
extra triples whose literals hold C0 control characters, quotes, backslashes,
U+1F600 and an upper-case `FR-be` tag, with a blank-node contact point. Then
it digests, over all records:

  wire        `serialize_wire` of each record
  turtle      `serialize_turtle` of each record
  canonical   `serialize_ntriples` (canonical N-Triples) of each record
  reparse     `serialize_wire` of the wire form and of the Turtle form, each
              parsed back
  registry    the Turtle a registry GET serves for each stored dataset
  wal         the write-ahead log those stores wrote
  snapshot    the snapshot `close()` folds the log into

Run it in two checkouts and compare the printed JSON. Run from the
repository root:

    python scripts/wire_digest.py --datasets 2000
"""

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path[:0] = ["src", "."]

from bench.inputs import catalogue_records, mapping_rules
from odcat.harvester.mapping import MappingRuleSet, transform
from odcat.harvester.records import SourceRecord
from odcat.rdf import IRI, BlankNode, Literal, QuadStore, parse_ntriples, parse_turtle
from odcat.rdf.serialize import serialize_ntriples, serialize_turtle, serialize_wire
from odcat.registry import Registry

BASE = "http://portal.test"
CATALOGUES = 4
DCT = "http://purl.org/dc/terms/"
DCAT = "http://www.w3.org/ns/dcat#"
FOAF_NAME = "http://xmlns.com/foaf/0.1/name"
TRICKY = ["tab\there", 'say "hi"', "back\\slash \\u0041", "\x00\x01\x1f\x7f", "line\nbreak\r", "😀 café ☂", ""]


def tricky_triples(graph: list, rng: random.Random) -> list:
    """Literals that need every escape, a mixed-case tag and a blank node,
    on the graph's dataset subject."""
    dataset = next(s for s, p, o in graph if o == IRI(DCAT + "Dataset"))
    contact = BlankNode(f"contact{rng.randrange(1000)}")
    text = "".join(rng.sample(TRICKY, 3))
    return [
        (dataset, IRI(DCT + "description"), Literal(text, lang="FR-be")),
        (dataset, IRI(DCAT + "keyword"), Literal(text)),
        (dataset, IRI(DCT + "issued"), Literal(text, "http://www.w3.org/2001/XMLSchema#date")),
        (dataset, IRI(DCAT + "contactPoint"), contact),
        (contact, IRI(FOAF_NAME), Literal(text, lang="en")),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--datasets", type=int, default=2000)
    args = parser.parse_args()

    rng = random.Random(1)
    records = [
        SourceRecord(r["id"], f"cat{c}", json.dumps(r, sort_keys=True), "application/json")
        for c in range(CATALOGUES)
        for r in catalogue_records(f"cat{c}", args.datasets // CATALOGUES, rng)
    ]
    rules = MappingRuleSet.from_json(mapping_rules())
    graphs = [transform(r, rules, BASE) for r in records]
    for graph in graphs[::10]:
        graph += tricky_triples(graph, rng)

    digests = {name: hashlib.sha256() for name in ("wire", "turtle", "canonical", "reparse", "registry")}
    with tempfile.TemporaryDirectory(prefix="wire_digest-") as data_dir:
        registry = Registry(QuadStore(data_dir), BASE)
        for c in range(CATALOGUES):
            registry.put_catalogue(f"cat{c}")
        for record, graph in zip(records, graphs):
            wire = serialize_wire(graph)
            turtle = serialize_turtle(graph)
            digests["wire"].update(wire.encode())
            digests["turtle"].update(turtle.encode())
            digests["canonical"].update(serialize_ntriples(graph).encode())
            digests["reparse"].update(serialize_wire(parse_ntriples(wire)).encode())
            digests["reparse"].update(serialize_wire(parse_turtle(turtle)).encode())
            _, ds_id = registry.put_dataset(record.catalogueId, record.sourceId, parse_ntriples(wire))
            digests["registry"].update(serialize_turtle(registry.dataset_graph(ds_id)).encode())
        wal = (Path(data_dir) / "wal.nq").read_bytes()  # each mutation is flushed as it is logged
        registry.store.close()
        snapshot = (Path(data_dir) / "snapshot.nq").read_bytes()

    out = {name: digest.hexdigest() for name, digest in digests.items()}
    out["wal"] = hashlib.sha256(wal).hexdigest()
    out["snapshot"] = hashlib.sha256(snapshot).hexdigest()
    print(json.dumps({"datasets": len(records), "walBytes": len(wal), "snapshotBytes": len(snapshot), "sha256": out}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
