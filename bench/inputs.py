"""Seeded inputs for the benchmark: source records, Turtle dumps, mapping
rules, stored-registry plans and the read mix.

Everything here is a pure function of the seed; the system under test only
ever sees the generated records, dumps and requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DCAT = "http://www.w3.org/ns/dcat#"
DCT = "http://purl.org/dc/terms/"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
AUTHORITY = "http://publications.europa.eu/resource/authority"

TOPICS = [
    ("Rainfall", "rain"),
    ("Air quality", "air"),
    ("Traffic counts", "traffic"),
    ("Noise levels", "noise"),
    ("Budget plan", "budget"),
    ("School locations", "schools"),
    ("Tree register", "trees"),
    ("Parking zones", "parking"),
    ("Energy usage", "energy"),
    ("Population grid", "population"),
    ("Bicycle lanes", "cycling"),
    ("Water quality", "water"),
]
CITIES = ["berlin", "hamburg", "munich", "cologne", "dresden", "bremen", "leipzig", "essen"]
QUALIFIERS = ["annual", "monthly", "district", "hourly", "survey", "forecast"]
YEARS = [2019, 2020, 2021, 2022, 2023, 2024]
# source format key -> (file-type IRI, label in the EU file-type vocabulary)
FORMATS = {
    "csv": (f"{AUTHORITY}/file-type/CSV", "CSV"),
    "json": (f"{AUTHORITY}/file-type/JSON", "JSON"),
    "xml": (f"{AUTHORITY}/file-type/XML", "XML"),
    "geojson": (f"{AUTHORITY}/file-type/GEOJSON", "GeoJSON"),
    "xls": (f"{AUTHORITY}/file-type/XLS", "XLS"),
}
# licence IRI -> label in the EU licence vocabulary
LICENSES = {
    f"{AUTHORITY}/licence/CC0": "CC0 1.0",
    f"{AUTHORITY}/licence/CC_BY": "CC BY 4.0",
    f"{AUTHORITY}/licence/CC_BY_SA": "CC BY-SA 4.0",
    f"{AUTHORITY}/licence/ODC_BY": "ODC-BY 1.0",
}
# words a keyword query may use; translated titles add only language codes
QUERY_WORDS = sorted(
    {w for topic, _ in TOPICS for w in topic.lower().split()}
    | set(CITIES)
    | set(QUALIFIERS)
    | {str(y) for y in YEARS}
    | {kw for _, kw in TOPICS}
)


def make_record(source_id: str, rng: random.Random) -> dict:
    """One portal record in the paged-JSON shape the mapping rules read."""
    topic, keyword = TOPICS[rng.randrange(len(TOPICS))]
    city = rng.choice(CITIES)
    year = rng.choice(YEARS)
    qualifier = rng.choice(QUALIFIERS)
    serial = source_id.rsplit("-", 1)[-1]
    return {
        "id": source_id,
        "title": f"{topic} {city} {qualifier} {year}",
        "description": f"{topic} data for {city}, reporting year {year}, series {serial}.",
        "keywords": sorted({keyword, city}),
        "issued": f"{year}-01-01T00:00:00Z",
        "publisher": f"{city.title()} Open Data Office",
        "license": rng.choice(sorted(LICENSES)),
        "resources": [
            {"format": rng.choice(sorted(FORMATS)), "url": f"http://files.portal.test/{source_id}/{k}"}
            for k in range(rng.randint(1, 2))
        ],
    }


def edit_record(record: dict, rng: random.Random, mark: str) -> dict:
    """A changed version of a record: new title, description and format."""
    out = dict(record)
    topic, keyword = TOPICS[rng.randrange(len(TOPICS))]
    city = rng.choice(CITIES)
    out["title"] = f"{topic} {city} {rng.choice(QUALIFIERS)} {rng.choice(YEARS)}"
    out["description"] = record["description"] + f" Revised {mark}."
    out["keywords"] = sorted({keyword, city})
    out["resources"] = [dict(r, format=rng.choice(sorted(FORMATS))) for r in record["resources"]]
    return out


def catalogue_records(catalogue: str, count: int, rng: random.Random, start: int = 0) -> list[dict]:
    return [make_record(f"{catalogue}-{i:05d}", rng) for i in range(start, start + count)]


def mapping_rules() -> dict:
    """Transformer rules for the record shape above (pipe segment config)."""
    return {
        "distributionsPath": "resources",
        "rules": [
            {"sourcePath": "title", "targetPredicate": DCT + "title", "termKind": "langLiteral", "lang": "en", "required": True},
            {"sourcePath": "description", "targetPredicate": DCT + "description", "termKind": "langLiteral", "lang": "en"},
            {"sourcePath": "keywords[*]", "targetPredicate": DCAT + "keyword", "termKind": "langLiteral", "lang": "en"},
            {"sourcePath": "issued", "targetPredicate": DCT + "issued", "termKind": "typedLiteral", "datatype": XSD_DATETIME},
            {"sourcePath": "publisher", "targetPredicate": DCT + "publisher", "termKind": "literal"},
            {"sourcePath": "license", "targetPredicate": DCT + "license", "termKind": "iri"},
            {
                "scope": "distribution",
                "sourcePath": "format",
                "targetPredicate": DCT + "format",
                "termKind": "iri",
                "valueMap": {key: iri for key, (iri, _) in FORMATS.items()},
            },
            {"scope": "distribution", "sourcePath": "url", "targetPredicate": DCAT + "accessURL", "termKind": "iri"},
        ],
    }


def record_turtle(record: dict, base: str = "http://portal.test") -> str:
    """The record as one DCAT dataset in Turtle, written by hand so the
    benchmark does not depend on the serializer it measures."""
    rid = record["id"]
    node = rid.replace("-", "")
    lines = [
        f"<{base}/datasets/{rid}> a <{DCAT}Dataset> ;",
        f'    <{DCT}identifier> "{rid}" ;',
        f'    <{DCT}title> "{record["title"]}"@en ;',
        f'    <{DCT}description> "{record["description"]}"@en ;',
    ]
    lines += [f'    <{DCAT}keyword> "{kw}"@en ;' for kw in record["keywords"]]
    lines += [
        f'    <{DCT}issued> "{record["issued"]}"^^<{XSD_DATETIME}> ;',
        f'    <{DCT}publisher> "{record["publisher"]}" ;',
        f"    <{DCT}license> <{record['license']}> ;",
    ]
    lines += [f"    <{DCAT}distribution> _:d{node}x{j} ;" for j in range(len(record["resources"]))]
    lines[-1] = lines[-1][:-1] + "."
    for j, res in enumerate(record["resources"]):
        lines.append(
            f"_:d{node}x{j} a <{DCAT}Distribution> ; <{DCT}format> <{FORMATS[res['format']][0]}> ;"
            f" <{DCAT}accessURL> <{res['url']}> ."
        )
    return "\n".join(lines) + "\n"


def dump_turtle(records: list[dict]) -> str:
    return "\n".join(record_turtle(r) for r in records)


@dataclass
class Reharvest:
    """A stored catalogue version and the dump that replaces it."""

    previous: list[dict]
    dump: list[dict]
    edited: set[str] = field(default_factory=set)
    removed: set[str] = field(default_factory=set)
    new: set[str] = field(default_factory=set)


def reharvest_plan(catalogue: str, count: int, changes: int, rng: random.Random) -> Reharvest:
    """Previous version of `count` records; the dump edits `changes` of them,
    removes `changes` others and adds `changes` new ones, so the counts do
    not depend on the seed."""
    previous = catalogue_records(catalogue, count, rng)
    order = list(range(count))
    rng.shuffle(order)
    removed_idx = set(order[:changes])
    edited_idx = set(order[changes : 2 * changes])
    dump = []
    for i, rec in enumerate(previous):
        if i in removed_idx:
            continue
        dump.append(edit_record(rec, rng, "v2") if i in edited_idx else rec)
    new = catalogue_records(catalogue, changes, rng, start=count)
    dump += new
    rng.shuffle(dump)
    return Reharvest(
        previous=previous,
        dump=dump,
        edited={previous[i]["id"] for i in edited_idx},
        removed={previous[i]["id"] for i in removed_idx},
        new={r["id"] for r in new},
    )


# read-mix operation kinds; a mix holds the same number of each, so every
# per-kind median rests on the same number of samples
KINDS = ("keyword", "browse", "get", "put")
FACET_FIELDS = ("format", "license", "catalogue", "publisher")


def balanced(options: list, count: int, rng: random.Random) -> list:
    """`count` picks that use every option equally often, in random order,
    so that the make-up of a mix does not depend on the seed."""
    picks = [options[i % len(options)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def keyword_query(title: str, words: int, rng: random.Random) -> str:
    """`words` distinct words of a dataset's title, so that every query finds
    at least that dataset. Random words from the whole vocabulary would miss
    every dataset about as often as not, and the median latency would then
    fall between the empty answers and the rest, wherever the seed puts it."""
    return " ".join(rng.sample(sorted(set(title.lower().split())), words))


def facet_value(fld: str, rng: random.Random, catalogues: list[str]) -> str:
    if fld == "format":
        return rng.choice(sorted(label for _, label in FORMATS.values()))
    if fld == "license":
        return rng.choice(sorted(LICENSES.values()))
    if fld == "catalogue":
        return rng.choice(catalogues)
    return f"{rng.choice(CITIES).title()} Open Data Office"


def make_mix(count: int, rng: random.Random, records: list[dict], catalogues: list[str], mark: str) -> list[tuple]:
    """`count` read-mix operations (a multiple of len(KINDS)), the same number
    of each kind, shuffled, as (kind, query or dataset id, facet filter or
    PUT title word): keyword queries of one, two or three words of a random
    record's title in equal numbers; browses without a filter or with one
    filter on each facet field in equal numbers; GETs and PUTs of random
    records. `mark` makes every PUT's title word unique."""
    if count % len(KINDS):
        raise ValueError(f"a mix of {count} operations cannot hold equal numbers of {len(KINDS)} kinds")
    kinds = [kind for kind in KINDS for _ in range(count // len(KINDS))]
    rng.shuffle(kinds)
    lengths = iter(balanced([1, 2, 3], count // len(KINDS), rng))
    filters = iter(balanced([None, *FACET_FIELDS], count // len(KINDS), rng))
    ops = []
    for n, kind in enumerate(kinds):
        if kind == "keyword":
            ops.append((kind, keyword_query(rng.choice(records)["title"], next(lengths), rng), None))
        elif kind == "browse":
            fld = next(filters)
            ops.append((kind, "", (fld, facet_value(fld, rng, catalogues)) if fld else None))
        else:
            ops.append((kind, rng.choice(records)["id"], f"zq{mark}n{n}"))
    return ops
