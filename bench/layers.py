"""Per-layer metrics of a traced run, computed from the suite's spans.

Each round of a run has one window per harvest and one per timed block of
the read mix, all on the system-wide monotonic clock. "Per dataset"
figures of the harvest pipeline divide by the source datasets harvested;
those of the write path (rdf, registry, search, quality, translation)
divide by the datasets written, i.e. harvested plus updated by a timed PUT. A layer that does no
work on a workload reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import statistics

from stats import harvest_rate, mix_rate, percentile

START, END = 2, 3


class RoundSpans:
    def __init__(self, path: str, info: dict) -> None:
        self.spans = json.loads(Path(path).read_text(encoding="utf-8"))
        self.by_name: dict[str, list] = defaultdict(list)
        self.child_time: dict[int, float] = defaultdict(float)
        self.child_named: dict[tuple[int, str], float] = defaultdict(float)
        for span in self.spans:
            span_id, name, start, end, parent, _ = span
            self.by_name[name].append(span)
            if parent:
                self.child_time[parent] += end - start
                self.child_named[(parent, name)] += end - start
        self.harvest_windows = [(t0, t1) for t0, t1, _, _ in info["harvests"]]
        self.harvested = sum(records for _, _, records, _ in info["harvests"])
        self.harvest_growth = sum(growth for _, _, _, growth in info["harvests"])
        self.puts = sum(puts for _, _, puts, _ in info["mix"])
        self.mix_growth = sum(growth for _, _, _, growth in info["mix"])
        harvest_bounds = tuple(t for window in self.harvest_windows for t in window)
        mix_bounds = tuple(t for b0, b1, _, _ in info["mix"] for t in (b0, b1))
        self.windows = {
            "harvest": harvest_bounds,
            "mix": mix_bounds,
            "timed": harvest_bounds + mix_bounds,
            "after": (harvest_bounds[0], float("inf")),
            "all": (float("-inf"), float("inf")),
        }

    def select(self, name: str, window: str | tuple[float, float]) -> list:
        """Spans of that name that start in a named window or in (start, end)."""
        bounds = self.windows[window] if isinstance(window, str) else window
        pairs = list(zip(bounds[::2], bounds[1::2]))
        return [s for s in self.by_name[name] if any(a <= s[START] <= b for a, b in pairs)]

    def self_time(self, span) -> float:
        return span[END] - span[START] - self.child_time[span[0]]


def _dur(spans) -> list[float]:
    return [s[END] - s[START] for s in spans]


def per_layer(tally) -> dict[str, tuple[float, str, int]]:
    rounds = [RoundSpans(r["spans"], r) for r in tally.rounds]
    windows = [(r, w) for r in rounds for w in r.harvest_windows]  # every harvest of the run
    harvested = sum(r.harvested for r in rounds)
    written = harvested + sum(r.puts for r in rounds)
    out: dict[str, tuple[float, str, int]] = {}

    def total(name: str, window: str, own: bool = False) -> float:
        return sum(r.self_time(s) if own else s[END] - s[START] for r in rounds for s in r.select(name, window))

    def count(name: str, window: str) -> int:
        return sum(len(r.select(name, window)) for r in rounds)

    def p50(key: str, samples: list[float], unit: str) -> None:
        value = percentile(samples, 0.5)
        out[key] = (value if value is not None else 0.0, unit, len(samples))

    def per_round(key: str, values: list[float], unit: str) -> None:
        out[key] = (statistics.median(values) if values else 0.0, unit, len(values))

    def ms_per(key: str, seconds: float, base: int) -> None:
        out[key] = (1000.0 * seconds / base, "ms", base)

    # httpkit
    out["httpkit.calls_per_dataset"] = (count("httpkit.client", "harvest") / harvested, "count", harvested)
    out["httpkit.bytes_per_dataset"] = (
        sum(s[5] for r in rounds for s in r.select("httpkit.client", "harvest")) / harvested, "bytes", harvested
    )
    p50("httpkit.client_ms_p50", [1000 * d for r in rounds for d in _dur(r.select("httpkit.client", "harvest"))], "ms")
    p50("httpkit.dispatch_ms_p50", [1000 * d for r in rounds for d in _dur(r.select("httpkit.dispatch", "mix"))], "ms")

    # pipeline
    out["pipeline.sends_per_dataset"] = (count("pipeline.send", "harvest") / harvested, "count", harvested)
    p50("pipeline.descriptor_bytes_p50", [float(s[5]) for r in rounds for s in r.select("pipeline.dumps", "harvest")], "bytes")
    ms_per("pipeline.copy_ms_per_dataset", total("pipeline.copy", "harvest"), harvested)
    ms_per("pipeline.codec_ms_per_dataset", total("pipeline.dumps", "harvest") + total("pipeline.parse", "harvest"), harvested)
    marker_wait: list[float] = []
    for service in ("importer", "transformer", "exporter"):
        busy = 0.0
        for r in rounds:
            for s in r.select(f"pipeline.handler.{service}", "harvest"):
                if (s[0], "harvester.sync") in r.child_named:
                    marker_wait.append(r.self_time(s))
                else:
                    busy += r.self_time(s)
        ms_per(f"pipeline.handler_ms_per_dataset.{service}", busy, harvested)

    # scheduler
    per_round("scheduler.launch_ms", [1000 * d for r in rounds for d in _dur(r.select("scheduler.launch", "harvest"))], "ms")
    out["scheduler.status_posts_per_run"] = (count("scheduler.status", "harvest") / len(windows), "count", len(windows))

    # harvester: the per-harvest figures are medians over the run's harvests
    per_round("harvester.fetch_s", [sum(_dur(r.select("harvester.fetch", w))) for r, w in windows], "s")
    first = []
    for r, w in windows:
        launches = r.select("scheduler.launch", w)
        puts = r.select("registry.put", w)
        if launches and puts:
            first.append(min(s[START] for s in puts) - launches[0][START])
    per_round("harvester.first_dataset_s", first, "s")
    ms_per("harvester.dump_parse_ms_per_dataset", total("harvester.dump_parse", "harvest"), harvested)
    ms_per("harvester.split_ms_per_dataset", total("harvester.split", "harvest"), harvested)
    ms_per("harvester.rules_parse_ms_per_dataset", total("harvester.rules_parse", "harvest"), harvested)
    ms_per("harvester.transform_ms_per_dataset", total("harvester.transform", "harvest", own=True), harvested)
    p50("harvester.put_ms_p50", [1000 * d for r in rounds for d in _dur(r.select("harvester.put", "harvest"))], "ms")
    per_round("harvester.marker_wait_s", marker_wait, "s")
    per_round("harvester.sync_s", [sum(_dur(r.select("harvester.sync", w))) for r, w in windows], "s")

    # rdf
    ms_per("rdf.serialize_ms_per_dataset", total("rdf.serialize", "timed"), written)
    ms_per("rdf.parse_ms_per_dataset", total("rdf.parse", "timed"), written)
    ms_per("rdf.replace_graph_ms_per_dataset", total("rdf.replace_graph", "timed"), written)
    out["rdf.wal_bytes_per_dataset"] = (sum(r.harvest_growth + r.mix_growth for r in rounds) / written, "bytes", written)
    per_round("rdf.replay_s", [d for r in rounds for d in _dur(r.select("rdf.replay", "all"))], "s")

    # registry
    put_self = sum(
        s[END] - s[START] - r.child_named[(s[0], "registry.events")]
        for r in rounds
        for s in r.select("registry.put", "timed")
    )
    ms_per("registry.put_ms_per_dataset", put_self, written)
    ms_per("registry.events_ms_per_dataset", total("registry.events", "timed"), written)
    per_round("registry.rebuild_s", [d for r in rounds for d in _dur(r.select("registry.rebuild", "all"))], "s")
    p50("registry.get_ms_p50", [1000 * d for r in rounds for d in _dur(r.select("registry.get", "mix"))], "ms")

    # search
    ms_per("search.flatten_ms_per_dataset", total("search.flatten", "timed"), written)
    ms_per("search.index_ms_per_dataset", total("search.index", "timed"), written)
    growth = []
    for r in rounds:
        calls = _dur(sorted(r.select("search.index", "timed"), key=lambda s: s[START]))
        tenth = len(calls) // 10
        if tenth >= 2:
            growth.append((sum(calls[-tenth:]) / tenth) / (sum(calls[:tenth]) / tenth))
    per_round("search.index_growth", growth, "ratio")
    p50("search.remove_ms_p50", [1000 * d for r in rounds for d in _dur(r.select("search.remove", "after"))], "ms")
    for kind in ("keyword", "browse"):
        p50(f"search.query_ms_p50.{kind}", [1000 * d for r in rounds for d in _dur(r.select(f"search.query.{kind}", "mix"))], "ms")
    per_round("search.rebuild_s", [d for r in rounds for d in _dur(r.select("search.rebuild", "all"))], "s")

    # quality and translation run on registry events, so they are counted
    # from the start of the harvest to the end of the round
    for stage in ("assess", "validate", "annotate", "similarity", "persist"):
        ms_per(f"quality.{stage}_ms_per_dataset", total(f"quality.{stage}", "after"), written)
    out["quality.assessments_per_change"] = (count("quality.assess", "after") / written, "count", written)
    ms_per("translation.translate_ms_per_dataset", total("translation.translate", "after"), written)
    out["translation.writebacks_per_dataset"] = (count("translation.writeback", "after") / written, "count", written)

    # the suite process, seen from outside
    out["suite.cpu_per_wall"] = (tally.timed_cpu / tally.timed_wall, "ratio", len(rounds))
    out["suite.threads_peak"] = (float(tally.threads_peak), "count", len(rounds))
    out["trace.harvest_datasets_per_s"] = (harvest_rate(tally), "datasets/s", len(tally.harvests))
    out["trace.portal_ops_per_s"] = (mix_rate(tally), "ops/s", len(tally.mix_blocks))
    return out
