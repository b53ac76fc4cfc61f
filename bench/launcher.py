"""Runs the system under test for the benchmark, in its own process.

    python3 bench/launcher.py serve CONFIG.json [--trace SPANS.json]
    python3 bench/launcher.py build PLAN.json

`serve` starts a Suite from the source tree under ./src, prints one JSON line
with every service's URL, then answers one JSON command per stdin line:
`wait_run` (until a pipe run has ended and, if asked, quality and
translation have drained), `quiesce` (wait for quality and translation),
`inspect` (quality reports of some datasets) and `stop` (stop the suite,
write the spans, exit). With
--trace, spans are recorded around each layer's public functions (see
tracing.py). `build` writes a stored registry through the public Python API
and closes the store.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def _reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(config_path: str, trace_path: str | None) -> int:
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from odcat.config import Config
    from odcat.suite import Suite

    spec = json.loads(Path(config_path).read_text(encoding="utf-8"))
    services = spec.pop("services")
    spec["retry_delays"] = tuple(spec["retry_delays"])
    suite = Suite(Config(**spec), services=services).start()
    _reply({"ready": True, "urls": {name: suite.url(name) for name in services}})
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["op"] == "wait_run":
                # watch the run log in this process, so that waiting for a
                # harvest puts no HTTP polling load on the suite
                deadline = time.monotonic() + cmd["seconds"]
                threads = threading.active_count()
                while suite.scheduler.runlog.run_state(cmd["runId"]) == "running" and time.monotonic() < deadline:
                    threads = max(threads, threading.active_count())
                    time.sleep(0.005)
                if cmd["quiesce"]:
                    suite.wait_quiescent(cmd["seconds"])
                    suite.wait_quiescent(cmd["seconds"])
                _reply({"threads": threads})
            elif cmd["op"] == "quiesce":
                # wait_quiescent drains quality before translation, so an
                # assessment queued by a late translation write-back can still
                # be running when it returns; the second pass waits for it
                suite.wait_quiescent(cmd.get("timeout", 60.0))
                suite.wait_quiescent(cmd.get("timeout", 60.0))
                _reply({"ok": True})
            elif cmd["op"] == "inspect":
                _reply(
                    {
                        dataset_id: {
                            "report": suite.quality is not None and dataset_id in suite.quality.reports,
                            "metricsTriples": len(suite.registry.metrics_graph(dataset_id)),
                        }
                        for dataset_id in cmd["ids"]
                    }
                )
            elif cmd["op"] == "stop":
                break
    finally:
        suite.stop()
        if tracer is not None:
            tracer.dump(trace_path)
    _reply({"stopped": True})
    return 0


def build(plan_path: str) -> int:
    """Store every catalogue of the plan: {"dataDir", "baseIri",
    "catalogues": {id: [[originalId, Turtle of one dataset], ...]}}."""
    from odcat.rdf import QuadStore, parse_turtle
    from odcat.registry import Registry

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    store = QuadStore(Path(plan["dataDir"]) / "store")
    registry = Registry(store, plan["baseIri"])
    for catalogue_id, datasets in plan["catalogues"].items():
        registry.put_catalogue(catalogue_id)
        for original_id, turtle in datasets:
            registry.put_dataset(catalogue_id, original_id, parse_turtle(turtle))
    store.close()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("config")
    p_serve.add_argument("--trace")
    p_build = sub.add_parser("build")
    p_build.add_argument("plan")
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    if args.mode == "serve":
        return serve(args.config, args.trace)
    return build(args.plan)


if __name__ == "__main__":
    sys.exit(main())
