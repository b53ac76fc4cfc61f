"""Command-line entry point: serve, harvest run, report, fixtures seed."""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
import uuid
from pathlib import Path
from urllib.parse import quote, urlencode

from .config import BadConfigError, load_config
from .harvester.fixtures import default_mapping_rules, records_to_dump_turtle, synthetic_records
from .httpkit import AddressInUseError, HttpClient
from .suite import Suite

FIXTURE_PIPE_ID = str(uuid.uuid5(uuid.NAMESPACE_URL, "odcat:fixture-harvest-pipe"))


def _config_from_args(args) -> "Config":
    overrides = {
        "config": getattr(args, "config", None),
        "data_dir": getattr(args, "data_dir", None),
        "api_token": getattr(args, "token", None),
        "base_iri": getattr(args, "base_iri", None),
    }
    return load_config(overrides={k: v for k, v in overrides.items() if v is not None})


def cmd_serve(args) -> int:
    config = _config_from_args(args)
    services = args.services.split(",") if args.services else None
    try:
        suite = Suite(config, services=services)
        suite.start()
    except (BadConfigError, AddressInUseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in suite.services:
        if name in suite._http:
            print(f"{name}: listening on {suite.url(name)}")
    stop = threading.Event()

    def shutdown(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, shutdown)
    signal.signal(signal.SIGTERM, shutdown)
    try:
        stop.wait()  # a signal handler runs on this thread and sets it
    finally:
        suite.stop()
        print("stopped; stores flushed")
    return 0


def _auth(config):
    return {"Authorization": f"Bearer {config.api_token}"}


def harvest_summary(run_view: dict) -> dict | None:
    """The run summary that the terminal segment (the exporter) reported.

    The terminal segment is the highest-numbered one that posted a status;
    descriptor edges only point forward, so it is always a sink. Services
    post their statuses from independent threads, so the summary is chosen
    by segment number and never by arrival order. Returns None unless that
    segment succeeded with a JSON object as its message.
    """
    statuses = run_view.get("statuses", [])
    terminal = max((s["segmentNumber"] for s in statuses), default=None)
    for status in statuses:
        if status["segmentNumber"] != terminal or status["state"] != "succeeded":
            continue
        try:
            obj = json.loads(status.get("message", ""))
        except json.JSONDecodeError:
            return None
        return obj if isinstance(obj, dict) else None
    return None


def cmd_harvest_run(args) -> int:
    config = _config_from_args(args)
    scheduler_url = f"http://{config.addresses['scheduler']}"
    pipe_doc = json.loads(Path(args.pipefile).read_text(encoding="utf-8"))
    pipe_id = pipe_doc.get("pipeId")
    if not pipe_id:
        print("error: pipe definition needs a pipeId", file=sys.stderr)
        return 2

    client = HttpClient(timeout=30)
    body = json.dumps(pipe_doc).encode("utf-8")
    headers = {**_auth(config), "Content-Type": "application/json"}
    resp = client.request("PUT", f"{scheduler_url}/pipes/{pipe_id}", body, headers)
    if resp.status not in (200, 201):
        print(f"error: registering pipe failed: {resp.status} {resp.text}", file=sys.stderr)
        return 1
    resp = client.request("POST", f"{scheduler_url}/pipes/{pipe_id}/launch", b"", _auth(config))
    if resp.status != 202:
        print(f"error: launch failed: {resp.status} {resp.text}", file=sys.stderr)
        return 1
    run_id = resp.json()["runId"]

    deadline = time.monotonic() + args.timeout
    view = None
    while time.monotonic() < deadline:
        view = client.request("GET", f"{scheduler_url}/runs/{run_id}").json()
        if view["state"] != "running":
            break
        time.sleep(0.25)
    if view is None or view["state"] == "running":
        print(f"error: run {run_id} still running after {args.timeout}s", file=sys.stderr)
        return 1

    summary = harvest_summary(view) or {}
    line = {
        "runId": run_id,
        "state": view["state"],
        "records": summary.get("records", 0),
        "created": summary.get("created", 0),
        "updated": summary.get("updated", 0),
        "deleted": summary.get("deleted", 0),
        "failed": summary.get("failed", 0),
    }
    print(json.dumps(line))
    return 0 if view["state"] == "succeeded" else 1


def cmd_report(args) -> int:
    config = _config_from_args(args)
    quality_url = f"http://{config.addresses['quality']}"
    query = urlencode({"format": args.format})
    url = f"{quality_url}/catalogues/{quote(args.catalogue, safe='')}/quality/report?{query}"
    resp = HttpClient(timeout=60).request("GET", url)
    if resp.status != 200:
        print(f"error: {resp.status} {resp.text}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_bytes(resp.body)
        print(f"wrote {len(resp.body)} bytes to {args.out}")
    else:
        sys.stdout.write(resp.text)
    return 0


def fixture_pipe_definition(portal_address: str, catalogue: str = "mock") -> dict:
    """Importer -> transformer -> exporter pipe against the mock portal."""
    segments = [
        {
            "header": {"serviceId": "importer", "segmentNumber": 0, "processed": False},
            "body": {
                "config": {
                    "sourceUrl": f"http://{portal_address}/api/datasets",
                    "sourceType": "paged-json",
                    "catalogue": catalogue,
                    "pageSize": 50,
                }
            },
        },
        {
            "header": {"serviceId": "transformer", "segmentNumber": 1, "processed": False},
            "body": {"config": {"mappingRules": default_mapping_rules()}},
        },
        {
            "header": {"serviceId": "exporter", "segmentNumber": 2, "processed": False},
            "body": {"config": {"allowEmptySync": False}},
        },
    ]
    return {
        "pipeId": FIXTURE_PIPE_ID,
        "name": "mock-portal-harvest",
        "enabled": True,
        "descriptorTemplate": {
            "header": {
                "pipeId": FIXTURE_PIPE_ID,
                "runId": None,
                "name": "mock-portal-harvest",
                "version": "1.0",
                "startTime": "",
            },
            "body": {"segments": segments},
        },
        "triggers": [],
    }


def cmd_fixtures_seed(args) -> int:
    config = _config_from_args(args)
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = synthetic_records(args.count, args.seed)
    (out_dir / "records.json").write_text(json.dumps(records, indent=2), encoding="utf-8")
    (out_dir / "dump.ttl").write_text(records_to_dump_turtle(records), encoding="utf-8")
    (out_dir / "rules.json").write_text(json.dumps(default_mapping_rules(), indent=2), encoding="utf-8")
    pipe = fixture_pipe_definition(config.addresses["portal"])
    (out_dir / "pipe.json").write_text(json.dumps(pipe, indent=2), encoding="utf-8")
    print(f"seeded {args.count} records into {out_dir} (records.json, dump.ttl, rules.json, pipe.json)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odcat", description="Open-data metadata suite")
    parser.add_argument("--config", help="config file path (JSON)")
    parser.add_argument("--data-dir", help="data directory override")
    parser.add_argument("--token", help="API bearer token override")
    parser.add_argument("--base-iri", help="base IRI override")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run suite services")
    serve.add_argument("--services", help="comma-separated service names (default: all)")
    serve.set_defaults(func=cmd_serve)

    harvest = sub.add_parser("harvest", help="harvest operations")
    harvest_sub = harvest.add_subparsers(dest="harvest_command", required=True)
    run = harvest_sub.add_parser("run", help="register, launch, and await a harvest pipe")
    run.add_argument("pipefile", help="pipe definition JSON file")
    run.add_argument("--timeout", type=float, default=600.0)
    run.set_defaults(func=cmd_harvest_run)

    report = sub.add_parser("report", help="download a catalogue quality report")
    report.add_argument("--catalogue", required=True)
    report.add_argument("--format", default="json", choices=["json", "csv", "html"])
    report.add_argument("--out", help="output file (default: stdout)")
    report.set_defaults(func=cmd_report)

    fixtures = sub.add_parser("fixtures", help="fixture management")
    fixtures_sub = fixtures.add_subparsers(dest="fixtures_command", required=True)
    seed = fixtures_sub.add_parser("seed", help="write mock-portal fixtures into a directory")
    seed.add_argument("dir")
    seed.add_argument("--count", type=int, default=100)
    seed.add_argument("--seed", type=int, default=7)
    seed.set_defaults(func=cmd_fixtures_seed)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
