#!/usr/bin/env python3
"""CPU cost of one keep-alive HTTP round trip through httpkit.

Starts an `HttpService` in this process, pinned to one CPU, and times
`HttpClient` round trips to it on one kept-alive connection:

  GET 3 KB     a GET whose response body is 3 KB, about a dataset's Turtle
  POST 150 KB  a POST whose request body is 150 KB, about a pipe descriptor
               of a 100-record run; the response is a short JSON

Client and server share the process, so each figure is the whole round trip:
the client's request and response handling, the server's framing and the
router's dispatch. Each case runs R rounds of N round trips after a warm-up
and prints the fastest round, in µs of process CPU time per round trip.
Compare commits by running the script from each checkout in turn. Run from
the repository root:

    python scripts/http_roundtrip.py --calls 2000 --rounds 5
"""

import argparse
import gc
import json
import os
import sys
import time

sys.path[:0] = ["src"]

from odcat.httpkit import HttpClient, HttpService, Response, Router

GET_BYTES = 3 * 1024
POST_BYTES = 150 * 1024


def fastest(rounds: int, calls: int, call) -> float:
    """The least process CPU time, in µs per call, of `rounds` rounds of `calls` calls."""
    for _ in range(calls // 10):
        call()
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        t0 = time.process_time()
        for _ in range(calls):
            call()
        best = min(best, time.process_time() - t0)
    return best / calls * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--calls", type=int, default=2000, help="round trips per round")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    page = b"x" * GET_BYTES
    router = Router("roundtrip")
    router.route("GET", "/page", lambda req: Response(200, page, "text/turtle"))
    router.route("POST", "/pipe", lambda req: Response.json({"received": len(req.body)}, 202))
    service = HttpService(router).start()
    client = HttpClient(timeout=10)
    body = b"y" * POST_BYTES

    def get():
        resp = client.request("GET", f"{service.url}/page")
        if resp.status != 200 or len(resp.body) != GET_BYTES:
            raise RuntimeError(f"GET answered {resp.status} with {len(resp.body)} bytes")

    def post():
        resp = client.request("POST", f"{service.url}/pipe", body)
        if resp.status != 202 or resp.json() != {"received": POST_BYTES}:
            raise RuntimeError(f"POST answered {resp.status}: {resp.text[:200]}")

    try:
        result = {
            "get_3kb_us": round(fastest(args.rounds, args.calls, get), 1),
            "post_150kb_us": round(fastest(args.rounds, args.calls, post), 1),
        }
    finally:
        service.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
