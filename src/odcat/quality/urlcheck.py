"""Distribution URL accessibility checks.

HEAD first, GET with a zero byte range on 405, at most three redirects.
Checks run with bounded concurrency and per-host spacing so source portals
are not hammered.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.parse import urlparse

import requests

from .. import ns
from ..rdf import IRI, Term, Triple, plain_text


@dataclass(frozen=True)
class UrlCheckResult:
    statusCode: int
    reachable: bool
    elapsedMs: int
    url: str = ""

    def to_json(self) -> dict:
        return {
            "statusCode": self.statusCode,
            "reachable": self.reachable,
            "elapsedMs": self.elapsedMs,
            "url": self.url,
        }


class _HostPacer:
    def __init__(self, spacing: float):
        self.spacing = spacing
        self._last: dict[str, float] = {}
        self._lock = threading.Lock()

    def wait(self, url: str) -> None:
        host = urlparse(url).netloc
        with self._lock:  # book the host's next free slot, then sleep until it
            now = time.monotonic()
            slot = max(now, self._last.get(host, 0.0) + self.spacing)
            self._last[host] = slot
        time.sleep(slot - now)


def distribution_urls(graph: list[Triple]) -> dict[str, str]:
    """Distribution node -> URL to probe (accessURL preferred)."""
    dists: list[Term] = []
    seen = set()
    for s, p, o in graph:
        if p.value == ns.DCAT_DISTRIBUTION and o not in seen:
            seen.add(o)
            dists.append(o)
    by_sp: dict[tuple[Term, str], list[Term]] = {}
    for s, p, o in graph:
        by_sp.setdefault((s, p.value), []).append(o)
    out: dict[str, str] = {}
    for dist in dists:
        urls = [
            o.value
            for pred in (ns.DCAT_ACCESS_URL, ns.DCAT_DOWNLOAD_URL)
            for o in by_sp.get((dist, pred), [])
            if isinstance(o, IRI)
        ]
        if urls:
            out[plain_text(dist)] = urls[0]
    return out


def check_one(
    url: str,
    session: requests.Session,
    timeout: float = 10.0,
    max_redirects: int = 3,
) -> UrlCheckResult:
    start = time.monotonic()
    current = url
    status = 0
    resolved = True
    try:
        redirects = 0
        while True:
            resp = session.head(current, timeout=timeout, allow_redirects=False)
            if resp.status_code == 405:
                resp = session.get(
                    current,
                    timeout=timeout,
                    allow_redirects=False,
                    headers={"Range": "bytes=0-0"},
                    stream=True,
                )
                resp.close()
            status = resp.status_code
            if 300 <= status < 400 and resp.headers.get("Location"):
                if redirects >= max_redirects:
                    resolved = False  # still redirecting after the cap
                    break
                redirects += 1
                current = requests.compat.urljoin(current, resp.headers["Location"])
                continue
            break
    except requests.RequestException:
        status = 0
    elapsed = int((time.monotonic() - start) * 1000)
    return UrlCheckResult(status, resolved and 200 <= status < 400, elapsed, url)


def check_urls(
    graph: list[Triple],
    timeout: float = 10.0,
    max_redirects: int = 3,
    concurrency: int = 16,
    per_host_spacing: float = 1.0,
) -> dict[str, UrlCheckResult]:
    """Probe each distribution's access/download URL; failures are data."""
    targets = distribution_urls(graph)
    if not targets:
        return {}
    pacer = _HostPacer(per_host_spacing)
    session = requests.Session()
    results: dict[str, UrlCheckResult] = {}

    def probe(item):
        dist, url = item
        pacer.wait(url)
        return dist, check_one(url, session, timeout, max_redirects)

    with ThreadPoolExecutor(max_workers=min(concurrency, len(targets))) as pool:
        for dist, result in pool.map(probe, targets.items()):
            results[dist] = result
    return results
