"""Minimal threaded HTTP server with path-pattern routing, and its client.

Each suite service owns one Router bound to its own listen address. Handlers
receive a Request and return a Response; JSON helpers cover the common case.
HttpClient is the keep-alive client the services use to call each other.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import select
import socket
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, unquote, urlsplit

logger = logging.getLogger(__name__)


@dataclass
class Request:
    method: str
    path: str
    params: dict[str, str]
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self):
        return json.loads(self.body.decode("utf-8"))

    def text(self) -> str:
        return self.body.decode("utf-8")

    def bearer_token(self) -> str | None:
        auth = self.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return None


@dataclass
class Response:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload, status: int = 200) -> "Response":
        return cls(status, json.dumps(payload).encode("utf-8"), "application/json")

    @classmethod
    def text(cls, body: str, status: int = 200, content_type: str = "text/plain; charset=utf-8") -> "Response":
        return cls(status, body.encode("utf-8"), content_type)

    @classmethod
    def error(cls, status: int, code: str, message: str) -> "Response":
        return cls.json({"error": code, "message": message}, status)


Handler = Callable[[Request], Response]


def paging(query: dict[str, str], default_size: int) -> tuple[int, int]:
    """(page, pageSize) of a listing request. Raises ValueError unless both
    are integers, page >= 0 and pageSize >= 1."""
    try:
        page = int(query.get("page", "0"))
        page_size = int(query.get("pageSize", str(default_size)))
    except ValueError:
        raise ValueError("page and pageSize must be integers") from None
    if page < 0 or page_size < 1:
        raise ValueError("page must be >= 0 and pageSize >= 1")
    return page, page_size


class Router:
    """Maps (method, /path/{param}/...) patterns to handlers."""

    def __init__(self, name: str = "service", token: str | None = None):
        self.name = name
        self.token = token
        self._routes: list[tuple[str, re.Pattern, Handler, bool]] = []
        self.route("GET", "/health", lambda req: Response.json({"status": "ok", "service": self.name}))

    def route(self, method: str, pattern: str, handler: Handler, protected: bool = False) -> None:
        regex = re.compile(
            "^" + re.sub(r"\{([a-zA-Z]+)\}", r"(?P<\1>[^/]+)", pattern) + "$"
        )
        self._routes.append((method.upper(), regex, handler, protected))

    def dispatch(self, method: str, path: str, query: dict, headers: dict, body: bytes) -> Response:
        matched_path = False
        for m, regex, handler, protected in self._routes:
            match = regex.match(path)
            if not match:
                continue
            matched_path = True
            if m != method.upper():
                continue
            params = {k: unquote(v) for k, v in match.groupdict().items()}
            req = Request(method.upper(), path, params, query, headers, body)
            if protected and self.token is not None and req.bearer_token() != self.token:
                return Response.error(401, "Unauthorized", "missing or invalid bearer token")
            try:
                return handler(req)
            except Exception:
                logger.exception("%s: handler error on %s %s", self.name, method, path)
                return Response.error(500, "InternalError", "unexpected server error")
        if matched_path:
            if method.upper() == "HEAD":
                return self.dispatch("GET", path, query, headers, body)
            return Response.error(405, "MethodNotAllowed", f"{method} not allowed on {path}")
        return Response.error(404, "NotFound", f"no route for {path}")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = socket.SOMAXCONN  # the default backlog of 5 resets bursts of new connections


class HttpService:
    """One Router bound to one listener, served by a daemon thread pool."""

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0):
        self.router = router
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Headers and body go out in separate writes; with Nagle on, the
            # body of a keep-alive response waits for the peer's delayed ACK.
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # quiet by default
                logger.debug("%s %s", outer.router.name, fmt % args)

            def _serve(self):
                length = (self.headers.get("Content-Length") or "0").strip()
                if length.isascii() and length.isdigit():
                    parts = urlsplit(self.path)
                    query = {k: v[0] for k, v in parse_qs(parts.query).items()}
                    body = self.rfile.read(int(length))
                    headers = {k.lower(): v for k, v in self.headers.items()}
                    resp = outer.router.dispatch(self.command, parts.path, query, headers, body)
                else:
                    resp = Response.error(400, "BadRequest", f"bad Content-Length {length!r}")
                    # the body cannot be framed, so the connection cannot be reused
                    resp.headers["Connection"] = "close"
                self.send_response(resp.status)
                self.send_header("Content-Type", resp.content_type)
                self.send_header("Content-Length", str(len(resp.body)))
                for k, v in resp.headers.items():
                    self.send_header(k, v)
                self.end_headers()
                if resp.body and self.command != "HEAD":
                    self.wfile.write(resp.body)

            do_GET = do_POST = do_PUT = do_DELETE = do_HEAD = _serve

        try:
            self.server = _Server((host, port), _Handler)
        except OSError as exc:
            raise AddressInUseError(f"cannot bind {host}:{port}: {exc}") from exc
        self.host = host
        self.port = self.server.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpService":
        self._thread = threading.Thread(target=self.server.serve_forever, name=f"http-{self.router.name}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()


class AddressInUseError(OSError):
    """Listen address already bound by another process or service."""


class ClientError(OSError):
    """The peer could not be reached, or the exchange broke off midway."""


@dataclass
class ClientResponse:
    status: int
    body: bytes

    def json(self):
        return json.loads(self.body.decode("utf-8"))

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")


class HttpClient:
    """Keep-alive HTTP/1.1 client for calls between the suite's services.

    Each thread keeps one persistent connection per host:port. Every record
    crosses several service hops, and all services share one interpreter
    lock, so per-call client CPU bounds harvest throughput: a 3 KB POST round
    trip to an HttpService costs ~2.3 ms of CPU through requests.Session
    (per-call proxy and netrc lookups, adapters, hooks) and ~0.5 ms through
    this client (2-core machine, Python 3.11). It carries every call between
    the suite's services (pipe descriptors, scheduler launches, run-status
    posts, registry calls) and the CLI's calls to them. Only calls to outside
    URLs (source portals in the importers, distribution URL checks) use
    requests, for its proxies, TLS and redirects.
    """

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout
        self._local = threading.local()

    def request(
        self, method: str, url: str, body: bytes = b"", headers: dict[str, str] | None = None
    ) -> ClientResponse:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"HttpClient speaks plain http only, got {url!r}")
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        conns = self._local.__dict__.setdefault("conns", {})
        conn = conns.get(parts.netloc)
        if conn is not None and _dropped(conn):
            conn.close()
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(parts.hostname, parts.port or 80, timeout=self.timeout)
            conns[parts.netloc] = conn
        try:
            # a bytes body leaves in the same send as the headers
            conn.request(method, target, body=body, headers=headers or {})
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            del conns[parts.netloc]
            raise ClientError(f"{method} {url}: {exc}") from exc
        if resp.will_close:
            conn.close()
            del conns[parts.netloc]
        return ClientResponse(resp.status, data)


def _dropped(conn: http.client.HTTPConnection) -> bool:
    """An idle keep-alive socket is readable only if the peer closed it."""
    if conn.sock is None:
        return False
    poller = select.poll()
    poller.register(conn.sock, select.POLLIN)
    return bool(poller.poll(0))
