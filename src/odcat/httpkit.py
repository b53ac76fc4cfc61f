"""HTTP/1.1 for the suite's services: a threaded server with path-pattern
routing, and the keep-alive client the services use to call each other.

Each suite service owns one Router bound to its own listen address. Handlers
receive a Request and return a Response; JSON helpers cover the common case.

HttpService gives each client connection a daemon thread that reads its
requests in turn: the request line and each header line with a bounded
readline (64 KiB each, under 100 header lines), then a body of exactly
Content-Length bytes. The status line, the headers and the body of each
response leave in one write. A request that cannot be framed or served gets
the suite's JSON error with its status (400, 414, 431, 501 or 505), and its
connection closes. HTTP/1.1 connections stay open unless the client sends
`Connection: close`; HTTP/1.0 ones close unless it sends
`Connection: keep-alive`.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import select
import selectors
import socket
import socketserver
import threading
import weakref
from dataclasses import dataclass, field
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable
from urllib.parse import parse_qs, unquote, urlsplit

from . import __version__

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


_MAX_LINE = 65536  # bytes in the request line or in one header line
_MAX_HEADER_LINES = 100  # counting the blank line that ends them, as http.client counts
_METHODS = frozenset({"GET", "POST", "PUT", "DELETE", "HEAD"})
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_SERVER = f"odcat/{__version__}"


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: its requests are read and answered in turn
    until the client or the rules of its HTTP version close it."""

    # A response leaves in one write, but a 100 Continue or the previous
    # response of a pipelined pair may still be unacknowledged; with Nagle
    # on, the response would wait for the peer's delayed ACK.
    disable_nagle_algorithm = True

    def handle(self):
        while self._serve_one():
            pass

    def _serve_one(self) -> bool:
        """Reads one request and answers it; False when the connection is to close."""
        rfile = self.rfile
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return self._refuse("", 414, "URITooLong", "request line too long")
        words = str(line, "iso-8859-1").rstrip("\r\n").split()
        if not words:
            return False  # the client closed, or sent a blank line
        version, close = "HTTP/0.9", True
        if len(words) >= 3:
            try:
                major, minor = _version_number(words[-1])
            except ValueError:
                return self._refuse("", 400, "BadRequest", f"bad request version {words[-1]!r}")
            if major >= 2:
                return self._refuse("", 505, "HTTPVersionNotSupported", f"HTTP/{major}.{minor} not supported")
            version, close = words[-1], (major, minor) < (1, 1)
        if not 2 <= len(words) <= 3 or (len(words) == 2 and words[0] != "GET"):
            return self._refuse(version, 400, "BadRequest", f"bad request line {' '.join(words)!r}")
        method, target = words[0], words[1]
        if target.startswith("//"):
            # a client would read //host/path as an authority (gh-87389)
            target = "/" + target.lstrip("/")

        headers = {}
        for _ in range(_MAX_HEADER_LINES):
            line = rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                return self._refuse(version, 431, "RequestHeaderFieldsTooLarge", "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if colon:
                headers[name.lower()] = value.strip()
        else:
            return self._refuse(version, 431, "RequestHeaderFieldsTooLarge", "too many headers")

        connection = headers.get("connection", "").lower()
        if connection in ("close", "keep-alive"):
            close = connection == "close"
        if headers.get("expect", "").lower() == "100-continue" and version >= "HTTP/1.1":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        if method not in _METHODS:
            return self._refuse(version, 501, "NotImplemented", f"unsupported method {method!r}")

        length = headers.get("content-length") or "0"
        if not (length.isascii() and length.isdigit()):
            # the body cannot be framed, so the connection cannot be reused
            return self._refuse(version, 400, "BadRequest", f"bad Content-Length {length!r}")
        parts = urlsplit(target)
        query = {k: v[0] for k, v in parse_qs(parts.query).items()}
        body = rfile.read(int(length))
        resp = self.server.router.dispatch(method, parts.path, query, headers, body)
        return self._send(resp, method, version, close)

    def _refuse(self, version: str, status: int, code: str, message: str) -> bool:
        """Answers a request that cannot be framed or served, and closes."""
        logger.debug("%s: %d %s", self.server.router.name, status, message)
        resp = Response.error(status, code, message)
        resp.headers["Connection"] = "close"
        return self._send(resp, "", version, close=True)

    def _send(self, resp: Response, method: str, version: str, close: bool) -> bool:
        """Writes the status line, the headers and the body in one write; an
        HTTP/0.9 request gets the body alone. True if the connection stays open."""
        body = b"" if method == "HEAD" else resp.body
        if version == "HTTP/0.9":
            self.wfile.write(body)
            return not close
        head = (
            f"HTTP/1.1 {resp.status} {_REASONS.get(resp.status, '')}\r\n"
            f"Server: {_SERVER}\r\nDate: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: {resp.content_type}\r\nContent-Length: {len(resp.body)}\r\n"
        )
        for name, value in resp.headers.items():
            head += f"{name}: {value}\r\n"
        self.wfile.write((head + "\r\n").encode("latin-1") + body)
        return not close


def _version_number(version: str) -> tuple[int, int]:
    """(major, minor) of an `HTTP/x.y` version, checked as `http.server` checks it."""
    if not version.startswith("HTTP/"):
        raise ValueError(version)
    numbers = version[5:].split(".")
    if len(numbers) != 2 or not all(n.isdigit() and len(n) <= 10 for n in numbers):
        raise ValueError(version)
    return int(numbers[0]), int(numbers[1])


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = socket.SOMAXCONN  # the default backlog of 5 resets bursts of new connections

    def __init__(self, address: tuple[str, int], router: Router):
        self.router = router
        super().__init__(address, _Connection)
        # `wake` writes to one end to end `serve_forever`'s wait
        self._wakeup_r, self._wakeup_w = socket.socketpair()

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """Accepts connections until `wake`. The wait has no timeout: an idle
        server never wakes up, and a stop does not wait out a poll interval."""
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wakeup_r, selectors.EVENT_READ)
            while True:
                ready = selector.select()
                if any(key.fileobj is self._wakeup_r for key, _ in ready):
                    return
                self._handle_request_noblock()

    def wake(self) -> None:
        self._wakeup_w.send(b"\0")

    def server_close(self) -> None:
        super().server_close()
        self._wakeup_r.close()
        self._wakeup_w.close()


class HttpService:
    """One Router bound to one listener, with a daemon thread per connection."""

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0):
        self.router = router
        try:
            self.server = _Server((host, port), router)
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
        if self._thread is not None:
            self.server.wake()
            self._thread.join()
            self._thread = None
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
        # each thread's connections by host:port; a thread's entry goes with the thread
        self._conns: weakref.WeakKeyDictionary[threading.Thread, dict] = weakref.WeakKeyDictionary()
        self._conns_lock = threading.Lock()

    def request(
        self, method: str, url: str, body: bytes = b"", headers: dict[str, str] | None = None
    ) -> ClientResponse:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"HttpClient speaks plain http only, got {url!r}")
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        thread = threading.current_thread()
        conns = self._conns.get(thread)
        if conns is None:
            with self._conns_lock:
                conns = self._conns.setdefault(thread, {})
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
            conns.pop(parts.netloc, None)  # `close` may have taken it already
            raise ClientError(f"{method} {url}: {exc}") from exc
        if resp.will_close:
            conn.close()
            conns.pop(parts.netloc, None)
        return ClientResponse(resp.status, data)

    def close(self) -> None:
        """Closes the kept-alive connections of every thread, not only the
        caller's. A later request opens a new one."""
        with self._conns_lock:
            pools = list(self._conns.values())
        for conns in pools:
            for netloc in list(conns):
                conn = conns.pop(netloc, None)
                if conn is not None:
                    conn.close()


def _dropped(conn: http.client.HTTPConnection) -> bool:
    """An idle keep-alive socket is readable only if the peer closed it."""
    if conn.sock is None:
        return False
    poller = select.poll()
    poller.register(conn.sock, select.POLLIN)
    return bool(poller.poll(0))
