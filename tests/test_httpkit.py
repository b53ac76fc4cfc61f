import ast
import re
import socket
import statistics
import threading
import time
from pathlib import Path

import pytest
import requests

from odcat.httpkit import ClientError, HttpClient, HttpService, Response, Router


def echo_service() -> HttpService:
    router = Router("echo")
    router.route("POST", "/pipe", lambda req: Response.json({"received": len(req.body)}, 202))
    return HttpService(router).start()


@pytest.mark.parametrize("client", ["requests", "httpkit"])
def test_keep_alive_round_trip_has_no_delayed_ack_stall(client):
    # A delayed ACK holds a stalled response for ~40 ms; 20 ms leaves room for
    # load on a small machine while still catching the stall.
    if client == "requests":
        session = requests.Session()

        def post(url, body):
            resp = session.post(url, data=body, timeout=10)
            return resp.status_code, resp.json()
    else:
        http = HttpClient(timeout=10)

        def post(url, body):
            resp = http.request("POST", url, body)
            return resp.status, resp.json()

    service = echo_service()
    body = b"x" * 3072  # about the size of a pipe descriptor
    timings = []
    try:
        for _ in range(50):
            start = time.perf_counter()
            status, payload = post(f"{service.url}/pipe", body)
            timings.append(time.perf_counter() - start)
            assert status == 202
            assert payload == {"received": len(body)}
    finally:
        service.stop()
        if client == "requests":
            session.close()
        else:
            http.close()
    assert statistics.median(timings) < 0.020, f"median {statistics.median(timings) * 1000:.1f} ms"


def test_client_reconnects_after_peer_closes_idle_connection():
    """A server that drops a kept-alive connection costs no failed request."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    accepted = []

    def serve_one_request_per_connection():
        for _ in range(2):
            conn, _ = listener.accept()
            accepted.append(conn)
            with conn:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            # the response promised keep-alive, but the connection is closed

    thread = threading.Thread(target=serve_one_request_per_connection, daemon=True)
    thread.start()
    client = HttpClient(timeout=5)
    try:
        assert client.request("GET", f"http://127.0.0.1:{port}/a").body == b"ok"
        deadline = time.monotonic() + 5
        while accepted[0].fileno() != -1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.request("GET", f"http://127.0.0.1:{port}/b").body == b"ok"
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(accepted) == 2
    finally:
        client.close()
        listener.close()


def test_close_closes_the_connections_of_every_thread():
    service = echo_service()
    client = HttpClient(timeout=5)
    conns = []
    called = threading.Barrier(4, timeout=5)
    closed = threading.Event()

    def call():
        assert client.request("POST", f"{service.url}/pipe", b"x").status == 202
        conns.append(client._conns[threading.current_thread()][f"{service.host}:{service.port}"])

    def call_and_stay():  # a thread's connections are its own only while it lives
        call()
        called.wait()
        closed.wait(timeout=5)

    threads = [threading.Thread(target=call_and_stay) for _ in range(3)]
    try:
        for thread in threads:
            thread.start()
        called.wait()
        call()
        assert len(conns) == 4 and all(conn.sock is not None for conn in conns)
        client.close()
        assert all(conn.sock is None for conn in conns)
        call()  # a request after close opens a new connection
        assert conns[-1].sock is not None
        client.close()
    finally:
        closed.set()
        for thread in threads:
            thread.join(timeout=5)
        service.stop()
    assert not any(thread.is_alive() for thread in threads)


def test_stop_does_not_wait_out_a_poll_interval():
    services = [echo_service() for _ in range(5)]
    start = time.perf_counter()
    for service in services:
        service.stop()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.25, f"stopping 5 idle services took {elapsed * 1000:.0f} ms"
    services[0].stop()  # a second stop is harmless


def test_client_error_when_nothing_listens():
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    with pytest.raises(ClientError):
        HttpClient(timeout=5).request("GET", f"http://127.0.0.1:{port}/health")


@pytest.mark.parametrize("length", ["-1", "abc"])
def test_unframeable_content_length_is_400(length):
    """A body length that is not a decimal count gets a 400, not a hung
    handler (-1 would read until the client closes) or a dropped connection."""
    service = echo_service()
    try:
        with socket.create_connection((service.host, service.port), timeout=5) as sock:
            sock.sendall(
                f"POST /pipe HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode("ascii")
            )
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in reply.lower()
    finally:
        service.stop()


@pytest.fixture(scope="module")
def probe():
    router = Router("probe")
    router.route("POST", "/pipe", lambda req: Response.json({"received": len(req.body)}, 202))
    router.route("GET", "/probe", lambda req: Response.text(req.headers.get("x-probe", "")))
    service = HttpService(router).start()
    yield service
    service.stop()


def connect(service: HttpService) -> socket.socket:
    return socket.create_connection((service.host, service.port), timeout=5)


def read_response(rfile) -> tuple[int, bytes]:
    """(status, body) of the next response on a connection."""
    status_line = rfile.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    return int(status_line.split()[1]), rfile.read(int(headers["content-length"]))


def read_to_close(sock: socket.socket) -> bytes:
    """All the server sends until it closes; a timeout means it kept the connection open."""
    return b"".join(iter(lambda: sock.recv(65536), b""))


def refusal_status(reply: bytes) -> int:
    """The status of a refusal: from its status line or, where a server answers
    a request line whose version it refused with an error page alone (as
    http.server does), from that page."""
    match = re.match(rb"HTTP/1\.1 (\d{3}) ", reply) or re.search(rb"Error code: (\d{3})", reply)
    assert match, reply[:200]
    return int(match.group(1))


HEALTH = b'{"status": "ok", "service": "probe"}'


def test_keep_alive_connection_answers_requests_in_order(probe):
    with connect(probe) as sock, sock.makefile("rb") as rfile:
        for n in range(3):
            sock.sendall(f"POST /pipe HTTP/1.1\r\nHost: x\r\nContent-Length: {n}\r\n\r\n".encode() + b"x" * n)
            assert read_response(rfile) == (202, b'{"received": %d}' % n)
        # two requests in one send are answered in order
        sock.sendall(
            b"POST /pipe HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nxxxxx"
            b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert read_response(rfile) == (202, b'{"received": 5}')
        assert read_response(rfile) == (200, HEALTH)
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(rfile) == (200, HEALTH)


@pytest.mark.parametrize(
    "request_head, closes",
    [
        (b"GET /health HTTP/1.0\r\n\r\n", True),
        (b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", False),
        (b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n", True),
        (b"GET /health HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n", False),
    ],
)
def test_connection_header_and_version_decide_whether_the_connection_stays_open(probe, request_head, closes):
    with connect(probe) as sock, sock.makefile("rb") as rfile:
        sock.sendall(request_head)
        assert read_response(rfile) == (200, HEALTH)
        if closes:
            assert rfile.read() == b""
        else:
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            assert read_response(rfile) == (200, HEALTH)


def test_head_gets_the_get_length_and_no_body(probe):
    with connect(probe) as sock, sock.makefile("rb") as rfile:
        sock.sendall(b"HEAD /health HTTP/1.1\r\n\r\nGET /health HTTP/1.1\r\n\r\n")
        status_line, head = rfile.readline(), b""
        while (line := rfile.readline()) not in (b"\r\n", b""):
            head += line
        assert status_line.startswith(b"HTTP/1.1 200 ")
        assert f"Content-Length: {len(HEALTH)}\r\n".encode() in head
        # the GET's response follows the HEAD's headers directly
        assert read_response(rfile) == (200, HEALTH)


@pytest.mark.parametrize(
    "request_head, status",
    [
        (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /health HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", 431),
        (b"GET /health HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
        (b"GET /health HTTP/2.0\r\n\r\n", 505),
        (b"GET /health extra HTTP/1.1\r\n\r\n", 400),
        (b"PATCH /health HTTP/1.1\r\n\r\n", 501),
    ],
    ids=["long-request-line", "long-header-line", "101-headers", "http-2", "malformed-request-line", "patch"],
)
def test_refused_request_gets_its_status_and_the_connection_closes(probe, request_head, status):
    with connect(probe) as sock:
        sock.sendall(request_head)
        # read_to_close returns only once the server has closed
        assert refusal_status(read_to_close(sock)) == status


def test_expect_100_continue_is_answered_before_the_body(probe):
    with connect(probe) as sock, sock.makefile("rb") as rfile:
        sock.sendall(b"POST /pipe HTTP/1.1\r\nContent-Length: 3\r\nExpect: 100-continue\r\n\r\n")
        assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert rfile.readline() == b"\r\n"
        sock.sendall(b"abc")
        assert read_response(rfile) == (202, b'{"received": 3}')


def test_leading_double_slash_is_routed_as_one_slash(probe):
    with connect(probe) as sock, sock.makefile("rb") as rfile:
        sock.sendall(b"GET //health HTTP/1.1\r\n\r\n")
        assert read_response(rfile) == (200, HEALTH)


def test_empty_request_line_closes_the_connection(probe):
    with connect(probe) as sock:
        sock.sendall(b"\r\n")
        assert read_to_close(sock) == b""


def test_repeated_header_keeps_its_last_value(probe):
    with connect(probe) as sock, sock.makefile("rb") as rfile:
        sock.sendall(b"GET /probe HTTP/1.1\r\nX-Probe: first\r\nx-probe: last\r\n\r\n")
        assert read_response(rfile) == (200, b"last")


def test_only_outside_url_callers_import_requests():
    """Calls between the suite's services go through HttpClient; requests is
    imported only where the suite reaches outside URLs."""
    src = Path(__file__).resolve().parent.parent / "src" / "odcat"
    importers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n == "requests" or n.startswith("requests.") for n in names):
                importers.add(path.relative_to(src).as_posix())
    assert importers == {"harvester/importers.py", "quality/urlcheck.py"}
