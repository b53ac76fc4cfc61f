import ast
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
        listener.close()


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
