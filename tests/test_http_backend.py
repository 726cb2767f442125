"""HTTP backend tests against a local in-process completions server."""

import contextlib
import http.client
import json
import math
import os
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values
from driftbeam import PreconditionError, ProtocolError, TransportError
from driftbeam.backends import http as http_backend
from driftbeam.backends.base import FINISH_DELIMITER
from driftbeam.backends.http import HttpCompletionsModel, split_base_url

SRC = Path(__file__).resolve().parent.parent / "src"
PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "REQUEST_METHOD")


class _CompletionsHandler(BaseHTTPRequestHandler):
    """Scriptable /v1/completions endpoint; behavior set per test."""

    server_version = "stub/0"

    def log_message(self, *args):  # keep pytest output clean
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        with self.server.lock:
            self.server.requests.append({
                "path": self.path,
                "body": body,
                "headers": dict(self.headers),
                "port": self.client_address[1],
            })
            plan = self.server.plan
            if isinstance(plan, list):
                step = plan[min(len(self.server.requests) - 1, len(plan) - 1)]
            else:
                step = plan
        # A step is (status, payload) or (status, payload, extra headers).
        status, payload, *extra = step(body) if callable(step) else step
        data = json.dumps(payload).encode("utf-8") if payload is not None else b""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)


class _KeepAliveHandler(_CompletionsHandler):
    """HTTP/1.1: the connection stays open between requests, and closes
    after `server.idle_timeout` seconds without one (never, if None)."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        self.timeout = self.server.idle_timeout
        super().setup()


class _StubServer(ThreadingHTTPServer):
    """Counts the connections it has closed."""

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.closed += 1


def completions_payload(text="deliberate 2\n", logprobs=(-0.5, -0.25), finish="stop"):
    return {
        "choices": [
            {
                "text": text,
                "finish_reason": finish,
                "logprobs": {"token_logprobs": list(logprobs)},
            }
        ],
        "usage": {"completion_tokens": len(logprobs)},
    }


@contextlib.contextmanager
def serve(handler, tls=None):
    httpd = _StubServer(("127.0.0.1", 0), handler)
    if tls is not None:
        httpd.socket = tls.wrap_socket(httpd.socket, server_side=True)
    httpd.plan = (200, completions_payload())
    httpd.requests = []
    httpd.closed = 0
    httpd.idle_timeout = None
    httpd.lock = threading.Lock()
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(autouse=True)
def no_proxy_variables(monkeypatch):
    """The tests talk to local servers directly unless they set a proxy."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """Retries sleep 0.01 s, not 0.5 s, before the first retry."""
    monkeypatch.setattr(http_backend, "BACKOFF_S", 0.01)


def set_retries(monkeypatch, count):
    monkeypatch.setattr(http_backend, "MAX_RETRIES", count)


@pytest.fixture
def server():
    with serve(_CompletionsHandler) as httpd:
        yield httpd


@pytest.fixture
def keepalive_server():
    with serve(_KeepAliveHandler) as httpd:
        yield httpd


@pytest.fixture
def proxy_server():
    """A forward-proxy stand-in: it answers every request itself and
    records the target it was sent."""
    with serve(_CompletionsHandler) as httpd:
        yield httpd


@pytest.fixture
def tls_server(tmp_path):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("needs the openssl command to make a self-signed certificate")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1"],
        check=True, capture_output=True, timeout=60,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    with serve(_KeepAliveHandler, tls=context) as httpd:
        yield httpd


class _RawServer:
    """Reads each request off the socket and answers it with scripted raw
    bytes, for replies http.server cannot frame. `plan` holds one
    (reply bytes, close after sending) step per request, the last one
    repeating; every request is recorded with the index of its connection."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.server_address = self.listener.getsockname()
        self.plan = [(raw_reply(completions_payload()), False)]
        self.requests = []
        self.connections = 0
        self.open = []
        self.lock = threading.Lock()
        self.stopped = threading.Event()
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def _accept(self):
        while not self.stopped.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            with self.lock:
                index = self.connections
                self.connections += 1
                self.open.append(conn)
            thread = threading.Thread(target=self._serve, args=(conn, index), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, conn, index):
        with conn, conn.makefile("rb") as reader:
            try:
                while True:
                    request_line = reader.readline()
                    if not request_line:
                        return
                    headers = []
                    while (line := reader.readline()) not in (b"\r\n", b""):
                        headers.append(line.rstrip(b"\r\n").decode("latin-1"))
                    lengths = [h.split(":", 1)[1] for h in headers
                               if h.lower().startswith("content-length:")]
                    body = reader.read(int(lengths[0]))
                    with self.lock:
                        self.requests.append({"line": request_line, "headers": headers,
                                              "body": body, "connection": index})
                        reply, close = self.plan[min(len(self.requests), len(self.plan)) - 1]
                    conn.sendall(reply)
                    if close:
                        return
            except OSError:
                return

    def close(self):
        self.stopped.set()
        with self.lock:
            for conn in self.open:
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
        for thread in self.threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        self.listener.close()


def raw_reply(payload, *, version="HTTP/1.1", headers=(), length=True):
    data = json.dumps(payload).encode("utf-8")
    lines = [f"{version} 200 OK", "Content-Type: application/json", *headers]
    if length:
        lines.append(f"Content-Length: {len(data)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data


@pytest.fixture
def raw_server():
    server = _RawServer()
    try:
        yield server
    finally:
        server.close()


def address(server):
    host, port = server.server_address
    return f"{host}:{port}"


def make_model(server, **kwargs):
    return HttpCompletionsModel(f"http://{address(server)}", "stub-model", **kwargs)


def rng():
    return np.random.default_rng(0)


class TestRequestShape:
    def test_body_fields_and_endpoint(self, server):
        model = make_model(server, temperature=0.7)
        sample = model.propose_step("Q\n", rng(), max_tokens=16, stop="\n")
        assert sample.text == "deliberate 2\n"
        assert sample.finish_reason == "delimiter"  # stop string => step boundary
        req = server.requests[0]
        assert req["path"] == "/v1/completions"
        body = req["body"]
        assert body["model"] == "stub-model"
        assert body["prompt"] == "Q\n"
        assert body["max_tokens"] == 16
        assert body["temperature"] == 0.7
        assert body["logprobs"] == 0
        assert body["stop"] == "\n"
        assert isinstance(body["seed"], int) and 0 <= body["seed"] < 2**31 - 1

    def test_stopless_request_finishes_eos(self, server):
        model = make_model(server)
        sample = model.complete("Q\n", 8, rng())
        assert sample.finish_reason == "end-of-sequence"
        assert server.requests[0]["body"]["stop"] is None

    def test_length_finish_passthrough(self, server):
        server.plan = (200, completions_payload(finish="length"))
        model = make_model(server)
        sample = model.rollout("Q\n", 4, rng())
        assert sample.finish_reason == "length"

    def test_seed_tracks_substream(self, server):
        model = make_model(server)
        model.rollout("Q\n", 4, np.random.default_rng(123))
        model.rollout("Q\n", 4, np.random.default_rng(123))
        model.rollout("Q\n", 4, np.random.default_rng(124))
        seeds = [r["body"]["seed"] for r in server.requests]
        assert seeds[0] == seeds[1]
        assert seeds[0] != seeds[2]

    def test_auth_header(self, server):
        model = make_model(server, auth_token="sekrit")
        model.complete("Q\n", 8, rng())
        assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_base_url_path_prefixes_endpoint(self, server):
        model = HttpCompletionsModel(f"http://{address(server)}/serve/", "stub-model")
        model.complete("Q\n", 8, rng())
        assert server.requests[0]["path"] == "/serve/v1/completions"

    @pytest.mark.parametrize("base_url", [
        "localhost:8000", "127.0.0.1:8000", "ftp://h", "http://", "https://:443",
        "http://h:x", "http://h:99999",
    ])
    def test_unusable_base_url_fails_fast(self, base_url):
        with pytest.raises(PreconditionError, match=(
                "^backend base_url must be an http:// or https:// URL with a host, got ")):
            HttpCompletionsModel(base_url, "stub-model")


class TestRetries:
    def test_retryable_status_then_success_drops_replayable(self, server):
        server.plan = [(503, {"error": "busy"}), (200, completions_payload())]
        model = make_model(server)
        assert model.replayable is True
        sample = model.complete("Q\n", 8, rng())
        assert sample.text == "deliberate 2\n"
        assert model.replayable is False
        assert len(server.requests) == 2

    def test_exhausted_retries_raise_transport_error(self, server, monkeypatch):
        server.plan = (500, {"error": "down"})
        set_retries(monkeypatch, 2)
        model = make_model(server)
        with pytest.raises(TransportError, match="after 2 retries"):
            model.complete("Q\n", 8, rng())
        assert len(server.requests) == 3  # initial try + 2 retries

    def test_clean_run_stays_replayable(self, server):
        model = make_model(server)
        model.complete("Q\n", 8, rng())
        assert model.replayable is True

    def test_connection_refused_is_transport_error(self, monkeypatch):
        set_retries(monkeypatch, 1)
        model = HttpCompletionsModel("http://127.0.0.1:9", "stub")
        with pytest.raises(TransportError):
            model.complete("Q\n", 8, rng())


class TestProtocolErrors:
    def test_non_retryable_status(self, server):
        server.plan = (404, {"error": "no such model"})
        with pytest.raises(ProtocolError, match="HTTP 404"):
            make_model(server).complete("Q\n", 8, rng())

    def test_redirect_is_not_followed(self, server):
        server.plan = (302, None, {"Location": "/v2/completions"})
        with pytest.raises(ProtocolError, match="HTTP 302"):
            make_model(server).complete("Q\n", 8, rng())
        assert len(server.requests) == 1

    def test_token_count_mismatch(self, server):
        payload = completions_payload()
        payload["usage"]["completion_tokens"] = 99
        server.plan = (200, payload)
        with pytest.raises(ProtocolError, match="disagrees"):
            make_model(server).complete("Q\n", 8, rng())

    def test_missing_logprobs(self, server):
        payload = completions_payload()
        payload["choices"][0]["logprobs"]["token_logprobs"] = None
        server.plan = (200, payload)
        with pytest.raises(ProtocolError, match="token_logprobs"):
            make_model(server).complete("Q\n", 8, rng())

    def test_unknown_finish_reason(self, server):
        server.plan = (200, completions_payload(finish="content_filter"))
        with pytest.raises(ProtocolError, match="finish_reason"):
            make_model(server).complete("Q\n", 8, rng())

    def test_malformed_body(self, server):
        server.plan = (200, {"choices": []})
        with pytest.raises(ProtocolError, match="malformed"):
            make_model(server).complete("Q\n", 8, rng())

    @pytest.mark.parametrize("logprobs", [[None], [[1]], ["-0.5"], [True], "ab"])
    def test_non_numeric_logprobs(self, logprobs):
        payload = completions_payload(logprobs=(-0.5,))
        payload["choices"][0]["logprobs"]["token_logprobs"] = logprobs
        model = HttpCompletionsModel("http://127.0.0.1:9", "stub")
        with pytest.raises(ProtocolError, match="token_logprobs must be a list of numbers"):
            model._parse(payload, "delimiter")


# Completions replies as a server could send them: the expected shape with
# any JSON value in each place, or any JSON value at all.
_choices = st.fixed_dictionaries({
    "text": st.text(max_size=8) | json_values,
    "logprobs": st.fixed_dictionaries({
        "token_logprobs": st.lists(st.floats() | st.integers(), max_size=3) | json_values,
    }) | json_values,
    "finish_reason": st.sampled_from(("length", "stop")) | json_values,
})
completions_payloads = st.fixed_dictionaries({
    "choices": st.lists(_choices, max_size=2) | json_values,
    "usage": st.fixed_dictionaries({
        "completion_tokens": st.integers(min_value=0, max_value=3) | json_values,
    }) | json_values,
}) | json_values


@given(completions_payloads)
@settings(max_examples=300)
def test_any_json_payload_parses_or_is_a_protocol_error(payload):
    model = HttpCompletionsModel("http://127.0.0.1:9", "stub")
    try:
        sample = model._parse(payload, FINISH_DELIMITER)
    except ProtocolError:
        return
    assert sample.quality is None or math.isfinite(sample.quality)


class TestConcurrency:
    def test_parallel_requests_complete(self, server):
        model = make_model(server)
        results = []
        errors = []

        def worker(i):
            try:
                results.append(model.complete(f"Q{i}\n", 8, np.random.default_rng(i)))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert len(results) == 6
        assert len(server.requests) == 6

    def test_each_thread_keeps_one_connection(self, keepalive_server):
        model = make_model(keepalive_server)
        errors = []

        def worker(i):
            try:
                for j in range(5):
                    model.complete(f"T{i}\n", 8, np.random.default_rng(j))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert not errors
        ports = {}
        for request in keepalive_server.requests:
            ports.setdefault(request["body"]["prompt"], set()).add(request["port"])
        assert sorted(len(p) for p in ports.values()) == [1, 1, 1, 1]
        assert len(set().union(*ports.values())) == 4


class TestConnection:
    def test_sequential_requests_share_one_connection(self, keepalive_server):
        model = make_model(keepalive_server)
        for i in range(5):
            model.complete("Q\n", 8, np.random.default_rng(i))
        assert len(keepalive_server.requests) == 5
        assert len({r["port"] for r in keepalive_server.requests}) == 1

    def test_connection_close_reply_reconnects_without_retry(self, keepalive_server):
        keepalive_server.plan = [
            (200, completions_payload(), {"Connection": "close"}),
            (200, completions_payload()),
        ]
        model = make_model(keepalive_server)
        model.complete("Q\n", 8, rng())
        model.complete("Q\n", 8, rng())
        assert len(keepalive_server.requests) == 2
        assert len({r["port"] for r in keepalive_server.requests}) == 2
        assert model.replayable is True

    def test_slow_reply_hits_read_timeout(self, keepalive_server, monkeypatch):
        def slow(body):
            time.sleep(0.5)
            return 200, completions_payload()

        keepalive_server.plan = slow
        set_retries(monkeypatch, 0)
        model = make_model(keepalive_server, timeout=0.1)
        with pytest.raises(TransportError, match="timed out"):
            model.complete("Q\n", 8, rng())

    def test_idle_connection_closed_by_server_reconnects_without_retry(self, keepalive_server):
        keepalive_server.idle_timeout = 0.1
        model = make_model(keepalive_server)
        model.complete("Q\n", 8, rng())
        deadline = time.monotonic() + 5
        while keepalive_server.closed == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert keepalive_server.closed == 1
        time.sleep(0.05)  # let the close reach the client's socket
        model.complete("Q\n", 8, rng())
        assert len(keepalive_server.requests) == 2
        assert len({r["port"] for r in keepalive_server.requests}) == 2
        assert model.replayable is True


class TestFraming:
    """Replies framed in every way the client accepts, and the bad framings
    it turns into retries."""

    def test_chunked_reply_with_extension_and_trailer(self, raw_server):
        data = json.dumps(completions_payload()).encode("utf-8")
        head, tail = data[:10], data[10:]
        raw_server.plan = [(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x;name=value\r\n" % len(head) + head + b"\r\n"
            + b"%X\r\n" % len(tail) + tail + b"\r\n"
            + b"0\r\nX-Trailer: done\r\n\r\n",
            False,
        )]
        model = make_model(raw_server)
        for i in range(3):
            assert model.complete("Q\n", 8, np.random.default_rng(i)).text == "deliberate 2\n"
        assert [r["connection"] for r in raw_server.requests] == [0, 0, 0]
        assert model.replayable is True

    def test_http10_reply_ended_by_close(self, raw_server):
        raw_server.plan = [(raw_reply(completions_payload(), version="HTTP/1.0", length=False),
                            True)]
        model = make_model(raw_server)
        for i in range(2):
            assert model.complete("Q\n", 8, np.random.default_rng(i)).text == "deliberate 2\n"
        assert [r["connection"] for r in raw_server.requests] == [0, 1]
        assert model.replayable is True  # the reconnect was no retry

    @pytest.mark.parametrize("reply", [
        raw_reply(completions_payload(), headers=("Connection: close",)),
        raw_reply(completions_payload(), version="HTTP/1.0"),
    ])
    def test_reply_without_keep_alive_is_not_reused(self, raw_server, reply):
        # The server leaves the socket open: only the reply says not to reuse it.
        raw_server.plan = [(reply, False)]
        model = make_model(raw_server)
        for i in range(2):
            model.complete("Q\n", 8, np.random.default_rng(i))
        assert [r["connection"] for r in raw_server.requests] == [0, 1]
        assert model.replayable is True

    def test_http10_keep_alive_reply_keeps_the_connection(self, raw_server):
        raw_server.plan = [(raw_reply(completions_payload(), version="HTTP/1.0",
                                      headers=("Connection: keep-alive",)), False)]
        model = make_model(raw_server)
        for i in range(2):
            model.complete("Q\n", 8, np.random.default_rng(i))
        assert [r["connection"] for r in raw_server.requests] == [0, 0]

    def test_100_continue_is_skipped(self, raw_server):
        raw_server.plan = [(b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n"
                            + raw_reply(completions_payload(text="after 100")), False)]
        model = make_model(raw_server)
        assert model.complete("Q\n", 8, rng()).text == "after 100"
        assert model.complete("Q\n", 8, rng()).text == "after 100"
        assert len(raw_server.requests) == 2 and raw_server.connections == 1

    def test_one_hundred_header_lines_are_read(self, raw_server):
        pads = tuple(f"X-Pad-{i}: {i}" for i in range(98))  # + Content-Type, Content-Length
        raw_server.plan = [(raw_reply(completions_payload(), headers=pads), False)]
        assert make_model(raw_server).complete("Q\n", 8, rng()).text == "deliberate 2\n"

    @pytest.mark.parametrize("reply, close, error", [
        (raw_reply(completions_payload(), headers=("X-Long: " + "a" * 65536,)), False,
         "LineTooLong"),
        (raw_reply(completions_payload(), headers=tuple(f"X-Pad-{i}: {i}" for i in range(99))),
         False, "got more than 100 headers"),
        (raw_reply(completions_payload())[:-5], True, "IncompleteRead"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", False, "bad Content-Length"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", False,
         "bad chunk size"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab", True,
         "IncompleteRead"),
        (b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n", False, "UnknownProtocol"),
        (b"SPDY 200 OK\r\n\r\n", False, "BadStatusLine"),
        (b"", True, "RemoteDisconnected"),
    ])
    def test_bad_framing_is_retried_then_transport_error(self, raw_server, reply, close, error,
                                                         monkeypatch):
        raw_server.plan = [(reply, close)]
        set_retries(monkeypatch, 2)
        model = make_model(raw_server)
        with pytest.raises(TransportError, match=f"after 2 retries .*{error}"):
            model.complete("Q\n", 8, rng())
        assert len(raw_server.requests) == 3
        assert raw_server.connections == 3  # a failed connection is never reused
        assert model.replayable is False

    def test_request_matches_http_client(self, raw_server):
        """The server sees the request line, header set and body bytes that
        `http.client` would send for the same request."""
        model = make_model(raw_server, auth_token="sekrit")
        model.propose_step("Q\n", rng(), max_tokens=16, stop="\n")
        [sent] = raw_server.requests
        body = sent["body"]
        assert body == json.dumps(json.loads(body)).encode("utf-8")
        conn = http.client.HTTPConnection(*raw_server.server_address, timeout=5)
        try:
            conn.request("POST", "/v1/completions", body,
                         {"Content-Type": "application/json", "Authorization": "Bearer sekrit"})
            conn.getresponse().read()
        finally:
            conn.close()
        reference = raw_server.requests[1]
        assert sent["line"] == reference["line"] == b"POST /v1/completions HTTP/1.1\r\n"
        assert sorted(sent["headers"]) == sorted(reference["headers"])
        assert body == reference["body"]

    def test_sequential_requests_make_one_reader(self, keepalive_server, monkeypatch):
        calls = []
        makefile = socket.socket.makefile

        def counting(sock, *args, **kwargs):
            if sock.getpeername() == keepalive_server.server_address:  # client side only
                calls.append(args)
            return makefile(sock, *args, **kwargs)

        monkeypatch.setattr(socket.socket, "makefile", counting)
        model = make_model(keepalive_server)
        for i in range(6):
            model.complete("Q\n", 8, np.random.default_rng(i))
        assert len({r["port"] for r in keepalive_server.requests}) == 1
        assert calls == [("rb",)]


class _CapturedConnection(http.client.HTTPConnection):
    """Records what http.client would write instead of connecting."""

    def send(self, data):
        self.sent = getattr(self, "sent", b"") + data


class _CapturedTlsConnection(_CapturedConnection):
    default_port = http.client.HTTPS_PORT


def http_client_head(model, data):
    """The request head `http.client` writes for `model`'s route and
    headers: its request line and its set of header lines."""
    url = model._url
    port = url.port or (443 if url.scheme == "https" else 80)
    cls = _CapturedTlsConnection if url.scheme == "https" else _CapturedConnection
    if model._proxy is None:
        conn = cls(url.hostname, port)
    else:
        conn = cls(model._proxy.hostname, model._proxy.port or 80)
        if url.scheme == "https":
            conn.set_tunnel(url.hostname, port)
    conn.request("POST", model._target, data,
                 {"Content-Type": "application/json", "Authorization": "Bearer t"})
    head = conn.sent[:-len(data)].split(b"\r\n")
    return head[0], sorted(head[1:-2])


HEAD_URLS = [
    "http://example.com", "http://example.com:80", "http://Example.com:8080/serve",
    "https://example.com", "https://example.com:443", "https://example.com:8443/a/b",
    "http://[::1]:8000", "http://[::1]", "https://[fe80::1%25eth0]:8443",
    "http://b\u00fccher.example:8080", "https://b\u00fccher.example",
    "http://user:pw@example.com:8080",
]
PROXY = "http://proxy.test:3128"


# A plain-http proxy is sent the absolute URL, which http.client cannot send
# for a non-ASCII host either (test_unsendable_target_fails_fast).
@pytest.mark.parametrize("base_url, proxy", [(url, None) for url in HEAD_URLS] + [
    (url, PROXY) for url in HEAD_URLS if url.isascii() or url.startswith("https:")
])
def test_request_head_matches_http_client(base_url, proxy, monkeypatch):
    if proxy is not None:
        monkeypatch.setenv(split_base_url(base_url).scheme + "_proxy", proxy)
    model = HttpCompletionsModel(base_url, "m", auth_token="t")
    data = b'{"prompt": "Q"}'
    head = (model._head + b"%d\r\n\r\n" % len(data)).split(b"\r\n")
    assert (head[0], sorted(head[1:-2])) == http_client_head(model, data)


@pytest.mark.parametrize("kwargs", [
    {"auth_token": "s3cr3t\r\nX-Injected: 1"}, {"auth_token": "s3cr3t\n"},
    {"auth_token": "s3cr3t\u20ac"}, {"auth_token": "s3cr3t", "auth_header": "X Auth"},
    {"auth_token": "s3cr3t", "auth_header": ""},
    # http.client takes each of these: a folded line and inner whitespace.
    {"auth_token": "s3cr3t\r\n x"}, {"auth_token": "s3cr3t\r\tx"},
    {"auth_token": "s3cr3t", "auth_header": "Auth\t"},
])
def test_header_that_is_not_one_header_fails_fast(kwargs):
    with pytest.raises(PreconditionError, match="must make one HTTP header") as caught:
        HttpCompletionsModel("http://127.0.0.1:9", "m", **kwargs)
    assert "s3cr3t" not in str(caught.value)


@pytest.mark.parametrize("base_url, proxy", [
    ("http://127.0.0.1:9/a b", None), ("http://127.0.0.1:9/\u00e9", None),
    ("http://b\u00fccher.example:8080", PROXY), ("http://exa mple.com", None),
])
def test_unsendable_target_fails_fast(base_url, proxy, monkeypatch):
    if proxy is not None:
        monkeypatch.setenv("http_proxy", proxy)
    with pytest.raises(PreconditionError, match="printable ASCII without spaces"):
        HttpCompletionsModel(base_url, "m")


class TestProxy:
    def test_http_proxy_gets_absolute_url(self, proxy_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", f"http://{address(proxy_server)}")
        # Nothing listens on port 9: only the proxy can answer.
        set_retries(monkeypatch, 0)
        model = HttpCompletionsModel("http://127.0.0.1:9/serve", "stub-model")
        model.complete("Q\n", 8, rng())
        [request] = proxy_server.requests
        assert request["path"] == "http://127.0.0.1:9/serve/v1/completions"
        assert request["headers"]["Host"] == "127.0.0.1:9"

    def test_no_proxy_bypasses_proxy(self, server, proxy_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", f"http://{address(proxy_server)}")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        make_model(server).complete("Q\n", 8, rng())
        assert len(server.requests) == 1
        assert proxy_server.requests == []


class TestTls:
    def test_unverified_self_signed_server(self, tls_server, monkeypatch):
        set_retries(monkeypatch, 0)
        model = HttpCompletionsModel(f"https://{address(tls_server)}", "stub-model",
                                     verify_tls=False)
        assert model.complete("Q\n", 8, rng()).text == "deliberate 2\n"
        assert len(tls_server.requests) == 1

    def test_verified_self_signed_server_fails(self, tls_server, monkeypatch):
        set_retries(monkeypatch, 0)
        model = HttpCompletionsModel(f"https://{address(tls_server)}", "stub-model")
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
            model.complete("Q\n", 8, rng())
        assert tls_server.requests == []

    def test_one_context_per_verify_setting(self):
        def context(verify):
            return HttpCompletionsModel("https://127.0.0.1:9", "m", verify_tls=verify)._tls

        assert context(True) is context(True)
        assert context(False) is context(False)
        assert context(True) is not context(False)
        assert context(True).verify_mode == ssl.CERT_REQUIRED and context(True).check_hostname
        assert context(False).verify_mode == ssl.CERT_NONE and not context(False).check_hostname
        assert HttpCompletionsModel("http://127.0.0.1:9", "m")._tls is None


# Modules that a synthetic run has no use for: the HTTP client's (requests
# and urllib3 are not used at all), PyYAML and the thread pool.
UNUSED_BY_SYNTHETIC_RUNS = ("requests", "urllib3", "http.client", "ssl", "email.parser",
                            "yaml", "concurrent.futures")


def test_synthetic_run_loads_only_what_it_uses():
    """Importing the package and running a synthetic decode loads none of
    UNUSED_BY_SYNTHETIC_RUNS beyond what the bare interpreter has loaded:
    they cost set-up time and memory on every command-line run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys; bare = set(sys.modules)\n"
         "import driftbeam\n"
         "driftbeam.execute_run(driftbeam.RunConfig(dataset='synthetic:2'))\n"
         f"print(sorted(set({UNUSED_BY_SYNTHETIC_RUNS!r}) & (set(sys.modules) - bare)))"],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    )
    assert child.stdout.strip() == "[]"


def test_http_model_resolves_to_the_one_class():
    import driftbeam
    import driftbeam.backends

    assert driftbeam.HttpCompletionsModel is HttpCompletionsModel
    assert driftbeam.backends.HttpCompletionsModel is HttpCompletionsModel
    with pytest.raises(AttributeError):
        driftbeam.backends.NoSuchModel
