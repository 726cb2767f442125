"""HTTP backend tests against a local in-process completions server."""

import contextlib
import json
import os
import shutil
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from driftbeam import PreconditionError, ProtocolError, TransportError
from driftbeam.backends.http import HttpCompletionsModel

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


def address(server):
    host, port = server.server_address
    return f"{host}:{port}"


def make_model(server, **kwargs):
    kwargs.setdefault("backoff", 0.01)
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

    def test_exhausted_retries_raise_transport_error(self, server):
        server.plan = (500, {"error": "down"})
        model = make_model(server, max_retries=2)
        with pytest.raises(TransportError, match="after 2 retries"):
            model.complete("Q\n", 8, rng())
        assert len(server.requests) == 3  # initial try + 2 retries

    def test_clean_run_stays_replayable(self, server):
        model = make_model(server)
        model.complete("Q\n", 8, rng())
        assert model.replayable is True

    def test_connection_refused_is_transport_error(self):
        model = HttpCompletionsModel(
            "http://127.0.0.1:9", "stub", max_retries=1, backoff=0.01
        )
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

    def test_slow_reply_hits_read_timeout(self, keepalive_server):
        def slow(body):
            time.sleep(0.5)
            return 200, completions_payload()

        keepalive_server.plan = slow
        model = make_model(keepalive_server, timeout=0.1, max_retries=0)
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


class TestProxy:
    def test_http_proxy_gets_absolute_url(self, proxy_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", f"http://{address(proxy_server)}")
        # Nothing listens on port 9: only the proxy can answer.
        model = HttpCompletionsModel("http://127.0.0.1:9/serve", "stub-model", max_retries=0)
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
    def test_unverified_self_signed_server(self, tls_server):
        model = HttpCompletionsModel(f"https://{address(tls_server)}", "stub-model",
                                     verify_tls=False, max_retries=0)
        assert model.complete("Q\n", 8, rng()).text == "deliberate 2\n"
        assert len(tls_server.requests) == 1

    def test_verified_self_signed_server_fails(self, tls_server):
        model = HttpCompletionsModel(f"https://{address(tls_server)}", "stub-model",
                                     max_retries=0)
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


def test_import_loads_neither_requests_nor_urllib3():
    """The client is standard library only; importing the package must not
    bring requests or urllib3 back (they cost set-up time and memory)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, driftbeam; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    )
    assert child.stdout.strip() == "[]"
