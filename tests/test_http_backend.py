"""HTTP backend tests against a local in-process completions server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from driftbeam import ProtocolError, TransportError
from driftbeam.backends.http import HttpCompletionsModel


class _CompletionsHandler(BaseHTTPRequestHandler):
    """Scriptable /v1/completions endpoint; behavior set per test."""

    server_version = "stub/0"

    def log_message(self, *args):  # keep pytest output clean
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        with self.server.lock:
            self.server.requests.append(
                {"path": self.path, "body": body, "headers": dict(self.headers)}
            )
            plan = self.server.plan
            if isinstance(plan, list):
                step = plan[min(len(self.server.requests) - 1, len(plan) - 1)]
            else:
                step = plan
        status, payload = step(body) if callable(step) else step
        data = json.dumps(payload).encode("utf-8") if payload is not None else b""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


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


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _CompletionsHandler)
    httpd.plan = (200, completions_payload())
    httpd.requests = []
    httpd.lock = threading.Lock()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def make_model(server, **kwargs):
    host, port = server.server_address
    kwargs.setdefault("backoff", 0.01)
    return HttpCompletionsModel(f"http://{host}:{port}", "stub-model", **kwargs)


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
