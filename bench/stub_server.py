"""Stub completions server for the `http-loopback` benchmark workload.

Serves POST /v1/completions in the shape `HttpCompletionsModel` reads, and
GET /stats with the number of completions requests received so far (the
benchmark compares it with the client's own call count to measure retries).

Replies follow the synthetic arm grammar, so decodes can be graded:

    consider arm A        first step, commits the path to an arm
    deliberate 2          one reasoning step per line, up to the horizon
    Answer: A             once the horizon is reached

A request with a `stop` string gets one step; a request without one gets
`mull` words up to the horizon and then the answer. A first step names the
best arm 3 times in 4. A client cannot tell the server which candidate it
is asking for, so the server cannot spread its first steps over the arms
the way `SyntheticModel` does; with even odds, all 4 first candidates of a
task would miss the best arm 1 time in 16, and accuracy would swing from
seed to seed.

Each reply is a pure function of (prompt, seed, max_tokens, stop). The best
arm of a case is a hash of the prompt's first line (`best_label`), so the
benchmark knows the gold answer without asking the server.

Run: python3 bench/stub_server.py
It prints its port on stdout and serves until its stdin closes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LABELS = "AB"
DRIFT = 0.2
BEST_ARM_ODDS = 0.75
NOISE_STD = 0.2
HORIZON = 6
SERVICE_S = 0.002  # fixed service time of every completions request

_ARM_RE = re.compile(r"consider arm ([A-Z])")
_STEP_RE = re.compile(r"deliberate (\d+)")


def best_label(prompt: str) -> str:
    """Gold arm of the case whose prompt starts with `prompt`'s first line."""
    first_line = prompt.split("\n", 1)[0]
    digest = hashlib.sha256(first_line.encode("utf-8")).digest()
    return LABELS[digest[0] % len(LABELS)]


def _level(best: str, label: str, steps: int) -> float:
    drift = DRIFT if label == best else -DRIFT
    return min(steps, HORIZON) * drift


def reply(prompt: str, seed: int, max_tokens: int, stop) -> tuple[list[str], list[float], str]:
    """(words, token logprobs, finish_reason) for one completions request."""
    rng = random.Random(seed)
    best = best_label(prompt)
    arm_match = _ARM_RE.search(prompt)
    label = arm_match.group(1) if arm_match else None
    steps = max([1] + [int(n) for n in _STEP_RE.findall(prompt)]) if label else 0
    if stop is not None:
        if "Answer:" in prompt:
            words, level = [], 0.0
        elif label is None:
            if rng.random() >= BEST_ARM_ODDS:
                label = rng.choice([other for other in LABELS if other != best])
            else:
                label = best
            words, level = ["consider", "arm", label], _level(best, label, 1)
        elif steps >= HORIZON:
            words, level = ["Answer:", label], _level(best, label, steps)
        else:
            words, level = ["deliberate", str(steps + 1)], _level(best, label, steps + 1)
    else:
        if label is None:
            label = LABELS[rng.randrange(len(LABELS))]
            steps = 1
        words = ["mull"] * (HORIZON - steps) + ["Answer:", label]
        level = _level(best, label, steps)
    finish = "stop"
    if len(words) > max_tokens:
        words, finish = words[:max_tokens], "length"
    return words, [rng.gauss(level, NOISE_STD) for _ in words], finish


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this, each small reply waits out the client's delayed ACK
    # (about 40 ms) and that stall dominates the workload.
    disable_nagle_algorithm = True
    # Idle keep-alive connections give their slot back after this long.
    timeout = 30

    def log_message(self, *args):
        pass

    def _send(self, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path != "/stats":
            self.send_error(404)
            return
        with self.server.lock:
            count = self.server.requests
        self._send({"requests": count})

    def do_POST(self):
        if self.path != "/v1/completions":
            self.send_error(404)
            return
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        with self.server.lock:
            self.server.requests += 1
        time.sleep(SERVICE_S)
        words, logprobs, finish = reply(
            body["prompt"], int(body["seed"]), int(body["max_tokens"]), body.get("stop")
        )
        self._send({
            "choices": [{
                "text": " ".join(words),
                "finish_reason": finish,
                "logprobs": {"token_logprobs": logprobs},
            }],
            "usage": {"completion_tokens": len(logprobs)},
        })


class StubServer(ThreadingHTTPServer):
    """Thread per connection, with at most one connection per CPU."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.requests = 0
        self.lock = threading.Lock()
        self.slots = threading.BoundedSemaphore(len(os.sched_getaffinity(0)))

    def process_request(self, request, client_address):
        self.slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


def main() -> None:
    server = StubServer()
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(server.server_address[1], flush=True)
    # The parent holds our stdin open for as long as it needs us.
    sys.stdin.buffer.read()
    os._exit(0)


if __name__ == "__main__":
    main()
