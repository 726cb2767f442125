"""OpenAI-compatible text-completions client.

Speaks to POST {base_url}/v1/completions with the JSON body fields
{model, prompt, max_tokens, temperature, logprobs, stop, seed} and reads
back choices[0].text, choices[0].logprobs.token_logprobs and
usage.completion_tokens. Echo stays disabled so the prompt never leaks
into the sample. Tokenization is entirely the server's business: the engine
counts whatever the server reports, nothing more. `base_url` must be an
http:// or https:// URL with a host; a path after the host prefixes the
endpoint.

Transport. Each thread that calls the model keeps one standard-library
`http.client` connection open and sends all of its requests over it. A
connection opens with a CONNECT_TIMEOUT_S limit on the connect (and the TLS
handshake); after that every read waits up to `timeout` seconds. Before a
kept-alive connection is reused, it is checked for a server-side close:
such a socket reads as ready while no reply is due. A closed connection, or
one whose last reply said `Connection: close`, is replaced by a new one;
that reconnect is not a retry, since the server never saw a request on it.
A thread's connection is closed when it is replaced, when the thread ends
and when the model is dropped.

Retries. A socket error or an HTTP framing error closes the connection;
it and the statuses 429, 500, 502, 503 and 504 are retried with
exponential backoff (3 retries by default). A request that succeeded only
after a retry consumed a different server-side sample than a clean run
would have, so the model drops its ``replayable`` claim the first time that
happens. Any other status is a ProtocolError naming it; redirects (3xx) are
not followed.

TLS. With `verify_tls` the server certificate and host name are checked
against the system trust store (`ssl.create_default_context`; the
`SSL_CERT_FILE` and `SSL_CERT_DIR` variables point it elsewhere). Without
it neither is checked. A process builds one TLS context per `verify_tls`
setting and every https model shares it, so the trust store is read when
the first https model with that setting is made; later changes to those
variables do not reach it.

Proxies. The standard proxy variables choose the route, read when the model
is made: `http_proxy`/`HTTP_PROXY` for an http base URL and
`https_proxy`/`HTTPS_PROXY` for an https one, unless `no_proxy`/`NO_PROXY`
names the host. A plain-http request goes to the proxy with the absolute
URL as its target; an https one is tunnelled through it with CONNECT.
The proxy itself is spoken to in plain HTTP, and credentials in its URL
are not sent.
"""

from __future__ import annotations

import functools
import http.client
import json
import select
import ssl
import threading
import time
from typing import Optional
from urllib.parse import SplitResult, urlsplit

import numpy as np

from ..errors import PreconditionError, ProtocolError, TransportError
from .base import (
    FINISH_DELIMITER,
    FINISH_EOS,
    FINISH_LENGTH,
    SequenceModel,
    StepSample,
    logprobs_from,
)

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
_SEED_SPAN = 2**31 - 1
CONNECT_TIMEOUT_S = 10.0
AUTH_SCHEME = "Bearer"
ENDPOINT = "/v1/completions"


def split_base_url(base_url: str) -> SplitResult:
    """`base_url` split into its parts, or a PreconditionError when it is not
    an http:// or https:// URL with a host (and a numeric port, if any)."""
    parts = urlsplit(base_url)
    try:
        valid = parts.scheme in ("http", "https") and bool(parts.hostname)
        parts.port  # raises on a port that is not a number in range
    except ValueError:
        valid = False
    if not valid:
        raise PreconditionError(
            f"backend base_url must be an http:// or https:// URL with a host, got {base_url!r}"
        )
    return parts


def _proxy_for(parts: SplitResult) -> Optional[SplitResult]:
    """The proxy the environment names for this URL, if any."""
    # Imported here, not at the top: urllib.request takes about as long to
    # import as the rest of this module, and only an HTTP run needs it.
    from urllib.request import getproxies, proxy_bypass

    proxy = getproxies().get(parts.scheme)
    if not proxy or proxy_bypass(parts.netloc.rpartition("@")[2]):
        return None
    return urlsplit(proxy if "://" in proxy else "http://" + proxy)


@functools.cache
def _tls_context(verify: bool) -> ssl.SSLContext:
    # Loading the trust store takes tens of milliseconds, and the runner
    # makes one model per task, so every model with this setting shares one.
    context = ssl.create_default_context()
    if not verify:
        context.check_hostname = False
        context.verify_mode = ssl.CERT_NONE
    return context


def _closed_by_peer(sock) -> bool:
    # An idle kept-alive socket has nothing to read unless the server has
    # closed it (or broke the protocol); either way it is not reusable.
    return bool(select.select([sock], [], [], 0)[0])


class _Held:
    """One thread's connection. Letting go of it closes the socket, so a
    replaced connection, an ended thread or a dropped model leaves no open
    socket behind for the garbage collector."""

    __slots__ = ("conn",)

    def __init__(self, conn: http.client.HTTPConnection):
        self.conn = conn

    def __del__(self):
        self.conn.close()


class HttpCompletionsModel(SequenceModel):
    """Client for any server exposing the classic completions endpoint."""

    def __init__(
        self,
        base_url: str,
        model: str,
        *,
        temperature: float = 1.0,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        auth_token: Optional[str] = None,
        auth_header: str = "Authorization",
        verify_tls: bool = True,
    ):
        self.base_url = base_url.rstrip("/")
        self._url = split_base_url(self.base_url)
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._headers = {"Content-Type": "application/json"}
        if auth_token is not None:
            self._headers[auth_header] = f"{AUTH_SCHEME} {auth_token}"
        self._proxy = _proxy_for(self._url)
        # A plain-http proxy takes the absolute URL; anything else the path.
        if self._proxy is not None and self._url.scheme == "http":
            self._target = self.base_url + ENDPOINT
        else:
            self._target = self._url.path + ENDPOINT
        self._tls = _tls_context(verify_tls) if self._url.scheme == "https" else None
        # An http.client connection carries one exchange at a time; keep one
        # per thread.
        self._local = threading.local()
        self._replayable = True
        self._lock = threading.Lock()

    @property
    def replayable(self) -> bool:  # type: ignore[override]
        return self._replayable

    def _connect(self) -> http.client.HTTPConnection:
        # Ports are always given: http.client would read an IPv6 host's last
        # group as one.
        url = self._url
        port = url.port or (443 if self._tls is not None else 80)
        if self._proxy is None:
            host = (url.hostname, port)
        else:
            host = (self._proxy.hostname, self._proxy.port or 80)
        if self._tls is None:
            conn = http.client.HTTPConnection(*host, timeout=CONNECT_TIMEOUT_S)
        else:
            conn = http.client.HTTPSConnection(*host, timeout=CONNECT_TIMEOUT_S,
                                               context=self._tls)
            if self._proxy is not None:
                conn.set_tunnel(url.hostname, port)
        conn.connect()
        conn.sock.settimeout(self.timeout)
        return conn

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, opened anew if there is none or the
        server has closed it."""
        held = getattr(self._local, "held", None)
        if held is None or held.conn.sock is None or _closed_by_peer(held.conn.sock):
            self._local.held = None
            held = self._local.held = _Held(self._connect())
        return held.conn

    def _post(self, body: dict) -> dict:
        url = self.base_url + ENDPOINT
        data = json.dumps(body).encode("utf-8")
        attempt = 0
        last_error: Optional[str] = None
        while attempt <= self.max_retries:
            if attempt > 0:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
                with self._lock:
                    self._replayable = False
            try:
                conn = self._connection()
                conn.request("POST", self._target, data, self._headers)
                response = conn.getresponse()
                reply = response.read()
            except (OSError, http.client.HTTPException) as exc:
                self._local.held = None
                last_error = f"{type(exc).__name__}: {exc}"
                attempt += 1
                continue
            if response.status in _RETRYABLE_STATUS:
                last_error = f"HTTP {response.status}"
                attempt += 1
                continue
            if response.status != 200:
                raise ProtocolError(
                    f"{url} returned HTTP {response.status}: "
                    f"{reply[:200].decode('utf-8', 'replace')}"
                )
            try:
                return json.loads(reply)
            except ValueError as exc:
                raise ProtocolError(f"{url} returned non-JSON body") from exc
        raise TransportError(
            f"{url} failed after {self.max_retries} retries (last: {last_error})"
        )

    def _parse(self, payload: dict, finish_on_stop: str) -> StepSample:
        try:
            choice = payload["choices"][0]
            text = choice["text"]
            token_logprobs = choice["logprobs"]["token_logprobs"]
            completion_tokens = payload["usage"]["completion_tokens"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completions response: missing {exc}") from exc
        logprobs = logprobs_from(token_logprobs, "token_logprobs")
        if completion_tokens != len(logprobs):
            raise ProtocolError(
                f"usage.completion_tokens={completion_tokens} disagrees with "
                f"{len(logprobs)} token logprobs"
            )
        raw_finish = choice.get("finish_reason")
        if raw_finish == "length":
            finish = FINISH_LENGTH
        elif raw_finish == "stop":
            finish = finish_on_stop
        else:
            raise ProtocolError(f"unknown finish_reason {raw_finish!r}")
        return StepSample(str(text), logprobs, finish)

    def _request(
        self,
        prefix: str,
        max_tokens: int,
        stop: Optional[str],
        rng: np.random.Generator,
    ) -> StepSample:
        # The server's sampler is seeded from our substream, so a rerun with
        # the same substream asks for the same sample.
        body = {
            "model": self.model,
            "prompt": prefix,
            "max_tokens": max_tokens,
            "temperature": self.temperature,
            "logprobs": 0,
            "stop": stop,
            "seed": int(rng.integers(_SEED_SPAN)),
        }
        finish_on_stop = FINISH_DELIMITER if stop is not None else FINISH_EOS
        return self._parse(self._post(body), finish_on_stop)

    def propose_step(
        self,
        prefix: str,
        rng: np.random.Generator,
        *,
        max_tokens: int,
        stop: Optional[str] = None,
        sample_index: int = 0,
    ) -> StepSample:
        return self._request(prefix, max_tokens, stop, rng)

    def rollout(self, prefix: str, depth: int, rng: np.random.Generator) -> StepSample:
        return self._request(prefix, depth, None, rng)

    def complete(self, prefix: str, max_tokens: int, rng: np.random.Generator) -> StepSample:
        return self._request(prefix, max_tokens, None, rng)
