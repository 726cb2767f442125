"""OpenAI-compatible text-completions client.

Speaks to POST {base_url}/v1/completions with the JSON body fields
{model, prompt, max_tokens, temperature, logprobs, stop, seed} and reads
back choices[0].text, choices[0].logprobs.token_logprobs and
usage.completion_tokens. Echo stays disabled so the prompt never leaks
into the sample. Tokenization is entirely the server's business: the engine
counts whatever the server reports, nothing more. `base_url` must be an
http:// or https:// URL with a host; a path after the host prefixes the
endpoint.

Transport. Each thread that calls the model keeps one connection open and
sends all of its requests over it. The standard-library `http.client` opens
the connection: the TCP connect, a proxy's CONNECT tunnel and the TLS
handshake, with a CONNECT_TIMEOUT_S limit; after that every read waits up to
`timeout` seconds. It also writes the request head, once per model, into a
buffer. The exchange itself is framed here, on the socket: each request is
one write of that head, its Content-Length and the body, and each reply is
read through one buffered reader that lives as long as the connection. A
reply may be framed by Content-Length, by chunked transfer coding (chunk
extensions and trailers are skipped) or, failing both, by the server closing
the connection; interim 100 Continue replies are skipped. Status and header
lines are capped at 65,536 bytes and a reply at 100 header lines, as in
`http.client`. Before a kept-alive connection is reused, it is checked for a
server-side close: such a socket reads as ready while no reply is due. A
connection is not reused after a reply that said `Connection: close`, an
HTTP/1.0 reply that did not say `Connection: keep-alive`, or a body that ran
to the close; it and a closed connection are replaced by a new one. That
reconnect is not a retry, since the server never saw a request on it. A
thread's connection is closed when it is replaced, when the thread ends and
when the model is dropped.

Retries. A socket error or an HTTP framing error (raised as one of
`http.client`'s own exceptions) closes the connection; it and the statuses
429, 500, 502, 503 and 504 are retried up to MAX_RETRIES times, the k-th
after a sleep of BACKOFF_S * 2**(k-1) seconds. A request that succeeded only
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
MAX_RETRIES = 3
BACKOFF_S = 0.5
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


# http.client's limits: bytes in one status, header or chunk-size line, and
# header lines in one reply.
_MAXLINE = 65536
_MAXHEADERS = 100
_BLANK = (b"\r\n", b"\n", b"")  # a blank line, or EOF, ends a header block
_FRAMING_FIELDS = (b"content-length", b"transfer-encoding", b"connection")


def _read_line(reader, what: str) -> bytes:
    line = reader.readline(_MAXLINE + 1)
    if len(line) > _MAXLINE:
        raise http.client.LineTooLong(what)
    return line


def _read_headers(reader) -> dict:
    """Read a header block; return the first value of each framing field."""
    fields = {}
    count = 0
    while (line := _read_line(reader, "header line")) not in _BLANK:
        count += 1
        if count > _MAXHEADERS:
            raise http.client.HTTPException(f"got more than {_MAXHEADERS} headers")
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name in _FRAMING_FIELDS:
            fields.setdefault(name, value.strip())
    return fields


def _read_status(reader) -> tuple[str, int]:
    line = _read_line(reader, "status line")
    if not line:
        raise http.client.RemoteDisconnected("Remote end closed connection without response")
    text = str(line, "iso-8859-1")
    parts = text.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise http.client.BadStatusLine(text)
    try:
        status = int(parts[1])
    except ValueError:
        raise http.client.BadStatusLine(text) from None
    if not 100 <= status <= 999:
        raise http.client.BadStatusLine(text)
    return parts[0], status


def _read_exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_chunked(reader) -> bytes:
    chunks = []
    while True:
        line = _read_line(reader, "chunk size")
        if not line:
            raise http.client.IncompleteRead(b"".join(chunks))
        try:
            size = int(line.partition(b";")[0], 16)  # an extension follows a ;
        except ValueError:
            size = -1
        if size < 0:
            raise http.client.HTTPException(f"bad chunk size {line[:40]!r}")
        if size == 0:
            break
        chunks.append(_read_exactly(reader, size))
        _read_exactly(reader, 2)  # the CRLF after the chunk
    while _read_line(reader, "trailer line") not in _BLANK:
        pass
    return b"".join(chunks)


def _read_reply(reader) -> tuple[int, bytes, bool]:
    """Read one reply as `http.client.HTTPResponse` would: its status, its
    body, and whether the connection may carry another exchange. Bad
    framing raises one of `http.client`'s exceptions."""
    version, status = _read_status(reader)
    while status == 100:  # an interim reply: skip it
        _read_headers(reader)
        version, status = _read_status(reader)
    if version in ("HTTP/1.0", "HTTP/0.9"):
        http10 = True
    elif version.startswith("HTTP/1."):
        http10 = False
    else:
        raise http.client.UnknownProtocol(version)
    fields = _read_headers(reader)
    connection = fields.get(b"connection", b"").lower()
    keep_alive = b"keep-alive" in connection if http10 else b"close" not in connection
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(reader), keep_alive
    if status < 200 or status in (204, 304):
        return status, b"", keep_alive
    length = fields.get(b"content-length")
    if length is None:
        return status, reader.read(), False  # the body runs to the close
    if not length.isdigit():
        raise http.client.HTTPException(f"bad Content-Length {length[:40]!r}")
    return status, _read_exactly(reader, int(length)), keep_alive


class _Held:
    """One thread's connection and the reader that lives as long as it.
    Letting go of it closes both, so a replaced connection, an ended thread
    or a dropped model leaves no open socket behind for the garbage
    collector."""

    __slots__ = ("conn", "reader")

    def __init__(self, conn: http.client.HTTPConnection):
        self.conn = conn
        self.reader = conn.sock.makefile("rb")

    def __del__(self):
        self.reader.close()
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
        auth_token: Optional[str] = None,
        auth_header: str = "Authorization",
        verify_tls: bool = True,
    ):
        self.base_url = base_url.rstrip("/")
        self._url = split_base_url(self.base_url)
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self._proxy = _proxy_for(self._url)
        # A plain-http proxy takes the absolute URL; anything else the path.
        if self._proxy is not None and self._url.scheme == "http":
            self._target = self.base_url + ENDPOINT
        else:
            self._target = self._url.path + ENDPOINT
        self._tls = _tls_context(verify_tls) if self._url.scheme == "https" else None
        # Each request sends the head http.client writes for this route, then
        # its Content-Length. Raised from None: http.client's errors quote the token.
        sent: list[bytes] = []
        try:
            probe = self._new_connection()
            probe.send = sent.append
            probe.putrequest("POST", self._target)
        except (http.client.InvalidURL, ValueError):
            raise PreconditionError(
                f"backend base_url must be printable ASCII without spaces, got {base_url!r}"
            ) from None
        probe.putheader("Content-Type", "application/json")
        if auth_token is not None:
            # http.client takes a name with inner whitespace, and a CR or LF
            # before a space or tab as a folded line.
            token = f"{AUTH_SCHEME} {auth_token}"
            try:
                if any(c.isspace() for c in auth_header) or "\r" in token or "\n" in token:
                    raise ValueError
                probe.putheader(auth_header, token)
            except ValueError:
                raise PreconditionError(
                    f"backend auth_header {auth_header!r} and its token must make one HTTP header"
                ) from None
        probe.endheaders()
        self._head = sent[0][:-2] + b"Content-Length: "
        # A connection carries one exchange at a time; keep one per thread.
        self._local = threading.local()
        self._replayable = True
        self._lock = threading.Lock()

    @property
    def replayable(self) -> bool:  # type: ignore[override]
        return self._replayable

    def _new_connection(self) -> http.client.HTTPConnection:
        """An unopened connection on this model's route: direct, or to the proxy
        with the absolute target (http) or a CONNECT tunnel (https)."""
        # Ports are always given: http.client would read an IPv6 host's last
        # group as one.
        url = self._url
        port = url.port or (443 if self._tls is not None else 80)
        if self._proxy is None:
            host = (url.hostname, port)
        else:
            host = (self._proxy.hostname, self._proxy.port or 80)
        if self._tls is None:
            return http.client.HTTPConnection(*host, timeout=CONNECT_TIMEOUT_S)
        conn = http.client.HTTPSConnection(*host, timeout=CONNECT_TIMEOUT_S, context=self._tls)
        if self._proxy is not None:
            conn.set_tunnel(url.hostname, port)
        return conn

    def _connect(self) -> http.client.HTTPConnection:
        conn = self._new_connection()
        conn.connect()
        conn.sock.settimeout(self.timeout)
        return conn

    def _connection(self) -> _Held:
        """This thread's connection, opened anew if there is none or the
        server has closed it."""
        held = getattr(self._local, "held", None)
        if held is None or _closed_by_peer(held.conn.sock):
            self._local.held = None
            held = self._local.held = _Held(self._connect())
        return held

    def _post(self, body: dict) -> dict:
        url = self.base_url + ENDPOINT
        data = json.dumps(body).encode("utf-8")
        message = self._head + b"%d\r\n\r\n" % len(data) + data
        attempt = 0
        last_error: Optional[str] = None
        while attempt <= MAX_RETRIES:
            if attempt > 0:
                time.sleep(BACKOFF_S * (2 ** (attempt - 1)))
                with self._lock:
                    self._replayable = False
            try:
                held = self._connection()
                held.conn.sock.sendall(message)
                status, reply, keep_alive = _read_reply(held.reader)
            except (OSError, http.client.HTTPException) as exc:
                self._local.held = None
                last_error = f"{type(exc).__name__}: {exc}"
                attempt += 1
                continue
            if not keep_alive:
                self._local.held = None
            if status in _RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                attempt += 1
                continue
            if status != 200:
                raise ProtocolError(
                    f"{url} returned HTTP {status}: "
                    f"{reply[:200].decode('utf-8', 'replace')}"
                )
            try:
                return json.loads(reply)
            except ValueError as exc:
                raise ProtocolError(f"{url} returned non-JSON body") from exc
        raise TransportError(
            f"{url} failed after {MAX_RETRIES} retries (last: {last_error})"
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
