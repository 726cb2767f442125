"""OpenAI-compatible text-completions client.

Speaks to POST {base_url}/v1/completions with the JSON body fields
{model, prompt, max_tokens, temperature, logprobs, stop, seed} and reads
back choices[0].text, choices[0].logprobs.token_logprobs and
usage.completion_tokens. Echo stays disabled so the prompt never leaks
into the sample. Tokenization is entirely the server's business: the engine
counts whatever the server reports, nothing more.

Transport failures are retried with exponential backoff (3 retries by
default). A request that succeeded only after a retry consumed a different
server-side sample than a clean run would have, so the model drops its
``replayable`` claim the first time that happens.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import numpy as np
import requests

from ..errors import ProtocolError, TransportError
from .base import (
    FINISH_DELIMITER,
    FINISH_EOS,
    FINISH_LENGTH,
    SequenceModel,
    StepSample,
)

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
_SEED_SPAN = 2**31 - 1


class HttpCompletionsModel(SequenceModel):
    """Client for any server exposing the classic completions endpoint."""

    def __init__(
        self,
        base_url: str,
        model: str,
        *,
        temperature: float = 1.0,
        timeout: float = 60.0,
        connect_timeout: float = 10.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        auth_token: Optional[str] = None,
        auth_header: str = "Authorization",
        auth_scheme: str = "Bearer",
        verify_tls: bool = True,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.timeout = (connect_timeout, timeout)
        self.max_retries = max_retries
        self.backoff = backoff
        self.verify_tls = verify_tls
        self._headers = {"Content-Type": "application/json"}
        if auth_token is not None:
            value = f"{auth_scheme} {auth_token}" if auth_scheme else auth_token
            self._headers[auth_header] = value
        # requests.Session is not safe to share across threads; keep one per
        # thread.
        self._local = threading.local()
        self._replayable = True
        self._lock = threading.Lock()

    @property
    def replayable(self) -> bool:  # type: ignore[override]
        return self._replayable

    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = requests.Session()
            self._local.session = session
        return session

    def _post(self, body: dict) -> dict:
        url = self.base_url + "/v1/completions"
        attempt = 0
        last_error: Optional[str] = None
        while attempt <= self.max_retries:
            if attempt > 0:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
                with self._lock:
                    self._replayable = False
            try:
                response = self._session().post(
                    url,
                    json=body,
                    headers=self._headers,
                    timeout=self.timeout,
                    verify=self.verify_tls,
                )
            except requests.RequestException as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                attempt += 1
                continue
            if response.status_code in _RETRYABLE_STATUS:
                last_error = f"HTTP {response.status_code}"
                attempt += 1
                continue
            if response.status_code != 200:
                raise ProtocolError(
                    f"{url} returned HTTP {response.status_code}: {response.text[:200]}"
                )
            try:
                return response.json()
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
        if token_logprobs is None:
            raise ProtocolError("server omitted token_logprobs")
        logprobs = tuple(float(x) for x in token_logprobs)
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
