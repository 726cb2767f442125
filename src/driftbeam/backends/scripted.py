"""Deterministic replay backend driven by recorded fixtures.

A fixture is a JSONL file, one record per sampled step:

    {"prefix_hash": "<sha256>", "text": "...",
     "logprobs": [...], "finish_reason": "delimiter"}

``prefix_hash`` digests (kind, prefix) so replay is position-independent:
any query with the same kind and prefix pops the next recorded entry for
that hash, in file order. ``fresh()`` rewinds all cursors, which is what makes replayed
runs repeatable end to end.

RecordingModel wraps a live model and appends every response to a fixture
list, so fixtures are captured by running the real thing once.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from ..errors import ProtocolError
from .base import SequenceModel, StepSample

_SEP = "\x1f"


def fixture_key(kind: str, prefix: str) -> str:
    """Stable content address for one (query kind, prefix) pair."""
    digest = hashlib.sha256((kind + _SEP + prefix).encode("utf-8"))
    return digest.hexdigest()


def _record(kind: str, prefix: str, sample: StepSample) -> dict:
    return {
        "prefix_hash": fixture_key(kind, prefix),
        "text": sample.text,
        "logprobs": list(sample.token_logprobs),
        "finish_reason": sample.finish_reason,
    }


def load_fixture(path: Union[str, Path]) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            for field in ("prefix_hash", "text", "logprobs", "finish_reason"):
                if field not in record:
                    raise ProtocolError(f"{path}:{line_no}: missing field {field!r}")
            records.append(record)
    return records


def save_fixture(path: Union[str, Path], records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


class ScriptedModel(SequenceModel):
    """Replays recorded samples; raises ProtocolError on any unscripted query."""

    replayable = True

    def __init__(self, records: Union[str, Path, list[dict]]):
        if isinstance(records, (str, Path)):
            records = load_fixture(records)
        self._queues: dict[str, list[StepSample]] = defaultdict(list)
        for record in records:
            sample = StepSample(
                record["text"],
                tuple(float(x) for x in record["logprobs"]),
                record["finish_reason"],
            )
            self._queues[record["prefix_hash"]].append(sample)
        self._cursors: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def fresh(self) -> "ScriptedModel":
        self._cursors = defaultdict(int)
        return self

    def _next(self, kind: str, prefix: str) -> StepSample:
        key = fixture_key(kind, prefix)
        with self._lock:
            queue = self._queues.get(key)
            position = self._cursors[key]
            if queue is None or position >= len(queue):
                raise ProtocolError(
                    f"no scripted {kind} sample for prefix of {len(prefix)} chars "
                    f"(key {key[:12]}..., consumed {position})"
                )
            self._cursors[key] = position + 1
            return queue[position]

    def propose_step(
        self,
        prefix: str,
        rng: np.random.Generator,
        *,
        max_tokens: int,
        stop: Optional[str] = None,
        sample_index: int = 0,
    ) -> StepSample:
        return self._next("propose", prefix)

    def rollout(self, prefix: str, depth: int, rng: np.random.Generator) -> StepSample:
        return self._next("rollout", prefix)

    def complete(self, prefix: str, max_tokens: int, rng: np.random.Generator) -> StepSample:
        return self._next("complete", prefix)


class RecordingModel(SequenceModel):
    """Pass-through wrapper that captures fixture records from a live model."""

    def __init__(self, inner: SequenceModel):
        self.inner = inner
        self.records: list[dict] = []

    @property
    def replayable(self) -> bool:  # type: ignore[override]
        return self.inner.replayable

    def fresh(self) -> "RecordingModel":
        self.inner = self.inner.fresh()
        return self

    def save(self, path: Union[str, Path]) -> None:
        save_fixture(path, self.records)

    def propose_step(
        self,
        prefix: str,
        rng: np.random.Generator,
        *,
        max_tokens: int,
        stop: Optional[str] = None,
        sample_index: int = 0,
    ) -> StepSample:
        sample = self.inner.propose_step(
            prefix, rng, max_tokens=max_tokens, stop=stop, sample_index=sample_index
        )
        self.records.append(_record("propose", prefix, sample))
        return sample

    def rollout(self, prefix: str, depth: int, rng: np.random.Generator) -> StepSample:
        sample = self.inner.rollout(prefix, depth, rng)
        self.records.append(_record("rollout", prefix, sample))
        return sample

    def complete(self, prefix: str, max_tokens: int, rng: np.random.Generator) -> StepSample:
        sample = self.inner.complete(prefix, max_tokens, rng)
        self.records.append(_record("complete", prefix, sample))
        return sample
