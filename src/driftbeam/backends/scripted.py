"""Deterministic replay backend driven by recorded fixtures.

A fixture is a JSONL file, one record per sampled step:

    {"prefix_hash": "<sha256>", "text": "...",
     "logprobs": [...], "finish_reason": "delimiter"}

``prefix_hash`` digests (kind, prefix) so replay is position-independent:
any query with the same kind and prefix pops the next recorded entry for
that hash, in file order. ``parse_fixture`` turns the records into one
immutable queue per hash, which any number of models can share; each model
keeps its own cursors, and ``fresh()`` gives the decode that calls it a new,
rewound cursor map, which is what makes replayed runs repeatable end to end.
The cursor map is keyed by (kind, prefix) and holds that pair's hash, queue
and position, so a decode hashes each (kind, prefix) it asks about once, on
its first query. The model draws no randomness: it declares
``uses_rng = False`` and ignores the ``rng`` it is handed.

RecordingModel wraps a live model and appends every response to a fixture
list, so fixtures are captured by running the real thing once.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Optional, Union

import numpy as np

from ..errors import NumericInputError, PreconditionError, ProtocolError
from ..metrics import read_json_lines
from .base import SequenceModel, StepSample, logprobs_from

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
    for line_no, _, record in read_json_lines(path, ProtocolError):
        if not isinstance(record, dict):
            raise ProtocolError(f"{path}:{line_no}: not a JSON object")
        for field in ("prefix_hash", "text", "logprobs", "finish_reason"):
            if field not in record:
                raise ProtocolError(f"{path}:{line_no}: missing field {field!r}")
        records.append(record)
    return records


def parse_fixture(records: Iterable[dict]) -> Mapping[str, tuple[StepSample, ...]]:
    """Fixture records as one read-only queue of samples per prefix hash,
    in record order. A malformed record is a ProtocolError naming its index."""
    queues: dict[str, list[StepSample]] = {}
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise ProtocolError(f"fixture record {index}: not a JSON object")
        try:
            prefix_hash, text = record["prefix_hash"], record["text"]
            logprobs, finish_reason = record["logprobs"], record["finish_reason"]
        except KeyError as exc:
            raise ProtocolError(f"fixture record {index}: missing field {exc}") from None
        for field, value in (("prefix_hash", prefix_hash), ("text", text)):
            if not isinstance(value, str):
                raise ProtocolError(
                    f"fixture record {index}: {field} must be a string, got {value!r:.80}"
                )
        try:
            sample = StepSample(text, logprobs_from(logprobs, "logprobs"), finish_reason)
        except (ProtocolError, NumericInputError, PreconditionError) as exc:
            raise ProtocolError(f"fixture record {index}: {exc}") from exc
        queues.setdefault(prefix_hash, []).append(sample)
    return MappingProxyType({key: tuple(queue) for key, queue in queues.items()})


def save_fixture(path: Union[str, Path], records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


class ScriptedModel(SequenceModel):
    """Replays recorded samples; raises ProtocolError on any unscripted query.

    `records` is a fixture path, a list of fixture records, or the queues
    `parse_fixture` made of them; queues are shared, not copied. A model
    serves one decode at a time.
    """

    uses_rng = False

    def __init__(
        self,
        records: Union[str, Path, list[dict], Mapping[str, tuple[StepSample, ...]]],
    ):
        if isinstance(records, (str, Path)):
            records = load_fixture(records)
        if not isinstance(records, Mapping):
            records = parse_fixture(records)
        self._queues = records
        # (kind, prefix) -> [fixture key, queue, next position]
        self._cursors: dict[tuple[str, str], list] = {}

    def fresh(self) -> "ScriptedModel":
        self._cursors = {}
        return self

    def _next(self, kind: str, prefix: str) -> StepSample:
        cursor = self._cursors.get((kind, prefix))
        if cursor is None:
            key = fixture_key(kind, prefix)
            cursor = self._cursors[kind, prefix] = [key, self._queues.get(key, ()), 0]
        key, queue, position = cursor
        if position >= len(queue):
            raise ProtocolError(
                f"no scripted {kind} sample for prefix of {len(prefix)} chars "
                f"(key {key[:12]}..., consumed {position})"
            )
        cursor[2] = position + 1
        return queue[position]

    def propose_step(
        self,
        prefix: str,
        rng: Optional[np.random.Generator],
        *,
        max_tokens: int,
        stop: Optional[str] = None,
        sample_index: int = 0,
    ) -> StepSample:
        return self._next("propose", prefix)

    def rollout(self, prefix: str, depth: int, rng: Optional[np.random.Generator]) -> StepSample:
        return self._next("rollout", prefix)

    def complete(
        self, prefix: str, max_tokens: int, rng: Optional[np.random.Generator]
    ) -> StepSample:
        return self._next("complete", prefix)


class RecordingModel(SequenceModel):
    """Pass-through wrapper that captures fixture records from a live model."""

    def __init__(self, inner: SequenceModel):
        self.inner = inner
        self.records: list[dict] = []

    @property
    def replayable(self) -> bool:  # type: ignore[override]
        return self.inner.replayable

    @property
    def uses_rng(self) -> bool:  # type: ignore[override]
        return self.inner.uses_rng

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
