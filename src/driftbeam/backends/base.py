"""Abstract sequence-model interface.

A backend proposes single reasoning steps, rolls out short futures for
quality estimation, and completes finished paths. Tokenization is owned by
the backend: the engine trusts each sample's token_logprobs length as the
token count and never tokenizes text itself.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import NumericInputError, PreconditionError
from ..process import finite_mean

FINISH_DELIMITER = "delimiter"
FINISH_LENGTH = "length"
FINISH_EOS = "end-of-sequence"
FINISH_REASONS = (FINISH_DELIMITER, FINISH_LENGTH, FINISH_EOS)


@dataclass(frozen=True, slots=True)
class StepSample:
    """One backend emission: text plus per-token natural-log probabilities."""

    text: str
    token_logprobs: tuple[float, ...]
    finish_reason: str

    def __post_init__(self) -> None:
        if self.finish_reason not in FINISH_REASONS:
            raise PreconditionError(
                f"finish_reason must be one of {FINISH_REASONS}, got {self.finish_reason!r}"
            )
        for i, lp in enumerate(self.token_logprobs):
            if not math.isfinite(lp):
                raise NumericInputError(f"token_logprobs[{i}] must be finite, got {lp!r}")

    @property
    def token_count(self) -> int:
        return len(self.token_logprobs)


def quality_of(sample: StepSample) -> float:
    """Mean per-token log-probability of a sample — the quality F of the
    continuation it represents."""
    if not sample.token_logprobs:
        raise PreconditionError("cannot score a sample with no tokens")
    return finite_mean(sample.token_logprobs, "token_logprobs")


class SequenceModel(ABC):
    """Generator interface the decode loops run against.

    Deterministic backends are pure given (prefix, rng substream); the HTTP
    backend documents that server-side nondeterminism breaks replay and
    flags it via `replayable`. `sample_index` is the ordinal of the draw
    within the caller's batch, for backends that stratify proposals.
    """

    replayable: bool = True

    @abstractmethod
    def propose_step(
        self,
        prefix: str,
        rng: np.random.Generator,
        *,
        max_tokens: int,
        stop: Optional[str] = None,
        sample_index: int = 0,
    ) -> StepSample:
        """Propose one step continuation of `prefix`."""

    @abstractmethod
    def rollout(self, prefix: str, depth: int, rng: np.random.Generator) -> StepSample:
        """Roll out up to `depth` tokens of plain continuation for scoring."""

    @abstractmethod
    def complete(self, prefix: str, max_tokens: int, rng: np.random.Generator) -> StepSample:
        """Finish `prefix` autoregressively, up to `max_tokens` tokens."""

    def fresh(self) -> "SequenceModel":
        """A reset instance for a new decode; stateless backends return self."""
        return self
