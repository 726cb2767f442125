"""Abstract sequence-model interface.

A backend proposes single reasoning steps, rolls out short futures for
quality estimation, and completes finished paths. Tokenization is owned by
the backend: the engine trusts each sample's token_logprobs length as the
token count and never tokenizes text itself.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import NumericInputError, PreconditionError, ProtocolError

FINISH_DELIMITER = "delimiter"
FINISH_LENGTH = "length"
FINISH_EOS = "end-of-sequence"
FINISH_REASONS = (FINISH_DELIMITER, FINISH_LENGTH, FINISH_EOS)


_NUMBER_TYPES = frozenset((int, float))


def logprobs_from(values, where: str) -> tuple[float, ...]:
    """A backend's logprob list as floats. Anything but a list of JSON
    numbers (a null, a nested list, a string, a bool) is a ProtocolError
    naming `where`, never a TypeError or a silent coercion."""
    if not (isinstance(values, (list, tuple)) and _NUMBER_TYPES.issuperset(map(type, values))):
        raise ProtocolError(f"{where} must be a list of numbers, got {values!r:.80}")
    try:
        return tuple(map(float, values))
    except OverflowError:  # an integer beyond the float range
        raise ProtocolError(f"{where} holds an integer beyond the float range") from None


@dataclass(frozen=True, slots=True)
class StepSample:
    """One backend emission: text plus per-token natural-log probabilities.
    `quality`, their mean, is scored once here; it is None when there are no
    tokens or their sum overflows, and `quality_of` names which."""

    text: str
    token_logprobs: tuple[float, ...]
    finish_reason: str
    quality: Optional[float] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.finish_reason not in FINISH_REASONS:
            raise PreconditionError(
                f"finish_reason must be one of {FINISH_REASONS}, got {self.finish_reason!r}"
            )
        lps = self.token_logprobs
        try:
            total = math.fsum(lps)
        except (OverflowError, ValueError):  # finite terms overflowing, or inf - inf
            total = math.inf
        # A finite sum proves every term finite (inf and nan propagate); only
        # a sum that is not finite, which finite terms can reach by
        # overflow, needs the per-token look that names the bad token.
        if not math.isfinite(total):
            for i, lp in enumerate(lps):
                if not math.isfinite(lp):
                    raise NumericInputError(f"token_logprobs[{i}] must be finite, got {lp!r}")
        quality = total / len(lps) if lps and math.isfinite(total) else None
        object.__setattr__(self, "quality", quality)


def quality_of(sample: StepSample) -> float:
    """Mean per-token log-probability of a sample — the quality F of the
    continuation it represents, as the sample scored it when built."""
    if sample.quality is None:
        if not sample.token_logprobs:
            raise PreconditionError("cannot score a sample with no tokens")
        raise NumericInputError("token_logprobs sum overflows the float range")
    return sample.quality


class SequenceModel(ABC):
    """Generator interface the decode loops run against.

    Deterministic backends are pure given (prefix, rng substream); the HTTP
    backend documents that server-side nondeterminism breaks replay and
    flags it via `replayable`. `sample_index` is the ordinal of the draw
    within the caller's batch, for backends that stratify proposals.

    Each call gets its own `rng`, seeded for that call's named substream
    and shared with no other call, so what a backend draws from one it kept
    cannot change another call's draws.

    `uses_rng` declares whether the backend draws from `rng` at all. A
    backend that sets it False (the scripted one) is handed `rng=None` for
    its proposals and rollouts, and the decode loop derives no stream for
    them; such a backend must never draw.
    """

    replayable: bool = True
    uses_rng: bool = True

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
        """The instance one decode runs against, called once at its start.

        A backend that keeps state across calls starts that state afresh
        here. The scripted backend rewinds its cursors in place (one
        scripted model serves one decode at a time). The synthetic backend
        returns a new model over the same task with an empty memo of reply
        shapes, so decodes on different threads never share a memo. A
        backend with no per-decode state (HTTP) returns self.
        """
        return self
