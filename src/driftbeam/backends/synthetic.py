"""Synthetic multi-arm drift model.

A toy generator over a family of "arms". Each arm i carries a per-step
quality drift: after k reasoning steps on arm i the latent quality level is
k * drifts[i], and every emitted token's logprob is drawn
Normal(level, noise_std). The best arm's process keeps rising (favorable
game), the others fall behind — exactly the regime the decoder is supposed
to detect, so the correct answer is known by construction.

Generated text follows a tiny grammar the model itself parses back out of
the prefix (the model is stateless and pure given the rng substream):

    consider arm A\n      first step, commits the path to an arm
    deliberate 2\n        one reasoning step per line, numbered
    Answer: A             emitted once the horizon is reached

Tokens are whitespace words; the token count of every sample equals the
length of its logprob list.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import PreconditionError
from .base import (
    FINISH_DELIMITER,
    FINISH_EOS,
    FINISH_LENGTH,
    SequenceModel,
    StepSample,
)

_ARM_RE = re.compile(r"consider arm ([A-Z])")
_STEP_RE = re.compile(r"deliberate (\d+)")
_ANSWER_RE = re.compile(r"Answer:")


@dataclass(frozen=True, slots=True)
class SyntheticTask:
    """Arm family definition; correct_arm is the argmax of drifts."""

    arm_count: int
    drifts: tuple[float, ...]
    noise_std: float
    horizon: int

    def __post_init__(self) -> None:
        if self.arm_count < 1 or self.arm_count > len(string.ascii_uppercase):
            raise PreconditionError(f"arm_count must be in [1, 26], got {self.arm_count}")
        if len(self.drifts) != self.arm_count:
            raise PreconditionError("drifts length must equal arm_count")
        if self.noise_std < 0:
            raise PreconditionError("noise_std must be >= 0")
        if self.horizon < 1:
            raise PreconditionError("horizon must be >= 1")
        best = max(self.drifts)
        if sum(1 for d in self.drifts if d == best) > 1:
            raise PreconditionError("tied maximal drifts are forbidden")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(string.ascii_uppercase[: self.arm_count])

    @property
    def correct_arm(self) -> int:
        return max(range(self.arm_count), key=lambda i: self.drifts[i])

    @property
    def gold_label(self) -> str:
        return self.labels[self.correct_arm]

    def permuted(self, permutation: Sequence[int]) -> "SyntheticTask":
        """Same family with drifts reassigned among arms (per-instance gold)."""
        if sorted(permutation) != list(range(self.arm_count)):
            raise PreconditionError("permutation must reorder range(arm_count)")
        return SyntheticTask(
            arm_count=self.arm_count,
            drifts=tuple(self.drifts[p] for p in permutation),
            noise_std=self.noise_std,
            horizon=self.horizon,
        )

    @classmethod
    def two_arm(
        cls, drift: float = 0.05, noise_std: float = 0.2, horizon: int = 6
    ) -> "SyntheticTask":
        return cls(arm_count=2, drifts=(drift, -drift), noise_std=noise_std, horizon=horizon)


class SyntheticModel(SequenceModel):
    """Pure generator over a SyntheticTask."""

    replayable = True

    def __init__(self, task: SyntheticTask):
        self.task = task

    # -- prefix parsing ----------------------------------------------------

    def _parse(self, prefix: str) -> tuple[Optional[int], int, bool]:
        """(arm index or None, reasoning steps done, answered?)."""
        arm_match = _ARM_RE.search(prefix)
        arm = None
        steps = 0
        if arm_match:
            label = arm_match.group(1)
            if label not in self.task.labels:
                raise PreconditionError(f"prefix names unknown arm {label!r}")
            arm = self.task.labels.index(label)
            steps = 1
            numbers = [int(m) for m in _STEP_RE.findall(prefix)]
            if numbers:
                steps = max(numbers)
        return arm, steps, bool(_ANSWER_RE.search(prefix))

    def _level(self, arm: int, steps: int) -> float:
        return min(steps, self.task.horizon) * self.task.drifts[arm]

    def _emit(
        self,
        words: list[str],
        level: float,
        rng: np.random.Generator,
        finish: str,
        max_tokens: int,
        trailing_newline: bool = False,
    ) -> StepSample:
        if max_tokens < 1:
            raise PreconditionError(f"max_tokens must be >= 1, got {max_tokens}")
        if len(words) > max_tokens:
            words = words[:max_tokens]
            finish = FINISH_LENGTH
            trailing_newline = False
        logprobs = rng.normal(level, self.task.noise_std, size=len(words))
        text = " ".join(words) + ("\n" if trailing_newline else "")
        return StepSample(text, tuple(float(x) for x in logprobs), finish)

    # -- SequenceModel interface -------------------------------------------

    def propose_step(
        self,
        prefix: str,
        rng: np.random.Generator,
        *,
        max_tokens: int,
        stop: Optional[str] = None,
        sample_index: int = 0,
    ) -> StepSample:
        arm, steps, answered = self._parse(prefix)
        if answered:
            return StepSample("", (), FINISH_EOS)
        if arm is None:
            # Root proposals stratify over arms so one expand exposes all of
            # them; randomness enters only through the rollout logprobs.
            arm = sample_index % self.task.arm_count
            words = ["consider", "arm", self.task.labels[arm]]
            return self._emit(words, self._level(arm, 1), rng, FINISH_DELIMITER,
                              max_tokens, trailing_newline=True)
        if steps >= self.task.horizon:
            words = ["Answer:", self.task.labels[arm]]
            return self._emit(words, self._level(arm, steps), rng, FINISH_EOS, max_tokens)
        words = ["deliberate", str(steps + 1)]
        return self._emit(words, self._level(arm, steps + 1), rng, FINISH_DELIMITER,
                          max_tokens, trailing_newline=True)

    def rollout(self, prefix: str, depth: int, rng: np.random.Generator) -> StepSample:
        if depth < 1:
            raise PreconditionError(f"depth must be >= 1, got {depth}")
        arm, steps, _ = self._parse(prefix)
        if arm is None:
            arm = int(rng.integers(self.task.arm_count))
            steps = 1
        label = self.task.labels[arm]
        # The lookahead carries the arm's answer so answer-clustering methods
        # can read it; with depth < 3 there is no room for the answer tokens.
        if depth >= 3:
            words = ["mull"] * (depth - 2) + ["Answer:", label]
        else:
            words = ["mull"] * depth
        return self._emit(words, self._level(arm, max(steps, 1)), rng, FINISH_LENGTH, depth)

    def complete(self, prefix: str, max_tokens: int, rng: np.random.Generator) -> StepSample:
        arm, steps, answered = self._parse(prefix)
        if answered:
            return StepSample("", (), FINISH_EOS)
        if arm is None:
            # Plain autoregressive completion picks an arm in one draw, so
            # the single-sample hit rate is exactly 1/arm_count.
            arm = int(rng.integers(self.task.arm_count))
            steps = 1
        words = ["Answer:", self.task.labels[arm]]
        return self._emit(words, self._level(arm, max(steps, 1)), rng, FINISH_EOS, max_tokens)
