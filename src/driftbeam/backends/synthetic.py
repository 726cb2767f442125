"""Synthetic multi-arm drift model.

A toy generator over a family of "arms". Each arm i carries a per-step
quality drift: after k reasoning steps on arm i the latent quality level is
k * drifts[i], and every emitted token's logprob is drawn
Normal(level, noise_std). The best arm's process keeps rising (favorable
game), the others fall behind — exactly the regime the decoder is supposed
to detect, so the correct answer is known by construction.

Generated text follows a tiny grammar the model itself parses back out of
the prefix (every reply is a pure function of the prefix and the rng
substream):

    consider arm A\n      first step, commits the path to an arm
    deliberate 2\n        one reasoning step per line, numbered
    Answer: A             emitted once the horizon is reached

Tokens are whitespace words; the token count of every sample equals the
length of its logprob list.
"""

from __future__ import annotations

import math
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

# A reply's shape: (text, token count, logprob level, finish reason).
_Shape = tuple[str, int, float, str]


@dataclass(frozen=True, slots=True)
class SyntheticTask:
    """Arm family definition; correct_arm is the argmax of drifts. Each
    error message starts with the name of the field it rejects."""

    arm_count: int
    drifts: tuple[float, ...]
    noise_std: float
    horizon: int

    def __post_init__(self) -> None:
        if self.arm_count < 1 or self.arm_count > len(string.ascii_uppercase):
            raise PreconditionError(f"arm_count must be in [1, 26], got {self.arm_count}")
        if len(self.drifts) != self.arm_count:
            raise PreconditionError("drifts length must equal arm_count")
        if not all(math.isfinite(d) for d in self.drifts):
            raise PreconditionError(f"drifts must be finite, got {self.drifts}")
        if not (self.noise_std >= 0 and math.isfinite(self.noise_std)):
            raise PreconditionError(f"noise_std must be finite >= 0, got {self.noise_std}")
        if self.horizon < 1:
            raise PreconditionError(f"horizon must be >= 1, got {self.horizon}")
        best = max(self.drifts)
        if sum(1 for d in self.drifts if d == best) > 1:
            raise PreconditionError(f"drifts must have one largest value, got {self.drifts}")

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
    """Pure generator over a SyntheticTask.

    A decode asks for the same few replies over and over (every rollout of
    a candidate, every candidate of a path), so the model memoizes each
    reply's shape: its text, token count, logprob level and finish reason,
    keyed by call kind, prefix and limit. At the root the prefix names no
    arm, so an entry holds one shape per arm, picked by `sample_index` for
    a proposal and by one draw for a rollout or completion. A call then
    costs one lookup and its logprob draw. The memo lives for one decode:
    `fresh()` returns a new model over the same task with an empty memo, so
    no two decodes, and no two instance threads, share one. Replies never
    depend on the memo, and a call that raises stores nothing.
    """

    def __init__(self, task: SyntheticTask):
        self.task = task
        self._labels = task.labels
        # (kind, prefix, limit) -> (draws its arm?, one shape, or one per arm)
        self._shapes: dict[tuple[str, str, int], tuple[bool, tuple[_Shape, ...]]] = {}

    def fresh(self) -> "SyntheticModel":
        return SyntheticModel(self.task)

    # -- reply shapes ------------------------------------------------------

    def _parse(self, prefix: str) -> tuple[Optional[int], int, bool]:
        """(arm index or None, reasoning steps done, answered?). A prefix
        naming an unknown arm raises."""
        arm_match = _ARM_RE.search(prefix)
        arm = None
        steps = 0
        if arm_match:
            label = arm_match.group(1)
            if label not in self._labels:
                raise PreconditionError(f"prefix names unknown arm {label!r}")
            arm = self._labels.index(label)
            steps = 1
            numbers = [int(m) for m in _STEP_RE.findall(prefix)]
            if numbers:
                steps = max(numbers)
        return arm, steps, bool(_ANSWER_RE.search(prefix))

    def _build(self, kind: str, prefix: str, limit: int) -> tuple[bool, tuple[_Shape, ...]]:
        """Every shape a `kind` call on `prefix` can reply with, and whether
        it draws its arm: one shape per arm at the root, else one."""
        if limit < 1:
            name = "depth" if kind == "rollout" else "max_tokens"
            raise PreconditionError(f"{name} must be >= 1, got {limit}")
        arm, steps, answered = self._parse(prefix)
        if answered and kind != "rollout":
            return False, (("", 0, 0.0, FINISH_EOS),)
        shapes = []
        for a in range(self.task.arm_count) if arm is None else (arm,):
            label = self._labels[a]
            words, reached, finish, newline = ["Answer:", label], max(steps, 1), FINISH_EOS, False
            if kind == "rollout":
                # The lookahead carries the arm's answer so answer-clustering
                # methods can read it; with depth < 3 there is no room for it.
                words = ["mull"] * (limit - 2) + words if limit >= 3 else ["mull"] * limit
                finish = FINISH_LENGTH
            elif kind == "propose" and arm is None:
                words, finish, newline = ["consider", "arm", label], FINISH_DELIMITER, True
            elif kind == "propose" and steps < self.task.horizon:
                words, reached = ["deliberate", str(steps + 1)], steps + 1
                finish, newline = FINISH_DELIMITER, True
            if len(words) > limit:
                words, finish, newline = words[:limit], FINISH_LENGTH, False
            level = min(reached, self.task.horizon) * self.task.drifts[a]
            shapes.append((" ".join(words) + ("\n" if newline else ""), len(words), level, finish))
        # Root proposals stratify over arms by sample_index, so one expand
        # exposes all of them. A root rollout or completion draws its arm, so
        # a plain completion hits the best arm exactly 1 time in arm_count.
        return arm is None and kind != "propose", tuple(shapes)

    def _draw(self, shape: _Shape, rng: np.random.Generator) -> StepSample:
        text, count, level, finish = shape
        logprobs = rng.normal(level, self.task.noise_std, count).tolist() if count else ()
        return StepSample(text, tuple(logprobs), finish)

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
        key = ("propose", prefix, max_tokens)
        _, shapes = self._shapes.get(key) or self._shapes.setdefault(key, self._build(*key))
        return self._draw(shapes[sample_index % len(shapes)], rng)

    def rollout(self, prefix: str, depth: int, rng: np.random.Generator) -> StepSample:
        key = ("rollout", prefix, depth)
        root, shapes = self._shapes.get(key) or self._shapes.setdefault(key, self._build(*key))
        return self._draw(shapes[int(rng.integers(len(shapes)))] if root else shapes[0], rng)

    def complete(self, prefix: str, max_tokens: int, rng: np.random.Generator) -> StepSample:
        key = ("complete", prefix, max_tokens)
        root, shapes = self._shapes.get(key) or self._shapes.setdefault(key, self._build(*key))
        return self._draw(shapes[int(rng.integers(len(shapes)))] if root else shapes[0], rng)
