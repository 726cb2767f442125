"""Foresight beam decoding driven by drift estimates.

The loop treats the evolving path quality as a stochastic process: every
candidate step is scored by the predictable (drift) part of its foresight
rollouts, the beam is resampled by softmax weights over those drifts,
lagging paths are pruned once their deficit crosses an adaptive threshold,
and deliberation halts when the best available drift is statistically
indistinguishable from zero. Survivors are completed autoregressively and
majority-voted.

Each iteration runs expand -> score and stop -> select -> prune, and the
loop exits after the iteration in which the stop fired (the converged
step's selection still lands in the beam). Every intermediate quantity is
emitted on an append-only trace (one JSON-ready dict per event) so runs can
be audited or re-plotted without rerunning the model.

Determinism: all randomness flows through named substreams of the config
seed, derived per (kind, step, path, candidate, sample), so the result is
a pure function of the config and the backend's replies.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .backends.base import (
    FINISH_EOS,
    SequenceModel,
    quality_of,
)
from .errors import (
    DecodeStalledError,
    NumericInputError,
    PreconditionError,
    TransportError,
)
from .process import (
    AdaptiveThreshold,
    QualityTrajectory,
    adaptive_threshold,
    deficit,
    estimate_predictable_advantage,
    finite_mean,
    has_converged,
    should_prune,
)

# Substream kind tags. Every random draw in a run is keyed by one of these
# plus its position, so any two draws are independent by construction.
TAG_PROPOSE = 1
TAG_ROLLOUT = 2
TAG_COMPLETE = 3
TAG_SELECT = 4
TAG_INSTANCE = 5
TAG_TASK = 6

DEFAULT_ANSWER_PATTERN = r"(?i)\banswer\s*[:=]\s*([^\n]+)"

STOP_CONVERGED = "converged"
STOP_MAX_STEPS = "max_steps"
STOP_EXHAUSTED = "exhausted"


def substream(seed: int, *fields: int) -> np.random.Generator:
    """Independent generator for one named position in the run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, *fields]))


def epsilon_enabled(epsilon_stop: Optional[float]) -> bool:
    """Convergence stopping is off when epsilon_stop is None or -inf."""
    return epsilon_stop is not None and epsilon_stop != -math.inf


@dataclass(frozen=True, slots=True)
class DecodeConfig:
    """Knobs for one decode. Field names follow the loop's vocabulary:
    beam_size is M, rollouts_per_candidate is N (candidate steps proposed
    per active path, each carrying rollout_samples foresight rollouts)."""

    beam_size: int = 8
    rollouts_per_candidate: int = 8
    temperature: float = 1.0
    lambda1: float = 0.8
    epsilon_stop: Optional[float] = 1e-6
    max_steps: int = 16
    rollout_depth: int = 32
    max_step_tokens: int = 64
    seed: int = 0
    step_delimiter: str = "\n"
    answer_pattern: str = DEFAULT_ANSWER_PATTERN
    rollout_samples: int = 1
    max_completion_tokens: int = 256
    selection: str = "softmax"
    prune_enabled: bool = True

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise PreconditionError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.rollouts_per_candidate < 1:
            raise PreconditionError(
                f"rollouts_per_candidate must be >= 1, got {self.rollouts_per_candidate}"
            )
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise PreconditionError(f"temperature must be finite > 0, got {self.temperature}")
        if self.lambda1 < 0 or not math.isfinite(self.lambda1):
            raise PreconditionError(f"lambda1 must be finite >= 0, got {self.lambda1}")
        if epsilon_enabled(self.epsilon_stop):
            if not (self.epsilon_stop >= 0 and math.isfinite(self.epsilon_stop)):
                raise PreconditionError(
                    f"epsilon_stop must be finite >= 0, None, or -inf, got {self.epsilon_stop}"
                )
        if self.max_steps < 1:
            raise PreconditionError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.rollout_depth < 1:
            raise PreconditionError(f"rollout_depth must be >= 1, got {self.rollout_depth}")
        if self.max_step_tokens < 1:
            raise PreconditionError(f"max_step_tokens must be >= 1, got {self.max_step_tokens}")
        if not (0 <= self.seed < 2**64):
            raise PreconditionError("seed must fit in 64 unsigned bits")
        if not self.step_delimiter:
            raise PreconditionError("step_delimiter must be non-empty")
        re.compile(self.answer_pattern)
        if not (1 <= self.rollout_samples <= self.rollouts_per_candidate):
            raise PreconditionError(
                "rollout_samples must be in [1, rollouts_per_candidate], got "
                f"{self.rollout_samples}"
            )
        if self.max_completion_tokens < 1:
            raise PreconditionError(
                f"max_completion_tokens must be >= 1, got {self.max_completion_tokens}"
            )
        if self.selection not in ("softmax", "uniform"):
            raise PreconditionError(f"selection must be softmax|uniform, got {self.selection}")

    def replace(self, **changes) -> "DecodeConfig":
        return replace(self, **changes)


@dataclass(frozen=True, slots=True)
class Candidate:
    """One proposed step with its foresight evidence."""

    parent_path_id: int
    index: int
    step_text: str
    step_tokens: int
    finish_reason: str
    rollout_texts: tuple[str, ...]
    rollout_qualities: tuple[float, ...]

    @property
    def quality(self) -> float:
        """Mean rollout quality; the value appended to the trajectory."""
        return finite_mean(self.rollout_qualities, "rollout_qualities")


@dataclass(frozen=True, slots=True)
class PruneRecord:
    path_id: int
    step_index: int
    deficit_value: float
    threshold: AdaptiveThreshold

    def __post_init__(self) -> None:
        if not self.deficit_value >= self.threshold.value:
            raise PreconditionError("prune record requires deficit >= threshold value")


@dataclass(slots=True)
class BeamPath:
    path_id: int
    prefix: str
    trajectory: QualityTrajectory
    active: bool = True
    finished: bool = False


@dataclass(slots=True)
class BeamState:
    paths: list[BeamPath]
    step_index: int = 0
    stop_reason: Optional[str] = None
    tokens_generated: int = 0
    rollout_tokens: int = 0
    next_path_id: int = 1

    @classmethod
    def initial(cls, task_prompt: str) -> "BeamState":
        root = BeamPath(path_id=0, prefix=task_prompt, trajectory=QualityTrajectory(0))
        return cls(paths=[root])

    def active_paths(self) -> list[BeamPath]:
        return [p for p in self.paths if p.active]

    def live_paths(self) -> list[BeamPath]:
        """Active paths that can still grow (no end-of-sequence yet)."""
        return [p for p in self.paths if p.active and not p.finished]


@dataclass(frozen=True, slots=True)
class DecodeResult:
    final_answer: str
    per_path_answers: tuple[tuple[int, str], ...]
    trace: tuple[dict, ...]
    tokens_generated: int
    rollout_tokens: int
    stop_reason: str
    stop_step: int
    flagged: bool

    def to_dict(self) -> dict:
        return {
            "final_answer": self.final_answer,
            "flagged": self.flagged,
            "per_path_answers": [[pid, ans] for pid, ans in self.per_path_answers],
            "rollout_tokens": self.rollout_tokens,
            "stop_reason": self.stop_reason,
            "stop_step": self.stop_step,
            "tokens_generated": self.tokens_generated,
            "trace": list(self.trace),
        }


# -- answer extraction -------------------------------------------------------


def extract_answer(text: str, pattern: str = DEFAULT_ANSWER_PATTERN) -> Optional[str]:
    """Last match wins; a model that revises itself is trusted at its word."""
    matches = list(re.finditer(pattern, text))
    if not matches:
        return None
    match = matches[-1]
    answer = match.group(1) if match.groups() else match.group(0)
    answer = answer.strip()
    return answer or None


# -- softmax selection -------------------------------------------------------


def softmax_weights(scores: Sequence[float], temperature: float) -> list[float]:
    """Numerically safe softmax over scores / temperature."""
    if not scores:
        raise PreconditionError("softmax over empty scores")
    scaled = [s / temperature for s in scores]
    for s in scaled:
        if not math.isfinite(s):
            raise NumericInputError(f"non-finite selection score {s!r}")
    top = max(scaled)
    exps = [math.exp(s - top) for s in scaled]
    total = math.fsum(exps)
    return [e / total for e in exps]


def sample_without_replacement(
    weights: Sequence[float], k: int, rng: np.random.Generator
) -> list[int]:
    """k sequential weighted draws, renormalizing after each removal.

    Draw order is fixed: target u * (remaining mass), then walk the
    remaining items in original index order accumulating the running sum.
    """
    if k < 0:
        raise PreconditionError(f"k must be >= 0, got {k}")
    remaining = list(range(len(weights)))
    picks: list[int] = []
    while remaining and len(picks) < k:
        masses = [weights[i] for i in remaining]
        total = math.fsum(masses)
        if total <= 0:
            picks.extend(remaining[: k - len(picks)])
            break
        target = rng.random() * total
        acc = 0.0
        chosen = remaining[-1]
        for pos, index in enumerate(remaining):
            acc += masses[pos]
            if target < acc:
                chosen = index
                break
        picks.append(chosen)
        remaining.remove(chosen)
    return picks


# -- loop phases -------------------------------------------------------------


def expand_beam(
    model: SequenceModel,
    beam: BeamState,
    config: DecodeConfig,
    *,
    step_index: Optional[int] = None,
) -> list[Candidate]:
    """Propose N candidate steps per live path, each with foresight rollouts.

    The candidate budget shrinks with the beam: pruning survivors keep their
    N candidates each, so the per-step total stays <= M*N.
    """
    step = beam.step_index + 1 if step_index is None else step_index
    live = beam.live_paths()
    if not live:
        raise DecodeStalledError("expand_beam called with no live paths")

    results = []
    for path in live:
        for cand_index in range(config.rollouts_per_candidate):
            try:
                step_sample = model.propose_step(
                    path.prefix,
                    substream(config.seed, TAG_PROPOSE, step, path.path_id, cand_index, 0),
                    max_tokens=config.max_step_tokens,
                    stop=config.step_delimiter,
                    sample_index=cand_index,
                )
                lookahead_prefix = path.prefix + step_sample.text
                rollouts = [
                    model.rollout(
                        lookahead_prefix,
                        config.rollout_depth,
                        substream(config.seed, TAG_ROLLOUT, step, path.path_id, cand_index, s),
                    )
                    for s in range(config.rollout_samples)
                ]
            except TransportError as exc:
                raise TransportError(
                    f"path {path.path_id} candidate {cand_index}: {exc}"
                ) from exc
            results.append((path, cand_index, step_sample, rollouts))

    # Pooled first-expand mean initializes the quality process: the prompt's
    # own value F_0 is the average of everything foresight saw from it.
    fresh_parents = [p for p in live if len(p.trajectory.points) == 0]
    if fresh_parents:
        baseline = finite_mean(
            [quality_of(r) for (_, _, _, rollouts) in results for r in rollouts],
            "first-step rollout qualities",
        )
        for parent in fresh_parents:
            parent.trajectory.append(0, baseline)

    candidates: list[Candidate] = []
    for path, cand_index, step_sample, rollouts in results:
        candidates.append(
            Candidate(
                parent_path_id=path.path_id,
                index=cand_index,
                step_text=step_sample.text,
                step_tokens=len(step_sample.token_logprobs),
                finish_reason=step_sample.finish_reason,
                rollout_texts=tuple(r.text for r in rollouts),
                rollout_qualities=tuple(quality_of(r) for r in rollouts),
            )
        )
        beam.tokens_generated += len(step_sample.token_logprobs)
        for rollout_sample in rollouts:
            beam.tokens_generated += len(rollout_sample.token_logprobs)
            beam.rollout_tokens += len(rollout_sample.token_logprobs)

    if not candidates:
        raise DecodeStalledError("expand produced zero candidates")
    return candidates


def score_candidates(
    candidates: Sequence[Candidate], beam: BeamState
) -> list[tuple[Candidate, float]]:
    """Drift of each candidate relative to its parent's latest quality."""
    by_id = {p.path_id: p for p in beam.paths}
    scored = []
    for cand in candidates:
        parent = by_id[cand.parent_path_id]
        try:
            est = estimate_predictable_advantage(
                parent.trajectory.latest_quality, cand.rollout_qualities
            )
        except (NumericInputError, PreconditionError) as exc:
            raise type(exc)(
                f"candidate {cand.index} of path {cand.parent_path_id}: {exc}"
            ) from exc
        scored.append((cand, est.drift))
    return scored


def check_stop(
    drifts: Sequence[float],
    config: DecodeConfig,
    step_index: int,
) -> tuple[bool, Optional[str]]:
    """Convergence test over the best available drift, plus the hard cap."""
    if not drifts:
        raise PreconditionError("check_stop over empty candidates")
    max_drift = max(drifts)
    if epsilon_enabled(config.epsilon_stop) and has_converged(max_drift, config.epsilon_stop):
        return True, STOP_CONVERGED
    if step_index >= config.max_steps:
        return True, STOP_MAX_STEPS
    return False, None


def select_beam(
    scored: Sequence[tuple[Candidate, float]],
    beam: BeamState,
    config: DecodeConfig,
    rng: np.random.Generator,
) -> list[tuple[int, Candidate, float]]:
    """Sample the next beam from the candidates by softmax(score / tau).

    Finished active paths keep their slots; the sampler fills the rest.
    Returns (new_path_id, candidate, weight) in draw order for the trace.
    """
    if not scored:
        raise PreconditionError("select_beam over empty candidates")
    scores = [drift for _, drift in scored]
    if config.selection == "uniform":
        weights = [1.0 / len(scores)] * len(scores)
    else:
        weights = softmax_weights(scores, config.temperature)
    held = [p for p in beam.paths if p.active and p.finished]
    slots = max(config.beam_size - len(held), 0)
    picked = sample_without_replacement(weights, min(slots, len(scored)), rng)

    by_id = {p.path_id: p for p in beam.paths}
    step = beam.step_index + 1
    selections: list[tuple[int, Candidate, float]] = []
    children: list[BeamPath] = []
    for index in picked:
        cand, _ = scored[index]
        parent = by_id[cand.parent_path_id]
        prefix = parent.prefix + cand.step_text
        if cand.finish_reason == "delimiter" and not prefix.endswith(config.step_delimiter):
            # Backends that consume the stop string (HTTP) hand back bare
            # step text; restore the delimiter so the next prompt is formed.
            prefix += config.step_delimiter
        child = BeamPath(
            path_id=beam.next_path_id,
            prefix=prefix,
            trajectory=parent.trajectory.fork(beam.next_path_id),
            finished=cand.finish_reason == FINISH_EOS,
        )
        child.trajectory.append(step, cand.quality)
        beam.next_path_id += 1
        children.append(child)
        selections.append((child.path_id, cand, weights[index]))

    for path in beam.live_paths():
        path.active = False
    beam.paths = held + children
    beam.step_index = step
    return selections


def prune_beam(beam: BeamState, config: DecodeConfig) -> tuple[
    Optional[AdaptiveThreshold], list[tuple[int, float]], list[PruneRecord]
]:
    """Deactivate paths whose deficit crosses the adaptive threshold.

    The threshold is recomputed from the active paths' current qualities.
    The first path holding the maximal quality is never deactivated, and a
    zero-sigma (all-equal) round prunes nothing: a zero-width band carries
    no significance.
    """
    active = beam.active_paths()
    if not active:
        raise PreconditionError("prune_beam requires >= 1 active path")
    qualities = [(p, p.trajectory.latest_quality) for p in active]
    deficits = [(p.path_id, deficit(max(q for _, q in qualities), q)) for p, q in qualities]
    if len(active) == 1:
        return None, deficits, []
    threshold = adaptive_threshold([q for _, q in qualities], config.lambda1)
    if threshold.sigma == 0.0:
        return threshold, deficits, []
    best_quality = max(q for _, q in qualities)
    protected = next(p.path_id for p, q in qualities if q == best_quality)
    pruned: list[PruneRecord] = []
    for (path, _), (path_id, deficit_value) in zip(qualities, deficits):
        if path_id == protected:
            continue
        if should_prune(deficit_value, threshold):
            path.active = False
            record = PruneRecord(
                path_id=path_id,
                step_index=beam.step_index,
                deficit_value=deficit_value,
                threshold=threshold,
            )
            pruned.append(record)
    return threshold, deficits, pruned


def finalize(
    model: SequenceModel,
    beam: BeamState,
    config: DecodeConfig,
    *,
    task_prompt: str,
    method: str,
    trace: list[dict],
) -> DecodeResult:
    """Complete survivors autoregressively and majority-vote their answers.

    Votes are over raw extracted strings; ties break to the answer whose
    earliest supporting path has the lowest path id. Paths yielding no
    extractable answer abstain; zero answers flags the result instead of
    raising.
    """
    completions: list[tuple[int, Optional[str]]] = []
    answered: list[tuple[int, str]] = []
    for path in beam.active_paths():
        rng = substream(config.seed, TAG_COMPLETE, path.path_id)
        sample = model.complete(path.prefix, config.max_completion_tokens, rng)
        beam.tokens_generated += len(sample.token_logprobs)
        generated = path.prefix[len(task_prompt):] + sample.text
        answer = extract_answer(generated, config.answer_pattern)
        completions.append((path.path_id, answer))
        if answer is not None:
            answered.append((path.path_id, answer))

    if answered:
        counts = Counter(ans for _, ans in answered)
        first_seen = {}
        for pid, ans in answered:
            first_seen.setdefault(ans, pid)
        final_answer = min(counts, key=lambda a: (-counts[a], first_seen[a]))
        flagged = False
    else:
        final_answer = ""
        flagged = True

    trace.append({
        "event": "finalize",
        "method": method,
        "step": beam.step_index,
        "completions": [[pid, ans] for pid, ans in completions],
        "final_answer": final_answer,
        "flagged": flagged,
    })
    return DecodeResult(
        final_answer=final_answer,
        per_path_answers=tuple(answered),
        trace=tuple(trace),
        tokens_generated=beam.tokens_generated,
        rollout_tokens=beam.rollout_tokens,
        stop_reason=beam.stop_reason or STOP_EXHAUSTED,
        stop_step=beam.step_index,
        flagged=flagged,
    )


# -- full loop ----------------------------------------------------------------

# Scores one step's candidates and decides whether deliberation stops:
# (candidates, beam, step) -> (scores, score trace fields, stop reason or None).
Judge = Callable[[Sequence[Candidate], BeamState, int], tuple[list[float], dict, Optional[str]]]


def run_loop(
    model: SequenceModel,
    task_prompt: str,
    config: DecodeConfig,
    *,
    method: str,
    judge: Judge,
    prune: bool,
) -> DecodeResult:
    """Shared expand/judge/select/prune skeleton.

    The judge is injected so foresight variants (consensus stopping,
    combined scores) reuse the identical loop mechanics; the
    drift-threshold decoder is the `decode` wrapper below.
    """
    model = model.fresh()
    beam = BeamState.initial(task_prompt)
    trace: list[dict] = []
    while True:
        if not beam.live_paths():
            beam.stop_reason = STOP_EXHAUSTED
            break
        step = beam.step_index + 1
        candidates = expand_beam(model, beam, config, step_index=step)
        trace.append({
            "event": "expand",
            "method": method,
            "step": step,
            "candidates": [
                {
                    "parent": c.parent_path_id,
                    "index": c.index,
                    "text": c.step_text,
                    "tokens": c.step_tokens,
                    "finish": c.finish_reason,
                    "qualities": list(c.rollout_qualities),
                }
                for c in candidates
            ],
        })
        scores, score_fields, reason = judge(candidates, beam, step)
        trace.append({"event": "score", "method": method, "step": step, **score_fields})
        selections = select_beam(
            list(zip(candidates, scores)),
            beam,
            config,
            substream(config.seed, TAG_SELECT, step),
        )
        trace.append({
            "event": "select",
            "method": method,
            "step": step,
            "selected": [
                {
                    "path_id": pid,
                    "parent": cand.parent_path_id,
                    "index": cand.index,
                    "weight": weight,
                    "quality": cand.quality,
                    "finished": cand.finish_reason == FINISH_EOS,
                }
                for pid, cand, weight in selections
            ],
        })
        if prune:
            threshold, deficits, pruned = prune_beam(beam, config)
            trace.append({
                "event": "prune",
                "method": method,
                "step": step,
                "threshold": None if threshold is None else {
                    "mu": threshold.mu,
                    "sigma": threshold.sigma,
                    "lambda1": threshold.lambda1,
                    "value": threshold.value,
                },
                "deficits": [[pid, d] for pid, d in deficits],
                "pruned": [r.path_id for r in pruned],
            })
        if reason is not None:
            beam.stop_reason = reason
            break
    trace.append({
        "event": "stop",
        "method": method,
        "step": beam.step_index,
        "reason": beam.stop_reason,
    })
    return finalize(
        model, beam, config, task_prompt=task_prompt, method=method, trace=trace
    )


def decode(
    model: SequenceModel,
    task_prompt: str,
    config: DecodeConfig,
) -> DecodeResult:
    """Drift-guided beam decode with adaptive pruning and convergence stop."""

    def judge(
        candidates: Sequence[Candidate], beam: BeamState, step: int
    ) -> tuple[list[float], dict, Optional[str]]:
        drifts = [drift for _, drift in score_candidates(candidates, beam)]
        _, reason = check_stop(drifts, config, step)
        return drifts, {"drifts": drifts}, reason

    return run_loop(
        model,
        task_prompt,
        config,
        method="mfs",
        judge=judge,
        prune=config.prune_enabled,
    )
