"""Reference decoders: consensus-stopped foresight and plain completion.

The consensus method scores each candidate by Advantage + Alignment and
stops deliberating once the largest answer cluster covers a delta fraction
of the candidates. Its Advantage term is *literally* the drift estimator —
the same function call — so the two methods differ only in alignment
weighting, the stop rule, and the absence of pruning. The plain
autoregressive baseline completes the prompt in one shot.

The consensus decoder runs the drift decoder's loop, expand -> score and
stop -> select, with no prune phase. Its per-step judge clusters the
rollout answers once and takes both the alignment scores and the consensus
stop from that clustering. Both baselines emit the drift decoder's trace
format, tagged with their own method names, which is what makes token and
FLOPs comparisons between the three methods meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .backends.base import SequenceModel
from .engine import (
    DEFAULT_ANSWER_PATTERN,
    STOP_MAX_STEPS,
    TAG_COMPLETE,
    BeamState,
    Candidate,
    DecodeConfig,
    DecodeResult,
    extract_answer,
    run_loop,
    score_candidates,
    substream,
)
from .errors import PreconditionError
from .process import estimate_predictable_advantage

STOP_CONSENSUS = "consensus"
STOP_COMPLETED = "completed"

_COMBINE_MODES = ("sum", "weighted-sum")


@dataclass(frozen=True, slots=True)
class PhiConfig:
    """Consensus-decoder knobs. delta > 1 disables the consensus stop
    (only the hard step cap fires); delta = 0 stops at the first step."""

    delta: float = 0.6
    combine_mode: str = "sum"
    alignment_weight: float = 1.0
    cluster_distance: float = 0.05

    def __post_init__(self) -> None:
        if not (self.delta >= 0 and math.isfinite(self.delta)):
            raise PreconditionError(f"delta must be finite >= 0, got {self.delta}")
        if self.combine_mode not in _COMBINE_MODES:
            raise PreconditionError(
                f"combine_mode must be one of {_COMBINE_MODES}, got {self.combine_mode!r}"
            )
        if not math.isfinite(self.alignment_weight):
            raise PreconditionError("alignment_weight must be finite")
        if self.cluster_distance < 0 or not math.isfinite(self.cluster_distance):
            raise PreconditionError("cluster_distance must be finite >= 0")


def combine_scores(advantage: float, alignment: float, config: PhiConfig) -> float:
    if config.combine_mode == "sum":
        return advantage + alignment
    return advantage + config.alignment_weight * alignment


def phi_advantage(parent_quality: float, rollout_qualities: Sequence[float]) -> float:
    """Identical arithmetic to the drift estimator, by construction."""
    return estimate_predictable_advantage(parent_quality, rollout_qualities).drift


def _candidate_answer(candidate: Candidate, answer_pattern: str) -> Optional[str]:
    return extract_answer("\n".join(candidate.rollout_texts), answer_pattern)


def cluster_candidates(
    candidates: Sequence[Candidate],
    config: PhiConfig,
    answer_pattern: str,
) -> list[list[int]]:
    """Group candidates by the answers their rollouts commit to.

    Candidates with extractable rollout answers cluster by exact answer
    equality. The rest fall back to quality proximity: scanning in
    candidate order, each joins the first fallback cluster whose founding
    member's quality lies within cluster_distance, else founds its own.
    """
    if not candidates:
        raise PreconditionError("clustering requires >= 1 candidate")
    by_answer: dict[str, list[int]] = {}
    fallback: list[tuple[float, list[int]]] = []
    for index, candidate in enumerate(candidates):
        answer = _candidate_answer(candidate, answer_pattern)
        if answer is not None:
            by_answer.setdefault(answer, []).append(index)
            continue
        quality = candidate.quality
        for anchor, members in fallback:
            if abs(quality - anchor) <= config.cluster_distance:
                members.append(index)
                break
        else:
            fallback.append((quality, [index]))
    clusters = list(by_answer.values()) + [members for _, members in fallback]
    return clusters


def phi_alignment(
    candidates: Sequence[Candidate],
    config: PhiConfig,
    answer_pattern: str = DEFAULT_ANSWER_PATTERN,
) -> list[float]:
    """Per-candidate consensus mass: own cluster size over candidate count."""
    clusters = cluster_candidates(candidates, config, answer_pattern)
    total = len(candidates)
    alignment = [0.0] * total
    for members in clusters:
        share = len(members) / total
        for index in members:
            alignment[index] = share
    return alignment


def _consensus(alignment: Sequence[float], config: PhiConfig) -> bool:
    # Every share is len(cluster) / total, and a correctly rounded division
    # by a fixed total is monotonic, so the largest share is exactly the
    # largest cluster's size over the candidate count.
    return max(alignment) >= config.delta


def phi_stop(
    candidates: Sequence[Candidate],
    config: PhiConfig,
    answer_pattern: str = DEFAULT_ANSWER_PATTERN,
) -> bool:
    """True iff the largest cluster's fraction reaches delta."""
    return _consensus(phi_alignment(candidates, config, answer_pattern), config)


def phi_decode(
    model: SequenceModel,
    task_prompt: str,
    config: DecodeConfig,
    phi: Optional[PhiConfig] = None,
) -> DecodeResult:
    """Foresight decode scored by Advantage + Alignment, stopped by consensus.

    No pruning: the beam stays at full width until consensus or the step
    cap, which is exactly what makes it the token-hungry reference point.
    """
    phi = phi or PhiConfig()

    def judge(
        candidates: Sequence[Candidate], beam: BeamState, step: int
    ) -> tuple[list[float], dict, Optional[str]]:
        advantages = [drift for _, drift in score_candidates(candidates, beam)]
        alignments = phi_alignment(candidates, phi, config.answer_pattern)
        combined = [
            combine_scores(adv, ali, phi) for adv, ali in zip(advantages, alignments)
        ]
        if _consensus(alignments, phi):
            reason = STOP_CONSENSUS
        elif step >= config.max_steps:
            reason = STOP_MAX_STEPS
        else:
            reason = None
        fields = {"advantage": advantages, "alignment": alignments, "combined": combined}
        return combined, fields, reason

    return run_loop(
        model,
        task_prompt,
        config,
        method="phi",
        judge=judge,
        prune=False,
    )


def ar_cot_decode(
    model: SequenceModel,
    task_prompt: str,
    config: DecodeConfig,
) -> DecodeResult:
    """Single autoregressive completion, no foresight, no beam."""
    model = model.fresh()
    rng = substream(config.seed, TAG_COMPLETE, 0)
    sample = model.complete(task_prompt, config.max_completion_tokens, rng)
    answer = extract_answer(sample.text, config.answer_pattern)
    flagged = answer is None
    trace = (
        {"event": "stop", "method": "ar-cot", "step": 0, "reason": STOP_COMPLETED},
        {
            "event": "finalize",
            "method": "ar-cot",
            "step": 0,
            "completions": [[0, answer]],
            "final_answer": answer or "",
            "flagged": flagged,
        },
    )
    return DecodeResult(
        final_answer=answer or "",
        per_path_answers=() if flagged else ((0, answer),),
        trace=trace,
        tokens_generated=len(sample.token_logprobs),
        rollout_tokens=0,
        stop_reason=STOP_COMPLETED,
        stop_step=0,
        flagged=flagged,
    )
