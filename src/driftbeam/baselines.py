"""Reference decoders: consensus-stopped foresight and plain completion.

The consensus method scores each candidate by Advantage + Alignment and
stops deliberating once the largest answer cluster covers a delta fraction
of the candidates. Its Advantage term is *literally* the drift estimator —
the same function call — so the two methods differ only in alignment
weighting, the stop rule, and the absence of pruning. The plain
autoregressive baseline is the root path finalized with no deliberation
step: one completion of the prompt, voted on alone.

The consensus decoder runs the drift decoder's loop, expand -> score and
stop -> select, with no prune phase. Its per-step judge, `phi_judge`,
clusters the rollout answers once and takes both the alignment scores and
the consensus stop from that clustering; the loop adds the step cap. Both
baselines end in the drift decoder's `finalize` and emit its trace format,
tagged with their own method names, which is what makes token and FLOPs
comparisons between the three methods meaningful.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .backends.base import SequenceModel
from .engine import (
    BeamState,
    Candidate,
    DecodeConfig,
    DecodeResult,
    check_field_types,
    extract_answer,
    finalize,
    run_loop,
    score_candidates,
)
from .errors import PreconditionError

STOP_CONSENSUS = "consensus"
STOP_COMPLETED = "completed"


@dataclass(frozen=True, slots=True)
class PhiConfig:
    """Consensus-decoder knobs. delta > 1 disables the consensus stop
    (only the hard step cap fires); delta = 0 stops at the first step. A
    candidate scores advantage + alignment_weight * alignment."""

    delta: float = 0.6
    alignment_weight: float = 1.0
    cluster_distance: float = 0.05

    def __post_init__(self) -> None:
        check_field_types(self, "phi")
        if not (self.delta >= 0 and math.isfinite(self.delta)):
            raise PreconditionError(f"delta must be finite >= 0, got {self.delta}")
        if not math.isfinite(self.alignment_weight):
            raise PreconditionError("alignment_weight must be finite")
        if self.cluster_distance < 0 or not math.isfinite(self.cluster_distance):
            raise PreconditionError("cluster_distance must be finite >= 0")


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
    # Candidates often share their rollout texts; extract each one's answer once.
    answers: dict[tuple[str, ...], Optional[str]] = {}
    for index, candidate in enumerate(candidates):
        texts = candidate.rollout_texts
        if texts not in answers:
            answers[texts] = extract_answer("\n".join(texts), answer_pattern)
        answer = answers[texts]
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


def phi_judge(
    candidates: Sequence[Candidate],
    beam: BeamState,
    *,
    phi: PhiConfig,
    answer_pattern: str,
) -> tuple[list[float], dict, Optional[str]]:
    """One consensus-decoder step: drift (`score_candidates`) plus weighted
    alignment, the share of the candidates in a candidate's answer cluster
    (a weight of 1.0 adds the alignment exactly), stopped once
    the largest answer cluster covers a delta fraction of the candidates.
    Each share is len(cluster) / total, and a correctly rounded division by
    a fixed total is monotonic, so the largest share is exactly the largest
    cluster's fraction."""
    advantages = score_candidates(candidates, beam)
    total = len(candidates)
    alignments = [0.0] * total
    for members in cluster_candidates(candidates, phi, answer_pattern):
        share = len(members) / total
        for index in members:
            alignments[index] = share
    combined = [adv + phi.alignment_weight * ali for adv, ali in zip(advantages, alignments)]
    reason = STOP_CONSENSUS if max(alignments) >= phi.delta else None
    fields = {"advantage": advantages, "alignment": alignments, "combined": combined}
    return combined, fields, reason


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
    judge = functools.partial(phi_judge, phi=phi, answer_pattern=config.answer_pattern)
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
    """Single autoregressive completion, no foresight, no beam: the root
    path finalized with no deliberation step."""
    beam = BeamState.initial(task_prompt)
    beam.stop_reason = STOP_COMPLETED
    return finalize(
        model.fresh(), beam, config, task_prompt=task_prompt, method="ar-cot", trace=[]
    )
