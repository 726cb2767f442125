"""Stochastic-process primitives behind the decoder.

The quality of a partial reasoning path is treated as a process F_t observed
once per step through foresight rollouts. Everything here is a pure function
of its arguments: drift estimation (the predictable part of the process, via
sample means), the deficit of a path behind the current best, an adaptive
prune threshold from the population statistics of the live beam, a
convergence test on the best available drift, and pooled statistics over
whole advantage trajectories.

Reductions use math.fsum (exactly rounded) so results do not depend on
summation order. A reduction whose result leaves the float range raises
NumericInputError naming its input, never OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import NumericInputError, PreconditionError

__all__ = [
    "QualityPoint",
    "QualityTrajectory",
    "DoobEstimate",
    "AdaptiveThreshold",
    "TrajectoryStats",
    "estimate_predictable_advantage",
    "deficit",
    "adaptive_threshold",
    "should_prune",
    "has_converged",
    "trajectory_statistics",
    "finite_mean",
]


def _check_finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise NumericInputError(f"{name} must be finite, got {value!r}")
    return float(value)


def _check_all_finite(values: Sequence[float], name: str) -> list[float]:
    out = []
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise NumericInputError(f"{name}[{i}] must be finite, got {v!r}")
        out.append(float(v))
    return out


def finite_mean(values: Sequence[float], name: str) -> float:
    """Exactly rounded mean of finite values; a sum beyond the float range
    raises NumericInputError naming `name` instead of OverflowError."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise NumericInputError(f"{name} sum overflows the float range") from None


def _variance(values: Sequence[float], mean: float, name: str) -> float:
    # Short-circuit the constant case so an all-equal beam yields sigma == 0.0
    # exactly (fsum of identical values still rounds, e.g. mean of three 0.1s).
    if all(v == values[0] for v in values):
        return 0.0
    try:
        return math.fsum((v - mean) ** 2 for v in values) / len(values)
    except OverflowError:
        raise NumericInputError(f"{name} squared deviations overflow the float range") from None


@dataclass(frozen=True, slots=True)
class QualityPoint:
    """One observation of a path's quality process: (step t, F_t)."""

    step_index: int
    quality: float

    def __post_init__(self) -> None:
        if self.step_index < 0:
            raise PreconditionError(f"step_index must be >= 0, got {self.step_index}")
        _check_finite(self.quality, "quality")


@dataclass(slots=True)
class QualityTrajectory:
    """Append-only quality history of one path.

    Points are contiguous in step_index from the first recorded index, and
    appending never touches earlier points: the value at step t depends only
    on information available up to t.
    """

    path_id: int
    points: list[QualityPoint] = field(default_factory=list)

    def append(self, step_index: int, quality: float) -> QualityPoint:
        if self.points and step_index != self.points[-1].step_index + 1:
            raise PreconditionError(
                f"step_index {step_index} breaks contiguity after "
                f"{self.points[-1].step_index} (path {self.path_id})"
            )
        point = QualityPoint(step_index, quality)
        self.points.append(point)
        return point

    def fork(self, new_path_id: int) -> "QualityTrajectory":
        """Copy for a child path; the shared history is never mutated."""
        return QualityTrajectory(new_path_id, list(self.points))

    @property
    def latest_quality(self) -> float:
        if not self.points:
            raise PreconditionError(f"trajectory of path {self.path_id} is empty")
        return self.points[-1].quality

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class DoobEstimate:
    """Monte-Carlo estimate of one predictable-advantage increment.

    drift is the trend part (mean rollout quality minus the previous
    quality); residual_std is the dispersion of the rollout qualities —
    the noise the trend was extracted from.
    """

    drift: float
    residual_std: float
    sample_count: int


@dataclass(frozen=True, slots=True)
class AdaptiveThreshold:
    """Per-step prune threshold: value = mu + lambda1 * sigma, where mu and
    sigma are the mean and population standard deviation of the live beam's
    current qualities."""

    mu: float
    sigma: float
    lambda1: float
    value: float


@dataclass(frozen=True, slots=True)
class TrajectoryStats:
    """Pooled advantage statistics over a corpus of trajectories."""

    mean_advantage: float
    variance: float
    trajectory_count: int


def estimate_predictable_advantage(
    previous_quality: float, rollout_qualities: Sequence[float]
) -> DoobEstimate:
    """Estimate the drift of the quality process from foresight rollouts.

    The process splits into a predictable trend plus zero-mean noise; with
    rollout qualities as samples of the next value, the trend increment is
    estimated by their mean minus the previous quality.
    """
    if len(rollout_qualities) == 0:
        raise PreconditionError("rollout_qualities must be non-empty")
    _check_finite(previous_quality, "previous_quality")
    qualities = _check_all_finite(rollout_qualities, "rollout_qualities")
    mean = finite_mean(qualities, "rollout_qualities")
    return DoobEstimate(
        drift=mean - previous_quality,
        residual_std=math.sqrt(_variance(qualities, mean, "rollout_qualities")),
        sample_count=len(qualities),
    )


def deficit(best_quality: float, path_quality: float) -> float:
    """How far a path lags behind the best one: D = best - path."""
    _check_finite(best_quality, "best_quality")
    _check_finite(path_quality, "path_quality")
    return best_quality - path_quality


def adaptive_threshold(scores: Sequence[float], lambda1: float) -> AdaptiveThreshold:
    """Recompute the prune threshold from this step's scores.

    The threshold is time-varying: it must be recomputed fresh every step
    from the contemporaneous score distribution.
    """
    if len(scores) == 0:
        raise PreconditionError("scores must be non-empty")
    _check_finite(lambda1, "lambda1")
    if lambda1 < 0:
        raise PreconditionError(f"lambda1 must be >= 0, got {lambda1}")
    values = _check_all_finite(scores, "scores")
    mu = finite_mean(values, "scores")
    sigma = math.sqrt(_variance(values, mu, "scores"))
    return AdaptiveThreshold(mu=mu, sigma=sigma, lambda1=lambda1, value=mu + lambda1 * sigma)


def should_prune(deficit_value: float, threshold: AdaptiveThreshold) -> bool:
    """Prune iff the deficit reaches the threshold (inclusive boundary).

    The first step at which this fires for a path is its stopping time.
    """
    _check_finite(deficit_value, "deficit_value")
    return deficit_value >= threshold.value


def has_converged(max_advantage: float, epsilon_stop: float) -> bool:
    """True when the best available drift no longer exceeds epsilon_stop.

    A favorable bounded process settles; once even the best candidate's
    drift is at or below the tolerance, further deliberation is not
    expected to improve anything.
    """
    _check_finite(max_advantage, "max_advantage")
    _check_finite(epsilon_stop, "epsilon_stop")
    if epsilon_stop < 0:
        raise PreconditionError(f"epsilon_stop must be >= 0, got {epsilon_stop}")
    return max_advantage <= epsilon_stop


def trajectory_statistics(
    advantage_sequences: Iterable[Sequence[float]],
) -> TrajectoryStats:
    """Pool per-step advantages across trajectories.

    Returns the grand mean and population variance of all values pooled
    together, plus the number of contributing trajectories.
    """
    sequences = list(advantage_sequences)
    if not sequences:
        raise PreconditionError("advantage_sequences must be non-empty")
    pooled: list[float] = []
    for k, seq in enumerate(sequences):
        if len(seq) == 0:
            raise PreconditionError(f"advantage_sequences[{k}] is empty")
        pooled.extend(_check_all_finite(seq, f"advantage_sequences[{k}]"))
    mean = finite_mean(pooled, "advantages")
    return TrajectoryStats(
        mean_advantage=mean,
        variance=_variance(pooled, mean, "advantages"),
        trajectory_count=len(sequences),
    )

