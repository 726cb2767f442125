"""Stochastic-process primitives behind the decoder.

The quality of a partial reasoning path is treated as a process F_t observed
once per step through foresight rollouts. Everything here is a pure function
of its arguments: drift estimation (the predictable part of the process: mean
rollout quality minus the latest one), an adaptive prune threshold from the
population statistics of the live beam, and pooled statistics over whole
advantage trajectories. The prune and convergence decisions that read these
live in `engine.prune_beam` and `engine.check_stop`.

Reductions use math.fsum (exactly rounded) so results do not depend on
summation order. A reduction whose result leaves the float range raises
NumericInputError naming its input, never OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NumericInputError, PreconditionError

__all__ = [
    "AdaptiveThreshold",
    "estimate_predictable_advantage",
    "adaptive_threshold",
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
class AdaptiveThreshold:
    """Per-step prune threshold: value = mu + lambda1 * sigma, where mu and
    sigma are the mean and population standard deviation of the live beam's
    current qualities."""

    mu: float
    sigma: float
    lambda1: float
    value: float


def estimate_predictable_advantage(
    previous_quality: float, rollout_qualities: Sequence[float]
) -> float:
    """Estimate the drift of the quality process from foresight rollouts.

    The process splits into a predictable trend plus zero-mean noise; with
    rollout qualities as samples of the next value, the trend increment is
    estimated by their mean minus the previous quality. Only that mean is
    computed: the noise's spread is not.

    Inputs are checked in one pass: a finite drift proves every input
    finite. Only a drift that is not finite is looked at term by term.
    """
    if len(rollout_qualities) == 0:
        raise PreconditionError("rollout_qualities must be non-empty")
    try:
        drift = math.fsum(rollout_qualities) / len(rollout_qualities) - previous_quality
    except (OverflowError, ValueError):  # finite terms overflowing, or inf - inf
        drift = math.inf
    if not math.isfinite(drift):  # name the bad input or the overflow, if any
        _check_finite(previous_quality, "previous_quality")
        _check_all_finite(rollout_qualities, "rollout_qualities")
        drift = finite_mean(rollout_qualities, "rollout_qualities") - previous_quality
    return drift


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


def trajectory_statistics(
    advantage_sequences: Iterable[Sequence[float]],
) -> dict:
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
    variance = _variance(pooled, mean, "advantages")
    return {"mean_advantage": mean, "trajectory_count": len(sequences), "variance": variance}

