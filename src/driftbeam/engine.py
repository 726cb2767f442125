"""Foresight beam decoding driven by drift estimates.

The loop treats the evolving path quality as a stochastic process: every
candidate step is scored by the predictable (drift) part of its foresight
rollouts, the beam is resampled by softmax weights over those drifts,
lagging paths are dropped from the beam once their deficit crosses an
adaptive threshold, and deliberation halts when the best available drift
is statistically indistinguishable from zero. Survivors are completed
autoregressively and majority-voted.

Each iteration runs expand -> score and stop -> select -> prune, and the
loop exits after the iteration in which the stop fired (the converged
step's selection still lands in the beam). The method's own stop rule
comes first; `run_loop` applies the max_steps cap when that rule does not
fire. Every decode, the baselines' included, ends in `finalize`, which
writes the `stop` and `finalize` events. Every intermediate quantity is
emitted on an append-only trace so runs can be audited or re-plotted
without rerunning the model. Each event is stored as its canonical JSON
bytes, written in the step that emits it, so a decode holds bytes and no
event dict outlives its step. `score`, `stop` and `finalize` are encoded by
`metrics.canonical_json`. The loop's expand, select and prune events are
written straight to the same bytes by writers of their own, which the tests
hold to `canonical_json` of the dict each one stands for.

Determinism: all randomness flows through named substreams of the config
seed, derived per (kind, step, path, candidate, sample), so the result is
a pure function of the config and the backend's replies. A step's propose
and rollout keys are all known before its first backend call, so
`expand_beam` builds them as one fields-major uint32 array, tiled and
repeated over the live path ids, candidate and sample indices in call
order, runs SeedSequence's hash for all of them in one batch
(`substream_words`) and hands each backend call a generator of its own,
made as the call comes, whose PCG64 seeds itself in C from that key's four
words. Each call draws exactly what `substream(seed, *key)` would give it,
and a generator a backend keeps cannot touch the next call's draws. A
backend that declares `uses_rng = False` (scripted replay) draws nothing,
so `expand_beam` derives none of those streams and passes it `rng=None`;
what it returns cannot depend on a stream. The step's select stream and
each survivor's completion stream come from `substream` itself, for every
backend.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .backends.base import (
    FINISH_EOS,
    SequenceModel,
    quality_of,
)
from .errors import (
    NumericInputError,
    PreconditionError,
    TransportError,
)
from .metrics import canonical_json
from .process import (
    AdaptiveThreshold,
    adaptive_threshold,
    estimate_predictable_advantage,
    finite_mean,
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


# numpy's SeedSequence constants (pool of 4 uint32 words). `substream_words`
# reproduces what SeedSequence does with them, so its words equal the ones
# `substream` would seed PCG64 with.
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 2**32 - 1


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constant of each of the first `count` hashes.

    SeedSequence's hash k xors its input with h_k, multiplies by h_{k+1} and
    folds the high half into the low one, where h_0 = init and
    h_{k+1} = h_k * mult mod 2**32. The sequence does not depend on the data.
    """
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    xors = np.array(chain[:-1], dtype=np.uint32)[:, None]
    mults = np.array(chain[1:], dtype=np.uint32)[:, None]
    return xors, mults


# Entropy hashing (enough for keys of up to 16 words) and state output.
_ENTROPY_XOR, _ENTROPY_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 64)
_OUTPUT_XOR, _OUTPUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_OTHER_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE)]
_OUTPUT_WORDS = np.arange(8) % _POOL_SIZE


def _hashed(values: np.ndarray, index: int, count: int) -> np.ndarray:
    """Entropy hashes index .. index+count-1, applied to `values`, which
    broadcasts against a leading axis of length `count`."""
    out = (values ^ _ENTROPY_XOR[index:index + count]) * _ENTROPY_MULT[index:index + count]
    return out ^ (out >> _XSHIFT)


def _mixed(into: np.ndarray, value: np.ndarray) -> np.ndarray:
    out = into * _MIX_MULT_L - value * _MIX_MULT_R
    return out ^ (out >> _XSHIFT)


def substream_words(seed: int, keys: Sequence[Sequence[int]]) -> np.ndarray:
    """The 4 uint64 words `SeedSequence(entropy=[seed, *key])` hands PCG64,
    for every key at once: row i is `generate_state(4, np.uint64)` of key i.

    SeedSequence's entropy mixing runs over uint32 numpy lanes, one lane per
    key. All keys must have the same length, and each field must fit in 32
    bits. `np.random.PCG64(_Words(row))` then seeds itself from a row in C.
    """
    fields = np.asarray(keys, dtype=np.uint32).reshape(len(keys), -1).T
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    length = len(seed_words) + len(fields)
    entropy = np.zeros((max(length, _POOL_SIZE), len(keys)), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words):length] = fields

    # Fill the pool from the first words, mix every pool word into the
    # others in order, then mix in the words past the pool.
    pool = _hashed(entropy[:_POOL_SIZE], 0, _POOL_SIZE)
    index = _POOL_SIZE
    for source in range(_POOL_SIZE):
        others = _OTHER_WORDS[source]
        pool[others] = _mixed(pool[others], _hashed(pool[source], index, _POOL_SIZE - 1))
        index += _POOL_SIZE - 1
    extra = length - _POOL_SIZE
    if extra > 0:
        # Word j past the pool takes one hash per pool word it mixes into.
        repeated = np.repeat(entropy[_POOL_SIZE:length], _POOL_SIZE, axis=0)
        hashed = _hashed(repeated, index, extra * _POOL_SIZE).reshape(
            extra, _POOL_SIZE, len(keys))
        for word in hashed:
            pool = _mixed(pool, word)

    # generate_state(4, uint64): 8 words cycled from the pool, then paired
    # little-endian into 4 uint64s.
    words = (pool[_OUTPUT_WORDS] ^ _OUTPUT_XOR) * _OUTPUT_MULT
    words ^= words >> _XSHIFT
    return words.T.copy().view(np.uint64)


class _Words(np.random.bit_generator.ISeedSequence):
    """One key's precomputed `substream_words` row, served as the seed
    sequence PCG64 asks for: PCG64 reads exactly 4 uint64 words from it."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise PreconditionError(f"substream words serve 4 uint64s, not {n_words} {dtype}")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_Words(words)))


# The value types a config field accepts, by its annotation. A float field
# takes an int too (YAML reads `timeout: 60` as one); a bool is never a
# number, and no string is read as a bool. An Optional[...] field of one of
# these kinds also takes None (YAML's null).
_PLAIN_KINDS = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}
_FIELD_KINDS = {**_PLAIN_KINDS, **{f"Optional[{name}]": kinds + (type(None),)
                                   for name, kinds in _PLAIN_KINDS.items()}}


@functools.cache
def _typed_fields(cls: type) -> tuple[tuple[str, str, tuple[type, ...]], ...]:
    return tuple((f.name, f.type, _FIELD_KINDS[f.type])
                 for f in fields(cls) if f.type in _FIELD_KINDS)


def check_field_types(config, section: str) -> None:
    """Check each int, float, bool and str field (optional or not) of a
    config dataclass by its annotation, so YAML's `x`, `2.5` or `"no"` in
    the wrong place is a PreconditionError naming `section` and the key,
    not a TypeError deep inside a decode or a string read as true."""
    for name, annotation, kinds in _typed_fields(type(config)):
        value = getattr(config, name)
        if type(value) not in kinds or (type(value) is int and float in kinds
                                        and not _fits_float(value)):
            raise PreconditionError(f"{section} {name} must be {annotation}, got {value!r}")


def _fits_float(value: int) -> bool:
    """Whether a float field's int converts: JSON ints reach past the float
    range, where math.isfinite and float() raise OverflowError."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


SELECTIONS = ("softmax", "uniform")
EPSILON_DISABLED = ("none", "null", "off", "-inf")


def parse_epsilon(value) -> Optional[float]:
    """epsilon_stop from a CLI flag or a config value: None and the strings
    none/null/off/-inf disable the stop, anything else must read as a float
    (YAML loads `1e-6` as a string). A bool is an error: YAML reads a bare
    `off` as false, which float() would make an active threshold of 0.0."""
    if isinstance(value, bool):
        raise PreconditionError(f"epsilon_stop got {value}; write null or quote 'off' to disable")
    if value is None or (isinstance(value, str) and value.lower() in EPSILON_DISABLED):
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise PreconditionError(f"epsilon_stop must be a number or one of "
                                f"{EPSILON_DISABLED}, got {value!r}") from None


# DecodeConfig's counts and token limits; each must be >= 1.
_LIMITS = ("beam_size", "rollouts_per_candidate", "max_steps", "rollout_depth",
           "max_step_tokens", "rollout_samples", "max_completion_tokens")


@dataclass(frozen=True, slots=True)
class DecodeConfig:
    """Knobs for one decode. Field names follow the loop's vocabulary:
    beam_size is M, rollouts_per_candidate is N (candidate steps proposed
    per active path, each carrying rollout_samples foresight rollouts). A
    disabled convergence stop is stored as None, however it was spelled."""

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
        check_field_types(self, "decode")
        for name in _LIMITS:
            if getattr(self, name) < 1:
                raise PreconditionError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise PreconditionError(f"temperature must be finite > 0, got {self.temperature}")
        if self.lambda1 < 0 or not math.isfinite(self.lambda1):
            raise PreconditionError(f"lambda1 must be finite >= 0, got {self.lambda1}")
        if self.epsilon_stop == -math.inf:
            object.__setattr__(self, "epsilon_stop", None)
        elif self.epsilon_stop is not None and not (
                self.epsilon_stop >= 0 and math.isfinite(self.epsilon_stop)):
            raise PreconditionError(
                f"epsilon_stop must be finite >= 0, None, or -inf, got {self.epsilon_stop}"
            )
        if not (0 <= self.seed < 2**64):
            raise PreconditionError("seed must fit in 64 unsigned bits")
        if not self.step_delimiter:
            raise PreconditionError("step_delimiter must be non-empty")
        try:
            re.compile(self.answer_pattern)
        except re.error as exc:
            raise PreconditionError(
                f"answer_pattern must be a regular expression, got {self.answer_pattern!r}: {exc}"
            ) from None
        if self.selection not in SELECTIONS:
            raise PreconditionError(f"selection must be in {SELECTIONS}, got {self.selection!r}")

    def replace(self, **changes) -> "DecodeConfig":
        return replace(self, **changes)


@dataclass(slots=True)
class Candidate:
    """One proposed step with its foresight evidence. Not frozen: M·N are built
    per step, and a frozen dataclass pays one object.__setattr__ per field."""

    parent_path_id: int
    index: int
    step_text: str
    step_tokens: int
    finish_reason: str
    rollout_texts: tuple[str, ...]
    rollout_qualities: tuple[float, ...]

    @property
    def quality(self) -> float:
        """Mean rollout quality; the quality of the child path it becomes."""
        return finite_mean(self.rollout_qualities, "rollout_qualities")


@dataclass(slots=True)
class BeamPath:
    """A partial reasoning path: its text and its latest quality F_t, which is
    None only on the root until the first expand sets it to the pooled
    first-step rollout mean. Drift needs nothing older than F_t."""

    path_id: int
    prefix: str
    quality: Optional[float] = None
    finished: bool = False


@dataclass(slots=True)
class BeamState:
    paths: list[BeamPath]
    step_index: int = 0
    stop_reason: Optional[str] = None
    tokens_generated: int = 0
    rollout_tokens: int = 0
    next_path_id: int = 1
    prune_count: int = 0

    @classmethod
    def initial(cls, task_prompt: str) -> "BeamState":
        return cls(paths=[BeamPath(path_id=0, prefix=task_prompt)])

    def live_paths(self) -> list[BeamPath]:
        """Paths that can still grow (no end-of-sequence yet)."""
        return [p for p in self.paths if not p.finished]


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """One decode's outcome; its trace is each event's canonical JSON bytes.
    `prune_count`, the paths pruned over the decode, is not serialized."""

    final_answer: str
    per_path_answers: tuple[tuple[int, str], ...]
    trace_json: tuple[bytes, ...]
    tokens_generated: int
    rollout_tokens: int
    stop_reason: str
    stop_step: int
    flagged: bool
    prune_count: int = 0

    @property
    def trace(self) -> tuple[dict, ...]:
        return tuple(json.loads(event) for event in self.trace_json)

    def summary(self) -> dict:
        """Every serialized field but the trace."""
        return {
            "final_answer": self.final_answer,
            "flagged": self.flagged,
            "per_path_answers": [[pid, ans] for pid, ans in self.per_path_answers],
            "rollout_tokens": self.rollout_tokens,
            "stop_reason": self.stop_reason,
            "stop_step": self.stop_step,
            "tokens_generated": self.tokens_generated,
        }

    def to_dict(self) -> dict:
        return {**self.summary(), "trace": list(self.trace)}

    def to_json(self) -> bytes:
        """`canonical_json(self.to_dict())`, with the stored events spliced
        in as "trace", the last key in sorted order."""
        head = canonical_json(self.summary())
        return head[:-1] + b',"trace":[' + b",".join(self.trace_json) + b"]}"


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

    Draw order is fixed: target u * (remaining mass), then the first
    remaining item, in index order, whose running sum exceeds it (the last
    if none does). The sums are the same left-to-right additions a walk
    makes, and the callers' weights are non-negative, so the sums are sorted
    and `bisect_right` finds that item.
    """
    if k < 0:
        raise PreconditionError(f"k must be >= 0, got {k}")
    masses = list(weights)
    remaining = list(range(len(masses)))
    picks: list[int] = []
    while remaining and len(picks) < k:
        total = math.fsum(masses)
        if total <= 0:
            picks.extend(remaining[: k - len(picks)])
            break
        target = rng.random() * total
        pos = min(bisect.bisect_right(list(itertools.accumulate(masses)), target),
                  len(masses) - 1)
        picks.append(remaining.pop(pos))
        masses.pop(pos)
    return picks


# -- loop phases -------------------------------------------------------------


def expand_beam(
    model: SequenceModel,
    beam: BeamState,
    config: DecodeConfig,
) -> list[Candidate]:
    """Propose N candidate steps per live path, each with foresight rollouts.

    The candidate budget shrinks with the beam: pruning survivors keep their
    N candidates each, so the per-step total stays <= M*N.
    """
    step = beam.step_index + 1
    live = beam.live_paths()
    if not live:
        raise PreconditionError("expand_beam called with no live paths")

    samples = range(config.rollout_samples)
    if model.uses_rng:
        # Every stream key of the step, one column each, in the order the
        # calls below use them: each candidate's proposal, then its rollouts.
        width = 1 + config.rollout_samples
        proposals = len(live) * config.rollouts_per_candidate
        keys = np.empty((5, proposals * width), dtype=np.uint32)
        keys[0] = np.tile([TAG_PROPOSE] + [TAG_ROLLOUT] * config.rollout_samples, proposals)
        keys[1] = step
        path_ids = np.array([path.path_id for path in live], dtype=np.uint32)
        keys[2] = np.repeat(path_ids, config.rollouts_per_candidate * width)
        keys[3] = np.tile(np.repeat(np.arange(config.rollouts_per_candidate), width), len(live))
        keys[4] = np.tile([0, *samples], proposals)
        streams = map(_generator, substream_words(config.seed, keys.T))
    else:
        # A backend that never draws gets no stream: a draw from None fails.
        streams = itertools.repeat(None)

    # Every backend call of the step comes before any quality is computed,
    # so a later TransportError wins over an earlier sample that cannot be
    # scored. `replies` holds each candidate's proposal, then its rollouts.
    replies = []
    for path in live:
        for cand_index in range(config.rollouts_per_candidate):
            try:
                step_sample = model.propose_step(
                    path.prefix,
                    next(streams),
                    max_tokens=config.max_step_tokens,
                    stop=config.step_delimiter,
                    sample_index=cand_index,
                )
                replies.append(step_sample)
                lookahead_prefix = path.prefix + step_sample.text
                for _ in samples:
                    replies.append(
                        model.rollout(lookahead_prefix, config.rollout_depth, next(streams))
                    )
            except TransportError as exc:
                raise TransportError(
                    f"path {path.path_id} candidate {cand_index}: {exc}"
                ) from exc

    replies = iter(replies)
    candidates: list[Candidate] = []
    step_tokens = rollout_tokens = 0
    for path in live:
        for cand_index in range(config.rollouts_per_candidate):
            step_sample = next(replies)
            texts = []
            qualities = []
            for _ in samples:
                rollout_sample = next(replies)
                texts.append(rollout_sample.text)
                qualities.append(quality_of(rollout_sample))
                rollout_tokens += len(rollout_sample.token_logprobs)
            tokens = len(step_sample.token_logprobs)
            step_tokens += tokens
            candidates.append(Candidate(
                path.path_id, cand_index, step_sample.text, tokens,
                step_sample.finish_reason, tuple(texts), tuple(qualities),
            ))
    beam.tokens_generated += step_tokens + rollout_tokens
    beam.rollout_tokens += rollout_tokens

    # Pooled first-expand mean initializes the quality process: the prompt's
    # own value F_0 is the average of everything foresight saw from it.
    fresh_parents = [p for p in live if p.quality is None]
    if fresh_parents:
        baseline = finite_mean(
            [q for c in candidates for q in c.rollout_qualities],
            "first-step rollout qualities",
        )
        for parent in fresh_parents:
            parent.quality = baseline
    return candidates


def score_candidates(candidates: Sequence[Candidate], beam: BeamState) -> list[float]:
    """Drift of each candidate relative to its parent's latest quality."""
    by_id = {p.path_id: p for p in beam.paths}
    drifts = []
    for cand in candidates:
        parent = by_id[cand.parent_path_id]
        if parent.quality is None:
            raise PreconditionError(f"path {parent.path_id} has no quality yet")
        try:
            drifts.append(estimate_predictable_advantage(parent.quality, cand.rollout_qualities))
        except (NumericInputError, PreconditionError) as exc:
            raise type(exc)(
                f"candidate {cand.index} of path {cand.parent_path_id}: {exc}"
            ) from exc
    return drifts


def check_stop(drifts: Sequence[float], config: DecodeConfig) -> Optional[str]:
    """Convergence test: the best available drift is at most epsilon_stop.
    Returns the stop reason, or None to keep deliberating."""
    if not drifts:
        raise PreconditionError("check_stop over empty candidates")
    if config.epsilon_stop is not None and max(drifts) <= config.epsilon_stop:
        return STOP_CONVERGED
    return None


def select_beam(
    candidates: Sequence[Candidate],
    scores: Sequence[float],
    beam: BeamState,
    config: DecodeConfig,
    rng: np.random.Generator,
) -> list[tuple[BeamPath, Candidate, float]]:
    """Sample the next beam from the candidates by softmax(score / tau).

    Finished paths keep their slots; the sampler fills the rest.
    Returns (child path, candidate, weight) in draw order for the trace.
    """
    if not candidates:
        raise PreconditionError("select_beam over empty candidates")
    if config.selection == "uniform":
        weights = [1.0 / len(scores)] * len(scores)
    else:
        weights = softmax_weights(scores, config.temperature)
    held = [p for p in beam.paths if p.finished]
    slots = max(config.beam_size - len(held), 0)
    picked = sample_without_replacement(weights, min(slots, len(candidates)), rng)

    by_id = {p.path_id: p for p in beam.paths}
    selections: list[tuple[BeamPath, Candidate, float]] = []
    for index in picked:
        cand = candidates[index]
        parent = by_id[cand.parent_path_id]
        prefix = parent.prefix + cand.step_text
        if cand.finish_reason == "delimiter" and not prefix.endswith(config.step_delimiter):
            # Backends that consume the stop string (HTTP) hand back bare
            # step text; restore the delimiter so the next prompt is formed.
            prefix += config.step_delimiter
        child = BeamPath(
            path_id=beam.next_path_id,
            prefix=prefix,
            quality=cand.quality,
            finished=cand.finish_reason == FINISH_EOS,
        )
        beam.next_path_id += 1
        selections.append((child, cand, weights[index]))

    beam.paths = held + [child for child, _, _ in selections]
    beam.step_index += 1
    return selections


def prune_beam(beam: BeamState, config: DecodeConfig) -> tuple[
    Optional[AdaptiveThreshold], list[tuple[int, float]], list[int]
]:
    """Drop the paths whose deficit, the best quality minus their own,
    reaches the adaptive threshold (inclusive): their stopping time.

    The threshold is recomputed from the beam's current qualities. The
    first path holding the maximal quality is never pruned, and a
    zero-sigma (all-equal) round prunes nothing: a zero-width band carries
    no significance. Returns (threshold, deficits, pruned path ids).
    """
    qualities = [p.quality for p in beam.paths]
    if not qualities or None in qualities:
        raise PreconditionError("prune_beam requires >= 1 path, each with a quality")
    best_quality = max(qualities)
    deficits = [(p.path_id, best_quality - p.quality) for p in beam.paths]
    if len(beam.paths) == 1:
        return None, deficits, []
    threshold = adaptive_threshold(qualities, config.lambda1)
    if threshold.sigma == 0.0:
        return threshold, deficits, []
    protected = qualities.index(best_quality)
    pruned = [pid for index, (pid, deficit_value) in enumerate(deficits)
              if index != protected and deficit_value >= threshold.value]
    beam.paths = [p for p in beam.paths if p.path_id not in pruned]
    return threshold, deficits, pruned


def finalize(
    model: SequenceModel,
    beam: BeamState,
    config: DecodeConfig,
    *,
    task_prompt: str,
    method: str,
    trace: list[bytes],
) -> DecodeResult:
    """End a decode: write the stop event, complete the surviving paths
    autoregressively, majority-vote their answers and write the finalize
    event. Like `run_loop`, it appends each event to `trace` as canonical
    JSON bytes; the result holds those bytes and the beam's prune count.

    Votes are over raw extracted strings; ties break to the answer whose
    earliest supporting path has the lowest path id. Paths yielding no
    extractable answer abstain; zero answers flags the result instead of
    raising.
    """
    stop_reason = beam.stop_reason or STOP_EXHAUSTED
    trace.append(canonical_json({
        "event": "stop",
        "method": method,
        "step": beam.step_index,
        "reason": stop_reason,
    }))
    completions: list[tuple[int, Optional[str]]] = []
    answered: list[tuple[int, str]] = []
    for path in beam.paths:
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

    trace.append(canonical_json({
        "event": "finalize",
        "method": method,
        "step": beam.step_index,
        "completions": completions,
        "final_answer": final_answer,
        "flagged": flagged,
    }))
    return DecodeResult(
        final_answer=final_answer,
        per_path_answers=tuple(answered),
        trace_json=tuple(trace),
        tokens_generated=beam.tokens_generated,
        rollout_tokens=beam.rollout_tokens,
        stop_reason=stop_reason,
        stop_step=beam.step_index,
        flagged=flagged,
        prune_count=beam.prune_count,
    )


# -- step events -------------------------------------------------------------

# The expand, select and prune events' writers. Each returns canonical_json's
# bytes for the event dict it names, without building it: keys come in sorted
# order, strings are escaped by canonical_json's own escaper, a float is
# spelled by float.__repr__ (or NaN, Infinity, -Infinity, as canonical_json
# writes a non-finite one) and an int by str().
_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _expand_event(method: str, step: int, candidates: Sequence[Candidate]) -> bytes:
    """{"event": "expand", "method", "step", "candidates": [{"parent", "index",
    "text", "tokens", "finish", "qualities"} per candidate]}."""
    items = ",".join(
        f'{{"finish":{_quote(c.finish_reason)},"index":{c.index},"parent":{c.parent_path_id},'
        f'"qualities":[{",".join(map(_float, c.rollout_qualities))}],'
        f'"text":{_quote(c.step_text)},"tokens":{c.step_tokens}}}'
        for c in candidates)
    return (f'{{"candidates":[{items}],"event":"expand",'
            f'"method":{_quote(method)},"step":{step}}}').encode()


def _select_event(method: str, step: int,
                  selections: Sequence[tuple[BeamPath, Candidate, float]]) -> bytes:
    """{"event": "select", "method", "step", "selected": [{"path_id", "parent",
    "index", "weight", "quality", "finished"} per selection]}."""
    selected = ",".join(
        f'{{"finished":{"true" if child.finished else "false"},"index":{cand.index},'
        f'"parent":{cand.parent_path_id},"path_id":{child.path_id},'
        f'"quality":{_float(child.quality)},"weight":{_float(weight)}}}'
        for child, cand, weight in selections)
    return (f'{{"event":"select","method":{_quote(method)},"selected":[{selected}],'
            f'"step":{step}}}').encode()


def _prune_event(method: str, step: int, threshold: Optional[AdaptiveThreshold],
                 deficits: Sequence[tuple[int, float]], pruned: Sequence[int]) -> bytes:
    """{"event": "prune", "method", "step", "threshold": None or {"mu", "sigma",
    "lambda1", "value"}, "deficits", "pruned"}; lambda1 may be an int."""
    if threshold is None:
        limit = "null"
    else:
        lambda1 = threshold.lambda1
        limit = (f'{{"lambda1":{lambda1 if type(lambda1) is int else _float(lambda1)},'
                 f'"mu":{_float(threshold.mu)},"sigma":{_float(threshold.sigma)},'
                 f'"value":{_float(threshold.value)}}}')
    listed = ",".join(f"[{pid},{_float(deficit)}]" for pid, deficit in deficits)
    return (f'{{"deficits":[{listed}],"event":"prune","method":{_quote(method)},'
            f'"pruned":[{",".join(map(str, pruned))}],"step":{step},"threshold":{limit}}}'
            ).encode()


# -- full loop ----------------------------------------------------------------

# Scores one step's candidates and applies the method's own stop rule:
# (candidates, beam) -> (scores, score trace fields, stop reason or None).
Judge = Callable[[Sequence[Candidate], BeamState], tuple[list[float], dict, Optional[str]]]


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
    drift-threshold decoder is the `decode` wrapper below. The step cap
    applies here, after the judge's own stop rule, so a converged or
    consensus stop on the last allowed step keeps its reason.
    """
    model = model.fresh()
    beam = BeamState.initial(task_prompt)
    trace: list[bytes] = []
    while True:
        if not beam.live_paths():
            break
        step = beam.step_index + 1
        candidates = expand_beam(model, beam, config)
        trace.append(_expand_event(method, step, candidates))
        scores, score_fields, reason = judge(candidates, beam)
        if reason is None and step >= config.max_steps:
            reason = STOP_MAX_STEPS
        trace.append(canonical_json(
            {"event": "score", "method": method, "step": step, **score_fields}))
        selections = select_beam(
            candidates, scores, beam, config, substream(config.seed, TAG_SELECT, step)
        )
        trace.append(_select_event(method, step, selections))
        if prune:
            threshold, deficits, pruned = prune_beam(beam, config)
            beam.prune_count += len(pruned)
            trace.append(_prune_event(method, step, threshold, deficits, pruned))
        if reason is not None:
            beam.stop_reason = reason
            break
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
        candidates: Sequence[Candidate], beam: BeamState
    ) -> tuple[list[float], dict, Optional[str]]:
        drifts = score_candidates(candidates, beam)
        return drifts, {"drifts": drifts}, check_stop(drifts, config)

    return run_loop(
        model,
        task_prompt,
        config,
        method="mfs",
        judge=judge,
        prune=config.prune_enabled,
    )
