"""Run orchestration: config files, presets, benchmark runs, sweeps.

Configs are one YAML file with strict keys (unknown keys are errors, not
silent typos). The endpoint and credentials of the HTTP backend can be
overridden by DRIFTBEAM_BASE_URL / DRIFTBEAM_MODEL / DRIFTBEAM_API_KEY;
the auth token is never written back out by the serializer.

Seeding is two-level and documented: sweep run i uses base_seed + i, and
instance j inside a run decodes with a 64-bit seed drawn from the
substream (run_seed, instance tag, j). Instances may execute on a worker
pool; aggregation sorts by instance id, so worker count never changes a
byte of the outputs.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np
import yaml

from .backends.base import SequenceModel
from .backends.http import HttpCompletionsModel
from .backends.scripted import ScriptedModel, load_fixture
from .backends.synthetic import SyntheticModel, SyntheticTask
from .baselines import PhiConfig, ar_cot_decode, phi_decode
from .dataset import (
    TaskInstance,
    is_synthetic_name,
    load_dataset,
    synthetic_instance_task,
    synthetic_size,
    synthetic_suite,
)
from .engine import TAG_INSTANCE, DecodeConfig, DecodeResult, decode
from .errors import DriftbeamError, PreconditionError
from .metrics import PerExample, RunMetrics, canonical_json, emit_report

METHODS = ("mfs", "phi", "ar-cot")
BACKEND_KINDS = ("synthetic", "scripted", "http")

# Per-model, per-benchmark pruning coefficients; beam and rollout counts are
# 8/8 throughout. Addressed as "<model>/<benchmark>".
PRESETS: dict[str, dict] = {
    "llama8b/gsm8k": {"lambda1": 0.8},
    "llama8b/math500": {"lambda1": 0.6},
    "llama8b/gpqa": {"lambda1": 0.6},
    "llama8b/reclor": {"lambda1": 0.8},
    "llama8b/logiqa": {"lambda1": 0.6},
    "llama8b/arc": {"lambda1": 0.8},
    "mistral7b/gsm8k": {"lambda1": 0.6},
    "mistral7b/math500": {"lambda1": 0.8},
    "mistral7b/gpqa": {"lambda1": 0.8},
    "mistral7b/reclor": {"lambda1": 0.6},
    "mistral7b/logiqa": {"lambda1": 1.0},
    "mistral7b/arc": {"lambda1": 1.0},
    "qwen3b/reclor": {"lambda1": 0.8},
    "qwen3b/arc": {"lambda1": 0.8},
}
for _values in PRESETS.values():
    _values.update({"beam_size": 8, "rollouts_per_candidate": 8})

_GRID_FIELDS = ("lambda1", "beam_size", "epsilon_stop", "rollouts_per_candidate")
_GRID_ALIASES = {"N": "rollouts_per_candidate", "M": "beam_size"}

ENV_BASE_URL = "DRIFTBEAM_BASE_URL"
ENV_MODEL = "DRIFTBEAM_MODEL"
ENV_API_KEY = "DRIFTBEAM_API_KEY"


@dataclass(frozen=True, slots=True)
class BackendSpec:
    """Which model serves the run, plus its FLOPs-relevant size."""

    kind: str = "synthetic"
    model_params: int = 8_000_000_000
    # synthetic
    arm_count: int = 2
    drift: float = 0.05
    drifts: Optional[tuple[float, ...]] = None
    noise_std: float = 0.2
    horizon: int = 6
    # scripted
    fixture: Optional[str] = None
    # http
    base_url: Optional[str] = None
    model: Optional[str] = None
    model_temperature: float = 0.7
    timeout: float = 60.0
    verify_tls: bool = True
    auth_header: str = "Authorization"
    auth_token: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise PreconditionError(f"backend kind must be in {BACKEND_KINDS}, got {self.kind!r}")
        if self.model_params <= 0:
            raise PreconditionError("model_params must be > 0")
        if self.kind == "scripted" and not self.fixture:
            raise PreconditionError("scripted backend requires a fixture path")
        if self.kind == "http" and not (self.base_url and self.model):
            raise PreconditionError("http backend requires base_url and model")

    def base_task(self) -> SyntheticTask:
        if self.drifts is not None:
            drifts = tuple(float(d) for d in self.drifts)
        elif self.arm_count == 1:
            drifts = (self.drift,)
        else:
            # Evenly spaced from +drift down to -drift; the top arm is unique.
            span = self.arm_count - 1
            drifts = tuple(
                self.drift * (1.0 - 2.0 * i / span) for i in range(self.arm_count)
            )
        return SyntheticTask(
            arm_count=len(drifts),
            drifts=drifts,
            noise_std=self.noise_std,
            horizon=self.horizon,
        )

    def make_model(self, task: Optional[SyntheticTask] = None) -> SequenceModel:
        if self.kind == "synthetic":
            return SyntheticModel(task or self.base_task())
        if self.kind == "scripted":
            return ScriptedModel(list(_cached_fixture(str(self.fixture))))
        return HttpCompletionsModel(
            self.base_url,
            self.model,
            temperature=self.model_temperature,
            timeout=self.timeout,
            verify_tls=self.verify_tls,
            auth_header=self.auth_header,
            auth_token=self.auth_token,
        )


@functools.lru_cache(maxsize=32)
def _cached_fixture(path: str) -> tuple:
    return tuple(load_fixture(path))


@dataclass(frozen=True, slots=True)
class RunConfig:
    method: str = "mfs"
    seed: int = 0
    workers: int = 1
    dataset: str = "synthetic:20"
    output_dir: Optional[str] = None
    count_rollout_tokens: bool = True
    preset: Optional[str] = None
    backend: BackendSpec = field(default_factory=BackendSpec)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    phi: Optional[PhiConfig] = None
    grid: Optional[dict[str, tuple]] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise PreconditionError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.workers < 1:
            raise PreconditionError("workers must be >= 1")
        if self.method == "phi" and self.phi is None:
            raise PreconditionError("method 'phi' requires a phi section")
        if self.method != "phi" and self.phi is not None:
            raise PreconditionError("phi section is only valid with method 'phi'")
        if self.preset is not None and self.preset not in PRESETS:
            raise PreconditionError(
                f"unknown preset {self.preset!r}; known: {sorted(PRESETS)}"
            )

    def replace(self, **changes) -> "RunConfig":
        return replace(self, **changes)


# -- config file round-trip ----------------------------------------------------


def _check_keys(section: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise PreconditionError(f"unknown {where} keys: {unknown}")


_TOP_KEYS = (
    "method", "seed", "workers", "dataset", "output_dir",
    "count_rollout_tokens", "preset", "backend", "decode", "phi", "grid",
)
_BACKEND_KEYS = (
    "kind", "model_params", "arm_count", "drift", "drifts", "noise_std",
    "horizon", "fixture", "base_url", "model", "model_temperature",
    "timeout", "verify_tls", "auth_header",
)
_DECODE_KEYS = (
    "beam_size", "rollouts_per_candidate", "temperature", "lambda1",
    "epsilon_stop", "max_steps", "rollout_depth", "max_step_tokens",
    "step_delimiter", "answer_pattern", "rollout_samples",
    "max_completion_tokens", "selection", "prune_enabled",
)
_PHI_KEYS = ("delta", "combine_mode", "alignment_weight", "cluster_distance")


def parse_config(source: Union[str, Path, Mapping]) -> RunConfig:
    """Build a RunConfig from a YAML file or an equivalent mapping.

    Preset values land first; explicit decode keys override them. The
    decode seed is derived from the run seed, so a `seed` key inside the
    decode section is rejected.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    else:
        raw = dict(source)
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise PreconditionError("config root must be a mapping")
    _check_keys(raw, _TOP_KEYS, "config")

    backend_raw = dict(raw.get("backend") or {})
    if "auth_token" in backend_raw:
        raise PreconditionError("auth_token must come from the environment, not the config file")
    _check_keys(backend_raw, _BACKEND_KEYS, "backend")
    if backend_raw.get("drifts") is not None:
        backend_raw["drifts"] = tuple(float(d) for d in backend_raw["drifts"])
    if backend_raw.get("kind", "synthetic") == "http":
        if os.environ.get(ENV_BASE_URL):
            backend_raw["base_url"] = os.environ[ENV_BASE_URL]
        if os.environ.get(ENV_MODEL):
            backend_raw["model"] = os.environ[ENV_MODEL]
        token = os.environ.get(ENV_API_KEY)
        if token:
            backend_raw["auth_token"] = token
    backend = BackendSpec(**backend_raw)

    decode_raw = dict(raw.get("decode") or {})
    if "seed" in decode_raw:
        raise PreconditionError("decode.seed is derived from the run seed; set top-level seed")
    _check_keys(decode_raw, _DECODE_KEYS, "decode")
    preset = raw.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise PreconditionError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
        decode_raw = {**PRESETS[preset], **decode_raw}
    if "epsilon_stop" in decode_raw and decode_raw["epsilon_stop"] is not None:
        decode_raw["epsilon_stop"] = float(decode_raw["epsilon_stop"])
    decode_cfg = DecodeConfig(**decode_raw)

    phi_raw = raw.get("phi")
    phi_cfg: Optional[PhiConfig] = None
    if phi_raw is not None:
        phi_raw = dict(phi_raw)
        _check_keys(phi_raw, _PHI_KEYS, "phi")
        phi_cfg = PhiConfig(**phi_raw)

    grid_raw = raw.get("grid")
    grid: Optional[dict[str, tuple]] = None
    if grid_raw is not None:
        grid = {}
        for key, values in dict(grid_raw).items():
            name = _GRID_ALIASES.get(key, key)
            if name not in _GRID_FIELDS:
                raise PreconditionError(
                    f"grid field {key!r} not sweepable; allowed: {_GRID_FIELDS}"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise PreconditionError(f"grid field {key!r} needs a non-empty list")
            grid[name] = tuple(values)

    return RunConfig(
        method=raw.get("method", "mfs"),
        seed=int(raw.get("seed", 0)),
        workers=int(raw.get("workers", 1)),
        dataset=str(raw.get("dataset", "synthetic:20")),
        output_dir=raw.get("output_dir"),
        count_rollout_tokens=bool(raw.get("count_rollout_tokens", True)),
        preset=preset,
        backend=backend,
        decode=decode_cfg,
        phi=phi_cfg,
        grid=grid,
    )


def serialize_config(config: RunConfig) -> dict:
    """Plain mapping form; parse_config(serialize_config(c)) == c."""
    backend: dict = {"kind": config.backend.kind, "model_params": config.backend.model_params}
    if config.backend.kind == "synthetic":
        backend.update(
            arm_count=config.backend.arm_count,
            drift=config.backend.drift,
            noise_std=config.backend.noise_std,
            horizon=config.backend.horizon,
        )
        if config.backend.drifts is not None:
            backend["drifts"] = list(config.backend.drifts)
    elif config.backend.kind == "scripted":
        backend["fixture"] = config.backend.fixture
    else:
        backend.update(
            base_url=config.backend.base_url,
            model=config.backend.model,
            model_temperature=config.backend.model_temperature,
            timeout=config.backend.timeout,
            verify_tls=config.backend.verify_tls,
            auth_header=config.backend.auth_header,
        )
    decode_cfg = config.decode
    out: dict = {
        "method": config.method,
        "seed": config.seed,
        "workers": config.workers,
        "dataset": config.dataset,
        "output_dir": config.output_dir,
        "count_rollout_tokens": config.count_rollout_tokens,
        "backend": backend,
        "decode": {
            "beam_size": decode_cfg.beam_size,
            "rollouts_per_candidate": decode_cfg.rollouts_per_candidate,
            "temperature": decode_cfg.temperature,
            "lambda1": decode_cfg.lambda1,
            "epsilon_stop": decode_cfg.epsilon_stop,
            "max_steps": decode_cfg.max_steps,
            "rollout_depth": decode_cfg.rollout_depth,
            "max_step_tokens": decode_cfg.max_step_tokens,
            "step_delimiter": decode_cfg.step_delimiter,
            "answer_pattern": decode_cfg.answer_pattern,
            "rollout_samples": decode_cfg.rollout_samples,
            "max_completion_tokens": decode_cfg.max_completion_tokens,
            "selection": decode_cfg.selection,
            "prune_enabled": decode_cfg.prune_enabled,
        },
    }
    if config.preset is not None:
        out["preset"] = config.preset
    if config.phi is not None:
        out["phi"] = {
            "delta": config.phi.delta,
            "combine_mode": config.phi.combine_mode,
            "alignment_weight": config.phi.alignment_weight,
            "cluster_distance": config.phi.cluster_distance,
        }
    if config.grid is not None:
        out["grid"] = {key: list(values) for key, values in config.grid.items()}
    return out


def config_to_yaml(config: RunConfig) -> str:
    return yaml.safe_dump(serialize_config(config), sort_keys=True)


# -- execution ------------------------------------------------------------------


def derive_instance_seed(run_seed: int, index: int) -> int:
    """64-bit decode seed for instance `index` of a run."""
    seq = np.random.SeedSequence(entropy=[run_seed, TAG_INSTANCE, index])
    return int(seq.generate_state(1, np.uint64)[0])


def _resolve_instances(
    config: RunConfig, dataset: Optional[Sequence[TaskInstance]]
) -> list[tuple[TaskInstance, Optional[SyntheticTask]]]:
    if dataset is None:
        if is_synthetic_name(config.dataset):
            size = synthetic_size(config.dataset)
            dataset = None  # generated below with paired tasks
        else:
            dataset = load_dataset(config.dataset)
    if config.backend.kind == "synthetic":
        base = config.backend.base_task()
        if dataset is None:
            return list(synthetic_suite(base, size, config.seed))
        return [
            (inst, synthetic_instance_task(base, config.seed, index))
            for index, inst in enumerate(dataset)
        ]
    if dataset is None:
        raise PreconditionError(
            "synthetic:<N> datasets require the synthetic backend"
        )
    return [(inst, None) for inst in dataset]


def decode_with(
    method: str,
    model: SequenceModel,
    prompt: str,
    config: DecodeConfig,
    phi: Optional[PhiConfig] = None,
) -> DecodeResult:
    """Decode one prompt with the named method; the one place a method name
    picks a decoder.

    The decoders are called by their module-level names at call time, not
    kept in a table, so code that rebinds those names (the span recorder in
    bench/recorder.py) sees every decode.
    """
    if method == "mfs":
        return decode(model, prompt, config)
    if method == "phi":
        return phi_decode(model, prompt, config, phi)
    if method == "ar-cot":
        return ar_cot_decode(model, prompt, config)
    raise PreconditionError(f"method must be one of {METHODS}, got {method!r}")


def _decode_one(
    config: RunConfig, instance: TaskInstance, task: Optional[SyntheticTask], index: int
) -> DecodeResult:
    model = config.backend.make_model(task)
    decode_cfg = config.decode.replace(seed=derive_instance_seed(config.seed, index))
    return decode_with(config.method, model, instance.prompt, decode_cfg, config.phi)


@dataclass(frozen=True, slots=True)
class RunOutput:
    metrics: RunMetrics
    failures: tuple[tuple[str, str], ...]
    traces: tuple[tuple[str, dict], ...]


def _dataset_label(config: RunConfig) -> str:
    if is_synthetic_name(config.dataset):
        return config.dataset
    return Path(config.dataset).stem


def execute_run(
    config: RunConfig,
    dataset: Optional[Sequence[TaskInstance]] = None,
    *,
    label: Optional[str] = None,
) -> RunOutput:
    """Run the configured method over every instance and aggregate.

    Failures are recorded per instance and skipped. Results are sorted by
    instance id before aggregation so the worker pool's scheduling cannot
    reach the report.
    """
    pairs = _resolve_instances(config, dataset)

    def one(indexed) -> tuple[str, Union[DecodeResult, Exception]]:
        index, (instance, task) = indexed
        try:
            return instance.id, _decode_one(config, instance, task, index)
        except (DriftbeamError, RuntimeError, ValueError) as exc:
            return instance.id, exc

    if config.workers > 1 and pairs:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(one, enumerate(pairs)))
    else:
        outcomes = [one(item) for item in enumerate(pairs)]

    by_id = {instance.id: instance for instance, _ in pairs}
    examples: list[PerExample] = []
    failures: list[tuple[str, str]] = []
    traces: list[tuple[str, dict]] = []
    for task_id, outcome in sorted(outcomes, key=lambda pair: pair[0]):
        if isinstance(outcome, Exception):
            failures.append((task_id, f"{type(outcome).__name__}: {outcome}"))
            continue
        tokens = outcome.tokens_generated
        if not config.count_rollout_tokens:
            tokens -= outcome.rollout_tokens
        prune_count = sum(
            len(event.get("pruned", ()))
            for event in outcome.trace
            if event.get("event") == "prune"
        )
        examples.append(
            PerExample(
                task_id=task_id,
                predicted=outcome.final_answer,
                gold=by_id[task_id].gold_answer,
                tokens=tokens,
                stop_step=outcome.stop_step,
                prune_count=prune_count,
            )
        )
        traces.append((task_id, outcome.to_dict()))

    metrics = RunMetrics.from_examples(examples, config.backend.model_params)
    output = RunOutput(metrics=metrics, failures=tuple(failures), traces=tuple(traces))
    if config.output_dir is not None:
        write_outputs(config, output, label=label)
    return output


def run(
    config: RunConfig, dataset: Optional[Sequence[TaskInstance]] = None
) -> RunMetrics:
    """Aggregate metrics for one configured run (see execute_run)."""
    return execute_run(config, dataset).metrics


def write_outputs(config: RunConfig, output: RunOutput, *, label: Optional[str] = None) -> Path:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = f"{label}-" if label else ""
    (out_dir / f"{prefix}metrics.json").write_bytes(
        canonical_json({
            "failures": [[tid, msg] for tid, msg in output.failures],
            "metrics": output.metrics.to_dict(),
        })
    )
    with open(out_dir / f"{prefix}traces.jsonl", "wb") as handle:
        for task_id, result in output.traces:
            handle.write(canonical_json({"result": result, "task": task_id}))
            handle.write(b"\n")
    table = {config.method: {_dataset_label(config): output.metrics}}
    (out_dir / f"{prefix}report.md").write_bytes(emit_report(table, "markdown"))
    (out_dir / f"{prefix}report.json").write_bytes(emit_report(table, "json"))
    return out_dir


# -- sweeps ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SweepPoint:
    label: str
    overrides: tuple[tuple[str, object], ...]
    seed: int
    metrics: RunMetrics


def sweep(
    config: RunConfig,
    grid: Optional[Mapping[str, Sequence]] = None,
    dataset: Optional[Sequence[TaskInstance]] = None,
) -> list[SweepPoint]:
    """One run per grid point, seeds base_seed + i, in grid order.

    The grid is a mapping of decode fields to value lists; points enumerate
    as the cartesian product with the last field varying fastest.
    """
    if grid is None:
        grid = config.grid
    if not grid:
        raise PreconditionError("sweep requires a non-empty grid")
    fields = list(grid.keys())
    for name in fields:
        if name not in _GRID_FIELDS:
            raise PreconditionError(f"grid field {name!r} not sweepable; allowed: {_GRID_FIELDS}")
    points: list[SweepPoint] = []
    rows: dict[str, dict[str, RunMetrics]] = {}
    for index, values in enumerate(itertools.product(*(grid[name] for name in fields))):
        overrides = dict(zip(fields, values))
        label = ",".join(f"{name}={value}" for name, value in overrides.items())
        run_seed = config.seed + index
        point_config = config.replace(
            seed=run_seed,
            decode=config.decode.replace(**overrides),
            output_dir=None,
        )
        output = execute_run(point_config, dataset)
        points.append(
            SweepPoint(
                label=label,
                overrides=tuple(overrides.items()),
                seed=run_seed,
                metrics=output.metrics,
            )
        )
        rows[label] = {_dataset_label(config): output.metrics}
    if config.output_dir is not None:
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep-report.md").write_bytes(emit_report(rows, "markdown"))
        (out_dir / "sweep-report.json").write_bytes(emit_report(rows, "json"))
        (out_dir / "sweep-points.json").write_bytes(
            canonical_json([
                {
                    "label": p.label,
                    "metrics": p.metrics.to_dict(),
                    "overrides": {k: v for k, v in p.overrides},
                    "seed": p.seed,
                }
                for p in points
            ])
        )
    return points
