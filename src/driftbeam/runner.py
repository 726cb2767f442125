"""Run orchestration: config files, presets, benchmark runs, sweeps.

Configs are one YAML file with strict keys (unknown keys are errors, not
silent typos). The config keys and their defaults are the dataclass
fields: RunConfig at the top level, BackendSpec, DecodeConfig and PhiConfig
for the backend, decode and phi sections; only method phi reads the phi
section, and a missing one means PhiConfig() defaults. The endpoint and
credentials of the HTTP backend can be overridden by DRIFTBEAM_BASE_URL /
DRIFTBEAM_MODEL / DRIFTBEAM_API_KEY; the auth token is never written back
out by the serializer.

Seeding is two-level and documented: sweep run i uses base_seed + i, and
instance j inside a run decodes with a 64-bit seed drawn from the
substream (run_seed, instance tag, j). Instances may execute on a worker
pool; aggregation sorts by instance id, so worker count never changes a
byte of the outputs.

PyYAML, the HTTP backend and the thread pool are imported inside the code
that uses them, so a run that reads no config file, talks to no server and
runs one worker does not load them.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .backends.base import SequenceModel, StepSample
from .backends.scripted import ScriptedModel, load_fixture, parse_fixture
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
from .engine import (
    TAG_INSTANCE,
    DecodeConfig,
    DecodeResult,
    check_field_types,
    decode,
    parse_epsilon,
)
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
        check_field_types(self, "backend")
        if self.drifts is not None:
            if not (isinstance(self.drifts, (list, tuple))
                    and all(type(d) in (int, float) for d in self.drifts)):
                raise PreconditionError(
                    f"backend drifts must be a list of numbers, got {self.drifts!r}"
                )
            try:
                object.__setattr__(self, "drifts", tuple(float(d) for d in self.drifts))
            except OverflowError:  # an integer beyond the float range
                raise PreconditionError(
                    f"backend drifts must be finite, got {self.drifts!r}") from None
        for name, values in (("drift", (self.drift,)), ("noise_std", (self.noise_std,)),
                             ("drifts", self.drifts or ())):
            if not all(map(math.isfinite, values)):
                raise PreconditionError(
                    f"backend {name} must be finite, got {getattr(self, name)!r}")
        if not (self.timeout > 0 and math.isfinite(self.timeout)):
            raise PreconditionError(f"backend timeout must be finite > 0, got {self.timeout!r}")
        if not (self.model_temperature >= 0 and math.isfinite(self.model_temperature)):
            raise PreconditionError("backend model_temperature must be finite >= 0, "
                                    f"got {self.model_temperature!r}")
        if self.model_params <= 0:
            raise PreconditionError("model_params must be > 0")
        if self.kind == "scripted" and not self.fixture:
            raise PreconditionError("scripted backend requires a fixture path")
        if self.kind == "http" and not (self.base_url and self.model):
            raise PreconditionError("http backend requires base_url and model")
        if self.kind == "synthetic":
            try:
                self.base_task()
            except PreconditionError as exc:
                # The message names the task field; given drifts make the arms,
                # else arm_count and drift do.
                field = str(exc).split()[0]
                keys = {"arm_count": "drifts"} if self.drifts is not None else {"drifts": "drift"}
                key = keys.get(field, field)
                raise PreconditionError(f"backend {key} makes no synthetic world: {exc}") from None
        if self.base_url is not None:
            from .backends.http import split_base_url

            split_base_url(self.base_url)

    def base_task(self) -> SyntheticTask:
        if self.drifts is not None:
            drifts = self.drifts
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
            info = os.stat(self.fixture)
            identity = (info.st_ino, info.st_mtime_ns, info.st_size)
            return ScriptedModel(_cached_fixture(str(self.fixture), identity))
        from .backends.http import HttpCompletionsModel

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
def _cached_fixture(
    path: str, identity: tuple[int, int, int]
) -> Mapping[str, tuple[StepSample, ...]]:
    """A fixture's parsed, read-only sample queues, shared by every task of a
    run; the raw records are not kept. `identity` is the file's (inode,
    mtime_ns, size), so a fixture rewritten at the same path is read anew."""
    return parse_fixture(load_fixture(path))


@dataclass(frozen=True, slots=True)
class RunConfig:
    method: str = "mfs"
    seed: int = 0
    workers: int = 1
    dataset: str = "synthetic:20"
    output_dir: Optional[str] = None
    preset: Optional[str] = None
    backend: BackendSpec = field(default_factory=BackendSpec)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    phi: Optional[PhiConfig] = None
    grid: Optional[dict[str, tuple]] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise PreconditionError(f"method must be one of {METHODS}, got {self.method!r}")
        check_field_types(self, "config")
        if self.seed < 0:
            raise PreconditionError(f"config seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise PreconditionError("workers must be >= 1")
        if self.preset is not None and self.preset not in PRESETS:
            raise PreconditionError(
                f"unknown preset {self.preset!r}; known: {sorted(PRESETS)}"
            )
        if self.grid is not None:
            object.__setattr__(self, "grid", self._checked_grid())

    def _checked_grid(self) -> dict[str, tuple]:
        """The grid with the N/M aliases resolved and epsilon_stop values
        parsed. Any decode field but `seed` (each point's seed is the run
        seed plus its index) takes a non-empty list, and every point must
        make a valid DecodeConfig."""
        grid: dict[str, tuple] = {}
        for key, values in self.grid.items():
            name = _GRID_ALIASES.get(key, key)
            if name == "seed" or name not in {f.name for f in fields(DecodeConfig)}:
                raise PreconditionError(f"grid field {key!r} not sweepable; allowed: "
                                        f"any decode field but seed, or N or M")
            if not isinstance(values, (list, tuple)) or not values:
                raise PreconditionError(f"grid field {key!r} needs a non-empty list")
            if name == "epsilon_stop":
                values = [parse_epsilon(value) for value in values]
            grid[name] = tuple(values)
        for point in _grid_points(grid):
            self.decode.replace(**point)
        return grid

    def replace(self, **changes) -> "RunConfig":
        return replace(self, **changes)


# -- config file round-trip ----------------------------------------------------


def _check_keys(section: Mapping, cls: type, where: str) -> None:
    unknown = sorted(set(section) - {f.name for f in fields(cls)})
    if unknown:
        raise PreconditionError(f"unknown {where} keys: {unknown}")


def load_config_file(path: Union[str, Path]) -> dict:
    """The mapping a YAML config file holds, {} for an empty file. A file
    that is not UTF-8 or not YAML is a PreconditionError naming it."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"config {path}: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise PreconditionError("config root must be a mapping")
    return raw


def parse_config(source: Union[str, Path, Mapping]) -> RunConfig:
    """Build a RunConfig from a YAML file or an equivalent mapping.

    Each section's keys and defaults are the fields of its dataclass
    (RunConfig, BackendSpec, DecodeConfig, PhiConfig). Preset values land
    first; explicit decode keys override them. The decode seed is derived
    from the run seed, so a `seed` key inside the decode section is
    rejected.
    """
    raw = load_config_file(source) if isinstance(source, (str, Path)) else dict(source)
    _check_keys(raw, RunConfig, "config")
    for section in ("backend", "decode", "phi", "grid"):
        if raw.get(section) is not None and not isinstance(raw[section], Mapping):
            raise PreconditionError(f"{section} section must be a mapping")
    top = dict(raw)

    backend_raw = dict(raw.get("backend") or {})
    if "auth_token" in backend_raw:
        raise PreconditionError("auth_token must come from the environment, not the config file")
    _check_keys(backend_raw, BackendSpec, "backend")
    if backend_raw.get("kind") == "http":
        if os.environ.get(ENV_BASE_URL):
            backend_raw["base_url"] = os.environ[ENV_BASE_URL]
        if os.environ.get(ENV_MODEL):
            backend_raw["model"] = os.environ[ENV_MODEL]
        token = os.environ.get(ENV_API_KEY)
        if token:
            backend_raw["auth_token"] = token
    top["backend"] = BackendSpec(**backend_raw)

    decode_raw = dict(raw.get("decode") or {})
    if "seed" in decode_raw:
        raise PreconditionError("decode.seed is derived from the run seed; set top-level seed")
    _check_keys(decode_raw, DecodeConfig, "decode")
    # RunConfig rejects a preset that is not one of PRESETS' names.
    preset = raw.get("preset")
    if isinstance(preset, str) and preset in PRESETS:
        decode_raw = {**PRESETS[preset], **decode_raw}
    if "epsilon_stop" in decode_raw:
        decode_raw["epsilon_stop"] = parse_epsilon(decode_raw["epsilon_stop"])
    top["decode"] = DecodeConfig(**decode_raw)

    if raw.get("phi") is not None:
        phi_raw = dict(raw["phi"])
        _check_keys(phi_raw, PhiConfig, "phi")
        top["phi"] = PhiConfig(**phi_raw)

    return RunConfig(**top)


def _yaml_ready(value):
    if isinstance(value, dict):
        return {key: _yaml_ready(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_yaml_ready(item) for item in value]
    return value


def serialize_config(config: RunConfig) -> dict:
    """Every field as a plain mapping, except the credentials and the
    derived decode seed; parse_config(serialize_config(c)) == c."""
    out = _yaml_ready(asdict(config))
    del out["backend"]["auth_token"]
    del out["decode"]["seed"]
    return out


def config_to_yaml(config: RunConfig) -> str:
    import yaml

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
    traces: tuple[tuple[str, DecodeResult], ...]


def _dataset_label(config: RunConfig) -> str:
    if is_synthetic_name(config.dataset):
        return config.dataset
    return Path(config.dataset).stem


def execute_run(
    config: RunConfig,
    dataset: Optional[Sequence[TaskInstance]] = None,
) -> RunOutput:
    """Run the configured method over every instance and aggregate; an
    example's tokens are every token its decode generated, rollouts included.

    Failures are recorded per instance and skipped. Results are sorted by
    instance id before aggregation so the worker pool's scheduling cannot
    reach the report. Results are keyed by id, so a duplicate id is a
    PreconditionError before any decode.
    """
    pairs = _resolve_instances(config, dataset)
    by_id: dict[str, TaskInstance] = {}
    for instance, _ in pairs:
        if instance.id in by_id:
            raise PreconditionError(f"dataset has duplicate task id {instance.id!r}")
        by_id[instance.id] = instance

    def one(indexed) -> tuple[str, Union[DecodeResult, Exception]]:
        index, (instance, task) = indexed
        try:
            return instance.id, _decode_one(config, instance, task, index)
        except (DriftbeamError, RuntimeError, ValueError) as exc:
            return instance.id, exc

    if config.workers > 1 and pairs:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(one, enumerate(pairs)))
    else:
        outcomes = [one(item) for item in enumerate(pairs)]

    examples: list[PerExample] = []
    failures: list[tuple[str, str]] = []
    traces: list[tuple[str, DecodeResult]] = []
    for task_id, outcome in sorted(outcomes, key=lambda pair: pair[0]):
        if isinstance(outcome, Exception):
            failures.append((task_id, f"{type(outcome).__name__}: {outcome}"))
            continue
        examples.append(
            PerExample(
                task_id=task_id,
                predicted=outcome.final_answer,
                gold=by_id[task_id].gold_answer,
                tokens=outcome.tokens_generated,
                stop_step=outcome.stop_step,
                prune_count=outcome.prune_count,
            )
        )
        traces.append((task_id, outcome))

    metrics = RunMetrics(tuple(examples), config.backend.model_params)
    output = RunOutput(metrics=metrics, failures=tuple(failures), traces=tuple(traces))
    if config.output_dir is not None:
        write_outputs(config, output)
    return output


def _write_new(path: Path, data: bytes) -> None:
    """Write `data` to `path` as a new file: an existing file is unlinked
    first, not truncated in place. Truncating a file that holds blocks costs
    far more than unlinking it on filesystems that discard freed blocks, and
    a hard link to the old file keeps the old bytes. A symlink at `path` is
    replaced by a regular file; its target is left as it was."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)


def write_outputs(config: RunConfig, output: RunOutput) -> Path:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_new(out_dir / "metrics.json", canonical_json({
        "failures": [[tid, msg] for tid, msg in output.failures],
        "metrics": output.metrics.to_dict(),
    }))
    # Each line is canonical_json({"result": result.to_dict(), "task": task_id}).
    _write_new(out_dir / "traces.jsonl", b"".join(
        b'{"result":' + result.to_json() + b',"task":' + canonical_json(task_id) + b"}\n"
        for task_id, result in output.traces
    ))
    table = {config.method: {_dataset_label(config): output.metrics}}
    _write_new(out_dir / "report.md", emit_report(table, "markdown"))
    _write_new(out_dir / "report.json", emit_report(table, "json"))
    return out_dir


# -- sweeps ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SweepPoint:
    label: str
    overrides: tuple[tuple[str, object], ...]
    seed: int
    metrics: RunMetrics


def _grid_points(grid: Mapping[str, Sequence]) -> list[dict]:
    """The grid's points as decode overrides: the cartesian product of its
    value lists, the last field varying fastest."""
    return [dict(zip(grid, values)) for values in itertools.product(*grid.values())]


def sweep(
    config: RunConfig,
    dataset: Optional[Sequence[TaskInstance]] = None,
) -> list[SweepPoint]:
    """One run per point of `config.grid`, seeds base_seed + i, in grid
    order. Each point runs without an output directory; with one set, the
    sweep writes only sweep-report.md/json and sweep-points.json there."""
    if not config.grid:
        raise PreconditionError("sweep requires a non-empty grid")
    points: list[SweepPoint] = []
    rows: dict[str, dict[str, RunMetrics]] = {}
    for index, overrides in enumerate(_grid_points(config.grid)):
        label = ",".join(f"{name}={value}" for name, value in overrides.items())
        run_seed = config.seed + index
        point_config = config.replace(
            seed=run_seed,
            decode=config.decode.replace(**overrides),
            output_dir=None,
            grid=None,
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
        _write_new(out_dir / "sweep-report.md", emit_report(rows, "markdown"))
        _write_new(out_dir / "sweep-report.json", emit_report(rows, "json"))
        _write_new(out_dir / "sweep-points.json", canonical_json([
            {
                "label": p.label,
                "metrics": p.metrics.to_dict(),
                "overrides": {k: v for k, v in p.overrides},
                "seed": p.seed,
            }
            for p in points
        ]))
    return points
