"""driftbeam: foresight beam decoding guided by drift estimates.

The package treats a language model's evolving answer quality as a
stochastic process: candidate reasoning steps are scored by the predictable
drift of short lookahead rollouts, the beam is resampled by softmax weights
over those drifts, statistically lagging paths are pruned by an optional
stopping rule, and deliberation halts once the best available drift is
indistinguishable from zero. Consensus-stopped foresight and plain
autoregressive completion ship as controlled baselines, with exact FLOPs
and accuracy accounting on top.

Importing the package loads numpy and the standard library modules that a
synthetic or scripted decode uses. HttpCompletionsModel, PyYAML and the
thread pool are loaded the first time a run needs them.
"""

from .backends import (
    RecordingModel,
    ScriptedModel,
    SequenceModel,
    StepSample,
    SyntheticModel,
    SyntheticTask,
)
from .baselines import (
    PhiConfig,
    ar_cot_decode,
    phi_decode,
)
from .dataset import TaskInstance, load_dataset, save_dataset, synthetic_suite
from .engine import (
    DecodeConfig,
    DecodeResult,
    check_stop,
    decode,
    extract_answer,
    prune_beam,
)
from .errors import (
    DatasetError,
    DriftbeamError,
    NumericInputError,
    PreconditionError,
    ProtocolError,
    TransportError,
)
from .metrics import (
    PerExample,
    RunMetrics,
    canonical_json,
    compare_runs,
    emit_report,
    flops,
    normalize_answer,
)
from .process import (
    adaptive_threshold,
    estimate_predictable_advantage,
    trajectory_statistics,
)
from .runner import (
    PRESETS,
    BackendSpec,
    RunConfig,
    execute_run,
    parse_config,
    serialize_config,
    sweep,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "HttpCompletionsModel":
        from .backends.http import HttpCompletionsModel

        return HttpCompletionsModel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BackendSpec",
    "DatasetError",
    "DecodeConfig",
    "DecodeResult",
    "DriftbeamError",
    "HttpCompletionsModel",
    "NumericInputError",
    "PRESETS",
    "PerExample",
    "PhiConfig",
    "PreconditionError",
    "ProtocolError",
    "RecordingModel",
    "RunConfig",
    "RunMetrics",
    "ScriptedModel",
    "SequenceModel",
    "StepSample",
    "SyntheticModel",
    "SyntheticTask",
    "TaskInstance",
    "TransportError",
    "adaptive_threshold",
    "ar_cot_decode",
    "canonical_json",
    "check_stop",
    "compare_runs",
    "decode",
    "emit_report",
    "estimate_predictable_advantage",
    "execute_run",
    "extract_answer",
    "flops",
    "load_dataset",
    "normalize_answer",
    "parse_config",
    "phi_decode",
    "prune_beam",
    "save_dataset",
    "serialize_config",
    "sweep",
    "synthetic_suite",
    "trajectory_statistics",
]
