"""The package's public names, pinned: adding or removing an export is a
deliberate edit to this list."""

import driftbeam

PUBLIC_NAMES = [
    "BackendSpec", "Comparison", "DatasetError", "DecodeConfig", "DecodeResult",
    "DecodeStalledError", "DriftbeamError", "HttpCompletionsModel", "NumericInputError",
    "PRESETS", "PerExample", "PhiConfig", "PreconditionError", "ProtocolError",
    "RecordingModel", "RunConfig", "RunMetrics", "ScriptedModel", "SequenceModel",
    "StepSample", "SyntheticModel", "SyntheticTask", "TaskInstance", "TransportError",
    "adaptive_threshold", "answers_match", "ar_cot_decode", "canonical_json",
    "check_stop", "compare_runs", "decode", "emit_report",
    "estimate_predictable_advantage", "execute_run", "extract_answer", "flops",
    "load_dataset", "normalize_answer", "parse_config", "parse_report", "phi_decode",
    "prune_beam", "save_dataset", "serialize_config", "sweep", "synthetic_suite",
    "trajectory_statistics",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert driftbeam.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in driftbeam.__all__:
        assert getattr(driftbeam, name) is not None, name
