"""The package's public names, pinned: adding or removing an export is a
deliberate edit to this list."""

import driftbeam

PUBLIC_NAMES = [
    "AdaptiveThreshold", "BackendSpec", "BeamPath", "BeamState", "Candidate",
    "Comparison", "DatasetError", "DecodeConfig", "DecodeResult", "DecodeStalledError",
    "DriftbeamError", "HttpCompletionsModel", "NumericInputError", "PRESETS",
    "PerExample", "PhiConfig", "PreconditionError", "ProtocolError", "RecordingModel",
    "RunConfig", "RunMetrics", "ScriptedModel", "SequenceModel", "StepSample",
    "SyntheticModel", "SyntheticTask", "TaskInstance", "TransportError",
    "adaptive_threshold", "answers_match", "ar_cot_decode", "canonical_json",
    "check_stop", "compare_runs", "decode", "emit_report",
    "estimate_predictable_advantage", "execute_run", "expand_beam", "extract_answer",
    "finalize", "flops", "load_dataset", "normalize_answer", "parse_config",
    "parse_report", "phi_alignment", "phi_decode", "prune_beam", "quality_of",
    "save_dataset", "score_candidates", "select_beam", "serialize_config",
    "softmax_weights", "substream", "sweep", "synthetic_suite", "trajectory_statistics",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert driftbeam.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in driftbeam.__all__:
        assert getattr(driftbeam, name) is not None, name
