"""The package's public names, pinned: adding or removing an export is a
deliberate edit to this list, and every export has a reader outside the
tests."""

import re
from pathlib import Path

import driftbeam

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "driftbeam"

PUBLIC_NAMES = [
    "BackendSpec", "DatasetError", "DecodeConfig", "DecodeResult",
    "DriftbeamError", "HttpCompletionsModel", "NumericInputError",
    "PRESETS", "PerExample", "PhiConfig", "PreconditionError", "ProtocolError",
    "RecordingModel", "RunConfig", "RunMetrics", "ScriptedModel", "SequenceModel",
    "StepSample", "SyntheticModel", "SyntheticTask", "TaskInstance", "TransportError",
    "adaptive_threshold", "ar_cot_decode", "canonical_json",
    "check_stop", "compare_runs", "decode", "emit_report",
    "estimate_predictable_advantage", "execute_run", "extract_answer", "flops",
    "load_dataset", "normalize_answer", "parse_config", "phi_decode",
    "prune_beam", "save_dataset", "serialize_config", "sweep", "synthetic_suite",
    "trajectory_statistics",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert driftbeam.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in driftbeam.__all__:
        assert getattr(driftbeam, name) is not None, name


def test_every_public_name_is_read_outside_the_tests():
    # A reader is a package module other than __init__.py and the one that
    # defines the name, a file under demos/ or bench/, or README.md.
    modules = {path: path.read_text(encoding="utf-8")
               for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"}
    others = [path.read_text(encoding="utf-8")
              for folder in ("demos", "bench") for path in (ROOT / folder).rglob("*")
              if path.is_file() and path.suffix in (".py", ".md")]
    others.append((ROOT / "README.md").read_text(encoding="utf-8"))
    unread = []
    for name in driftbeam.__all__:
        defined = re.compile(rf"^(?:(?:def|class) {name}\b|{name}\s*[:=])", re.M)
        owners = [path for path, text in modules.items() if defined.search(text)]
        assert len(owners) == 1, (name, owners)
        used = re.compile(rf"\b{name}\b")
        readers = [text for path, text in modules.items() if path != owners[0]] + others
        if not any(used.search(text) for text in readers):
            unread.append(name)
    assert unread == []
