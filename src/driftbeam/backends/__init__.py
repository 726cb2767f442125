"""Sequence-model backends: synthetic oracle, scripted replay, HTTP client."""

from .base import (
    FINISH_DELIMITER,
    FINISH_EOS,
    FINISH_LENGTH,
    SequenceModel,
    StepSample,
    quality_of,
)
from .http import HttpCompletionsModel
from .scripted import (
    RecordingModel,
    ScriptedModel,
    fixture_key,
    load_fixture,
    save_fixture,
)
from .synthetic import SyntheticModel, SyntheticTask

__all__ = [
    "FINISH_DELIMITER",
    "FINISH_EOS",
    "FINISH_LENGTH",
    "SequenceModel",
    "StepSample",
    "quality_of",
    "HttpCompletionsModel",
    "RecordingModel",
    "ScriptedModel",
    "fixture_key",
    "load_fixture",
    "save_fixture",
    "SyntheticModel",
    "SyntheticTask",
]
