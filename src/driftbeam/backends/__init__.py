"""Sequence-model backends: synthetic oracle, scripted replay, HTTP client.

HttpCompletionsModel is loaded on first access: its module imports
http.client and ssl, which a synthetic or scripted run never uses.
"""

from .base import (
    FINISH_DELIMITER,
    FINISH_EOS,
    FINISH_LENGTH,
    SequenceModel,
    StepSample,
    quality_of,
)
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


def __getattr__(name: str):
    if name == "HttpCompletionsModel":
        from .http import HttpCompletionsModel

        return HttpCompletionsModel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
