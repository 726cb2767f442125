"""Task ingestion: JSONL datasets and the generated synthetic suite.

Real datasets are line-delimited JSON with fields {id, prompt, answer}.
There is no downloading here — callers supply files. The synthetic suite is
addressed as "synthetic:N" and generates N instances of the multi-arm
family, each with its drift vector permuted by a per-instance substream so
the gold arm varies across the suite while everything stays seeded.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .backends.synthetic import SyntheticTask
from .engine import TAG_TASK
from .errors import DatasetError
from .metrics import read_json_lines


@dataclass(frozen=True, slots=True)
class TaskInstance:
    id: str
    prompt: str
    gold_answer: str


def _finite_number(text: str) -> float:
    """json's hook for NaN, Infinity and -Infinity, which JSON does not have,
    and for numbers with a fraction or exponent, which can overflow a float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a JSON number within the float range")
    return value


def load_dataset(path: Union[str, Path]) -> list[TaskInstance]:
    """Validated instances in file order; errors carry line numbers."""
    instances: list[TaskInstance] = []
    seen: set[str] = set()
    # NaN/Infinity and float overflow are rejected as invalid JSON.
    for line_no, line, record in read_json_lines(path, DatasetError,
                                                 parse_constant=_finite_number,
                                                 parse_float=_finite_number):
        if not isinstance(record, dict):
            raise DatasetError(f"{path}:{line_no}: not a JSON object: {line[:40]}")
        for field in ("id", "prompt", "answer"):
            if field not in record:
                raise DatasetError(f"{path}:{line_no}: missing field {field!r}")
            value = record[field]  # a numeric id or answer is read as its string
            numeric = type(value) in (int, float)  # so a bool is no number here
            if not (isinstance(value, str) or (numeric and field != "prompt")):
                kind = "a string" if field == "prompt" else "a string or a number"
                raise DatasetError(
                    f"{path}:{line_no}: {field!r} must be {kind}, got {json.dumps(value)}"
                )
        task_id = str(record["id"])
        if task_id in seen:
            raise DatasetError(f"{path}:{line_no}: duplicate id {task_id!r}")
        seen.add(task_id)
        instances.append(
            TaskInstance(
                id=task_id,
                prompt=record["prompt"],
                gold_answer=str(record["answer"]),
            )
        )
    if not instances:
        warnings.warn(f"dataset {path} is empty", stacklevel=2)
    return instances


def save_dataset(path: Union[str, Path], instances: list[TaskInstance]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for inst in instances:
            handle.write(
                json.dumps(
                    {"id": inst.id, "prompt": inst.prompt, "answer": inst.gold_answer},
                    sort_keys=True,
                )
                + "\n"
            )


def is_synthetic_name(name: str) -> bool:
    return name.startswith("synthetic:")


def synthetic_size(name: str) -> int:
    if not is_synthetic_name(name):
        raise DatasetError(f"not a synthetic dataset name: {name!r}")
    try:
        size = int(name.split(":", 1)[1])
    except ValueError as exc:
        raise DatasetError(f"bad synthetic size in {name!r}") from exc
    if size < 0:
        raise DatasetError(f"synthetic size must be >= 0, got {size}")
    return size


def synthetic_instance_task(base: SyntheticTask, seed: int, index: int) -> SyntheticTask:
    """The index-th instance's task: base drifts under a seeded permutation."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, TAG_TASK, index]))
    permutation = [int(i) for i in rng.permutation(base.arm_count)]
    return base.permuted(permutation)


def synthetic_suite(
    base: SyntheticTask, size: int, seed: int
) -> list[tuple[TaskInstance, SyntheticTask]]:
    """N seeded instances; prompts avoid the generator's own step grammar."""
    suite = []
    for index in range(size):
        task = synthetic_instance_task(base, seed, index)
        instance = TaskInstance(
            id=f"syn-{index:04d}",
            prompt=f"Case {index}: pick the best arm.\n",
            gold_answer=task.gold_label,
        )
        suite.append((instance, task))
    return suite
