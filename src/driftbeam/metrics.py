"""FLOPs and accuracy accounting, run comparison, report emission.

Token costs follow the 6nP estimate for decoder-only transformers: n output
tokens against a P-parameter model cost about 6*n*P floating-point
operations. Both n and P are integers here, so flops() is exact integer
arithmetic with no float drift.

Answer grading is exact string match after normalization. The normalization
table (applied to both prediction and gold, in order):

    1. strip leading/trailing whitespace
    2. case-fold
    3. drop surrounding quotes and a trailing period
    4. remove thousands separators in pure numbers ("1,234" -> "1234")
    5. canonical decimal form via exact Decimal arithmetic
       ("4.0" -> "4", "0.50" -> "0.5", "+3" -> "3")
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Mapping, Sequence

from .errors import DatasetError, PreconditionError

_NUMERIC_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_COMMA_NUMBER_RE = re.compile(r"[+-]?\d{1,3}(,\d{3})+(\.\d+)?")


def normalize_answer(text: str) -> str:
    """Canonical comparison form of one extracted answer."""
    out = text.strip().casefold()
    if len(out) >= 2 and out[0] == out[-1] and out[0] in "'\"":
        out = out[1:-1].strip()
    if out.endswith("."):
        head = out[:-1]
        # Only a sentence-final period is dropped, not a decimal point.
        if not _NUMERIC_RE.fullmatch(out):
            out = head.strip()
    if _COMMA_NUMBER_RE.fullmatch(out):
        out = out.replace(",", "")
    if _NUMERIC_RE.fullmatch(out):
        try:
            value = Decimal(out)
        except InvalidOperation:
            return out
        if value == value.to_integral_value():
            out = str(int(value.to_integral_value()))
        else:
            out = format(value.normalize(), "f")
    return out


def answers_match(predicted: str, gold: str) -> bool:
    return normalize_answer(predicted) == normalize_answer(gold)


def flops(n: int, p: int) -> int:
    """6*n*P cost of generating n tokens with a P-parameter model; exact."""
    n = _as_int(n, "n")
    p = _as_int(p, "p")
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    if p <= 0:
        raise PreconditionError(f"p must be > 0, got {p}")
    return 6 * n * p


def _as_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise PreconditionError(f"{name} must be an integer, got bool")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise PreconditionError(f"{name} must be an integer count, got {value!r}")


@dataclass(frozen=True, slots=True)
class PerExample:
    task_id: str
    predicted: str
    gold: str
    tokens: int
    stop_step: int
    prune_count: int

    @property
    def correct(self) -> bool:
        return answers_match(self.predicted, self.gold)

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "predicted": self.predicted,
            "gold": self.gold,
            "tokens": self.tokens,
            "stop_step": self.stop_step,
            "prune_count": self.prune_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerExample":
        return cls(
            task_id=data["task_id"],
            predicted=data["predicted"],
            gold=data["gold"],
            tokens=data["tokens"],
            stop_step=data["stop_step"],
            prune_count=data["prune_count"],
        )


@dataclass(frozen=True, slots=True)
class RunMetrics:
    tokens_generated: int
    model_params: int
    flops: int
    correct: int
    total: int
    per_example: tuple[PerExample, ...]

    def __post_init__(self) -> None:
        if self.tokens_generated < 0:
            raise PreconditionError("tokens_generated must be >= 0")
        if self.model_params <= 0:
            raise PreconditionError("model_params must be > 0")
        if self.flops != 6 * self.tokens_generated * self.model_params:
            raise PreconditionError("flops must equal 6 * tokens * params exactly")
        if not (0 <= self.correct <= self.total):
            raise PreconditionError("correct must lie in [0, total]")

    @property
    def accuracy_value(self) -> float:
        if self.total == 0:
            raise PreconditionError("accuracy of an empty run is undefined")
        return self.correct / self.total

    @classmethod
    def from_examples(cls, per_example: Sequence[PerExample], model_params: int) -> "RunMetrics":
        examples = tuple(per_example)
        tokens = sum(e.tokens for e in examples)
        return cls(
            tokens_generated=tokens,
            model_params=_as_int(model_params, "model_params"),
            flops=flops(tokens, model_params),
            correct=sum(1 for e in examples if e.correct),
            total=len(examples),
            per_example=examples,
        )

    def to_dict(self) -> dict:
        return {
            "tokens_generated": self.tokens_generated,
            "model_params": self.model_params,
            "flops": self.flops,
            "correct": self.correct,
            "total": self.total,
            "per_example": [e.to_dict() for e in self.per_example],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunMetrics":
        return cls(
            tokens_generated=data["tokens_generated"],
            model_params=data["model_params"],
            flops=data["flops"],
            correct=data["correct"],
            total=data["total"],
            per_example=tuple(PerExample.from_dict(e) for e in data["per_example"]),
        )


@dataclass(frozen=True, slots=True)
class Comparison:
    """a measured against b: positive accuracy_delta favors a; flops_ratio
    is b's cost over a's (so > 1 means a is cheaper)."""

    accuracy_delta: float
    flops_ratio: float
    token_deltas: tuple[tuple[str, int], ...]
    flagged: bool

    def to_dict(self) -> dict:
        ratio = "inf" if math.isinf(self.flops_ratio) else self.flops_ratio
        return {
            "accuracy_delta": self.accuracy_delta,
            "flops_ratio": ratio,
            "token_deltas": [[tid, d] for tid, d in self.token_deltas],
            "flagged": self.flagged,
        }


def compare_runs(a: RunMetrics, b: RunMetrics) -> Comparison:
    """Accuracy delta (a - b), FLOPs ratio b/a, per-example token deltas."""
    ids_a = sorted(e.task_id for e in a.per_example)
    ids_b = sorted(e.task_id for e in b.per_example)
    if ids_a != ids_b:
        raise DatasetError("compare_runs requires identical task sets")
    if a.flops == 0:
        ratio, flagged = math.inf, True
    else:
        ratio, flagged = b.flops / a.flops, False
    tokens_b = {e.task_id: e.tokens for e in b.per_example}
    deltas = tuple(
        (e.task_id, e.tokens - tokens_b[e.task_id])
        for e in sorted(a.per_example, key=lambda e: e.task_id)
    )
    return Comparison(
        accuracy_delta=a.accuracy_value - b.accuracy_value,
        flops_ratio=ratio,
        token_deltas=deltas,
        flagged=flagged,
    )


# -- report emission ----------------------------------------------------------

_FORMATS = ("json", "csv", "markdown")


def canonical_json(payload) -> bytes:
    """One byte representation per value: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _benchmark_columns(table: Mapping[str, Mapping[str, RunMetrics]]) -> list[str]:
    columns: list[str] = []
    for row in table.values():
        for name in row:
            if name not in columns:
                columns.append(name)
    return columns


def _row_cells(
    row: Mapping[str, RunMetrics], columns: Sequence[str]
) -> tuple[list[str], str, str]:
    cells = []
    values = []
    total_flops = 0
    for name in columns:
        metrics = row.get(name)
        if metrics is None:
            cells.append("-")
        else:
            value = metrics.accuracy_value * 100.0
            values.append(value)
            total_flops += metrics.flops
            cells.append(f"{value:.2f}")
    avg = f"{math.fsum(values) / len(values):.2f}" if values else "-"
    return cells, avg, f"{total_flops:.3e}"


def emit_report(
    table: Mapping[str, Mapping[str, RunMetrics]], format: str = "markdown"
) -> bytes:
    """Render a method-by-benchmark table.

    Rows are methods (or run labels), columns are benchmarks in first-seen
    order, then the across-benchmark average accuracy and the summed FLOPs.
    The json format is lossless: parse_report() inverts it exactly.
    """
    if format not in _FORMATS:
        raise PreconditionError(f"format must be one of {_FORMATS}, got {format!r}")
    columns = _benchmark_columns(table)
    if format == "json":
        payload = {
            "columns": columns,
            "rows": {
                label: {name: metrics.to_dict() for name, metrics in row.items()}
                for label, row in table.items()
            },
        }
        return canonical_json(payload)
    if format == "csv":
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["method", *columns, "avg", "flops"])
        for label, row in table.items():
            cells, avg, total = _row_cells(row, columns)
            writer.writerow([label, *cells, avg, total])
        return buffer.getvalue().encode("utf-8")
    header = "| Method | " + " | ".join([*columns, "Avg.", "FLOPs"]) + " |"
    rule = "|" + "---|" * (len(columns) + 3)
    lines = [header, rule]
    for label, row in table.items():
        cells, avg, total = _row_cells(row, columns)
        lines.append("| " + " | ".join([label, *cells, avg, total]) + " |")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_report(data: bytes) -> dict[str, dict[str, RunMetrics]]:
    """Inverse of emit_report(..., format="json")."""
    payload = json.loads(data.decode("utf-8"))
    return {
        label: {name: RunMetrics.from_dict(cell) for name, cell in row.items()}
        for label, row in payload["rows"].items()
    }
