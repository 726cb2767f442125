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
       ("4.0" -> "4", "0.50" -> "0.5", "+3" -> "3"); a nonzero number
       of magnitude 10**640 or more, or below 10**-639, takes its exact
       exponent form instead ("10e4999" -> "1e+5000")
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, InvalidOperation
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import DatasetError, DriftbeamError, PreconditionError

_NUMERIC_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_COMMA_NUMBER_RE = re.compile(r"[+-]?\d{1,3}(,\d{3})+(\.\d+)?")
# str(int) writes this many digits under any interpreter's digit limit (640
# is the lowest one can set). Past it a fixed form also grows with the
# exponent, so larger and smaller magnitudes take the exponent form.
_FIXED_DIGITS = sys.int_info.str_digits_check_threshold


def normalize_answer(text: str) -> str:
    """Canonical comparison form of one extracted answer.

    One pass can expose more to strip (`".."` loses one period, `"'a'."`
    its quotes only after the period), so passes repeat until the form is
    stable; each pass shortens the text or leaves a canonical number.
    """
    out = _normalize_pass(text)
    while (again := _normalize_pass(out)) != out:
        out = again
    return out


def _normalize_pass(text: str) -> str:
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
        if not value.is_zero() and abs(value.adjusted()) >= _FIXED_DIGITS:
            exact = Context(prec=len(value.as_tuple().digits), Emax=MAX_EMAX, Emin=MIN_EMIN)
            out = str(value.normalize(exact)).casefold()
        elif value == value.to_integral_value():
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


_EXACT_TYPES = {"int": int, "str": str}


def _record_fields(cls: type, data) -> dict:
    """A copy of `data`, checked to hold exactly the fields of `cls`, each
    int or str field with exactly that type (a bool is not a count)."""
    if not isinstance(data, Mapping):
        raise DatasetError(f"{cls.__name__} record must be a mapping, got {type(data).__name__}")
    names = {f.name for f in fields(cls)}
    missing, extra = sorted(names - set(data)), sorted(set(data) - names)
    if missing or extra:
        raise DatasetError(f"{cls.__name__} record: missing keys {missing}, extra keys {extra}")
    for f in fields(cls):
        want = _EXACT_TYPES.get(f.type)
        if want is not None and type(data[f.name]) is not want:
            raise DatasetError(f"{cls.__name__} record: {f.name} must be {f.type}, "
                               f"got {data[f.name]!r:.40}")
    return dict(data)


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

    @classmethod
    def from_dict(cls, data: Mapping) -> "PerExample":
        return cls(**_record_fields(cls, data))


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """A run's examples and model size; the four counts are derived from
    them once, when the record is built, and never stored apart from them."""

    per_example: tuple[PerExample, ...]
    model_params: int
    tokens_generated: int = field(init=False)
    flops: int = field(init=False)
    correct: int = field(init=False)
    total: int = field(init=False)

    def __post_init__(self) -> None:
        examples = tuple(self.per_example)
        tokens = sum(e.tokens for e in examples)
        for name, value in (
            ("per_example", examples),
            ("model_params", _as_int(self.model_params, "model_params")),
            ("tokens_generated", tokens),
            ("flops", flops(tokens, self.model_params)),
            ("correct", sum(e.correct for e in examples)),
            ("total", len(examples)),
        ):
            object.__setattr__(self, name, value)

    @property
    def accuracy_value(self) -> Optional[float]:
        """correct / total, or None when no task was graded."""
        return self.correct / self.total if self.total else None

    def to_dict(self) -> dict:
        """JSON-shaped: per_example is a list, as json.loads reads it back."""
        record = asdict(self)
        record["per_example"] = list(record["per_example"])
        return record

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunMetrics":
        """The record `to_dict` wrote. A stored count that differs from what
        its examples give is a DatasetError naming the first such count."""
        record = _record_fields(cls, data)
        if not isinstance(record["per_example"], list):
            raise DatasetError("RunMetrics record: per_example must be a list")
        metrics = cls(tuple(PerExample.from_dict(e) for e in record["per_example"]),
                      record["model_params"])
        for f in fields(cls):
            if not f.init and record[f.name] != getattr(metrics, f.name):
                raise DatasetError(f"RunMetrics record: {f.name} is {record[f.name]}, "
                                   f"its examples give {getattr(metrics, f.name)}")
        return metrics


def compare_runs(a: RunMetrics, b: RunMetrics) -> dict:
    """a measured against b, as `driftbeam compare` prints it: accuracy
    delta a - b (positive favors a; None when neither run graded a task),
    FLOPs ratio b/a (> 1 means a is cheaper; "inf" and flagged when a cost
    nothing) and per-example token deltas a - b, sorted by task id."""
    ids_a = sorted(e.task_id for e in a.per_example)
    ids_b = sorted(e.task_id for e in b.per_example)
    if ids_a != ids_b:
        raise DatasetError("compare_runs requires identical task sets")
    tokens_b = {e.task_id: e.tokens for e in b.per_example}
    return {
        # Equal task sets: both runs are empty, or neither is.
        "accuracy_delta": a.accuracy_value - b.accuracy_value if a.total else None,
        "flops_ratio": b.flops / a.flops if a.flops else "inf",
        "token_deltas": [[e.task_id, e.tokens - tokens_b[e.task_id]]
                         for e in sorted(a.per_example, key=lambda e: e.task_id)],
        "flagged": a.flops == 0,
    }


# -- report emission ----------------------------------------------------------

_FORMATS = ("json", "markdown")
# Built once: json.dumps with any option builds a new encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(payload) -> bytes:
    """One byte representation per value: sorted keys, no whitespace."""
    return _CANONICAL.encode(payload).encode("utf-8")


def read_json_lines(
    path: Union[str, Path], error: type[DriftbeamError], **options
) -> Iterator[tuple[int, str, object]]:
    """(line number, text, value) of each non-blank line of a JSONL file,
    numbered as a text-mode read numbers them, parsed by `json.loads(line,
    **options)`. A line that is not UTF-8 or not JSON, nests too deeply or
    fails a parse hook raises `error` naming `path:line`."""
    with open(path, "rb") as handle:
        lines = (part for chunk in handle for part in chunk.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                value = json.loads(line, **options)
            except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
                raise error(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            yield line_no, line, value


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
        if metrics is None or metrics.total == 0:
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
    A missing cell, or a run with no graded example, shows as "-" and is
    left out of the average. The json format holds each cell's
    `RunMetrics.to_dict()`, which `RunMetrics.from_dict` reads back.
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
    header = "| Method | " + " | ".join([*columns, "Avg.", "FLOPs"]) + " |"
    rule = "|" + "---|" * (len(columns) + 3)
    lines = [header, rule]
    for label, row in table.items():
        cells, avg, total = _row_cells(row, columns)
        lines.append("| " + " | ".join([label, *cells, avg, total]) + " |")
    return ("\n".join(lines) + "\n").encode("utf-8")
