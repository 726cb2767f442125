"""Metrics tests: normalization table, exact FLOPs, comparisons, reports."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam import (
    DatasetError,
    PerExample,
    PreconditionError,
    RunMetrics,
    canonical_json,
    compare_runs,
    emit_report,
    flops,
    normalize_answer,
)
from driftbeam.metrics import answers_match


class TestNormalization:
    # (raw, canonical) pairs derived by applying the documented pipeline by hand.
    TABLE = [
        ("  42 ", "42"),
        ("Answer", "answer"),
        ('"yes"', "yes"),
        ("'Paris'", "paris"),
        ("The end.", "the end"),
        ("3.5.", "3.5"),      # trailing period after a number is sentence-final
        ("4.0", "4"),
        ("0.50", "0.5"),
        ("+3", "3"),
        ("-0", "0"),
        ("1,234", "1234"),
        ("12,345,678", "12345678"),
        ("1,234.5", "1234.5"),
        ("2e3", "2000"),
        ("1.5e-2", "0.015"),
        ("007", "7"),
        ("  A  ", "a"),
        ("", ""),
        ("..", ""),           # each pass may expose another sentence-final period
        ("'a'.", "a"),        # quotes exposed by dropping the period
    ]

    @pytest.mark.parametrize("raw,canonical", TABLE)
    def test_table(self, raw, canonical):
        assert normalize_answer(raw) == canonical

    def test_comma_in_words_untouched(self):
        assert normalize_answer("yes, it is") == "yes, it is"

    def test_decimal_point_survives(self):
        assert normalize_answer("3.5") == "3.5"

    def test_match_is_symmetric_on_forms(self):
        assert answers_match("4.0", "4")
        assert answers_match("1,234", "1234")
        assert answers_match('"B"', "b")
        assert not answers_match("4", "5")

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once

    @pytest.mark.parametrize("raw, canonical", [
        ("1e5000", "1e+5000"),
        ("10e4999", "1e+5000"),
        ("-1.50E700", "-1.5e+700"),
        ("1e999999999", "1e+999999999"),
        ("1e-999999999", "1e-999999999"),
        ("0e5000", "0"),
        ("1e639", "1" + "0" * 639),
        ("1e-639", "0." + "0" * 638 + "1"),
    ])
    def test_extreme_numeral_takes_its_exponent_form(self, raw, canonical):
        assert normalize_answer(raw) == canonical

    @given(st.integers(1, 10**30), st.integers(-2000, 2000), st.integers(0, 4))
    @settings(max_examples=200)
    def test_equal_values_normalize_equal(self, mantissa, exponent, shift):
        text = normalize_answer(f"{mantissa}e{exponent}")
        assert text == normalize_answer(f"{mantissa * 10**shift}e{exponent - shift}")
        assert normalize_answer(text) == text


class TestFlops:
    def test_examples(self):
        assert flops(100, 7_000_000_000) == 4_200_000_000_000
        assert flops(0, 7_000_000_000) == 0
        assert flops(1, 1) == 6

    def test_exact_integer_at_scale(self):
        # Large enough that float arithmetic would round; int must not.
        n, p = 5_687_500, 8_000_000_000
        assert flops(n, p) == 273_000_000_000_000_000
        assert isinstance(flops(n, p), int)

    def test_integral_float_coerced(self):
        assert flops(10.0, 100) == 6000

    def test_rejects_non_counts(self):
        with pytest.raises(PreconditionError):
            flops(1.5, 100)
        with pytest.raises(PreconditionError):
            flops(-1, 100)
        with pytest.raises(PreconditionError):
            flops(10, 0)
        with pytest.raises(PreconditionError):
            flops(True, 100)

    @given(n=st.integers(min_value=0, max_value=10**9),
           p=st.integers(min_value=1, max_value=10**13))
    @settings(max_examples=200)
    def test_always_divisible_by_six(self, n, p):
        assert flops(n, p) % 6 == 0
        assert flops(n, p) == 6 * n * p


def ex(task_id, predicted, gold, tokens=10, stop_step=2, prune_count=0):
    return PerExample(task_id=task_id, predicted=predicted, gold=gold,
                      tokens=tokens, stop_step=stop_step, prune_count=prune_count)


class TestRunMetrics:
    def test_from_examples(self):
        metrics = RunMetrics(
            [ex("t1", "4", "4", tokens=30), ex("t2", "5", "4", tokens=20)],
            model_params=1_000_000,
        )
        assert metrics.tokens_generated == 50
        assert metrics.flops == 6 * 50 * 1_000_000
        assert metrics.correct == 1 and metrics.total == 2
        assert metrics.accuracy_value == pytest.approx(0.5)

    def test_empty_run_has_no_accuracy(self):
        assert RunMetrics((), model_params=10).accuracy_value is None

    def test_extreme_numeral_is_graded(self):
        metrics = RunMetrics([ex("t1", "10e4999", "1e5000"), ex("t2", "1e5000", "2e5000")],
                             model_params=10)
        assert (metrics.correct, metrics.total) == (1, 2)

    def test_grading_uses_normalization(self):
        metrics = RunMetrics(
            [ex("t1", "4.0", "4"), ex("t2", '"b"', "B")], model_params=10
        )
        assert metrics.correct == 2

    def test_flops_invariant_enforced(self):
        # flops is derived, never taken: a record whose flops is not
        # 6 * tokens * params is rejected when read.
        record = RunMetrics([ex("t1", "4", "4", tokens=10)], model_params=10).to_dict()
        record["flops"] = 599
        with pytest.raises(DatasetError, match="flops is 599, its examples give 600"):
            RunMetrics.from_dict(record)
        with pytest.raises(TypeError):
            RunMetrics((), model_params=10, flops=599)

    @pytest.mark.parametrize("stale, named", [
        ({"total": 5, "correct": 4, "tokens_generated": 20}, "correct is 4, its examples give 1"),
        ({"tokens_generated": 21, "flops": 6 * 21 * 123}, "tokens_generated is 21"),
        ({"correct": 0}, "correct is 0, its examples give 1"),
        ({"total": 5}, "total is 5, its examples give 1"),
    ])
    def test_from_dict_rejects_counts_its_examples_do_not_give(self, stale, named):
        record = RunMetrics([ex("t1", "4", "4", tokens=20)], model_params=123).to_dict()
        record.update(stale)
        with pytest.raises(DatasetError, match=re.escape(named)):
            RunMetrics.from_dict(record)

    def test_counts_derived_once(self):
        metrics = RunMetrics([ex("t1", "4", "4", tokens=7)], model_params=3)
        assert isinstance(metrics.per_example, tuple)
        assert (metrics.tokens_generated, metrics.flops, metrics.correct, metrics.total) == (
            7, 126, 1, 1)
        with pytest.raises(PreconditionError):
            RunMetrics([ex("t1", "4", "4", tokens=-1)], model_params=3)
        with pytest.raises(PreconditionError):
            RunMetrics([], model_params=0)

    def test_roundtrip(self):
        metrics = RunMetrics([ex("t1", "4", "4")], model_params=123)
        assert RunMetrics.from_dict(metrics.to_dict()) == metrics

    def test_to_dict_is_json_shaped(self):
        # What a reader of metrics.json gets back must equal to_dict() itself:
        # per_example a list of plain mappings, not a tuple.
        metrics = RunMetrics(
            [ex("t1", "4", "4"), ex("t2", "5", "4", tokens=3)], model_params=123
        )
        record = metrics.to_dict()
        assert json.loads(canonical_json(record)) == record

    @pytest.mark.parametrize(
        "change, named",
        [
            (lambda d: d.pop("flops"), "missing keys ['flops']"),
            (lambda d: d.update(extra=1), "extra keys ['extra']"),
            (lambda d: d["per_example"][0].pop("gold"), "missing keys ['gold']"),
        ],
    )
    def test_from_dict_names_bad_keys(self, change, named):
        record = RunMetrics([ex("t1", "4", "4")], model_params=123).to_dict()
        change(record)
        with pytest.raises(DatasetError, match=re.escape(named)):
            RunMetrics.from_dict(record)

    @pytest.mark.parametrize(
        "change, named",
        [
            (lambda d: d.update(tokens_generated="1"), "tokens_generated must be int"),
            (lambda d: d.update(total=True), "total must be int"),
            (lambda d: d.update(flops=float(d["flops"])), "flops must be int"),
            (lambda d: d["per_example"][0].update(tokens="10"), "tokens must be int"),
            (lambda d: d["per_example"][0].update(predicted=4), "predicted must be str"),
            (lambda d: d.update(per_example=5), "per_example must be a list"),
            (lambda d: d.update(per_example={"t1": 1}), "per_example must be a list"),
        ],
    )
    def test_from_dict_names_bad_values(self, change, named):
        record = RunMetrics([ex("t1", "4", "4")], model_params=123).to_dict()
        change(record)
        with pytest.raises(DatasetError, match=re.escape(named)):
            RunMetrics.from_dict(record)

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(DatasetError, match="must be a mapping"):
            PerExample.from_dict(["t1", "4", "4", 10, 2, 0])


class TestCompareRuns:
    def _runs(self):
        a = RunMetrics(
            [ex("t1", "4", "4", tokens=100), ex("t2", "9", "9", tokens=150)],
            model_params=8_000_000_000,
        )
        b = RunMetrics(
            [ex("t1", "4", "4", tokens=180), ex("t2", "0", "9", tokens=190)],
            model_params=8_000_000_000,
        )
        return a, b

    def test_fields(self):
        a, b = self._runs()
        cmp = compare_runs(a, b)
        assert cmp["accuracy_delta"] == pytest.approx(0.5)
        assert cmp["flops_ratio"] == pytest.approx(370 / 250)
        assert cmp["token_deltas"] == [["t1", -80], ["t2", -40]]
        assert cmp["flagged"] is False

    def test_pinned_ratio(self):
        # 8,354,167 tokens against 5,687,500 at the same parameter count.
        a = RunMetrics([ex("t1", "4", "4", tokens=5_687_500)], model_params=8_000_000_000)
        b = RunMetrics([ex("t1", "4", "4", tokens=8_354_167)], model_params=8_000_000_000)
        assert a.flops == 273_000_000_000_000_000
        assert compare_runs(a, b)["flops_ratio"] == pytest.approx(1.468864, abs=1e-4)

    def test_mismatched_tasks_rejected(self):
        a = RunMetrics([ex("t1", "4", "4")], model_params=10)
        b = RunMetrics([ex("t2", "4", "4")], model_params=10)
        with pytest.raises(DatasetError):
            compare_runs(a, b)

    def test_zero_cost_run_flagged_infinite(self):
        a = RunMetrics([ex("t1", "4", "4", tokens=0)], model_params=10)
        b = RunMetrics([ex("t1", "4", "4", tokens=10)], model_params=10)
        cmp = compare_runs(a, b)
        assert cmp["flops_ratio"] == "inf"
        assert cmp["flagged"] is True

    def test_deltas_sorted_by_task_id(self):
        a = RunMetrics(
            [ex("z", "1", "1", tokens=5), ex("a", "1", "1", tokens=7)], model_params=10
        )
        b = RunMetrics(
            [ex("a", "1", "1", tokens=2), ex("z", "1", "1", tokens=2)], model_params=10
        )
        cmp = compare_runs(a, b)
        assert [tid for tid, _ in cmp["token_deltas"]] == ["a", "z"]

    def test_returns_the_printed_dict(self):
        # `driftbeam compare` prints canonical_json of this dict as it is.
        a = RunMetrics([ex("t1", "4", "4", tokens=2), ex("t2", "4", "5", tokens=3)],
                       model_params=10)
        b = RunMetrics([ex("t1", "4", "4", tokens=4), ex("t2", "5", "5", tokens=5)],
                       model_params=10)
        assert canonical_json(compare_runs(a, b)) == (
            b'{"accuracy_delta":-0.5,"flagged":false,"flops_ratio":1.8,'
            b'"token_deltas":[["t1",-2],["t2",-2]]}')


class TestReports:
    def _table(self):
        gsm = RunMetrics(
            [ex("g1", "4", "4", tokens=10), ex("g2", "5", "4", tokens=10)],
            model_params=1_000_000,
        )
        arc = RunMetrics(
            [ex("a1", "B", "B", tokens=20)], model_params=1_000_000
        )
        return {"mfs": {"gsm": gsm, "arc": arc}, "ar-cot": {"gsm": gsm}}

    def test_markdown_layout(self):
        text = emit_report(self._table(), "markdown").decode()
        lines = text.splitlines()
        assert lines[0] == "| Method | gsm | arc | Avg. | FLOPs |"
        assert lines[1] == "|---|---|---|---|---|"
        assert lines[2] == "| mfs | 50.00 | 100.00 | 75.00 | 2.400e+08 |"
        assert lines[3] == "| ar-cot | 50.00 | - | 50.00 | 1.200e+08 |"

    def test_json_roundtrip_lossless(self):
        table = self._table()
        payload = json.loads(emit_report(table, "json"))
        assert payload["columns"] == ["gsm", "arc"]
        parsed = {label: {name: RunMetrics.from_dict(cell) for name, cell in row.items()}
                  for label, row in payload["rows"].items()}
        assert parsed == table

    def test_run_with_no_graded_example_is_a_missing_cell(self):
        table = self._table()
        table["ar-cot"]["arc"] = RunMetrics((), model_params=1_000_000)
        lines = emit_report(table, "markdown").decode().splitlines()
        assert lines[3] == "| ar-cot | 50.00 | - | 50.00 | 1.200e+08 |"

    def test_empty_table_headers_only(self):
        md = emit_report({}, "markdown").decode()
        assert md.splitlines() == ["| Method | Avg. | FLOPs |", "|---|---|---|"]

    def test_unknown_format_rejected(self):
        with pytest.raises(PreconditionError):
            emit_report({}, "xml")
        with pytest.raises(PreconditionError):
            emit_report({}, "csv")

    def test_canonical_json_is_stable(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == b'{"a":[1.5,"x"],"b":1}'
        # Key order of the input never leaks into the bytes.
        assert canonical_json({"a": 0, "b": 1}) == canonical_json({"b": 1, "a": 0})

