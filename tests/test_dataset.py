"""Dataset ingestion and synthetic-suite generation tests."""

import json
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_values
from driftbeam import DatasetError, ProtocolError, TaskInstance, load_dataset, save_dataset
from driftbeam.backends.scripted import load_fixture
from driftbeam.backends.synthetic import SyntheticTask
from driftbeam.dataset import (
    is_synthetic_name,
    synthetic_instance_task,
    synthetic_size,
    synthetic_suite,
)


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


class TestLoadDataset:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, [
            {"id": "t1", "prompt": "Q1\n", "answer": "4"},
            {"id": "t2", "prompt": "Q2\n", "answer": "B"},
        ])
        instances = load_dataset(path)
        assert [i.id for i in instances] == ["t1", "t2"]
        assert instances[0] == TaskInstance(id="t1", prompt="Q1\n", gold_answer="4")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"id": "t1", "prompt": "Q", "answer": "4"}\n\n\n')
        assert len(load_dataset(path)) == 1

    def test_missing_field_carries_line_number(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, [
            {"id": "t1", "prompt": "Q1\n", "answer": "4"},
            {"id": "t2", "prompt": "Q2\n"},
        ])
        with pytest.raises(DatasetError, match="tasks.jsonl:2.*answer"):
            load_dataset(path)

    def test_invalid_json_carries_line_number(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"id": "t1", "prompt": "Q", "answer": "4"}\nnot json\n')
        with pytest.raises(DatasetError, match="tasks.jsonl:2"):
            load_dataset(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, [
            {"id": "t1", "prompt": "Q1\n", "answer": "4"},
            {"id": "t1", "prompt": "Q2\n", "answer": "5"},
        ])
        with pytest.raises(DatasetError, match="duplicate id"):
            load_dataset(path)

    def test_empty_dataset_warns(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text("")
        with pytest.warns(UserWarning, match="empty"):
            assert load_dataset(path) == []

    def test_non_string_ids_coerced(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, [{"id": 7, "prompt": "Q", "answer": 4}])
        inst = load_dataset(path)[0]
        assert inst.id == "7" and inst.gold_answer == "4"

    @pytest.mark.parametrize("line", ["5", '["id", "prompt", "answer"]', '"t1"', "null"])
    def test_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"id": "t1", "prompt": "Q", "answer": "4"}\n' + line + "\n")
        with pytest.raises(DatasetError, match="tasks.jsonl:2: not a JSON object"):
            load_dataset(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_rejected(self, tmp_path, constant):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"id": "t1", "prompt": "Q", "answer": "4"}\n'
                        f'{{"id": "t2", "prompt": "Q", "answer": {constant}}}\n')
        with pytest.raises(DatasetError, match=f"tasks.jsonl:2: .*{constant} is not a JSON"):
            load_dataset(path)

    @pytest.mark.parametrize("prompt", [None, {"x": 1}, ["Q"], 5, True])
    def test_non_string_prompt_rejected(self, tmp_path, prompt):
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, [{"id": "t1", "prompt": prompt, "answer": "4"}])
        with pytest.raises(DatasetError, match="tasks.jsonl:1: 'prompt' must be a string"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["id", "answer"])
    @pytest.mark.parametrize("value", [None, True, [7], {"v": 7}])
    def test_non_scalar_id_or_answer_rejected(self, tmp_path, field, value):
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, [{"id": "t1", "prompt": "Q", "answer": "4", field: value}])
        with pytest.raises(DatasetError, match=f"tasks.jsonl:1: '{field}' must be a string or a number"):
            load_dataset(path)

    @pytest.mark.parametrize("number", ["1e999", "-1e999", "1.5e400"])
    @pytest.mark.parametrize("field", ["id", "answer"])
    def test_number_overflowing_a_float_rejected(self, tmp_path, field, number):
        path = tmp_path / "tasks.jsonl"
        other = "answer" if field == "id" else "id"
        path.write_text('{"id": "t1", "prompt": "Q", "answer": "4"}\n'
                        f'{{"{field}": {number}, "prompt": "Q", "{other}": "t2"}}\n')
        message = f"{number} is not a JSON number within the float range"
        with pytest.raises(DatasetError, match=f"tasks.jsonl:2: invalid JSON \\({message}\\)"):
            load_dataset(path)

    def test_large_finite_numbers_load(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"id": 1e308, "prompt": "Q", "answer": 12345678901234567890}\n')
        inst = load_dataset(path)[0]
        assert inst.id == "1e+308" and inst.gold_answer == "12345678901234567890"

    def test_save_load_roundtrip(self, tmp_path):
        instances = [
            TaskInstance(id="a", prompt="P1\n", gold_answer="1"),
            TaskInstance(id="b", prompt="P2\n", gold_answer="2"),
        ]
        path = tmp_path / "rt.jsonl"
        save_dataset(path, instances)
        assert load_dataset(path) == instances


class TestSyntheticNames:
    def test_name_parsing(self):
        assert is_synthetic_name("synthetic:100")
        assert not is_synthetic_name("gsm8k.jsonl")
        assert synthetic_size("synthetic:32") == 32
        assert synthetic_size("synthetic:0") == 0

    def test_bad_sizes(self):
        with pytest.raises(DatasetError):
            synthetic_size("synthetic:lots")
        with pytest.raises(DatasetError):
            synthetic_size("synthetic:-3")
        with pytest.raises(DatasetError):
            synthetic_size("real.jsonl")


class TestSyntheticSuite:
    def test_deterministic_and_seed_sensitive(self, two_arm_task):
        a = synthetic_suite(two_arm_task, 8, seed=0)
        b = synthetic_suite(two_arm_task, 8, seed=0)
        c = synthetic_suite(two_arm_task, 8, seed=1)
        assert [t.drifts for _, t in a] == [t.drifts for _, t in b]
        assert [t.drifts for _, t in a] != [t.drifts for _, t in c]

    def test_gold_matches_permuted_task(self, two_arm_task):
        for instance, task in synthetic_suite(two_arm_task, 16, seed=3):
            assert instance.gold_answer == task.gold_label
            assert sorted(task.drifts) == sorted(two_arm_task.drifts)

    def test_gold_varies_across_instances(self, two_arm_task):
        golds = {inst.gold_answer for inst, _ in synthetic_suite(two_arm_task, 32, seed=0)}
        assert golds == {"A", "B"}  # permutation actually moves the gold arm

    def test_ids_and_prompts(self, two_arm_task):
        suite = synthetic_suite(two_arm_task, 3, seed=0)
        assert [inst.id for inst, _ in suite] == ["syn-0000", "syn-0001", "syn-0002"]
        for inst, _ in suite:
            # The prompt must not collide with the generator's step grammar.
            assert "consider arm" not in inst.prompt
            assert "Answer:" not in inst.prompt

    def test_instance_task_permutation_is_indexed(self):
        base = SyntheticTask(arm_count=4, drifts=(0.4, 0.1, -0.1, -0.4),
                             noise_std=0.1, horizon=4)
        t0 = synthetic_instance_task(base, 0, 0)
        t0_again = synthetic_instance_task(base, 0, 0)
        t1 = synthetic_instance_task(base, 0, 1)
        assert t0.drifts == t0_again.drifts
        assert sorted(t1.drifts) == sorted(base.drifts)


dataset_records = st.fixed_dictionaries({}, optional={
    "id": st.text(max_size=4) | json_values,
    "prompt": st.text(max_size=4) | json_values,
    "answer": st.text(max_size=4) | json_values,
})
# A number literal json.dumps cannot write: one that overflows a float.
overflowing = st.sampled_from(["1e999", "-1e999", "2.5E+400"])


class TestLoadDatasetBoundary:
    @given(
        record=dataset_records | json_values,
        literal=st.none() | overflowing,
    )
    @settings(max_examples=300)
    def test_any_json_line_loads_or_is_a_dataset_error(self, tmp_path_factory, record, literal):
        line = json.dumps(record)
        if literal is not None and isinstance(record, dict) and record:
            line = json.dumps({**record, next(iter(record)): "@"}).replace('"@"', literal, 1)
        # A new file each time: truncating one to rewrite it can be slow.
        fd, path = tempfile.mkstemp(suffix=".jsonl", dir=tmp_path_factory.getbasetemp())
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                instances = load_dataset(path)
            except DatasetError:
                return
        (instance,) = instances
        assert isinstance(instance.prompt, str)


# Raw file lines: arbitrary bytes, JSON-shaped values, dataset-shaped records,
# and lines that are not UTF-8 or that nest past the recursion limit.
raw_lines = (
    st.binary(max_size=24)
    | (dataset_records | json_values).map(lambda value: json.dumps(value).encode())
    | st.sampled_from([b"\xff", b'{"id": "\xc3"}', b"[" * 100_000, b'{"a":' * 100_000])
)


class TestRawLinesBoundary:
    @pytest.mark.parametrize("load, error", [(load_dataset, DatasetError),
                                             (load_fixture, ProtocolError)])
    @given(lines=st.lists(raw_lines, min_size=1, max_size=3))
    @settings(max_examples=200)
    @example(lines=[b"\xff"])
    @example(lines=[b"[" * 100_000])
    def test_any_byte_line_loads_or_is_the_named_error(self, tmp_path_factory, load, error,
                                                       lines):
        fd, path = tempfile.mkstemp(suffix=".jsonl", dir=tmp_path_factory.getbasetemp())
        with os.fdopen(fd, "wb") as handle:
            handle.write(b"\n".join(lines) + b"\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                load(path)
            except error as exc:
                assert str(exc).startswith(f"{path}:")

    @pytest.mark.parametrize("load, error", [(load_dataset, DatasetError),
                                             (load_fixture, ProtocolError)])
    @pytest.mark.parametrize("line, message", [
        (b'{"id": "\xff"}', "invalid JSON ('utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
    ], ids=["not-utf8", "deep"])
    def test_undecodable_line_names_its_line(self, tmp_path, load, error, line, message):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"\n \n" + line + b"\n")
        with pytest.raises(error, match=re.escape(f"data.jsonl:3: {message}")):
            load(path)

    def test_lines_numbered_as_text_mode_numbers_them(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(b'{"id": "a", "prompt": "Q", "answer": "1"}\r\n'
                         b'{"id": "b", "prompt": "Q", "answer": "2"}\r7\n')
        with pytest.raises(DatasetError, match="tasks.jsonl:3: not a JSON object"):
            load_dataset(path)
