"""CLI tests: the five subcommands, override precedence, error records."""

import json

import pytest

from driftbeam.baselines import PhiConfig
from driftbeam.cli import _build_config, build_parser, main
from driftbeam.runner import ENV_BASE_URL

FAST = ["-M", "2", "-N", "2", "--rollout-depth", "4", "--max-steps", "5"]


def run_cli(capfd, *argv):
    code = main(list(argv))
    out, err = capfd.readouterr()
    return code, out, err


class TestParser:
    def test_exactly_five_subcommands(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
            and hasattr(a, "choices") and a.choices
        )
        assert sorted(subparsers.choices) == ["bench", "compare", "decode", "stats", "sweep"]

    def test_unknown_command_exits_two(self, capfd):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# (argv, dotted path of the RunConfig field it sets, expected value); every
# value differs from the field's default.
OVERRIDES = [
    (["--method", "ar-cot"], "method", "ar-cot"),
    (["--seed", "7"], "seed", 7),
    (["--preset", "llama8b/arc"], "preset", "llama8b/arc"),
    (["--backend", "scripted", "--fixture", "fx.jsonl"], "backend.kind", "scripted"),
    (["--fixture", "fx.jsonl"], "backend.fixture", "fx.jsonl"),
    (["--base-url", "http://h"], "backend.base_url", "http://h"),
    (["--model", "m"], "backend.model", "m"),
    (["--params", "7000"], "backend.model_params", 7000),
    (["--arms", "3"], "backend.arm_count", 3),
    (["--arm-drift", "0.1"], "backend.drift", 0.1),
    (["--noise", "0.3"], "backend.noise_std", 0.3),
    (["--horizon", "5"], "backend.horizon", 5),
    (["--beam-size", "3"], "decode.beam_size", 3),
    (["-M", "3"], "decode.beam_size", 3),
    (["--rollouts", "3"], "decode.rollouts_per_candidate", 3),
    (["-N", "3"], "decode.rollouts_per_candidate", 3),
    (["--temperature", "0.5"], "decode.temperature", 0.5),
    (["--lambda1", "0.3"], "decode.lambda1", 0.3),
    (["--epsilon-stop", "1e-4"], "decode.epsilon_stop", 1e-4),
    (["--epsilon-stop", "off"], "decode.epsilon_stop", None),
    (["--max-steps", "3"], "decode.max_steps", 3),
    (["--rollout-depth", "5"], "decode.rollout_depth", 5),
    (["--max-step-tokens", "9"], "decode.max_step_tokens", 9),
    (["--rollout-samples", "2"], "decode.rollout_samples", 2),
    (["--max-completion-tokens", "50"], "decode.max_completion_tokens", 50),
    (["--selection", "uniform"], "decode.selection", "uniform"),
    (["--no-prune"], "decode.prune_enabled", False),
    (["--method", "phi", "--delta", "0.4"], "phi.delta", 0.4),
    (["--method", "phi", "--alignment-weight", "0.5"], "phi.alignment_weight", 0.5),
    (["--method", "phi", "--cluster-distance", "0.1"], "phi.cluster_distance", 0.1),
    (["--dataset", "synthetic:3"], "dataset", "synthetic:3"),
    (["--out", "runs/x"], "output_dir", "runs/x"),
    (["--workers", "3"], "workers", 3),
]


def option_strings(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(getattr(a, "choices", None), dict))
    return {s for a in sub.choices[command]._actions for s in a.option_strings}


class TestOverrides:
    @pytest.mark.parametrize("argv, path, expected", OVERRIDES,
                             ids=[" ".join(argv) for argv, _, _ in OVERRIDES])
    def test_flag_sets_its_field(self, argv, path, expected, monkeypatch):
        for name in ("DRIFTBEAM_BASE_URL", "DRIFTBEAM_MODEL", "DRIFTBEAM_API_KEY"):
            monkeypatch.delenv(name, raising=False)
        config = _build_config(build_parser().parse_args(["bench", *argv]))
        value = config
        for name in path.split("."):
            value = getattr(value, name)
        assert value == expected

    def test_every_bench_flag_is_covered(self):
        covered = {arg for argv, _, _ in OVERRIDES for arg in argv if arg.startswith("-")}
        assert option_strings("bench") - {"-h", "--help", "--config"} == covered

    def test_phi_flags_ignored_unless_method_is_phi(self, capfd, tmp_path):
        # A phi flag sets the phi section whatever the method; only phi reads it.
        config = _build_config(build_parser().parse_args(["bench", "--delta", "0.4"]))
        assert config.method == "mfs" and config.phi == PhiConfig(delta=0.4)
        args = ["bench", "--dataset", "synthetic:3", "--seed", "8", *FAST]
        _, plain, _ = run_cli(capfd, *args, "--out", str(tmp_path / "plain"))
        _, flagged, _ = run_cli(capfd, *args, "--delta", "0.4", "--out", str(tmp_path / "phi"))
        assert flagged == plain
        for name in ("metrics.json", "traces.jsonl", "report.md", "report.json"):
            assert (tmp_path / "phi" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


class TestDecode:
    def test_prompt_to_json(self, capfd):
        code, out, err = run_cli(capfd, "decode", "--prompt", "Pick an arm.\n",
                                 "--seed", "3", *FAST)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["final_answer"] in ("A", "B")
        assert payload["stop_reason"] in ("converged", "max_steps", "exhausted")
        assert isinstance(payload["trace"], list) and payload["trace"]

    def test_deterministic_stdout(self, capfd):
        args = ("decode", "--prompt", "Pick.\n", "--seed", "5", *FAST)
        _, first, _ = run_cli(capfd, *args)
        _, second, _ = run_cli(capfd, *args)
        assert first == second

    def test_trace_file_extraction(self, capfd, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capfd, "decode", "--prompt", "Pick.\n", "--seed", "3",
                               "--trace", str(trace_path), *FAST)
        assert code == 0
        payload = json.loads(out)
        assert "trace" not in payload
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert events[-1]["event"] == "finalize"

    def test_missing_prompt_is_machine_readable_error(self, capfd):
        code, out, err = run_cli(capfd, "decode", "--seed", "3")
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "DriftbeamError"
        assert "prompt" in record["message"]

    def test_prompt_file(self, capfd, tmp_path):
        prompt_path = tmp_path / "prompt.txt"
        prompt_path.write_text("Pick an arm now.\n")
        code, out, _ = run_cli(capfd, "decode", "--prompt-file", str(prompt_path),
                               "--seed", "3", *FAST)
        assert code == 0
        assert json.loads(out)["final_answer"] in ("A", "B")

    def test_phi_method_via_flags(self, capfd):
        code, out, _ = run_cli(capfd, "decode", "--prompt", "Pick.\n", "--method", "phi",
                               "--delta", "0.5", "--seed", "3", *FAST)
        assert code == 0
        payload = json.loads(out)
        assert payload["stop_reason"] in ("consensus", "max_steps")

    def test_ar_cot_method(self, capfd):
        code, out, _ = run_cli(capfd, "decode", "--prompt", "Pick.\n",
                               "--method", "ar-cot", "--seed", "3")
        assert code == 0
        assert json.loads(out)["stop_reason"] == "completed"

    def test_no_prune_flag(self, capfd):
        code, out_on, _ = run_cli(capfd, "decode", "--prompt", "Pick.\n", "--seed", "3",
                                  "--epsilon-stop", "none", *FAST)
        assert code == 0
        code, out_off, _ = run_cli(capfd, "decode", "--prompt", "Pick.\n", "--seed", "3",
                                   "--epsilon-stop", "none", "--no-prune", *FAST)
        assert code == 0
        pruned = json.loads(out_on)
        unpruned = json.loads(out_off)
        assert any(e["event"] == "prune" for e in pruned["trace"])
        assert not any(e["event"] == "prune" for e in unpruned["trace"])
        assert unpruned["tokens_generated"] >= pruned["tokens_generated"]

    def test_epsilon_disable_spelling(self, capfd):
        code, out, _ = run_cli(capfd, "decode", "--prompt", "Pick.\n", "--seed", "3",
                               "--epsilon-stop", "none", "--max-steps", "2",
                               "-M", "2", "-N", "2", "--rollout-depth", "4")
        assert code == 0
        assert json.loads(out)["stop_reason"] == "max_steps"

    def test_flag_overrides_config_file(self, capfd, tmp_path):
        config_path = tmp_path / "run.yaml"
        config_path.write_text(
            "seed: 3\ndecode:\n  beam_size: 2\n  rollouts_per_candidate: 2\n"
            "  rollout_depth: 4\n  max_steps: 2\n  lambda1: 0.4\n"
        )
        base = ("decode", "--config", str(config_path), "--prompt", "Pick.\n")
        _, with_file, _ = run_cli(capfd, *base)
        _, with_flag, _ = run_cli(capfd, *base, "--max-steps", "1")
        assert json.loads(with_file)["stop_step"] <= 2
        assert json.loads(with_flag)["stop_step"] <= 1

    @pytest.mark.parametrize("root", ["- 1\n", "7\n", "just text\n"])
    def test_non_mapping_config_is_error_record(self, capfd, tmp_path, root):
        config_path = tmp_path / "list.yaml"
        config_path.write_text(root)
        code, out, err = run_cli(capfd, "decode", "--config", str(config_path),
                                 "--prompt", "x", "--beam-size", "2")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "PreconditionError",
                                   "message": "config root must be a mapping"}

    @pytest.mark.parametrize("argv", [["decode", "--prompt", "x"], ["bench"]])
    def test_malformed_yaml_config_is_error_record(self, capfd, tmp_path, argv):
        config_path = tmp_path / "bad.yaml"
        config_path.write_text("a: [\n")
        code, out, err = run_cli(capfd, *argv, "--config", str(config_path))
        record = json.loads(err)
        assert code == 1 and out == ""
        assert record["error"] == "PreconditionError"
        assert record["message"].startswith(f"config {config_path}: ")

    @pytest.mark.parametrize("value", ["3", "[1]"])
    @pytest.mark.parametrize("section,flag", [
        ("backend", ["--arms", "2"]),
        ("decode", ["--beam-size", "2"]),
        ("phi", ["--delta", "0.5"]),
        ("grid", ["--beam-size", "2"]),
    ])
    @pytest.mark.parametrize("with_flag", [False, True])
    def test_non_mapping_section_is_error_record(self, capfd, tmp_path, section, flag,
                                                 value, with_flag):
        config_path = tmp_path / "sec.yaml"
        config_path.write_text(f"method: phi\n{section}: {value}\n")
        code, out, err = run_cli(capfd, "decode", "--config", str(config_path),
                                 "--prompt", "x", *(flag if with_flag else []))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "PreconditionError",
                                   "message": f"{section} section must be a mapping"}

    @pytest.mark.parametrize("key, value, message", [
        ("drifts", "3", "backend drifts must be a list of numbers, got 3"),
        ("arm_count", "x", "backend arm_count must be int, got 'x'"),
    ])
    def test_bad_backend_number_is_error_record(self, capfd, tmp_path, key, value, message):
        config_path = tmp_path / "backend.yaml"
        config_path.write_text(f"backend:\n  {key}: {value}\n")
        code, out, err = run_cli(capfd, "decode", "--config", str(config_path), "--prompt", "x")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "PreconditionError", "message": message}

    @pytest.mark.parametrize("section, key, value, message", [
        ("decode", "beam_size", "x", "decode beam_size must be int, got 'x'"),
        ("decode", "prune_enabled", '"no"', "decode prune_enabled must be bool, got 'no'"),
        ("phi", "delta", "x", "phi delta must be float, got 'x'"),
    ])
    def test_bad_section_value_is_error_record(self, capfd, tmp_path, section, key, value,
                                               message):
        config_path = tmp_path / "section.yaml"
        config_path.write_text(f"method: phi\n{section}:\n  {key}: {value}\n")
        code, out, err = run_cli(capfd, "decode", "--config", str(config_path), "--prompt", "x")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "PreconditionError", "message": message}

    @pytest.mark.parametrize("text, message", [
        ("output_dir: 5\n", "config output_dir must be Optional[str], got 5"),
        ("backend:\n  kind: http\n  base_url: localhost:8000\n  model: m\n",
         "backend base_url must be an http:// or https:// URL with a host, "
         "got 'localhost:8000'"),
        ("backend:\n  kind: http\n  base_url: http://h:1\n  model: m\n  timeout: .nan\n",
         "backend timeout must be finite > 0, got nan"),
    ])
    def test_bad_optional_value_is_error_record(self, capfd, tmp_path, monkeypatch, text,
                                                message):
        monkeypatch.delenv(ENV_BASE_URL, raising=False)
        config_path = tmp_path / "run.yaml"
        config_path.write_text(text)
        code, out, err = run_cli(capfd, "bench", "--config", str(config_path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "PreconditionError", "message": message}

    def test_invalid_answer_pattern_is_error_record(self, capfd, tmp_path):
        config_path = tmp_path / "pattern.yaml"
        config_path.write_text('decode:\n  answer_pattern: "("\n')
        code, out, err = run_cli(capfd, "decode", "--config", str(config_path), "--prompt", "x")
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "PreconditionError"
        assert record["message"].startswith("answer_pattern must be a regular expression, got '('")

    def test_config_phi_section_dropped_for_mfs(self, capfd, tmp_path):
        config_path = tmp_path / "run.yaml"
        config_path.write_text(
            "method: phi\nphi:\n  delta: 0.5\n"
            "decode:\n  beam_size: 2\n  rollouts_per_candidate: 2\n"
            "  rollout_depth: 4\n  max_steps: 3\n"
        )
        code, out, _ = run_cli(capfd, "decode", "--config", str(config_path),
                               "--method", "mfs", "--prompt", "Pick.\n", "--seed", "3")
        assert code == 0
        assert json.loads(out)["stop_reason"] in ("converged", "max_steps", "exhausted")


class TestBench:
    def test_summary_and_files(self, capfd, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capfd, "bench", "--dataset", "synthetic:4",
                               "--out", str(out_dir), "--seed", "7", *FAST)
        assert code == 0
        summary = json.loads(out)
        assert set(summary) == {"accuracy", "failures", "flops", "tokens_generated", "total"}
        assert summary["total"] == 4
        assert summary["flops"] == 6 * summary["tokens_generated"] * 8_000_000_000
        for name in ("metrics.json", "traces.jsonl", "report.md", "report.json"):
            assert (out_dir / name).exists()

    def test_worker_count_invisible(self, capfd, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        args = ["bench", "--dataset", "synthetic:4", "--seed", "7", *FAST]
        _, out_a, _ = run_cli(capfd, *args, "--out", str(a_dir), "--workers", "1")
        _, out_b, _ = run_cli(capfd, *args, "--out", str(b_dir), "--workers", "8")
        assert out_a == out_b
        assert (a_dir / "metrics.json").read_bytes() == (b_dir / "metrics.json").read_bytes()
        assert (a_dir / "traces.jsonl").read_bytes() == (b_dir / "traces.jsonl").read_bytes()

    @pytest.mark.parametrize("graded", ["no-task", "every-task-fails"])
    def test_run_with_no_graded_task_writes_all_four_outputs(self, capfd, tmp_path, graded):
        out_dir = tmp_path / "out"
        if graded == "no-task":
            args = ["--dataset", "synthetic:0"]
        else:
            dataset, fixture = tmp_path / "tasks.jsonl", tmp_path / "empty.jsonl"
            dataset.write_text('{"id": "t1", "prompt": "Q\\n", "answer": "4"}\n')
            fixture.write_text("")
            args = ["--dataset", str(dataset), "--backend", "scripted",
                    "--fixture", str(fixture)]
        code, out, err = run_cli(capfd, "bench", *args, "--out", str(out_dir))
        assert code == 0, err
        assert '"accuracy":null' in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "metrics.json", "report.json", "report.md", "traces.jsonl"]
        failures = json.loads((out_dir / "metrics.json").read_bytes())["failures"]
        if graded == "every-task-fails":
            assert [tid for tid, _ in failures] == ["t1"]
            assert "ProtocolError" in failures[0][1]
        else:
            assert failures == []
        assert (out_dir / "report.md").read_text().splitlines()[2].endswith(
            " | - | - | 0.000e+00 |")


class TestSweep:
    def test_grid_from_config(self, capfd, tmp_path):
        config_path = tmp_path / "sweep.yaml"
        config_path.write_text(
            "dataset: synthetic:3\nseed: 9\n"
            "decode:\n  beam_size: 2\n  rollouts_per_candidate: 2\n"
            "  rollout_depth: 4\n  max_steps: 4\n"
            "grid:\n  lambda1: [0.4, 0.8]\n"
        )
        code, out, _ = run_cli(capfd, "sweep", "--config", str(config_path))
        assert code == 0
        points = json.loads(out)
        assert [p["label"] for p in points] == ["lambda1=0.4", "lambda1=0.8"]
        assert [p["seed"] for p in points] == [9, 10]

    def test_sweep_over_no_task_writes_its_report(self, capfd, tmp_path):
        config_path, out_dir = tmp_path / "sweep.yaml", tmp_path / "out"
        config_path.write_text("dataset: synthetic:0\ngrid:\n  lambda1: [0.4, 0.8]\n")
        code, out, err = run_cli(capfd, "sweep", "--config", str(config_path),
                                 "--out", str(out_dir))
        assert code == 0, err
        assert [p["accuracy"] for p in json.loads(out)] == [None, None]
        assert (out_dir / "sweep-report.md").read_text().splitlines()[2:] == [
            "| lambda1=0.4 | - | - | 0.000e+00 |", "| lambda1=0.8 | - | - | 0.000e+00 |"]

    def test_sweep_without_grid_errors(self, capfd):
        code, out, err = run_cli(capfd, "sweep", "--dataset", "synthetic:2", *FAST)
        assert code == 1
        assert json.loads(err)["error"] == "PreconditionError"


class TestStats:
    def test_stats_over_bench_traces(self, capfd, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capfd, "bench", "--dataset", "synthetic:3", "--out", str(out_dir),
                "--seed", "11", *FAST)
        code, out, _ = run_cli(capfd, "stats", str(out_dir / "traces.jsonl"))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"mean_advantage", "trajectory_count", "variance"}
        assert payload["trajectory_count"] >= 1
        assert payload["variance"] >= 0.0

    def test_stats_over_decode_trace(self, capfd, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        run_cli(capfd, "decode", "--prompt", "Pick.\n", "--seed", "12",
                "--trace", str(trace_path), *FAST)
        code, out, _ = run_cli(capfd, "stats", str(trace_path))
        assert code == 0
        assert json.loads(out)["trajectory_count"] >= 1

    @pytest.mark.parametrize("kind", ["bench", "decode"])
    def test_joined_file_reads_as_its_parts(self, capfd, tmp_path, kind):
        # Decodes that share a file stay apart: a record line is one decode,
        # and a bare event stream starts a new decode after each finalize.
        parts = []
        for seed in ("1", "2"):
            if kind == "bench":
                out_dir = tmp_path / f"out{seed}"
                run_cli(capfd, "bench", "--dataset", "synthetic:3", "--out", str(out_dir),
                        "--seed", seed, *FAST)
                parts.append(out_dir / "traces.jsonl")
            else:
                parts.append(tmp_path / f"trace{seed}.jsonl")
                run_cli(capfd, "decode", "--prompt", "Pick.\n", "--seed", seed,
                        "--trace", str(parts[-1]), *FAST)
        joined = tmp_path / "joined.jsonl"
        joined.write_bytes(b"".join(part.read_bytes() for part in parts))
        code, apart, _ = run_cli(capfd, "stats", *map(str, parts))
        assert code == 0
        code, together, _ = run_cli(capfd, "stats", str(joined))
        assert code == 0
        assert together == apart
        counts = []
        for part in parts:
            code, out, _ = run_cli(capfd, "stats", str(part))
            counts.append(json.loads(out)["trajectory_count"])
        assert json.loads(together)["trajectory_count"] == sum(counts)

    def test_missing_file_is_error_record(self, capfd):
        code, out, err = run_cli(capfd, "stats", "/nonexistent/trace.jsonl")
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("line, kind", [("5", "int"), ("[1, 2]", "list"),
                                            ('"expand"', "str")])
    def test_line_that_is_not_an_object_is_error_record(self, capfd, tmp_path, line, kind):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "stop", "step": 1}\n\n' + line + "\n")
        code, out, err = run_cli(capfd, "stats", str(path))
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "DatasetError"
        assert record["message"] == f"{path}:3: a trace line must be a JSON object, got {kind}"


    @pytest.mark.parametrize("lines, message", [
        (['{"result": 5, "task": "t"}'],
         "2: a result must be a JSON object whose trace is a list"),
        (['{"event": "expand", "step": 1}'],
         "2: malformed trace event (KeyError: 'candidates')"),
        (['{"event": "select", "step": 1, "selected": [{"index": 0, "parent": 0, "path_id": 1}]}'],
         "2: select names candidate (0, 0), which no expand event of step 1 lists"),
        (['{"candidates": [{"index": 0, "parent": 2}, {"index": 0, "parent": 1}, '
          '{"index": 1, "parent": 1}], "event": "expand", "step": 1}',
          '{"drifts": [0.1, 0.2, 0.3], "event": "score", "step": 1}',
          '{"event": "select", "selected": [{"index": 0, "parent": 2, "path_id": 1}, '
          '{"index": 0, "parent": 1, "path_id": 2}, {"index": 1, "parent": 1, "path_id": 3}], '
          '"step": 1}'],
         "4: path 1 descends from itself"),
        *[(['{"candidates": [{"index": 0, "parent": 0}], "event": "expand", "step": 1}',
            '{"drifts": [%s], "event": "score", "step": 1}' % drift,
            '{"event": "select", "selected": [{"index": 0, "parent": 0, "path_id": 1}], '
            '"step": 1}'],
           f"3: drift {shown} of candidate (0, 0) is not a finite number")
          for drift, shown in (('"x"', "'x'"), ("NaN", "nan"), ("1" + "0" * 400, "1" + "0" * 400))],
    ], ids=["result-not-object", "expand-without-candidates", "select-without-expand",
            "parent-cycle", "drift-string", "drift-nan", "drift-beyond-float-range"])
    def test_malformed_event_is_error_record_naming_its_line(self, capfd, tmp_path,
                                                               lines, message):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "stop", "step": 1}\n' + "\n".join(lines) + "\n")
        code, out, err = run_cli(capfd, "stats", str(path))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "DatasetError", "message": f"{path}:{message}"}


class TestCompare:
    def test_two_bench_outputs(self, capfd, tmp_path):
        a_dir, b_dir = tmp_path / "mfs", tmp_path / "arcot"
        run_cli(capfd, "bench", "--dataset", "synthetic:4", "--seed", "13",
                "--out", str(a_dir), *FAST)
        run_cli(capfd, "bench", "--dataset", "synthetic:4", "--seed", "13",
                "--method", "ar-cot", "--out", str(b_dir))
        code, out, _ = run_cli(capfd, "compare",
                               str(a_dir / "metrics.json"), str(b_dir / "metrics.json"))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"accuracy_delta", "flagged", "flops_ratio", "token_deltas"}
        assert payload["flops_ratio"] < 1.0  # plain completion is cheaper
        assert len(payload["token_deltas"]) == 4

    def test_two_runs_with_no_graded_task(self, capfd, tmp_path):
        # bench writes such a file and reports its accuracy as null; the
        # comparison has no accuracy to take a delta of either.
        run_cli(capfd, "bench", "--dataset", "synthetic:0", "--out", str(tmp_path))
        path = str(tmp_path / "metrics.json")
        code, out, err = run_cli(capfd, "compare", path, path)
        assert code == 0, err
        assert json.loads(out) == {"accuracy_delta": None, "flagged": True,
                                   "flops_ratio": "inf", "token_deltas": []}

    def test_missing_key_is_error_record(self, capfd, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text('{"metrics": {"tokens_generated": 1}}')
        code, out, err = run_cli(capfd, "compare", str(path), str(path))
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "DatasetError"
        assert "missing keys" in record["message"]

    @pytest.mark.parametrize("content, message", [
        (b"5", "a metrics file must hold a JSON object, got int"),
        (b'{"metrics": "\xff"}', "invalid JSON"),
        (b'{"metrics": ', "invalid JSON"),
    ], ids=["number", "not-utf8", "not-json"])
    def test_file_that_is_not_a_json_object_is_error_record(self, capfd, tmp_path,
                                                            content, message):
        path = tmp_path / "metrics.json"
        path.write_bytes(content)
        code, out, err = run_cli(capfd, "compare", str(path), str(path))
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "DatasetError"
        assert record["message"].startswith(f"{path}: {message}")

    def test_non_numeric_count_is_error_record(self, capfd, tmp_path):
        a_dir = tmp_path / "a"
        run_cli(capfd, "bench", "--dataset", "synthetic:2", "--seed", "13",
                "--out", str(a_dir), *FAST)
        payload = json.loads((a_dir / "metrics.json").read_text())
        record = payload.get("metrics", payload)
        record["tokens_generated"] = str(record["tokens_generated"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capfd, "compare", str(path), str(a_dir / "metrics.json"))
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "DatasetError"
        assert "tokens_generated" in record["message"]

    def test_counts_its_examples_do_not_give_are_error_record(self, capfd, tmp_path):
        a_dir = tmp_path / "a"
        run_cli(capfd, "bench", "--dataset", "synthetic:1", "--seed", "13",
                "--out", str(a_dir), *FAST)
        payload = json.loads((a_dir / "metrics.json").read_text())
        payload["metrics"].update(total=5, correct=4)
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capfd, "compare", str(path), str(a_dir / "metrics.json"))
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "DatasetError"
        assert record["message"].startswith("RunMetrics record: correct is 4")

    def test_mismatched_sets_error(self, capfd, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_cli(capfd, "bench", "--dataset", "synthetic:2", "--seed", "13",
                "--out", str(a_dir), *FAST)
        run_cli(capfd, "bench", "--dataset", "synthetic:3", "--seed", "13",
                "--out", str(b_dir), *FAST)
        code, _, err = run_cli(capfd, "compare",
                               str(a_dir / "metrics.json"), str(b_dir / "metrics.json"))
        assert code == 1
        assert json.loads(err)["error"] == "DatasetError"
