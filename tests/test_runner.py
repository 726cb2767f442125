"""Runner tests: config files, presets, env overrides, runs, sweeps."""

import json

import pytest

from driftbeam import DecodeConfig, PhiConfig, PreconditionError, TaskInstance
from driftbeam.backends.scripted import fixture_key, save_fixture
from driftbeam.metrics import canonical_json, parse_report
from driftbeam.runner import (
    ENV_API_KEY,
    ENV_BASE_URL,
    ENV_MODEL,
    PRESETS,
    BackendSpec,
    RunConfig,
    config_to_yaml,
    decode_with,
    derive_instance_seed,
    execute_run,
    parse_config,
    run,
    serialize_config,
    sweep,
)

FAST_DECODE = {
    "beam_size": 2,
    "rollouts_per_candidate": 2,
    "rollout_depth": 4,
    "max_steps": 6,
}


def fast_config(**top):
    base = {"dataset": "synthetic:4", "decode": dict(FAST_DECODE)}
    base.update(top)
    return parse_config(base)


class TestParseConfig:
    def test_defaults(self):
        config = parse_config({})
        assert config.method == "mfs"
        assert config.dataset == "synthetic:20"
        assert config.backend.kind == "synthetic"
        assert config.decode == DecodeConfig()
        assert config.phi is None

    def test_yaml_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "method: phi\nseed: 3\ndataset: synthetic:5\n"
            "phi:\n  delta: 0.5\n"
            "decode:\n  beam_size: 4\n"
        )
        config = parse_config(path)
        assert config.method == "phi"
        assert config.seed == 3
        assert config.phi == PhiConfig(delta=0.5)
        assert config.decode.beam_size == 4

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(PreconditionError, match="unknown config keys"):
            parse_config({"mthd": "mfs"})
        with pytest.raises(PreconditionError, match="unknown backend keys"):
            parse_config({"backend": {"knd": "synthetic"}})
        with pytest.raises(PreconditionError, match="unknown decode keys"):
            parse_config({"decode": {"beamsize": 2}})
        with pytest.raises(PreconditionError, match="unknown phi keys"):
            parse_config({"method": "phi", "phi": {"detla": 0.5}})

    def test_decode_seed_rejected(self):
        with pytest.raises(PreconditionError, match="decode.seed"):
            parse_config({"decode": {"seed": 5}})

    def test_auth_token_in_file_rejected(self):
        with pytest.raises(PreconditionError, match="auth_token"):
            parse_config({"backend": {"kind": "http", "auth_token": "x"}})

    def test_phi_method_requires_phi_section(self):
        with pytest.raises(PreconditionError, match="phi"):
            parse_config({"method": "phi"})
        with pytest.raises(PreconditionError, match="phi"):
            parse_config({"method": "mfs", "phi": {"delta": 0.5}})

    def test_epsilon_stop_accepts_yaml_string_science(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("decode:\n  epsilon_stop: 1e-6\n")
        assert parse_config(path).decode.epsilon_stop == 1e-6

    def test_epsilon_stop_null_disables(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("decode:\n  epsilon_stop: null\n")
        assert parse_config(path).decode.epsilon_stop is None


class TestPresets:
    def test_table_shape(self):
        assert PRESETS["llama8b/gsm8k"]["lambda1"] == 0.8
        assert PRESETS["mistral7b/logiqa"]["lambda1"] == 1.0
        assert PRESETS["qwen3b/arc"]["lambda1"] == 0.8
        for values in PRESETS.values():
            assert values["beam_size"] == 8
            assert values["rollouts_per_candidate"] == 8

    def test_preset_fills_decode(self):
        config = parse_config({"preset": "mistral7b/math500"})
        assert config.decode.lambda1 == 0.8
        assert config.decode.beam_size == 8
        assert config.decode.rollouts_per_candidate == 8

    def test_explicit_decode_key_beats_preset(self):
        config = parse_config({
            "preset": "mistral7b/math500",
            "decode": {"lambda1": 0.3},
        })
        assert config.decode.lambda1 == 0.3
        assert config.decode.beam_size == 8  # untouched preset value stays

    def test_unknown_preset(self):
        with pytest.raises(PreconditionError, match="unknown preset"):
            parse_config({"preset": "llama8b/sudoku"})


class TestEnvOverrides:
    def test_http_endpoint_from_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BASE_URL, "http://env-host:8000")
        monkeypatch.setenv(ENV_MODEL, "env-model")
        monkeypatch.setenv(ENV_API_KEY, "env-token")
        config = parse_config({"backend": {"kind": "http"}})
        assert config.backend.base_url == "http://env-host:8000"
        assert config.backend.model == "env-model"
        assert config.backend.auth_token == "env-token"

    def test_env_beats_file_values(self, monkeypatch):
        monkeypatch.setenv(ENV_BASE_URL, "http://env-host:8000")
        config = parse_config({
            "backend": {"kind": "http", "base_url": "http://file-host", "model": "m"}
        })
        assert config.backend.base_url == "http://env-host:8000"

    def test_env_ignored_for_synthetic(self, monkeypatch):
        monkeypatch.setenv(ENV_BASE_URL, "http://env-host:8000")
        config = parse_config({})
        assert config.backend.base_url is None

    def test_serializer_never_emits_token(self, monkeypatch):
        monkeypatch.setenv(ENV_API_KEY, "sekrit")
        config = parse_config({
            "backend": {"kind": "http", "base_url": "http://h", "model": "m"}
        })
        assert config.backend.auth_token == "sekrit"
        dumped = config_to_yaml(config)
        assert "sekrit" not in dumped
        assert "auth_token" not in dumped


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            {},
            {"method": "phi", "phi": {"delta": 0.7}, "seed": 9},
            {"preset": "llama8b/arc", "decode": {"lambda1": 0.2}},
            {"grid": {"lambda1": [0.4, 0.8], "M": [2, 4]}},
            {"backend": {"kind": "synthetic", "arm_count": 4, "drift": 0.1}},
            {"decode": {"epsilon_stop": None, "selection": "uniform"}},
        ],
    )
    def test_parse_serialize_fixed_point(self, source):
        config = parse_config(source)
        assert parse_config(serialize_config(config)) == config

    def test_yaml_round_trip(self, tmp_path):
        config = fast_config(seed=5, workers=2)
        path = tmp_path / "cfg.yaml"
        path.write_text(config_to_yaml(config))
        assert parse_config(path) == config

    def test_scripted_round_trip(self, tmp_path):
        fixture = tmp_path / "fx.jsonl"
        save_fixture(fixture, [])
        config = parse_config({
            "backend": {"kind": "scripted", "fixture": str(fixture)}
        })
        assert parse_config(serialize_config(config)) == config

    def test_grid_aliases_normalize(self):
        config = parse_config({"grid": {"N": [2, 4], "M": [2]}})
        assert config.grid == {"rollouts_per_candidate": (2, 4), "beam_size": (2,)}

    def test_bad_grid(self):
        with pytest.raises(PreconditionError, match="not sweepable"):
            parse_config({"grid": {"temperature": [0.5]}})
        with pytest.raises(PreconditionError, match="non-empty list"):
            parse_config({"grid": {"lambda1": []}})


class TestInstanceSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [derive_instance_seed(0, i) for i in range(64)]
        assert seeds == [derive_instance_seed(0, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert all(0 <= s < 2**64 for s in seeds)

    def test_run_seed_separates(self):
        assert derive_instance_seed(0, 3) != derive_instance_seed(1, 3)


class TestExecuteRun:
    def test_synthetic_run_aggregates(self):
        output = execute_run(fast_config(seed=1))
        assert output.metrics.total == 4
        assert output.failures == ()
        assert len(output.traces) == 4
        assert output.metrics.flops == 6 * output.metrics.tokens_generated * 8_000_000_000
        assert [tid for tid, _ in output.traces] == sorted(tid for tid, _ in output.traces)

    def test_worker_count_invisible_in_output(self):
        a = execute_run(fast_config(seed=2, workers=1))
        b = execute_run(fast_config(seed=2, workers=4))
        assert canonical_json(a.metrics.to_dict()) == canonical_json(b.metrics.to_dict())
        assert canonical_json(a.traces) == canonical_json(b.traces)

    def test_run_helper_returns_metrics(self):
        metrics = run(fast_config(seed=3))
        assert metrics.total == 4

    def test_methods_dispatch(self):
        phi_out = execute_run(fast_config(method="phi", phi={"delta": 0.5}, seed=4))
        ar_out = execute_run(fast_config(method="ar-cot", seed=4))
        assert phi_out.metrics.total == 4
        assert ar_out.metrics.total == 4
        assert ar_out.metrics.tokens_generated < phi_out.metrics.tokens_generated
        for _, trace_payload in ar_out.traces:
            assert trace_payload["stop_reason"] == "completed"

    def test_unknown_method_rejected(self):
        with pytest.raises(PreconditionError, match="method must be one of"):
            decode_with("beam", BackendSpec().make_model(), "P\n", DecodeConfig())

    def test_rollout_token_exclusion(self):
        with_rollouts = execute_run(fast_config(seed=5))
        without = execute_run(fast_config(seed=5, count_rollout_tokens=False))
        assert without.metrics.tokens_generated < with_rollouts.metrics.tokens_generated

    def test_failures_recorded_and_skipped(self, tmp_path):
        # Scripted fixture only serves task t1; t2's query has no entry.
        dataset_path = tmp_path / "tasks.jsonl"
        dataset_path.write_text(
            '{"id": "t1", "prompt": "P1\\n", "answer": "4"}\n'
            '{"id": "t2", "prompt": "P2\\n", "answer": "4"}\n'
        )
        fixture_path = tmp_path / "fx.jsonl"
        save_fixture(fixture_path, [{
            "prefix_hash": fixture_key("complete", "P1\n"),
            "text": "Answer: 4",
            "logprobs": [-0.1, -0.2],
            "finish_reason": "end-of-sequence",
        }])
        config = parse_config({
            "method": "ar-cot",
            "dataset": str(dataset_path),
            "backend": {"kind": "scripted", "fixture": str(fixture_path)},
        })
        output = execute_run(config)
        assert output.metrics.total == 1
        assert output.metrics.correct == 1
        assert len(output.failures) == 1
        assert output.failures[0][0] == "t2"
        assert "ProtocolError" in output.failures[0][1]

    def test_overflowing_logprobs_fail_one_instance(self, tmp_path):
        # Finite logprobs whose sum leaves the float range must fail only
        # their own task, under a named error, not abort the run.
        dataset_path = tmp_path / "tasks.jsonl"
        dataset_path.write_text(
            '{"id": "t1", "prompt": "P1\\n", "answer": "4"}\n'
            '{"id": "t2", "prompt": "P2\\n", "answer": "4"}\n'
        )
        records = []
        for prompt, rollout_logprobs in (("P1\n", [-0.2, -0.2]), ("P2\n", [-1e308, -1e308])):
            step = prompt + "consider arm A\n"
            for kind, prefix, text, logprobs, finish in (
                ("propose", prompt, "consider arm A\n", [-0.1], "delimiter"),
                ("rollout", step, "Answer: 4", rollout_logprobs, "length"),
                ("complete", step, "Answer: 4", [-0.1], "end-of-sequence"),
            ):
                records.append({
                    "prefix_hash": fixture_key(kind, prefix),
                    "text": text,
                    "logprobs": logprobs,
                    "finish_reason": finish,
                })
        fixture_path = tmp_path / "fx.jsonl"
        save_fixture(fixture_path, records)
        config = parse_config({
            "dataset": str(dataset_path),
            "backend": {"kind": "scripted", "fixture": str(fixture_path)},
            "decode": {"beam_size": 1, "rollouts_per_candidate": 1, "max_steps": 1},
        })
        output = execute_run(config)
        assert output.metrics.total == 1
        assert output.metrics.correct == 1
        assert [tid for tid, _ in output.failures] == ["t2"]
        assert output.failures[0][1].startswith("NumericInputError: ")
        assert "token_logprobs" in output.failures[0][1]

    def test_synthetic_dataset_needs_synthetic_backend(self, tmp_path):
        fixture_path = tmp_path / "fx.jsonl"
        save_fixture(fixture_path, [])
        config = parse_config({
            "dataset": "synthetic:4",
            "backend": {"kind": "scripted", "fixture": str(fixture_path)},
        })
        with pytest.raises(PreconditionError, match="synthetic"):
            execute_run(config)

    def test_file_dataset_with_synthetic_backend_pairs_tasks(self, tmp_path):
        dataset_path = tmp_path / "tasks.jsonl"
        dataset_path.write_text('{"id": "t1", "prompt": "Solve.\\n", "answer": "A"}\n')
        config = parse_config({
            "dataset": str(dataset_path),
            "decode": dict(FAST_DECODE),
        })
        output = execute_run(config)
        assert output.metrics.total == 1


class TestWriteOutputs:
    def test_files_and_contents(self, tmp_path):
        out_dir = tmp_path / "out"
        config = fast_config(seed=6, output_dir=str(out_dir))
        output = execute_run(config)
        metrics_payload = json.loads((out_dir / "metrics.json").read_bytes())
        assert set(metrics_payload) == {"failures", "metrics"}
        assert metrics_payload["metrics"]["total"] == output.metrics.total
        lines = (out_dir / "traces.jsonl").read_bytes().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert set(first) == {"result", "task"}
        report = parse_report((out_dir / "report.json").read_bytes())
        assert report["mfs"]["synthetic:4"].total == 4
        markdown = (out_dir / "report.md").read_text()
        assert markdown.startswith("| Method | synthetic:4 |")

    def test_label_prefix(self, tmp_path):
        out_dir = tmp_path / "out"
        config = fast_config(seed=6, output_dir=str(out_dir))
        execute_run(config, label="pilot")
        assert (out_dir / "pilot-metrics.json").exists()
        assert (out_dir / "pilot-traces.jsonl").exists()


class TestSweep:
    def test_points_order_and_seeds(self):
        config = fast_config(seed=10)
        points = sweep(config, {"beam_size": [2, 3], "lambda1": [0.4, 0.8]})
        assert [p.label for p in points] == [
            "beam_size=2,lambda1=0.4",
            "beam_size=2,lambda1=0.8",
            "beam_size=3,lambda1=0.4",
            "beam_size=3,lambda1=0.8",
        ]
        assert [p.seed for p in points] == [10, 11, 12, 13]

    def test_grid_from_config(self):
        config = fast_config(seed=10, grid={"lambda1": [0.4, 0.8]})
        points = sweep(config)
        assert len(points) == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(PreconditionError, match="non-empty grid"):
            sweep(fast_config())

    def test_sweep_outputs(self, tmp_path):
        out_dir = tmp_path / "sweep"
        config = fast_config(seed=11, output_dir=str(out_dir))
        points = sweep(config, {"lambda1": [0.4, 0.8]})
        listed = json.loads((out_dir / "sweep-points.json").read_bytes())
        assert [p["label"] for p in listed] == [p.label for p in points]
        assert [p["seed"] for p in listed] == [11, 12]
        report = parse_report((out_dir / "sweep-report.json").read_bytes())
        assert set(report) == {"lambda1=0.4", "lambda1=0.8"}

    def test_lambda_direction_tokens_non_decreasing(self):
        # Mechanics: larger lambda1 raises the prune threshold mu + lambda1 *
        # sigma, so fewer paths cross it, more survive, and token spend grows.
        config = parse_config({
            "dataset": "synthetic:10",
            "seed": 40,
            "backend": {"kind": "synthetic", "arm_count": 4, "drift": 0.2,
                        "noise_std": 0.1, "horizon": 6},
            "decode": {"beam_size": 4, "rollouts_per_candidate": 4,
                       "rollout_depth": 4, "max_steps": 8},
        })
        low, high = sweep(config, {"lambda1": [0.0, 2.0]})
        assert low.metrics.tokens_generated <= high.metrics.tokens_generated

    def test_epsilon_direction_tokens_non_increasing(self):
        # A looser epsilon stops earlier, so tokens shrink as epsilon grows.
        config = fast_config(seed=41, dataset="synthetic:6")
        tight, loose = sweep(config, {"epsilon_stop": [1e-6, 1000.0]})
        assert loose.metrics.tokens_generated <= tight.metrics.tokens_generated
