"""Runner tests: config files, presets, env overrides, runs, sweeps."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_values
from driftbeam import DecodeConfig, DriftbeamError, PhiConfig, PreconditionError, TaskInstance
from driftbeam.backends.base import FINISH_EOS, StepSample
from driftbeam.backends.http import HttpCompletionsModel
from driftbeam.backends.scripted import fixture_key, save_fixture
from driftbeam.metrics import RunMetrics, canonical_json
from driftbeam.runner import (
    BACKEND_KINDS,
    ENV_API_KEY,
    ENV_BASE_URL,
    ENV_MODEL,
    METHODS,
    PRESETS,
    BackendSpec,
    RunConfig,
    _cached_fixture,
    config_to_yaml,
    decode_with,
    derive_instance_seed,
    execute_run,
    parse_config,
    serialize_config,
    sweep,
)

FAST_DECODE = {
    "beam_size": 2,
    "rollouts_per_candidate": 2,
    "rollout_depth": 4,
    "max_steps": 6,
}


# One wrongly typed value for each plain-typed key of the decode and phi
# sections.
BAD_SECTION_VALUES = [
    ("decode", "beam_size", "x"),
    ("decode", "rollouts_per_candidate", 2.0),
    ("decode", "temperature", "hot"),
    ("decode", "lambda1", True),
    ("decode", "max_steps", 2.5),
    ("decode", "rollout_depth", True),
    ("decode", "max_step_tokens", "64"),
    ("decode", "step_delimiter", 5),
    ("decode", "answer_pattern", None),
    ("decode", "rollout_samples", [1]),
    ("decode", "max_completion_tokens", 1.5),
    ("decode", "selection", 1),
    ("decode", "prune_enabled", "no"),
    ("phi", "delta", "x"),
    ("phi", "alignment_weight", None),
    ("phi", "cluster_distance", False),
]

# One wrongly typed value for each Optional[int|float|bool|str] config field.
BAD_OPTIONAL_VALUES = [
    (RunConfig, "config", "output_dir", 5),
    (RunConfig, "config", "preset", 5),
    (BackendSpec, "backend", "fixture", 5),
    (BackendSpec, "backend", "base_url", 5),
    (BackendSpec, "backend", "model", ["m"]),
    (BackendSpec, "backend", "auth_token", 5),
    (DecodeConfig, "decode", "epsilon_stop", [1e-6]),
]


def _section(cls, values=json_values):
    """A section mapping: mostly the keys of `cls`, now and then a stray one."""
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names) | st.text(max_size=3), values, max_size=4)


# Config mappings as a YAML file or the CLI can hand to parse_config: known
# keys with valid names mixed into any JSON values.
_names = st.sampled_from(METHODS + BACKEND_KINDS + ("llama8b/arc", "synthetic:2", "off"))
_values = _names | json_values
config_mappings = st.fixed_dictionaries({}, optional={
    "method": _values,
    "seed": _values,
    "workers": _values,
    "dataset": _values,
    "preset": _values,
    "backend": _section(BackendSpec, _values) | json_values,
    "decode": _section(DecodeConfig, _values) | json_values,
    "phi": _section(PhiConfig, _values) | json_values,
    "grid": _section(DecodeConfig, st.lists(_values, max_size=3) | json_values)
            | json_values,
})


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

    @pytest.mark.parametrize("value", [3, [1], "text"])
    @pytest.mark.parametrize("section", ["backend", "decode", "phi", "grid"])
    def test_non_mapping_section_rejected(self, section, value):
        with pytest.raises(PreconditionError, match=f"^{section} section must be a mapping$"):
            parse_config({"method": "phi", section: value})

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

    @pytest.mark.parametrize("data", [b"a: [\n", b"method: \xff\n"], ids=["yaml", "utf8"])
    def test_unreadable_yaml_file_names_the_file(self, tmp_path, data):
        path = tmp_path / "bad.yaml"
        path.write_bytes(data)
        with pytest.raises(PreconditionError, match=f"^config {re.escape(str(path))}: "):
            parse_config(path)

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

    def test_negative_seed_rejected_by_key(self):
        with pytest.raises(PreconditionError, match=r"^config seed must be >= 0, got -1$"):
            parse_config({"seed": -1})

    def test_auth_token_in_file_rejected(self):
        with pytest.raises(PreconditionError, match="auth_token"):
            parse_config({"backend": {"kind": "http", "auth_token": "x"}})

    def test_phi_section_read_only_by_phi(self, tmp_path):
        # No section means PhiConfig() defaults, as an empty section does.
        assert parse_config({"method": "phi"}).phi is None
        bare, empty = (execute_run(fast_config(seed=3, method="phi", **section))
                       for section in ({}, {"phi": {}}))
        assert bare.traces and [(tid, r.to_json()) for tid, r in bare.traces] == \
            [(tid, r.to_json()) for tid, r in empty.traces]
        # mfs accepts a phi section and ignores it.
        for name, section in (("plain", {}), ("phi", {"phi": {"delta": 0.5}})):
            execute_run(fast_config(seed=3, output_dir=str(tmp_path / name), **section))
        for name in ("metrics.json", "traces.jsonl", "report.md", "report.json"):
            assert (tmp_path / "phi" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize("cls, values, message", [
        (BackendSpec, {"kind": "grpc"},
         "backend kind must be in ('synthetic', 'scripted', 'http'), got 'grpc'"),
        (BackendSpec, {"model_params": 0}, "model_params must be > 0"),
        (BackendSpec, {"model_params": -8}, "model_params must be > 0"),
        (BackendSpec, {"kind": "scripted"}, "scripted backend requires a fixture path"),
        (BackendSpec, {"kind": "http", "model": "m"}, "http backend requires base_url and model"),
        (BackendSpec, {"kind": "http", "base_url": "http://h:1"},
         "http backend requires base_url and model"),
        (RunConfig, {"workers": 0}, "workers must be >= 1"),
        *((DecodeConfig, {name: 0}, f"{name} must be >= 1, got 0") for name in (
            "beam_size", "rollouts_per_candidate", "max_steps", "rollout_depth",
            "max_step_tokens", "rollout_samples", "max_completion_tokens")),
        (DecodeConfig, {"rollout_depth": -3}, "rollout_depth must be >= 1, got -3"),
        (DecodeConfig, {"seed": -1}, "seed must fit in 64 unsigned bits"),
        (DecodeConfig, {"seed": 2**64}, "seed must fit in 64 unsigned bits"),
    ])
    def test_rejection_names_its_field(self, cls, values, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            cls(**values)

    def test_epsilon_stop_accepts_yaml_string_science(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("decode:\n  epsilon_stop: 1e-6\n")
        assert parse_config(path).decode.epsilon_stop == 1e-6

    def test_epsilon_stop_null_disables(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("decode:\n  epsilon_stop: null\n")
        assert parse_config(path).decode.epsilon_stop is None

    @pytest.mark.parametrize(
        "text, expected",
        [("null", None), ('"none"', None), ('"off"', None), ("-inf", None), ("1e-6", 1e-6)],
    )
    def test_epsilon_stop_yaml_spellings(self, tmp_path, text, expected):
        path = tmp_path / "run.yaml"
        path.write_text(f"decode:\n  epsilon_stop: {text}\n")
        assert parse_config(path).decode.epsilon_stop == expected

    @pytest.mark.parametrize("text", ["off", "false", "no"])
    def test_epsilon_stop_yaml_boolean_rejected(self, tmp_path, text):
        # YAML reads a bare off as false; float(False) would be an active 0.0.
        path = tmp_path / "run.yaml"
        path.write_text(f"decode:\n  epsilon_stop: {text}\n")
        with pytest.raises(PreconditionError, match="epsilon_stop"):
            parse_config(path)

    def test_epsilon_stop_in_grid_parsed_the_same_way(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("grid:\n  epsilon_stop: [1e-6, 'off']\n")
        assert parse_config(path).grid == {"epsilon_stop": (1e-6, None)}
        path.write_text("grid:\n  epsilon_stop: [off]\n")
        with pytest.raises(PreconditionError, match="epsilon_stop"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", 2.7),
            ("seed", True),
            ("seed", "3"),
            ("workers", 2.0),
            ("workers", True),
            # A key that is no longer a field is rejected whatever its value.
            ("count_rollout_tokens", "false"),
            ("count_rollout_tokens", 0),
            ("dataset", 123),
        ],
    )
    def test_top_level_values_not_coerced(self, key, value):
        with pytest.raises(PreconditionError, match=key):
            parse_config({key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("model_params", 8e9),
            ("arm_count", "x"),
            ("drift", "0.1"),
            ("drifts", 3),
            ("drifts", [0.1, "x"]),
            ("drifts", [True, 0.1]),
            ("noise_std", True),
            ("horizon", 2.5),
            ("model_temperature", [0.7]),
            ("timeout", None),
        ],
    )
    def test_backend_numbers_checked_by_key(self, key, value):
        with pytest.raises(PreconditionError, match=f"backend {key} must be"):
            parse_config({"backend": {key: value}})

    @pytest.mark.parametrize("section, key, value", BAD_SECTION_VALUES)
    def test_decode_and_phi_values_checked_by_key(self, section, key, value):
        message = f"^{section} {key} must be [a-z]+, got {re.escape(repr(value))}$"
        with pytest.raises(PreconditionError, match=message):
            parse_config({"method": "phi", section: {key: value}})

    def test_every_typed_decode_and_phi_key_is_checked(self):
        # The decode seed comes from the run seed and is not a decode key.
        typed = {(section, f.name)
                 for section, cls in (("decode", DecodeConfig), ("phi", PhiConfig))
                 for f in dataclasses.fields(cls) if f.type in ("int", "float", "bool", "str")}
        cases = {(section, key) for section, key, _ in BAD_SECTION_VALUES}
        assert cases == typed - {("decode", "seed")}

    def test_invalid_answer_pattern_names_the_key(self):
        with pytest.raises(PreconditionError, match="^answer_pattern must be a regular expression"):
            parse_config({"decode": {"answer_pattern": "("}})

    @pytest.mark.parametrize("key, value", [
        ("drift", math.inf), ("drift", math.nan), ("noise_std", math.inf),
        ("noise_std", math.nan), ("drifts", [math.nan, 0.1]), ("drifts", [0.1, -math.inf]),
    ])
    def test_non_finite_synthetic_world_rejected_by_key(self, key, value):
        with pytest.raises(PreconditionError, match=f"^backend {key} must be finite, got "):
            parse_config({"backend": {key: value}})

    @pytest.mark.parametrize("backend, key, reason", [
        ({"drift": 0}, "drift", "drifts must have one largest value, got (0.0, -0.0)"),
        ({"arm_count": 0}, "arm_count", "arm_count must be in [1, 26], got 0"),
        ({"arm_count": 27}, "arm_count", "arm_count must be in [1, 26], got 27"),
        ({"horizon": 0}, "horizon", "horizon must be >= 1, got 0"),
        ({"noise_std": -1}, "noise_std", "noise_std must be finite >= 0, got -1"),
        ({"drifts": [0.1, 0.1]}, "drifts", "drifts must have one largest value, got (0.1, 0.1)"),
        ({"drifts": []}, "drifts", "arm_count must be in [1, 26], got 0"),
    ])
    def test_unusable_synthetic_world_rejected_by_key(self, backend, key, reason):
        message = f"backend {key} makes no synthetic world: {reason}"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            parse_config({"backend": backend})

    def test_synthetic_world_checked_only_for_a_synthetic_backend(self, tmp_path):
        assert parse_config({"backend": {"drift": 0, "arm_count": 1}}).backend.drift == 0
        backend = {"kind": "scripted", "fixture": str(tmp_path / "f.jsonl"), "arm_count": 0}
        assert parse_config({"backend": backend}).backend.arm_count == 0

    @pytest.mark.parametrize("key, value, bound", [
        ("timeout", math.nan, "> 0"), ("timeout", math.inf, "> 0"),
        ("timeout", -1.0, "> 0"), ("timeout", 0.0, "> 0"),
        ("model_temperature", math.nan, ">= 0"), ("model_temperature", math.inf, ">= 0"),
        ("model_temperature", -0.5, ">= 0"),
    ])
    def test_http_timeout_and_temperature_rejected_by_key(self, key, value, bound,
                                                          monkeypatch):
        monkeypatch.delenv(ENV_BASE_URL, raising=False)
        backend = {"kind": "http", "base_url": "http://h:1", "model": "m", key: value}
        with pytest.raises(PreconditionError,
                           match=f"^backend {key} must be finite {bound}, got {value!r}$"):
            parse_config({"backend": backend})

    def test_greedy_temperature_accepted(self):
        assert parse_config({"backend": {"model_temperature": 0}}).backend.model_temperature == 0

    def test_backend_float_fields_take_ints(self):
        backend = parse_config({"backend": {"drifts": [1, -1], "timeout": 5}}).backend
        assert backend.drifts == (1.0, -1.0)
        assert all(type(d) is float for d in backend.drifts)
        assert backend.timeout == 5

    @pytest.mark.parametrize("cls, section, key, value", BAD_OPTIONAL_VALUES)
    def test_optional_values_checked_by_key(self, cls, section, key, value):
        message = f"^{section} {key} must be Optional\\[[a-z]+\\], got {re.escape(repr(value))}$"
        with pytest.raises(PreconditionError, match=message):
            cls(**{key: value})

    def test_every_optional_plain_field_is_checked(self):
        optional = {f"Optional[{kind}]" for kind in ("int", "float", "bool", "str")}
        typed = {(cls, f.name)
                 for cls in (RunConfig, BackendSpec, DecodeConfig, PhiConfig)
                 for f in dataclasses.fields(cls) if f.type in optional}
        assert {(cls, key) for cls, _, key, _ in BAD_OPTIONAL_VALUES} == typed

    @given(config_mappings)
    @example({"preset": {}})  # the preset lookup raised TypeError: unhashable
    @example({"preset": [1]})
    @example({"decode": {"temperature": 10 ** 400}})  # isfinite raised OverflowError
    @example({"decode": {"epsilon_stop": 10 ** 400}})
    @example({"backend": {"drifts": [10 ** 400]}})
    @settings(max_examples=300)
    def test_any_json_config_loads_or_is_a_driftbeam_error(self, raw):
        try:
            config = parse_config(raw)
        except DriftbeamError:
            return
        assert parse_config(serialize_config(config)) == config

    @pytest.mark.parametrize("key, section", [
        ("temperature", "decode"), ("lambda1", "decode"), ("drift", "backend"),
        ("timeout", "backend"), ("delta", "phi"),
    ])
    def test_float_key_beyond_the_float_range_rejected_by_key(self, key, section):
        with pytest.raises(PreconditionError, match=f"^{section} {key} must be float, got 1000"):
            parse_config({"method": "phi", section: {key: 10 ** 400}})

    @pytest.mark.parametrize("base_url", ["localhost:8000", "ftp://h", "http://", "http://h:x"])
    def test_unusable_base_url_rejected(self, base_url, monkeypatch):
        monkeypatch.delenv(ENV_BASE_URL, raising=False)
        with pytest.raises(PreconditionError,
                           match="^backend base_url must be an http:// or https:// URL with a host"):
            parse_config({"backend": {"kind": "http", "base_url": base_url, "model": "m"}})


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

    @pytest.mark.parametrize("preset", [{}, [1], 5])
    def test_preset_that_is_not_a_string_rejected_by_key(self, preset):
        message = rf"^config preset must be Optional\[str\], got {re.escape(repr(preset))}$"
        with pytest.raises(PreconditionError, match=message):
            parse_config({"preset": preset})


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

    def test_http_backend_model_built_from_config(self, monkeypatch):
        for name in (ENV_BASE_URL, ENV_MODEL):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(ENV_API_KEY, "env-token")
        config = parse_config({"backend": {
            "kind": "http", "base_url": "http://h:8000/serve", "model": "m",
            "model_temperature": 0.2, "timeout": 5, "auth_header": "X-Api-Key",
        }})
        model = config.backend.make_model()
        assert isinstance(model, HttpCompletionsModel)
        assert (model.base_url, model.model) == ("http://h:8000/serve", "m")
        assert (model.temperature, model.timeout) == (0.2, 5)
        head = model._head.split(b"\r\n")
        assert head[0] == b"POST /serve/v1/completions HTTP/1.1"
        assert b"X-Api-Key: Bearer env-token" in head

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
            {"backend": {"kind": "http", "base_url": "http://h", "model": "m",
                         "timeout": 5.0, "verify_tls": False}},
            {"method": "phi", "phi": {"alignment_weight": 0.5}},
        ],
    )
    def test_parse_serialize_fixed_point(self, source, monkeypatch):
        for name in (ENV_BASE_URL, ENV_MODEL, ENV_API_KEY):
            monkeypatch.delenv(name, raising=False)
        config = parse_config(source)
        assert parse_config(serialize_config(config)) == config

    def test_serializer_writes_every_field_but_credentials(self):
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        dumped = serialize_config(parse_config({"method": "phi", "phi": {}}))
        assert set(dumped) == names(RunConfig)
        assert set(dumped["backend"]) == names(BackendSpec) - {"auth_token"}
        assert set(dumped["decode"]) == names(DecodeConfig) - {"seed"}
        assert set(dumped["phi"]) == names(PhiConfig)

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
            parse_config({"grid": {"seed": [1, 2]}})
        with pytest.raises(PreconditionError, match="not sweepable"):
            parse_config({"grid": {"beam": [2]}})
        with pytest.raises(PreconditionError, match="non-empty list"):
            parse_config({"grid": {"lambda1": []}})

    def test_grid_takes_any_decode_field_but_seed(self):
        grid = {"temperature": [0.5, 2.0], "selection": ["softmax", "uniform"],
                "prune_enabled": [True, False], "rollout_samples": [1, 2]}
        assert parse_config({"grid": grid}).grid == {k: tuple(v) for k, v in grid.items()}

    @pytest.mark.parametrize("grid, named", [
        ({"temperature": [1.0, 0.0]}, "temperature must be finite > 0"),
        ({"selection": ["softmax", "greedy"]}, "selection must be in"),
        ({"beam_size": ["2"]}, "decode beam_size must be int"),
        # N=1 with two rollout samples is valid; rollout_samples=0 is not.
        ({"N": [1, 2], "rollout_samples": [2, 0]}, "rollout_samples must be >= 1"),
    ])
    def test_every_grid_point_checked_when_the_config_is_built(self, grid, named):
        with pytest.raises(PreconditionError, match=named):
            parse_config({"grid": grid})
        with pytest.raises(PreconditionError, match=named):
            RunConfig(grid=grid)


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
        assert [(tid, r.to_json()) for tid, r in a.traces] == \
            [(tid, r.to_json()) for tid, r in b.traces]

    def test_rewrite_makes_new_files(self, tmp_path):
        """A second write into the same output_dir creates each output
        anew rather than truncating it: a hard link to the first
        metrics.json keeps the first file, and both writes are identical."""
        config = fast_config(seed=2, output_dir=str(tmp_path))
        names = ("metrics.json", "traces.jsonl", "report.md", "report.json")
        execute_run(config)
        first = {name: (tmp_path / name).read_bytes() for name in names}
        (tmp_path / "linked.json").hardlink_to(tmp_path / "metrics.json")
        execute_run(config)
        assert (tmp_path / "linked.json").read_bytes() == first["metrics.json"]
        assert (tmp_path / "linked.json").stat().st_nlink == 1  # no longer shared
        assert {name: (tmp_path / name).read_bytes() for name in names} == first

    def test_run_helper_returns_metrics(self):
        metrics = execute_run(fast_config(seed=3)).metrics
        assert metrics.total == 4

    def test_methods_dispatch(self):
        phi_out = execute_run(fast_config(method="phi", phi={"delta": 0.5}, seed=4))
        ar_out = execute_run(fast_config(method="ar-cot", seed=4))
        assert phi_out.metrics.total == 4
        assert ar_out.metrics.total == 4
        assert ar_out.metrics.tokens_generated < phi_out.metrics.tokens_generated
        for _, result in ar_out.traces:
            assert json.loads(result.to_json())["stop_reason"] == "completed"

    def test_unknown_method_rejected(self):
        with pytest.raises(PreconditionError, match="method must be one of"):
            decode_with("beam", BackendSpec().make_model(), "P\n", DecodeConfig())

    def test_tokens_count_every_generated_token(self):
        output = execute_run(fast_config(seed=5))
        results = [result for _, result in output.traces]
        assert [e.tokens for e in output.metrics.per_example] == \
            [r.tokens_generated for r in results]
        assert 0 < sum(r.rollout_tokens for r in results) < output.metrics.tokens_generated

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

    def test_duplicate_task_id_rejected_before_any_decode(self, monkeypatch):
        def no_decode(*args):
            raise AssertionError("decoded before the dataset was checked")

        monkeypatch.setattr("driftbeam.runner._decode_one", no_decode)
        dataset = [TaskInstance("a", "P1\n", "A"), TaskInstance("a", "P2\n", "B")]
        with pytest.raises(PreconditionError, match="duplicate task id 'a'"):
            execute_run(fast_config(), dataset)

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

    def test_null_logprob_fails_each_task_not_the_run(self, tmp_path):
        # Each task's scripted model needs the whole fixture parsed, so one
        # null logprob fails every task, each under a named ProtocolError.
        dataset_path = tmp_path / "tasks.jsonl"
        dataset_path.write_text(
            '{"id": "t1", "prompt": "P1\\n", "answer": "4"}\n'
            '{"id": "t2", "prompt": "P2\\n", "answer": "4"}\n'
        )
        fixture_path = tmp_path / "fx.jsonl"
        save_fixture(fixture_path, [
            {
                "prefix_hash": fixture_key("complete", prompt),
                "text": "Answer: 4",
                "logprobs": logprobs,
                "finish_reason": "end-of-sequence",
            }
            for prompt, logprobs in (("P1\n", [-0.1]), ("P2\n", [None]))
        ])
        config = parse_config({
            "method": "ar-cot",
            "dataset": str(dataset_path),
            "backend": {"kind": "scripted", "fixture": str(fixture_path)},
        })
        output = execute_run(config)
        assert output.metrics.total == 0
        assert [tid for tid, _ in output.failures] == ["t1", "t2"]
        for _, message in output.failures:
            assert message.startswith(
                "ProtocolError: fixture record 1: logprobs must be a list of numbers")

    def test_non_object_fixture_line_fails_each_task_not_the_run(self, tmp_path):
        dataset_path = tmp_path / "tasks.jsonl"
        dataset_path.write_text(
            '{"id": "t1", "prompt": "P1\\n", "answer": "4"}\n'
            '{"id": "t2", "prompt": "P2\\n", "answer": "4"}\n'
        )
        fixture_path = tmp_path / "fx.jsonl"
        fixture_path.write_text("5\n")
        config = parse_config({
            "method": "ar-cot",
            "dataset": str(dataset_path),
            "backend": {"kind": "scripted", "fixture": str(fixture_path)},
        })
        output = execute_run(config)
        assert output.metrics.total == 0
        assert [tid for tid, _ in output.failures] == ["t1", "t2"]
        for _, message in output.failures:
            assert message == f"ProtocolError: {fixture_path}:1: not a JSON object"

    @pytest.mark.parametrize("field, value", [("prefix_hash", [1]), ("text", 5)])
    def test_non_string_fixture_field_fails_each_task_not_the_run(self, tmp_path,
                                                                  field, value):
        dataset_path = tmp_path / "tasks.jsonl"
        dataset_path.write_text(
            '{"id": "t1", "prompt": "P1\\n", "answer": "4"}\n'
            '{"id": "t2", "prompt": "P2\\n", "answer": "4"}\n'
        )
        records = [
            {
                "prefix_hash": fixture_key("complete", prompt),
                "text": "Answer: 4",
                "logprobs": [-0.1],
                "finish_reason": "end-of-sequence",
            }
            for prompt in ("P1\n", "P2\n")
        ]
        records[1][field] = value
        fixture_path = tmp_path / "fx.jsonl"
        save_fixture(fixture_path, records)
        config = parse_config({
            "method": "ar-cot",
            "dataset": str(dataset_path),
            "backend": {"kind": "scripted", "fixture": str(fixture_path)},
        })
        output = execute_run(config)
        assert output.metrics.total == 0
        assert [tid for tid, _ in output.failures] == ["t1", "t2"]
        for _, message in output.failures:
            assert message.startswith(f"ProtocolError: fixture record 1: {field} must be a string")

    def test_fixture_parsed_once_and_shared_by_tasks(self, tmp_path):
        fixture_path = tmp_path / "fx.jsonl"
        save_fixture(fixture_path, [
            {
                "prefix_hash": fixture_key("complete", "P1\n"),
                "text": "Answer: 4",
                "logprobs": [-0.1],
                "finish_reason": "end-of-sequence",
            }
        ])
        spec = BackendSpec(kind="scripted", fixture=str(fixture_path))
        _cached_fixture.cache_clear()
        first, second = spec.make_model(), spec.make_model()
        assert first is not second
        info = fixture_path.stat()
        queues = _cached_fixture(str(fixture_path), (info.st_ino, info.st_mtime_ns, info.st_size))
        assert _cached_fixture.cache_info()[:2] == (2, 1)  # hits, misses
        assert queues == {fixture_key("complete", "P1\n"): (
            StepSample("Answer: 4", (-0.1,), FINISH_EOS),
        )}
        for model in (first, second):
            assert model.complete("P1\n", 8, None).text == "Answer: 4"

    def test_fixture_rewritten_at_the_same_path_is_read_anew(self, tmp_path):
        dataset_path, fixture_path = tmp_path / "tasks.jsonl", tmp_path / "fx.jsonl"
        dataset_path.write_text('{"id": "t1", "prompt": "P\\n", "answer": "A"}\n')
        config = parse_config({
            "method": "ar-cot",
            "dataset": str(dataset_path),
            "backend": {"kind": "scripted", "fixture": str(fixture_path)},
        })
        for answer, logprobs in (("A", [-0.1]), ("B", [-0.25, -0.5])):
            save_fixture(fixture_path, [{
                "prefix_hash": fixture_key("complete", "P\n"),
                "text": f"Answer: {answer}",
                "logprobs": logprobs,
                "finish_reason": "end-of-sequence",
            }])
            (example,) = execute_run(config).metrics.per_example
            assert (example.predicted, example.tokens) == (answer, len(logprobs))

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
        report = json.loads((out_dir / "report.json").read_bytes())
        assert RunMetrics.from_dict(report["rows"]["mfs"]["synthetic:4"]) == output.metrics
        markdown = (out_dir / "report.md").read_text()
        assert markdown.startswith("| Method | synthetic:4 |")

    def test_trace_lines_are_canonical_records(self, tmp_path):
        out_dir = tmp_path / "out"
        output = execute_run(fast_config(seed=6, output_dir=str(out_dir)))
        lines = (out_dir / "traces.jsonl").read_bytes().splitlines()
        assert lines == [canonical_json({"result": result.to_dict(), "task": task_id})
                         for task_id, result in output.traces]


class TestSweep:
    def test_points_order_and_seeds(self):
        config = fast_config(seed=10, grid={"beam_size": [2, 3], "lambda1": [0.4, 0.8]})
        points = sweep(config)
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
        config = fast_config(seed=11, output_dir=str(out_dir), grid={"lambda1": [0.4, 0.8]})
        points = sweep(config)
        listed = json.loads((out_dir / "sweep-points.json").read_bytes())
        assert [p["label"] for p in listed] == [p.label for p in points]
        assert [p["seed"] for p in listed] == [11, 12]
        report = json.loads((out_dir / "sweep-report.json").read_bytes())
        assert set(report["rows"]) == {"lambda1=0.4", "lambda1=0.8"}

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
        low, high = sweep(config.replace(grid={"lambda1": [0.0, 2.0]}))
        assert low.metrics.tokens_generated <= high.metrics.tokens_generated

    def test_epsilon_direction_tokens_non_increasing(self):
        # A looser epsilon stops earlier, so tokens shrink as epsilon grows.
        config = fast_config(seed=41, dataset="synthetic:6",
                             grid={"epsilon_stop": [1e-6, 1000.0]})
        tight, loose = sweep(config)
        assert loose.metrics.tokens_generated <= tight.metrics.tokens_generated
