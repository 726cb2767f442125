"""Golden replays: every scripted fixture must reproduce its stored result
byte for byte, under each decoding method.

Regenerate with ``python3 tests/make_fixtures.py`` after a deliberate
behaviour change; a diff here otherwise means a regression.
"""

import json

import pytest

from driftbeam import ScriptedModel, canonical_json
from driftbeam.backends import load_fixture
from driftbeam.runner import decode_with

from fixture_specs import METHODS, SPECS, decode_config_for, phi_config_for


def replay(spec, method):
    model = ScriptedModel(load_fixture(spec.fixture_path))
    config = decode_config_for(spec)
    return decode_with(method, model, spec.prompt, config, phi_config_for(spec))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("method", METHODS)
def test_golden_bytes(spec, method):
    result = replay(spec, method)
    got = canonical_json(result.to_dict()) + b"\n"
    want = spec.golden_path(method).read_bytes()
    assert got == want


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("method", METHODS)
def test_golden_trace_encoding(spec, method, check_trace_encoding):
    check_trace_encoding(replay(spec, method))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_replay_is_idempotent(spec):
    first = canonical_json(replay(spec, "mfs").to_dict())
    second = canonical_json(replay(spec, "mfs").to_dict())
    assert first == second


class TestGoldenShapes:
    """Structural claims the goldens were built to exhibit."""

    def golden(self, name, method):
        spec = next(s for s in SPECS if s.name == name)
        return json.loads(spec.golden_path(method).read_text())

    def test_mfs_converges_where_planned(self):
        for spec in SPECS:
            if spec.k_mfs >= spec.max_steps:
                continue
            got = self.golden(spec.name, "mfs")
            assert got["stop_reason"] == "converged", spec.name
            assert got["stop_step"] == spec.k_mfs + 1, spec.name

    def test_phi_consensus_where_planned(self):
        for spec in SPECS:
            if spec.k_phi >= spec.max_steps:
                continue
            got = self.golden(spec.name, "phi")
            assert got["stop_reason"] == "consensus", spec.name
            assert got["stop_step"] == spec.k_phi, spec.name

    def test_capped_fixture_hits_step_cap(self):
        got = self.golden("capped", "mfs")
        assert got["stop_reason"] == "max_steps"
        assert got["flagged"] is True

    def test_ar_cot_completes(self):
        for spec in SPECS:
            got = self.golden(spec.name, "ar-cot")
            assert got["stop_reason"] == "completed", spec.name
            assert got["stop_step"] == 0, spec.name

    def test_convergent_fixtures_cost_less_than_phi(self):
        for spec in SPECS:
            if spec.k_mfs >= spec.max_steps or spec.k_phi >= spec.max_steps:
                continue
            mfs = self.golden(spec.name, "mfs")
            phi = self.golden(spec.name, "phi")
            assert mfs["tokens_generated"] <= phi["tokens_generated"], spec.name

    def test_answers_are_not_uniform_across_fixtures(self):
        answers = {self.golden(s.name, "mfs")["final_answer"] for s in SPECS}
        assert len(answers) > 1
