"""Shared test fixtures: a small two-arm synthetic world, tmp helpers and a
strategy for JSON-shaped values."""

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from driftbeam import DecodeConfig
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask
from driftbeam.metrics import canonical_json

# The property tests draw the same examples on every run, so one turns red
# on the change that broke it rather than by chance; `pytest
# --hypothesis-profile=explore` draws fresh ones. Each test keeps its own
# max_examples, and a counterexample found by exploring is pinned in its
# test with @example.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")

# JSON values as json.loads can return them, NaN and infinities included;
# integers reach past the float range. For the boundary property tests.
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)

# Populated by tests/test_acceptance.py; echoed after the run so the
# acceptance verdicts survive output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def two_arm_task() -> SyntheticTask:
    return SyntheticTask.two_arm()


@pytest.fixture
def two_arm_model(two_arm_task) -> SyntheticModel:
    return SyntheticModel(two_arm_task)


@pytest.fixture
def small_config() -> DecodeConfig:
    """Cheap decode knobs for loop-shape tests (not tuned for accuracy)."""
    return DecodeConfig(
        beam_size=2,
        rollouts_per_candidate=2,
        rollout_depth=4,
        max_steps=8,
        lambda1=0.8,
        epsilon_stop=1e-6,
        seed=7,
    )


def _check_trace_encoding(result) -> None:
    """A DecodeResult holds each trace event in canonical form, encodes to
    the bytes of canonical_json(to_dict()), and counts its prunes."""
    assert result.trace_json
    for event in result.trace_json:
        assert event == canonical_json(json.loads(event))
    assert result.to_json() == canonical_json(result.to_dict())
    assert result.prune_count == sum(
        len(e["pruned"]) for e in result.trace if e["event"] == "prune")


@pytest.fixture
def check_trace_encoding():
    return _check_trace_encoding
