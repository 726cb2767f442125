"""The benchmark's span recorder (bench/recorder.py) traces driftbeam by
rebinding its module-level functions. These tests run a small traced run
per method and check that every decode is seen and that each candidate is
valued, and each phi step clustered, exactly once."""

import sys
from pathlib import Path

import pytest

from driftbeam import runner
from driftbeam.runner import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import recorder  # noqa: E402

SMALL_DECODE = {"beam_size": 2, "rollouts_per_candidate": 2, "rollout_depth": 4, "max_steps": 4}


def traced_metrics(**top) -> dict:
    config = parse_config({"dataset": "synthetic:2", "decode": dict(SMALL_DECODE), **top})
    with recorder.Recorder() as rec:
        output = runner.execute_run(config)
    assert output.failures == ()
    return recorder.layer_metrics(rec.spans, rec.lost_replayability, None)


@pytest.mark.parametrize("top, clusterings_per_step", [
    ({"method": "mfs"}, 0.0),
    ({"method": "phi", "phi": {}}, 1.0),
], ids=["mfs", "phi"])
def test_every_decode_traced_and_each_candidate_valued_once(top, clusterings_per_step):
    metrics = traced_metrics(**top)
    assert metrics["runner.decode.calls"] == 2
    assert metrics["engine.candidates"] > 0
    assert metrics["process.estimates_per_candidate"] == 1.0
    assert metrics["baselines.clusterings_per_step"] == clusterings_per_step
