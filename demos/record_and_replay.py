"""
Recording a live decode and replaying it bit-for-bit
====================================================

Every model call can be captured as a (prefix_hash, text, logprobs,
finish_reason) record. A decode replayed against the recorded queues must
reproduce the original result byte for byte — that is the property the
golden-trace suite leans on, and this script demonstrates it end to end.
"""

import json
import tempfile
from pathlib import Path

from driftbeam import DecodeConfig, ScriptedModel, canonical_json, decode
from driftbeam.backends import RecordingModel, load_fixture
from driftbeam.backends.synthetic import SyntheticModel, SyntheticTask

task = SyntheticTask.two_arm(horizon=5)
config = DecodeConfig(beam_size=2, rollouts_per_candidate=2, rollout_depth=4,
                      max_steps=5, seed=11)
prompt = "Pick the best arm.\n"

# -- record ---------------------------------------------------------------------
recorder = RecordingModel(SyntheticModel(task))
live = decode(recorder, prompt, config)
print(f"live decode: answer {live.final_answer!r}, stop {live.stop_reason} "
      f"at step {live.stop_step}, {live.tokens_generated} tokens")
print(f"captured {len(recorder.records)} model calls")

# the tape lives in a temporary directory, removed when the replays are done.
with tempfile.TemporaryDirectory() as tmp:
    fixture_path = Path(tmp) / "two_arm.jsonl"
    recorder.save(fixture_path)

    # -- inspect the tape ---------------------------------------------------------
    records = load_fixture(fixture_path)
    first = records[0]
    print(f"\nfirst record keys: {sorted(first)}")
    print(f"  text {first['text']!r}")
    print(f"  logprobs {[round(x, 3) for x in first['logprobs']]}")
    print(f"  finish {first['finish_reason']!r}, prefix_hash {first['prefix_hash'][:12]}...")

    # -- replay -------------------------------------------------------------------
    replayed = decode(ScriptedModel(fixture_path), prompt, config)
    live_bytes = canonical_json(live.to_dict())
    replay_bytes = canonical_json(replayed.to_dict())
    print(f"\nreplay identical: {live_bytes == replay_bytes} "
          f"({len(replay_bytes)} canonical bytes)")

    # the scripted backend serves queues per (kind, prefix) in file order, so
    # a second replay from the same tape is also identical.
    again = decode(ScriptedModel(fixture_path), prompt, config)
    print(f"second replay identical: {canonical_json(again.to_dict()) == live_bytes}")

# peek at the trace instead of the tape: the same story, event by event.
kinds = [event["event"] for event in live.trace]
print(f"\ntrace events: {json.dumps(kinds)}")
