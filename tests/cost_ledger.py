"""The exact cost ledger: what each method spends on the synthetic worlds.

One row per world and method, each a run of `synthetic:32` with seed 1 and
the default decode config (phi with `phi: {}`). Every field is an exact
count, so `tests/test_ledger.py` compares the committed file with a fresh
computation exactly. `python3 tests/make_fixtures.py
--ledger` rewrites the file; a change to a row is a deliberate step, as
with a golden.

A path's arm is read from its first step ("consider arm X"); a prune cuts
a correct-arm path when that arm is the task's gold answer.
"""

import re
from collections import Counter
from pathlib import Path

from driftbeam.runner import METHODS, execute_run, parse_config

LEDGER_PATH = Path(__file__).parent / "data" / "ledger.json"

SETUP = {"dataset": "synthetic:32", "seed": 1}
WORLDS = {
    "2-arm": {},
    "4-arm": {"drifts": [0.05, 0.02, -0.02, -0.05]},
}

_ARM_RE = re.compile(r"consider arm ([A-Z])")


def correct_arm_prunes(trace, gold: str) -> int:
    """How many pruned paths of one decode's trace committed to `gold`."""
    arms: dict[int, str] = {}
    count = 0
    for event in trace:
        if event["event"] == "expand":
            texts = {(c["parent"], c["index"]): c["text"] for c in event["candidates"]}
        elif event["event"] == "select":
            for chosen in event["selected"]:
                parent = chosen["parent"]
                arms[chosen["path_id"]] = arms.get(parent) or _ARM_RE.match(
                    texts[parent, chosen["index"]]).group(1)
        elif event["event"] == "prune":
            count += sum(arms[path_id] == gold for path_id in event["pruned"])
    return count


def ledger_row(method: str, backend: dict) -> dict:
    raw = {**SETUP, "method": method, "backend": backend}
    if method == "phi":
        raw["phi"] = {}
    output = execute_run(parse_config(raw))
    if output.failures:
        raise AssertionError(f"{method} run failed: {output.failures[0]}")
    metrics, results = output.metrics, [result for _, result in output.traces]
    gold = {example.task_id: example.gold for example in metrics.per_example}
    return {
        "correct": metrics.correct,
        "total": metrics.total,
        "tokens": metrics.tokens_generated,
        "rollout_tokens": sum(r.rollout_tokens for r in results),
        "flops": metrics.flops,
        "stop_reasons": dict(Counter(r.stop_reason for r in results)),
        "stop_steps": dict(Counter(str(r.stop_step) for r in results)),
        "prunes": sum(r.prune_count for r in results),
        "correct_arm_prunes": sum(
            correct_arm_prunes(r.trace, gold[task_id]) for task_id, r in output.traces),
    }


def compute_ledger() -> dict:
    return {
        "setup": {**SETUP, "worlds": WORLDS},
        "rows": {f"{world}/{method}": ledger_row(method, backend)
                 for world, backend in WORLDS.items() for method in METHODS},
    }
