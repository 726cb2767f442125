"""Span recorder for the traced benchmark run, and the per-layer metrics.

`Recorder` rebinds driftbeam's public functions and backend methods to
timing wrappers while it is active, and puts the originals back when it
exits. A function is rebound in every driftbeam module that holds it, so
calls through `from .engine import substream` copies are seen too. Spans
stay in memory; `layer_metrics` turns one traced round into numbers.

A span records its name, start, end, parent (the enclosing span on the same
thread) and instance. An instance begins at `BackendSpec.make_model`, the
first call the runner makes for a task, and ends when that task's
`decode` or `phi_decode` returns; it is recorded as a `runner.decode` span.
A decode called outside the runner belongs to no instance.
`busy` is the thread's CPU time over the span (`time.thread_time`); wait is
duration minus busy. Self time is duration minus the time of child spans.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    parent: Optional[int]
    instance: Optional[int]
    start: float
    end: float
    busy: float
    value: Any


# Per-layer counts that repeat exactly for one seed and code. Names, units
# and directions of all per-layer metrics are in BENCHMARK.json.
DETERMINISTIC = (
    "engine.substream.calls",
    "engine.steps",
    "engine.candidates",
    "engine.pruned",
    "engine.stop.converged",
    "engine.stop.max_steps",
    "engine.stop.exhausted",
    "engine.stop.consensus",
    "process.estimate_predictable_advantage.calls",
    "process.estimates_per_candidate",
    "baselines.cluster_candidates.calls",
    "baselines.clusterings_per_step",
    *(f"backends.{call}.{field}" for call in ("propose", "rollout", "complete")
      for field in ("calls", "tokens")),
    "backends.http.requests",
    "backends.http.request_tail_pct",
    "backends.http.retries",
    "backends.http.replayable",
    "backends.scripted.samples_built",
    "backends.scripted.samples_used_share",
    "runner.decode.calls",
    "runner.decode.tail_pct",
    "runner.write_outputs.bytes",
)
BACKEND_KINDS = {"SyntheticModel": "synthetic", "ScriptedModel": "scripted",
                 "HttpCompletionsModel": "http"}
CALLS = {"propose_step": "propose", "rollout": "rollout", "complete": "complete"}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    above it. With ten samples or fewer no percentile qualifies, and the
    maximum is reported as percentile 100."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _tokens(args, result) -> int:
    return len(result.token_logprobs)


class Recorder:
    """Context manager: rebinds on enter, restores on exit, keeps spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.lost_replayability = False
        self._ids = itertools.count(1)
        self._instances = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, value: Optional[Callable] = None,
              begins_instance: bool = False, ends_instance: bool = False) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if begins_instance:
                local.instance = next(self._instances)
                local.instance_start = time.perf_counter()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            instance = getattr(local, "instance", None)
            stack.append(span_id)
            result = None
            returned = False
            # The wall clock brackets the CPU clock, so busy never exceeds duration.
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                c1 = time.thread_time()
                t1 = time.perf_counter()
                stack.pop()
                recorded = value(args, result) if returned and value is not None else None
                spans.append(Span(span_id, name, parent, instance, t0, t1, c1 - c0, recorded))
                if ends_instance and instance is not None:
                    spans.append(Span(next(ids), "runner.decode", None, instance,
                                      local.instance_start, t1, 0.0, recorded))
                    local.instance = None

        return wrapper

    def _http_tokens(self, args, result) -> int:
        if not args[0].replayable:
            self.lost_replayability = True
        return len(result.token_logprobs)

    def __enter__(self) -> "Recorder":
        from driftbeam import baselines, dataset, engine, metrics, process, runner
        from driftbeam.backends import scripted

        def output_bytes(args, out_dir) -> int:
            return sum(path.stat().st_size for path in out_dir.iterdir())

        functions = {
            engine.substream: ("engine.substream", None, {}),
            engine.expand_beam: ("engine.expand_beam", lambda a, r: len(r), {}),
            engine.score_candidates: ("engine.score_candidates", None, {}),
            engine.select_beam: ("engine.select_beam", None, {}),
            engine.prune_beam: ("engine.prune_beam", lambda a, r: len(r[2]), {}),
            engine.finalize: ("engine.finalize", None, {}),
            engine.run_loop: ("engine.run_loop", None, {}),
            engine.decode: ("engine.decode", lambda a, r: r.stop_reason,
                            {"ends_instance": True}),
            baselines.phi_decode: ("baselines.phi_decode", lambda a, r: r.stop_reason,
                                   {"ends_instance": True}),
            process.estimate_predictable_advantage: (
                "process.estimate_predictable_advantage", None, {}),
            baselines.cluster_candidates: ("baselines.cluster_candidates", None, {}),
            scripted.fixture_key: ("backends.scripted.fixture_key", None, {}),
            runner.execute_run: ("runner.execute_run", None, {}),
            runner.write_outputs: ("runner.write_outputs", output_bytes, {}),
            metrics.canonical_json: ("metrics.canonical_json", None, {}),
            dataset.synthetic_suite: ("dataset.synthetic_suite", None, {}),
        }
        wrappers = {
            id(fn): (fn, self._wrap(name, fn, value, **flags))
            for fn, (name, value, flags) in functions.items()
        }
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("driftbeam"):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])

        from driftbeam.backends import HttpCompletionsModel, ScriptedModel, SyntheticModel

        for cls in (SyntheticModel, ScriptedModel, HttpCompletionsModel):
            kind = BACKEND_KINDS[cls.__name__]
            value = self._http_tokens if kind == "http" else _tokens
            for method, call in CALLS.items():
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(f"backends.{kind}.{call}", original, value))
        self._patch(ScriptedModel, "__init__", self._wrap(
            "backends.scripted.init", ScriptedModel.__dict__["__init__"],
            lambda a, r: len(a[1]) if isinstance(a[1], (list, tuple)) else 0))
        self._patch(runner.BackendSpec, "make_model", self._wrap(
            "runner.make_model", runner.BackendSpec.__dict__["make_model"],
            begins_instance=True))
        return self

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span name's total duration minus the time of its child spans."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.end - span.start - child_time[span.id]
    return out


def layer_metrics(spans: list[Span], lost_replayability: bool,
                  server_requests: Optional[int]) -> dict[str, float]:
    """Per-layer metrics of one traced round: all but those of set-up
    (dataset.synthetic_suite.self_s) and bench.tracing_overhead_s."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    self_s = self_times(spans)

    def calls(name: str) -> int:
        return len(by_name[name])

    def values(name: str) -> list:
        return [s.value for s in by_name[name]]

    out: dict[str, float] = {}
    for layer in ("engine.substream", "engine.expand_beam", "engine.score_candidates",
                  "engine.select_beam", "engine.prune_beam", "engine.finalize",
                  "engine.run_loop", "process.estimate_predictable_advantage",
                  "baselines.cluster_candidates", "backends.scripted.fixture_key",
                  "runner.write_outputs", "metrics.canonical_json"):
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in ("engine.substream", "process.estimate_predictable_advantage",
                  "baselines.cluster_candidates"):
        out[f"{layer}.calls"] = calls(layer)

    steps = calls("engine.expand_beam")
    candidates = sum(values("engine.expand_beam"))
    out["engine.steps"] = steps
    out["engine.candidates"] = candidates
    out["engine.pruned"] = sum(values("engine.prune_beam"))
    stops = values("engine.decode") + values("baselines.phi_decode")
    for reason in ("converged", "max_steps", "exhausted", "consensus"):
        out[f"engine.stop.{reason}"] = stops.count(reason)
    out["process.estimates_per_candidate"] = (
        out["process.estimate_predictable_advantage.calls"] / candidates if candidates else 0.0)
    out["baselines.clusterings_per_step"] = (
        out["baselines.cluster_candidates.calls"] / steps if steps else 0.0)

    for call in CALLS.values():
        group = [s for kind in BACKEND_KINDS.values() for s in by_name[f"backends.{kind}.{call}"]]
        busy = sum(s.busy for s in group)
        out[f"backends.{call}.calls"] = len(group)
        out[f"backends.{call}.tokens"] = sum(s.value or 0 for s in group)
        out[f"backends.{call}.busy_s"] = busy
        out[f"backends.{call}.wait_s"] = sum(s.end - s.start for s in group) - busy

    requests = [s.end - s.start for call in CALLS.values()
                for s in by_name[f"backends.http.{call}"]]
    out["backends.http.requests"] = len(requests)
    if requests:
        tail_s, tail_pct = tail(requests)
        out["backends.http.request_p50_ms"] = 1000.0 * statistics.median(requests)
        out["backends.http.request_tail_ms"] = 1000.0 * tail_s
        out["backends.http.request_tail_pct"] = tail_pct
    else:
        out["backends.http.request_p50_ms"] = 0.0
        out["backends.http.request_tail_ms"] = 0.0
        out["backends.http.request_tail_pct"] = 0.0
    out["backends.http.retries"] = (
        server_requests - len(requests) if server_requests is not None else 0)
    out["backends.http.replayable"] = 0 if lost_replayability else 1

    built = sum(values("backends.scripted.init"))
    used = sum(calls(f"backends.scripted.{call}") for call in CALLS.values())
    out["backends.scripted.init.self_s"] = self_s["backends.scripted.init"]
    out["backends.scripted.samples_built"] = built
    out["backends.scripted.samples_used_share"] = used / built if built else 0.0

    decodes = [s.end - s.start for s in by_name["runner.decode"]]
    run_span = sum(s.end - s.start for s in by_name["runner.execute_run"])
    out["runner.decode.calls"] = len(decodes)
    tail_s, tail_pct = tail(decodes)
    out["runner.decode.p50_ms"] = 1000.0 * statistics.median(decodes)
    out["runner.decode.tail_ms"] = 1000.0 * tail_s
    out["runner.decode.tail_pct"] = tail_pct
    out["runner.instance_parallelism"] = sum(decodes) / run_span
    out["runner.write_outputs.bytes"] = sum(values("runner.write_outputs"))
    return out
