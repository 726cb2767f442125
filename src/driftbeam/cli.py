"""Command-line front end.

Subcommands:
    decode    run one prompt and print the DecodeResult as JSON
    bench     run a dataset and write metrics/report/traces
    sweep     grid of runs over decode fields, derived seeds
    stats     pooled trajectory statistics over trace files
    compare   two metrics files -> accuracy delta and FLOPs ratio

All failures exit nonzero after printing a single machine-readable JSON
record {"error": <type>, "message": <text>} on stderr. Output files and
stdout payloads are canonical JSON (sorted keys, no whitespace), so equal
runs are byte-equal.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

from .engine import SELECTIONS, parse_epsilon
from .errors import DatasetError, DriftbeamError, PreconditionError
from .metrics import RunMetrics, canonical_json, compare_runs, read_json_lines
from .process import trajectory_statistics
from .runner import (
    BACKEND_KINDS,
    METHODS,
    PRESETS,
    RunConfig,
    decode_with,
    execute_run,
    load_config_file,
    parse_config,
    sweep,
)

_RUN_FIELDS = frozenset(f.name for f in fields(RunConfig))


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    """Flags whose dest is the config key they set: a RunConfig field, or
    `section.field` for the backend, decode and phi sections. Unset flags
    leave no attribute, so the config file's value stands."""
    parser.add_argument("--config", help="YAML run config; flags override its fields")
    add = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    add("--method", choices=METHODS)
    add("--seed", type=int)
    add("--preset", choices=sorted(PRESETS))
    add("--backend", choices=BACKEND_KINDS, dest="backend.kind")
    add("--fixture", dest="backend.fixture", help="scripted backend fixture (JSONL)")
    add("--base-url", dest="backend.base_url", help="http backend endpoint base")
    add("--model", dest="backend.model", help="http backend model name")
    add("--params", type=int, dest="backend.model_params",
        help="model parameter count P for FLOPs")
    add("--arms", type=int, dest="backend.arm_count", help="synthetic arm count")
    add("--arm-drift", type=float, dest="backend.drift", help="synthetic drift magnitude")
    add("--noise", type=float, dest="backend.noise_std", help="synthetic noise std")
    add("--horizon", type=int, dest="backend.horizon", help="synthetic reasoning horizon")
    add("--beam-size", "-M", type=int, dest="decode.beam_size")
    add("--rollouts", "-N", type=int, dest="decode.rollouts_per_candidate",
        help="candidate steps per active path")
    add("--temperature", type=float, dest="decode.temperature",
        help="softmax sharpness tau")
    add("--lambda1", type=float, dest="decode.lambda1")
    add("--epsilon-stop", type=parse_epsilon, dest="decode.epsilon_stop",
        help="convergence threshold; none, null, off or -inf disables")
    add("--max-steps", type=int, dest="decode.max_steps")
    add("--rollout-depth", type=int, dest="decode.rollout_depth")
    add("--max-step-tokens", type=int, dest="decode.max_step_tokens")
    add("--rollout-samples", type=int, dest="decode.rollout_samples")
    add("--max-completion-tokens", type=int, dest="decode.max_completion_tokens")
    add("--selection", choices=SELECTIONS, dest="decode.selection")
    add("--no-prune", action="store_false", dest="decode.prune_enabled")
    add("--delta", type=float, dest="phi.delta", help="consensus stop fraction")
    add("--alignment-weight", type=float, dest="phi.alignment_weight")
    add("--cluster-distance", type=float, dest="phi.cluster_distance")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    add = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    add("--dataset", help="JSONL path or synthetic:<N>")
    add("--out", dest="output_dir", help="output directory")
    add("--workers", type=int)


def _build_config(args: argparse.Namespace) -> RunConfig:
    raw = load_config_file(args.config) if args.config else {}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if section:
            current = raw.get(section)
            if current is not None and not isinstance(current, dict):
                raise PreconditionError(f"{section} section must be a mapping")
            raw[section] = {**(current or {}), key: value}
        elif key in _RUN_FIELDS:
            raw[key] = value
    return parse_config(raw)


def _cmd_decode(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.prompt is not None:
        prompt = args.prompt
    elif args.prompt_file:
        prompt = Path(args.prompt_file).read_text(encoding="utf-8")
    else:
        raise DriftbeamError("decode requires --prompt or --prompt-file")
    model = config.backend.make_model()
    decode_cfg = config.decode.replace(seed=config.seed)
    result = decode_with(config.method, model, prompt, decode_cfg, config.phi)
    if args.trace:
        with open(args.trace, "wb") as handle:
            handle.writelines(event + b"\n" for event in result.trace_json)
        payload = canonical_json(result.summary())
    else:
        payload = result.to_json()
    sys.stdout.buffer.write(payload + b"\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _build_config(args)
    output = execute_run(config)
    summary = {
        "accuracy": output.metrics.accuracy_value,
        "failures": len(output.failures),
        "flops": output.metrics.flops,
        "tokens_generated": output.metrics.tokens_generated,
        "total": output.metrics.total,
    }
    sys.stdout.buffer.write(canonical_json(summary) + b"\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    points = sweep(config)
    summary = [
        {
            "accuracy": p.metrics.accuracy_value,
            "label": p.label,
            "seed": p.seed,
            "tokens_generated": p.metrics.tokens_generated,
        }
        for p in points
    ]
    sys.stdout.buffer.write(canonical_json(summary) + b"\n")
    return 0


def _leaf_advantage_chains(events: list[tuple[str, dict]]) -> list[list[float]]:
    """Survivor trajectories' advantage sequences from one decode's events,
    each paired with the `path:line` it was read from. An event that is
    malformed, a select that names a candidate no expand of its step
    listed, a drift that is not a finite number, or parent links that form a
    cycle are a DatasetError naming the line."""
    expands: dict[int, list[tuple[int, int]]] = {}
    scores: dict[int, tuple[str, list[float]]] = {}
    links: dict[int, tuple[Optional[int], float, str]] = {}
    parents: set[int] = set()
    for where, event in events:
        try:
            step = event.get("step")
            kind = event.get("event")
            if kind == "expand":
                expands[step] = [(c["parent"], c["index"]) for c in event["candidates"]]
            elif kind == "score":
                scores[step] = (where, event.get("drifts") or event.get("advantage") or [])
            elif kind == "select":
                expanded = expands.get(step, [])
                for chosen in event["selected"]:
                    key = (chosen["parent"], chosen["index"])
                    if key not in expanded:
                        raise DatasetError(f"{where}: select names candidate {key}, "
                                           f"which no expand event of step {step} lists")
                    scored_at, drifts = scores.get(step, (where, []))
                    drift = drifts[expanded.index(key)]
                    if type(drift) not in (int, float) or not abs(drift) <= sys.float_info.max:
                        raise DatasetError(f"{scored_at}: drift {drift!r} of candidate {key} "
                                           "is not a finite number")
                    links[chosen["path_id"]] = (chosen["parent"], drift, where)
                    parents.add(chosen["parent"])
        except DatasetError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"{where}: malformed trace event "
                               f"({type(exc).__name__}: {exc})") from None
    chains = []
    for path_id in links:
        if path_id in parents:
            continue
        chain: list[float] = []
        cursor: Optional[int] = path_id
        while cursor is not None and cursor in links:
            parent, drift, where = links[cursor]
            chain.append(drift)
            if len(chain) > len(links):
                raise DatasetError(f"{where}: path {cursor} descends from itself")
            cursor = parent
        chains.append(list(reversed(chain)))
    return chains


def _cmd_stats(args: argparse.Namespace) -> int:
    """Each `{"result", "task"}` record line is one decode; in a bare event
    stream, a decode ends at its `finalize` event."""
    sequences: list[list[float]] = []
    for path in args.traces:
        stream: list[tuple[str, dict]] = []
        for line_no, _, record in read_json_lines(path, DatasetError):
            where = f"{path}:{line_no}"
            if not isinstance(record, dict):
                raise DatasetError(f"{where}: a trace line must be a JSON object, "
                                   f"got {type(record).__name__}")
            if "result" in record:
                result = record["result"]
                trace = result.get("trace", []) if isinstance(result, dict) else None
                if not isinstance(trace, list):
                    raise DatasetError(f"{where}: a result must be a JSON object "
                                       "whose trace is a list")
                sequences.extend(_leaf_advantage_chains([(where, event) for event in trace]))
            else:
                stream.append((where, record))
                if record.get("event") == "finalize":
                    sequences.extend(_leaf_advantage_chains(stream))
                    stream = []
        sequences.extend(_leaf_advantage_chains(stream))
    sys.stdout.buffer.write(canonical_json(trajectory_statistics(sequences)) + b"\n")
    return 0


def _load_metrics(path: str) -> RunMetrics:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise DatasetError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DatasetError(f"{path}: a metrics file must hold a JSON object, "
                           f"got {type(payload).__name__}")
    if "metrics" in payload:
        payload = payload["metrics"]
    return RunMetrics.from_dict(payload)


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare_runs(_load_metrics(args.run_a), _load_metrics(args.run_b))
    sys.stdout.buffer.write(canonical_json(comparison) + b"\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftbeam",
        description="Drift-guided foresight decoding and its reference baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode a single prompt")
    _add_override_flags(p_decode)
    p_decode.add_argument("--prompt")
    p_decode.add_argument("--prompt-file", dest="prompt_file")
    p_decode.add_argument("--trace", help="write trace events to this JSONL file")
    p_decode.set_defaults(handler=_cmd_decode)

    p_bench = sub.add_parser("bench", help="run a dataset and write reports")
    _add_override_flags(p_bench)
    _add_run_flags(p_bench)
    p_bench.set_defaults(handler=_cmd_bench)

    p_sweep = sub.add_parser("sweep", help="grid of runs over decode fields")
    _add_override_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_stats = sub.add_parser("stats", help="trajectory statistics over trace files")
    p_stats.add_argument("traces", nargs="+")
    p_stats.set_defaults(handler=_cmd_stats)

    p_compare = sub.add_parser("compare", help="compare two metrics.json files")
    p_compare.add_argument("run_a")
    p_compare.add_argument("run_b")
    p_compare.set_defaults(handler=_cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DriftbeamError, RuntimeError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
