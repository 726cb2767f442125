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
import json
import sys
from pathlib import Path
from typing import Optional

import yaml

from .errors import DriftbeamError
from .metrics import RunMetrics, canonical_json, compare_runs
from .process import trajectory_statistics
from .runner import (
    BACKEND_KINDS,
    METHODS,
    PRESETS,
    RunConfig,
    decode_with,
    execute_run,
    parse_config,
    sweep,
)

_EPSILON_DISABLED = ("none", "null", "off", "-inf")
_UNSET = object()


def _epsilon(value: str) -> Optional[float]:
    if value.lower() in _EPSILON_DISABLED:
        return None
    return float(value)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML run config; flags override its fields")
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--backend", choices=BACKEND_KINDS)
    parser.add_argument("--fixture", help="scripted backend fixture (JSONL)")
    parser.add_argument("--base-url", help="http backend endpoint base")
    parser.add_argument("--model", help="http backend model name")
    parser.add_argument("--params", type=int, help="model parameter count P for FLOPs")
    parser.add_argument("--arms", type=int, help="synthetic arm count")
    parser.add_argument("--arm-drift", type=float, help="synthetic drift magnitude")
    parser.add_argument("--noise", type=float, help="synthetic noise std")
    parser.add_argument("--horizon", type=int, help="synthetic reasoning horizon")
    parser.add_argument("--beam-size", "-M", type=int, dest="beam_size")
    parser.add_argument("--rollouts", "-N", type=int, dest="rollouts",
                        help="candidate steps per active path")
    parser.add_argument("--temperature", type=float, help="softmax sharpness tau")
    parser.add_argument("--lambda1", type=float)
    parser.add_argument("--epsilon-stop", type=_epsilon, dest="epsilon_stop",
                        default=_UNSET,
                        help="convergence threshold; 'none' or '-inf' disables")
    parser.add_argument("--max-steps", type=int, dest="max_steps")
    parser.add_argument("--rollout-depth", type=int, dest="rollout_depth")
    parser.add_argument("--max-step-tokens", type=int, dest="max_step_tokens")
    parser.add_argument("--rollout-samples", type=int, dest="rollout_samples")
    parser.add_argument("--max-completion-tokens", type=int, dest="max_completion_tokens")
    parser.add_argument("--selection", choices=("softmax", "uniform"))
    parser.add_argument("--no-prune", action="store_true")
    parser.add_argument("--delta", type=float, help="consensus stop fraction")
    parser.add_argument("--combine-mode", choices=("sum", "weighted-sum"), dest="combine_mode")
    parser.add_argument("--alignment-weight", type=float, dest="alignment_weight")
    parser.add_argument("--cluster-distance", type=float, dest="cluster_distance")


def _build_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle) or {}
    raw.setdefault("backend", {})
    raw.setdefault("decode", {})

    def set_if(section: dict, key: str, value) -> None:
        if value is not None:
            section[key] = value

    set_if(raw, "method", args.method)
    set_if(raw, "seed", args.seed)
    set_if(raw, "preset", args.preset)
    set_if(raw, "dataset", getattr(args, "dataset", None))
    set_if(raw, "output_dir", getattr(args, "out", None))
    set_if(raw, "workers", getattr(args, "workers", None))
    if getattr(args, "exclude_rollout_tokens", False):
        raw["count_rollout_tokens"] = False

    backend = raw["backend"]
    set_if(backend, "kind", args.backend)
    set_if(backend, "fixture", args.fixture)
    set_if(backend, "base_url", args.base_url)
    set_if(backend, "model", args.model)
    set_if(backend, "model_params", args.params)
    set_if(backend, "arm_count", args.arms)
    set_if(backend, "drift", args.arm_drift)
    set_if(backend, "noise_std", args.noise)
    set_if(backend, "horizon", args.horizon)

    dec = raw["decode"]
    set_if(dec, "beam_size", args.beam_size)
    set_if(dec, "rollouts_per_candidate", args.rollouts)
    set_if(dec, "temperature", args.temperature)
    set_if(dec, "lambda1", args.lambda1)
    if args.epsilon_stop is not _UNSET:
        dec["epsilon_stop"] = args.epsilon_stop
    set_if(dec, "max_steps", args.max_steps)
    set_if(dec, "rollout_depth", args.rollout_depth)
    set_if(dec, "max_step_tokens", args.max_step_tokens)
    set_if(dec, "rollout_samples", args.rollout_samples)
    set_if(dec, "max_completion_tokens", args.max_completion_tokens)
    set_if(dec, "selection", args.selection)
    if args.no_prune:
        dec["prune_enabled"] = False

    method = raw.get("method", "mfs")
    if method == "phi":
        phi = raw.setdefault("phi", {}) or {}
        set_if(phi, "delta", args.delta)
        set_if(phi, "combine_mode", args.combine_mode)
        set_if(phi, "alignment_weight", args.alignment_weight)
        set_if(phi, "cluster_distance", args.cluster_distance)
        raw["phi"] = phi
    elif raw.get("phi") is not None:
        # A config file may carry a phi section for its own phi runs; drop it
        # when the effective method is different rather than erroring.
        del raw["phi"]
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
    payload = result.to_dict()
    if args.trace:
        with open(args.trace, "wb") as handle:
            for event in payload["trace"]:
                handle.write(canonical_json(event) + b"\n")
        del payload["trace"]
    sys.stdout.buffer.write(canonical_json(payload) + b"\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _build_config(args)
    output = execute_run(config)
    summary = {
        "accuracy": output.metrics.accuracy_value if output.metrics.total else None,
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
            "accuracy": p.metrics.accuracy_value if p.metrics.total else None,
            "label": p.label,
            "seed": p.seed,
            "tokens_generated": p.metrics.tokens_generated,
        }
        for p in points
    ]
    sys.stdout.buffer.write(canonical_json(summary) + b"\n")
    return 0


def _leaf_advantage_chains(events: list[dict]) -> list[list[float]]:
    """Survivor trajectories' advantage sequences from one run's events."""
    expands: dict[int, list[tuple[int, int]]] = {}
    scores: dict[int, list[float]] = {}
    links: dict[int, tuple[Optional[int], float]] = {}
    parents: set[int] = set()
    for event in events:
        step = event.get("step")
        kind = event.get("event")
        if kind == "expand":
            expands[step] = [(c["parent"], c["index"]) for c in event["candidates"]]
        elif kind == "score":
            scores[step] = event.get("drifts") or event.get("advantage") or []
        elif kind == "select":
            for chosen in event["selected"]:
                key = (chosen["parent"], chosen["index"])
                position = expands.get(step, []).index(key)
                drift = scores.get(step, [])[position]
                links[chosen["path_id"]] = (chosen["parent"], drift)
                parents.add(chosen["parent"])
    chains = []
    for path_id in links:
        if path_id in parents:
            continue
        chain: list[float] = []
        cursor: Optional[int] = path_id
        while cursor is not None and cursor in links:
            parent, drift = links[cursor]
            chain.append(drift)
            cursor = parent
        chains.append(list(reversed(chain)))
    return chains


def _cmd_stats(args: argparse.Namespace) -> int:
    sequences: list[list[float]] = []
    for path in args.traces:
        runs: dict[str, list[dict]] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if "result" in record:
                    runs.setdefault(str(record.get("task")), []).extend(
                        record["result"].get("trace", [])
                    )
                else:
                    runs.setdefault("", []).append(record)
        for events in runs.values():
            sequences.extend(_leaf_advantage_chains(events))
    stats = trajectory_statistics(sequences)
    payload = {
        "mean_advantage": stats.mean_advantage,
        "trajectory_count": stats.trajectory_count,
        "variance": stats.variance,
    }
    sys.stdout.buffer.write(canonical_json(payload) + b"\n")
    return 0


def _load_metrics(path: str) -> RunMetrics:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if "metrics" in payload:
        payload = payload["metrics"]
    return RunMetrics.from_dict(payload)


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare_runs(_load_metrics(args.run_a), _load_metrics(args.run_b))
    sys.stdout.buffer.write(canonical_json(comparison.to_dict()) + b"\n")
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
    p_bench.add_argument("--dataset", help="JSONL path or synthetic:<N>")
    p_bench.add_argument("--out", help="output directory")
    p_bench.add_argument("--workers", type=int)
    p_bench.add_argument("--exclude-rollout-tokens", action="store_true",
                         dest="exclude_rollout_tokens",
                         help="count only committed-path tokens in n")
    p_bench.set_defaults(handler=_cmd_bench)

    p_sweep = sub.add_parser("sweep", help="grid of runs over decode fields")
    _add_override_flags(p_sweep)
    p_sweep.add_argument("--dataset")
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--workers", type=int)
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
