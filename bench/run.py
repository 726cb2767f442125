"""driftbeam benchmark: decode workloads end to end, or traced layer by layer.

Run from the root of a checkout (see bench/README.md):

    python3 bench/run.py --workload synth-mfs --seed 1 --seconds 22 --trace 0

Every batch of a workload runs its tasks closed-loop through
`runner.execute_run`, which writes the same four outputs as `driftbeam
bench`. Every batch runs once and is graded; then the timed batches run in
turn, round after round, until `--seconds` have passed. `--trace 0` reports
the end-to-end metrics; `--trace 1` alternates untraced and traced rounds
of the timed batches and reports per-layer metrics from the traced ones.
Every metric is printed by name and unit; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit code is
0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
OUTPUT_FILES = ("metrics.json", "traces.jsonl", "report.md", "report.json")
SETUP_REPEATS = 5
WARMUP_TASKS = 1

sys.path.insert(0, str(BENCH_DIR))


@dataclass(frozen=True)
class Workload:
    method: str
    tasks: int  # per batch
    workers: int
    batches: int = 1  # distinct batches, each with a seed of its own
    timed: int = 0  # how many of them, from the first, are timed; 0 for all

    @property
    def timed_batches(self) -> int:
        return self.timed or self.batches


# Times are medians over many short rounds, so batches are small: synth
# batches of 4 tasks take about 0.1 s on a 2-core machine. phi's accuracy
# needs more tasks than its timed batches hold: about 4 in 10 of its answers
# are wrong, each by chance, so all 64 batches (256 tasks) are graded, and
# the first 16 (64 tasks) are timed.
WORKLOADS = {
    "synth-mfs": Workload("mfs", 4, 1, batches=8),
    "synth-phi": Workload("phi", 4, 1, batches=64, timed=16),
    "replay": Workload("mfs", 8, 1, batches=2),
    "http-loopback": Workload("mfs", 4, 2),
}


class BenchError(Exception):
    """The benchmark cannot run here, or the program's output is wrong."""


# -- set-up ----------------------------------------------------------------------


class StubProcess:
    """The stub completions server in a child process, stopped by close()."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line.strip():
            self.close()
            raise BenchError("stub server did not start")
        self.base_url = f"http://127.0.0.1:{int(line)}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def requests_seen(self) -> int:
        with self._opener.open(self.base_url + "/stats", timeout=10) as response:
            return json.load(response)["requests"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Prepared:
    """Everything a batch needs: the config, and what its outputs must say."""

    config: object
    gold: dict[str, str]
    recorded: Optional[dict[str, tuple[str, int]]] = None
    server: Optional[StubProcess] = None
    warmup: list = field(default_factory=list)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def import_in_fresh_interpreter() -> float:
    """Seconds a fresh interpreter takes to import driftbeam: what every
    command-line run pays before it starts. The child times the import
    itself, so the interpreter's own start-up is left out."""
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, time; sys.path.insert(0, 'src'); t0 = time.perf_counter(); "
         "import driftbeam; print(time.perf_counter() - t0)"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return float(child.stdout)


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    """Build one batch's inputs from its seed."""
    from driftbeam.backends import RecordingModel, SyntheticModel, save_fixture
    from driftbeam.baselines import PhiConfig
    from driftbeam.dataset import TaskInstance, load_dataset, save_dataset, synthetic_suite
    from driftbeam.engine import DecodeConfig, decode
    from driftbeam.runner import BackendSpec, RunConfig, derive_instance_seed

    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    base = BackendSpec().base_task()
    prepared: Prepared
    if name.startswith("synth-"):
        suite = synthetic_suite(base, workload.tasks, seed)
        prepared = Prepared(
            RunConfig(method=workload.method, seed=seed, dataset=f"synthetic:{workload.tasks}",
                      phi=PhiConfig() if workload.method == "phi" else None),
            {inst.id: inst.gold_answer for inst, _ in suite},
        )
        prepared.warmup = [inst for inst, _ in suite[:WARMUP_TASKS]]
    elif name == "replay":
        suite = synthetic_suite(base, workload.tasks, seed)
        records: list[dict] = []
        recorded: dict[str, tuple[str, int]] = {}
        for index, (inst, task) in enumerate(suite):
            model = RecordingModel(SyntheticModel(task))
            result = decode(model, inst.prompt,
                            DecodeConfig(seed=derive_instance_seed(seed, index)))
            records.extend(model.records)
            recorded[inst.id] = (result.final_answer, result.tokens_generated)
        save_fixture(workdir / "fixture.jsonl", records)
        save_dataset(workdir / "tasks.jsonl", [inst for inst, _ in suite])
        prepared = Prepared(
            RunConfig(method="mfs", seed=seed, dataset=str(workdir / "tasks.jsonl"),
                      backend=BackendSpec(kind="scripted", fixture=str(workdir / "fixture.jsonl"))),
            {inst.id: inst.gold_answer for inst, _ in suite},
            recorded=recorded,
        )
        prepared.warmup = load_dataset(workdir / "tasks.jsonl")[:WARMUP_TASKS]
    else:
        from stub_server import best_label

        instances = []
        for index in range(workload.tasks):
            prompt = f"Case {seed}-{index}: pick the best arm.\n"
            instances.append(TaskInstance(f"http-{index:04d}", prompt, best_label(prompt)))
        save_dataset(workdir / "tasks.jsonl", instances)
        server = StubProcess()
        prepared = Prepared(
            RunConfig(
                method="mfs", seed=seed, workers=workload.workers,
                dataset=str(workdir / "tasks.jsonl"),
                backend=BackendSpec(kind="http", base_url=server.base_url, model="stub"),
                decode=DecodeConfig(beam_size=4, rollouts_per_candidate=4,
                                    rollout_depth=8, max_steps=10),
            ),
            {inst.id: inst.gold_answer for inst in instances},
            server=server,
        )
        prepared.warmup = instances[:WARMUP_TASKS]
    return prepared


def set_up(name: str, seed: int, workdir: Path) -> tuple[float, list[Prepared]]:
    """One cold set-up of every batch of a workload: its time, and the batches."""
    forget_fixtures()
    count = WORKLOADS[name].batches
    import_s = import_in_fresh_interpreter()
    start = time.perf_counter()
    batches: list[Prepared] = []
    try:
        for index in range(count):
            batches.append(prepare(name, seed * count + index, workdir / f"batch-{index}"))
        warm_up(batches[0])
    except BaseException:
        for prepared in batches:
            prepared.close()
        raise
    return import_s + time.perf_counter() - start, batches


def forget_fixtures() -> None:
    """Empty the runner's cache of the fixtures it has loaded."""
    from driftbeam import runner

    cached_fixture = getattr(runner, "_cached_fixture", None)
    if cached_fixture is not None:
        cached_fixture.cache_clear()


def warm_up(prepared: Prepared) -> None:
    """Run a few of the batch's tasks, so lazy set-up is done before timing."""
    from driftbeam import runner

    warm = runner.execute_run(prepared.config.replace(output_dir=None), prepared.warmup)
    if warm.failures:
        raise BenchError(f"warm-up failed: {warm.failures[0]}")


# -- one batch -------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    tokens: int
    correct: int
    total: int
    failures: int
    digests: tuple[str, ...]


def cpu_cycle(prepared: Prepared) -> list[Optional[int]]:
    """The CPUs that single-threaded passes take in turn.

    On a shared machine one CPU can run slower than the other for seconds
    at a time; rounds spread over the CPUs keep that from deciding a run.
    """
    if prepared.config.workers > 1 or not hasattr(os, "sched_setaffinity"):
        return [None]
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned(cpu: Optional[int]):
    if cpu is None:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_pass(prepared: Prepared, out_dir: Path, errors: list[str],
             cpu: Optional[int] = None) -> Pass:
    """One execute_run with outputs written; checks the outputs it wrote."""
    from driftbeam import runner

    if out_dir.exists():
        shutil.rmtree(out_dir)
    config = prepared.config.replace(output_dir=str(out_dir))
    with pinned(cpu):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        output = runner.execute_run(config)
        wall = time.perf_counter() - t0
        cpu_time = time.process_time() - cpu0
    blobs = {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}
    check_outputs(prepared, output, blobs, errors)
    metrics = output.metrics
    return Pass(
        wall_s=wall,
        cpu_s=cpu_time,
        tokens=metrics.tokens_generated,
        correct=metrics.correct,
        total=metrics.total,
        failures=len(output.failures),
        digests=tuple(hashlib.sha256(blobs[name]).hexdigest() for name in OUTPUT_FILES),
    )


def check_outputs(prepared: Prepared, output, blobs: dict[str, bytes],
                  errors: list[str]) -> None:
    """Check one batch's outputs against its inputs and each other."""
    metrics = output.metrics
    for task_id, message in output.failures:
        errors.append(f"task {task_id} failed: {message}")
    written = json.loads(blobs["metrics.json"])
    if written["metrics"] != metrics.to_dict():
        errors.append("metrics.json differs from the returned metrics")
    per_example = {e.task_id: e for e in metrics.per_example}
    if sorted(per_example) != sorted(prepared.gold):
        errors.append(f"graded {len(per_example)} tasks, expected {len(prepared.gold)}")
    correct = 0
    for task_id, example in per_example.items():
        if example.gold != prepared.gold.get(task_id):
            errors.append(f"task {task_id}: gold {example.gold!r} is not the input's")
        correct += example.predicted.strip() == prepared.gold.get(task_id)
    if correct != metrics.correct:
        errors.append(f"program counts {metrics.correct} correct, benchmark {correct}")
    if metrics.tokens_generated != sum(e.tokens for e in metrics.per_example):
        errors.append("token total is not the sum over tasks")
    if metrics.flops != 6 * metrics.tokens_generated * metrics.model_params:
        errors.append("flops is not 6 * tokens * params")
    lines = blobs["traces.jsonl"].splitlines()
    if len(lines) != len(per_example):
        errors.append(f"{len(lines)} trace lines for {len(per_example)} tasks")
    for line in lines:
        record = json.loads(line)
        result, example = record["result"], per_example.get(record["task"])
        if example is None or result["final_answer"] != example.predicted \
                or result["tokens_generated"] != example.tokens:
            errors.append(f"trace of {record['task']} disagrees with metrics.json")
    report = json.loads(blobs["report.json"])
    for row in report["rows"].values():
        for cell in row.values():
            if cell != metrics.to_dict():
                errors.append("report.json disagrees with metrics.json")
    if not blobs["report.md"].startswith(b"| Method |"):
        errors.append("report.md has no table")
    if prepared.recorded is not None:
        for task_id, (answer, tokens) in prepared.recorded.items():
            example = per_example.get(task_id)
            if example is None or (example.predicted, example.tokens) != (answer, tokens):
                errors.append(f"replay of {task_id} differs from its recording")


# -- the machine's speed ---------------------------------------------------------

# About the time reference_work takes on the machine the benchmark was
# tuned on (2 vCPUs, Intel Xeon at 2.1 GHz) in its quicker spells. Times
# are reported at that speed.
REFERENCE_S = 0.04


def reference_work() -> None:
    """Fixed interpreter work that runs no driftbeam code: small dicts built,
    sorted, grouped, serialised and hashed, in eight chunks that each need
    little memory, so the benchmark's peak RSS stays the program's."""
    rng = random.Random(7)
    for _ in range(8):
        rows = [{"id": i, "w": rng.random(), "tag": f"t{i % 97}"} for i in range(2500)]
        rows.sort(key=lambda row: (row["tag"], row["w"]))
        groups: dict[str, list] = {}
        for row in rows:
            groups.setdefault(row["tag"], []).append((row["id"], math.exp(-row["w"])))
        hashlib.sha256(json.dumps(groups).encode()).hexdigest()


def time_reference(cpu: Optional[int] = None) -> float:
    """Seconds reference_work takes. The collector is off, so the time does
    not depend on how much the program keeps in memory."""
    with pinned(cpu):
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            return time.perf_counter() - t0
        finally:
            gc.enable()


# -- the two kinds of run ----------------------------------------------------------


def run_round(batches: list[Prepared], workdir: Path, errors: list[str],
              cpu: Optional[int] = None) -> list[Pass]:
    return [run_pass(prepared, workdir / "out", errors, cpu) for prepared in batches]


def end_to_end(batches: list[Prepared], timed: int, setup: tuple[float, float],
               seconds: float, workdir: Path, errors: list[str],
               set_up_again: Callable[[], tuple[float, float]],
               ) -> tuple[dict[str, float], list[Pass]]:
    """Every batch once, for accuracy and cost; then the first `timed`
    batches in turn, round after round, until `seconds` pass.

    The speed of a shared machine drifts by up to twice, over seconds and
    over minutes, so every time is scaled to the reference speed: it is
    divided by the time reference_work took right after it, on the same
    CPU, and multiplied by REFERENCE_S. A round's time is the sum over the
    timed batches; times report the median round, averaged over the
    batches. Several batches, so that the times do not hang on the few
    tasks one seed puts in one batch.

    The workload is set up again between rounds, so that with the set-up
    that made `batches` (`setup`: its seconds and reference time) it is set
    up SETUP_REPEATS times, spread over the run; `setup_s` reports the
    median.
    """
    graded = run_round(batches, workdir, errors)
    # Before set-ups that overlap what the batches hold in memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_batches = batches[:timed]
    cpus = cpu_cycle(batches[0])
    start = time.perf_counter()
    rounds: list[list[Pass]] = []
    references: list[float] = []
    setups = [setup]
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        cpu = cpus[len(rounds) % len(cpus)]
        rounds.append(run_round(timed_batches, workdir, errors, cpu))
        references.append(time_reference(cpu))
        due = 1 + (SETUP_REPEATS - 1) * (time.perf_counter() - start) / seconds
        while len(setups) < min(due, SETUP_REPEATS):
            setups.append(set_up_again())
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up_again())
    firsts = graded[:timed]
    for later in rounds:
        if [p.digests for p in later] != [p.digests for p in firsts]:
            errors.append("a batch wrote outputs that differ from its first pass")

    def median_round(kind: str, scaled: bool = True) -> float:
        totals = [sum(getattr(p, kind) for p in one) for one in rounds]
        if scaled:
            totals = [total * REFERENCE_S / ref for total, ref in zip(totals, references)]
        return statistics.median(totals) / timed

    wall = median_round("wall_s")
    measured = {"reference_s": statistics.median(references),
                "wall_s": median_round("wall_s", scaled=False),
                "cpu_s": median_round("cpu_s", scaled=False),
                "setup_s": statistics.median(seconds for seconds, _ in setups)}
    print("measured, before scaling to the reference speed: " + ", ".join(
        f"{name} {value:.6f} s" for name, value in measured.items()))
    tokens = sum(p.tokens for p in graded)
    correct = sum(p.correct for p in graded)
    total = sum(p.total for p in graded)
    failures = sum(p.failures for p in graded)
    if not correct:
        errors.append("no task was answered correctly")
    return {
        "wall_s": wall,
        "tokens_per_s": sum(p.tokens for p in firsts) / (wall * timed),
        "cpu_s": median_round("cpu_s"),
        "peak_rss_mb": peak_rss_mb,
        "accuracy": correct / total,
        "tokens_per_correct": tokens / max(correct, 1),
        "task_failure_share": failures / (total + failures),
        "setup_s": statistics.median(seconds * REFERENCE_S / ref for seconds, ref in setups),
    }, graded + [p for passes in rounds for p in passes]


def traced(batches: list[Prepared], seconds: float, workdir: Path, errors: list[str],
           spans_path: Path) -> tuple[dict[str, float], list[Pass]]:
    """Untraced and traced rounds of `batches` in turn until `seconds` pass;
    per-layer metrics from the fastest traced round."""
    from recorder import DETERMINISTIC, Recorder, layer_metrics

    server = batches[0].server
    untraced: list[list[Pass]] = []
    traced_rounds: list[list[Pass]] = []
    layers: list[dict[str, float]] = []
    references: list[float] = []
    cpus = cpu_cycle(batches[0])
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced_rounds) < 2:
        cpu = cpus[len(untraced) % len(cpus)]
        untraced.append(run_round(batches, workdir, errors, cpu))
        before = server.requests_seen() if server else None
        with Recorder() as recorder:
            traced_rounds.append(run_round(batches, workdir, errors, cpu))
        seen = server.requests_seen() - before if server else None
        layers.append(layer_metrics(recorder.spans, recorder.lost_replayability, seen))
        references.append(time_reference(cpu))
        if len(layers) == 1:
            write_spans(recorder.spans, spans_path)
    reference = [p.digests for p in untraced[0]]
    for index, one in enumerate(untraced + traced_rounds):
        if [p.digests for p in one] != reference:
            kind = "traced" if index >= len(untraced) else "untraced"
            errors.append(f"a {kind} round wrote outputs that differ from the first round")
    for later in layers[1:]:
        for name in DETERMINISTIC:
            if later[name] != layers[0][name]:
                errors.append(f"{name} changed between traced rounds: "
                              f"{layers[0][name]} then {later[name]}")

    def wall(one: list[Pass]) -> float:
        return sum(p.wall_s for p in one)

    fastest = min(range(len(layers)), key=lambda index: wall(traced_rounds[index]))
    out = dict(layers[fastest])
    out["bench.tracing_overhead_s"] = (wall(traced_rounds[fastest])
                                       - min(wall(one) for one in untraced))
    out["bench.reference_s"] = min(references)
    passes = [p for one in untraced + traced_rounds for p in one]
    return out, passes


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span in spans:
            value = span.value if isinstance(span.value, (int, float, str)) else None
            handle.write(json.dumps([span.id, span.name, span.parent, span.instance,
                                     span.start, span.end, span.busy, value]) + "\n")


def check_counts_repeat(counts: dict[str, float], path: Path, errors: list[str]) -> None:
    """Compare with the counts an earlier invocation of the same code and seed
    wrote; the first invocation that passes every check writes them."""
    if path.exists():
        earlier = json.loads(path.read_text())
        for name, value in counts.items():
            if earlier.get(name) != value:
                errors.append(f"{name} is {value}, an earlier invocation saw {earlier.get(name)}")
        return
    if errors:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(counts, sort_keys=True))
    os.replace(scratch, path)


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# -- entry point ---------------------------------------------------------------------


def load_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and of the per-layer metrics, by name."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path.name} in {ROOT}; run from a checkout's root")
    spec = json.loads(path.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_program() -> None:
    if not (SRC / "driftbeam" / "__init__.py").is_file():
        raise BenchError(f"no driftbeam sources under {SRC}; run from a checkout's root")
    sys.path.insert(0, str(SRC))
    import driftbeam

    if Path(driftbeam.__file__).resolve().parent != (SRC / "driftbeam").resolve():
        raise BenchError(f"imported driftbeam from {driftbeam.__file__}, not {SRC}")


def main() -> int:
    parser = argparse.ArgumentParser(description="driftbeam benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        end_to_end_units, per_layer_units = load_units()
        load_program()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    from recorder import DETERMINISTIC, Recorder, self_times

    seed = args.seed % 2**63
    workload = WORKLOADS[args.workload]
    # The stub server listens on loopback; no proxy may sit in between.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    errors: list[str] = []
    batches: list[Prepared] = []
    setup_dirs = itertools.count()

    def set_up_again() -> tuple[float, float]:
        seconds, extra = set_up(args.workload, seed, workdir / f"setup-{next(setup_dirs)}")
        reference = time_reference()
        for prepared in extra:
            prepared.close()
        # Timed passes find the batch warm, and only its fixture in memory.
        forget_fixtures()
        warm_up(batches[0])
        return seconds, reference

    try:
        time_reference()  # its first run pays for memory the later ones reuse
        # The traced run sets up once, traced, for the set-up layers.
        setup_recorder = Recorder() if args.trace else contextlib.nullcontext()
        with setup_recorder:
            setup_s, batches = set_up(args.workload, seed,
                                      workdir / f"setup-{next(setup_dirs)}")
            setup = (setup_s, time_reference())
        if args.trace:
            metrics, passes = traced(
                batches[:workload.timed_batches], args.seconds, workdir, errors,
                OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz")
            metrics["dataset.synthetic_suite.self_s"] = \
                self_times(setup_recorder.spans)["dataset.synthetic_suite"]
            units = per_layer_units
            counts = {name: metrics[name] for name in DETERMINISTIC}
            check_counts_repeat(
                counts,
                OUT / "counts" / f"{args.workload}-seed{args.seed}-{code_digest()}.json",
                errors)
        else:
            metrics, passes = end_to_end(batches, workload.timed_batches, setup,
                                         args.seconds, workdir, errors, set_up_again)
            units = {**end_to_end_units, "task_failure_share": "share"}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        for prepared in batches:
            prepared.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"bench: measured metrics differ from BENCHMARK.json's: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for name in sorted(metrics):
        print(f"{args.workload:14} {name:48} {metrics[name]:>16.6f} {units[name]}")
    for error in errors[:20]:
        print(f"bench: check failed: {error}", file=sys.stderr)
    reported = {name: {"value": metrics[name], "unit": units[name]}
                for name in metrics if name != "task_failure_share"}
    attempted = sum(p.total + p.failures for p in passes)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": sum(p.failures for p in passes),
        "metrics": reported,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
