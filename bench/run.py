"""Benchmark of the i2gatp toolkit through its command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload {ingest,author,check} --seed N --seconds S --trace {0,1}

One caller runs one operation at a time (a closed loop): ``i2gatp.cli.main``
in-process with stdin and stdout swapped for in-memory buffers, or
``add_proof_attempt`` directly, which has no command.  Operations run in
passes over the workload's seeded jobs (see workloads.py); whole passes run
until ``--seconds`` have gone by.  Every operation's output is checked
against its known answer.  A run also goes on until the workload's tail
percentile has ten latencies beyond it (workloads.MIN_OPS).  Each job
starts from a collected heap, as each command would in a fresh process.
Times are scaled to a fixed machine speed (see speed.py); the notes also
print unscaled figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it alternates untraced passes with passes that have the
boundary wrappers of tracer.py installed, and writes the traced passes'
spans under ``.bench_out/``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROCESSES = 3  # fresh processes whose set-up times give the median
TRACED_PASSES = 3  # at least, in a traced run


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="i2gatp CLI benchmark")
    # the names of workloads.BUILDERS; importing that module here would
    # import i2gatp before set-up is timed
    parser.add_argument("--workload", required=True, choices=("ingest", "author", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up: import, input generation, warm-up


def setup(workload: str, seed: int):
    """Import i2gatp, build the jobs and run one warm-up pass, which also
    records each step's output.  Returns (runner, scaled seconds taken)."""

    from speed import SpeedReference

    # every reference timing of set-up, including the warm-up's one per job
    speed = SpeedReference(window=None)
    for _ in range(5):
        speed.sample()
    t0 = time.perf_counter()
    if not (ROOT / "src" / "i2gatp" / "__init__.py").is_file() or not (ROOT / "tests" / "conftest.py").is_file():
        raise SystemExit(f"error: no i2gatp source tree (src/i2gatp, tests/conftest.py) under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    runner = Runner(workloads.BUILDERS[workload](seed), speed)
    warm = runner.run_pass()
    if warm.failed:
        print(f"warning: {warm.failed} operation(s) failed during warm-up", file=sys.stderr)
    seconds = time.perf_counter() - t0
    for _ in range(5):
        speed.sample()
    runner.speed = SpeedReference()
    # inputs and set-up outputs live for the whole run; keep them out of
    # the collections between jobs
    gc.collect()
    gc.freeze()
    return runner, seconds * speed.scale()


def setup_times(args: argparse.Namespace, own: float) -> list[float]:
    """Set-up times of this process and of fresh ones."""

    times = [own]
    for _ in range(SETUP_PROCESSES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# Closed-loop passes


class PassResult:
    def __init__(self) -> None:
        self.latencies: list[tuple[str, float]] = []  # (command, scaled ms)
        self.class_ms: dict[str, float] = {}  # scaled operation time per input class
        self.raw_ns: list[int] = []  # unscaled latencies, in the same order
        self.scales: list[float] = []  # speed scale in force at each job
        self.attempted = 0
        self.failed = 0
        self.trials = 0  # sampled positions of check operations
        self.checked = 0  # of which all conclusions were tested

    @property
    def op_ms(self) -> float:
        return sum(ms for _, ms in self.latencies)


class Runner:
    def __init__(self, jobs, speed=None) -> None:
        # imported here: i2gatp is importable only once set-up has put
        # src/ on the path, and its import is part of the set-up time
        from i2gatp import cli, container
        from speed import SpeedReference
        from workloads import output_ok

        self.jobs = jobs
        self.main = cli.main
        self.add_proof_attempt = container.add_proof_attempt
        self.output_ok = output_ok
        self.speed = speed or SpeedReference()
        self.setup_outputs: dict[tuple[int, int], bytes] = {}

    def _call(self, step, data: bytes, tracer):
        """(exit code, output bytes, latency ns) of one operation."""

        if step.command == "add_proof_attempt":
            t0 = time.perf_counter_ns()
            if tracer is None:
                out = self.add_proof_attempt(data, step.attempt)
            else:
                out = tracer.root("container.add_proof_attempt", self.add_proof_attempt, data, step.attempt)
            return 0, out, time.perf_counter_ns() - t0
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), stdout, io.StringIO()
        try:
            argv = list(step.argv)
            t0 = time.perf_counter_ns()
            code = self.main(argv) if tracer is None else tracer.root(f"cli.{step.command}", self.main, argv)
            ns = time.perf_counter_ns() - t0
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        stdout.flush()
        return code, stdout.buffer.getvalue(), ns

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        for j, job in enumerate(self.jobs):
            gc.collect()
            self.speed.sample()
            scale = self.speed.scale()
            result.scales.append(scale)
            outputs: list[bytes] = []
            for s, step in enumerate(job.steps):
                data = outputs[step.data] if isinstance(step.data, int) else step.data
                result.attempted += 1
                try:
                    code, out, ns = self._call(step, data, tracer)
                except Exception:  # an exception out of the program fails the op and ends the job
                    traceback.print_exc(limit=3)
                    result.failed += 1
                    break
                result.latencies.append((step.command, ns / 1e6 * scale))
                result.class_ms[job.input_class] = result.class_ms.get(job.input_class, 0.0) + ns / 1e6 * scale
                result.raw_ns.append(ns)
                expected = self.setup_outputs.setdefault((j, s), out)
                if not self.output_ok(step, code, out, expected):
                    result.failed += 1
                elif step.expect == "verdict":
                    report = json.loads(out)
                    result.trials += report["samples_total"] + (report["witness"] is not None)
                    result.checked += report["samples_checked"]
                outputs.append(out)
        return result


def measure(runner: Runner, seconds: float, min_ops: int) -> list[PassResult]:
    """Whole untraced passes until ``seconds`` have gone by and at least
    ``min_ops`` operations have run."""

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or sum(len(p.latencies) for p in passes) < min_ops:
        passes.append(runner.run_pass())
    return passes


def measure_traced(runner: Runner, seconds: float, tracer) -> tuple[list[PassResult], list[PassResult]]:
    """Untraced and traced passes in turn, starting and ending untraced,
    until ``seconds`` have gone by and TRACED_PASSES traced ones have run."""

    passes, traced = [runner.run_pass()], []
    start = time.perf_counter()
    while len(traced) < TRACED_PASSES or time.perf_counter() - start < seconds:
        with tracer.installed():
            traced.append(runner.run_pass(tracer))
        passes.append(runner.run_pass())
    return passes, traced


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]


def end_to_end(passes: list[PassResult], setups: list[float], tail_pct: int) -> tuple[dict, list[str]]:
    latencies = [ms for p in passes for _, ms in p.latencies]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    raw_ops_per_s = len(latencies) / (sum(ns for p in passes for ns in p.raw_ns) / 1e9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(len(p.latencies) / (p.op_ms / 1e3) for p in passes), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p99_ms": (percentile(latencies, tail_pct), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        "setup_s is the median of " + ", ".join(f"{s:.4f}" for s in setups) + " s (this process first)",
        f"{len(passes)} passes, {attempted} operations, {failed} failed (fail_ratio {failed / attempted:.4g})",
        f"latency_p99_ms is the p{tail_pct} of {len(latencies)} operation latencies "
        f"({len(latencies) - int(len(latencies) * tail_pct / 100) - 1} beyond it)",
        f"unscaled: {raw_ops_per_s:.4g} ops/s; median speed scale {statistics.median(s for p in passes for s in p.scales):.4g}",
    ]
    return metrics, notes


COMMANDS = ("validate", "info", "strip", "convert", "check")
LAYER_TIMES = ("cli", "container", "xml_codec.parse", "xml_codec.validate", "xml_codec.serialize",
               "model.validate", "model.canonicalize", "dsl.parse", "dsl.emit", "numeric.check",
               "numeric.instantiate", "numeric.eval_predicate", "numeric.scene_scale")
LAYER_CALLS = ("container", "xml_codec.parse", "xml_codec.validate", "xml_codec.serialize",
               "model.validate", "numeric.instantiate", "numeric.eval_predicate", "numeric.scene_scale")


def per_layer(passes: list[PassResult], traced: list[PassResult], tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes; the command latencies,
    trial figures and the base of the overhead ratio from the untraced
    passes, which alternate with them."""

    ops = tracer.ops
    totals = tracer.totals()
    scale = statistics.median(s for p in traced for s in p.scales)
    metrics = {}
    for command in COMMANDS:
        ms = [ms for p in passes for c, ms in p.latencies if c == command]
        metrics[f"cli.{command}.p50_ms"] = (statistics.median(ms) if ms else 0.0, "ms")
    for layer in LAYER_TIMES:
        metrics[f"{layer}.self_ms"] = (totals.get(layer, [0, 0])[0] / 1e6 * scale / ops, "ms/op")
    for layer in LAYER_CALLS:
        metrics[f"{layer}.calls"] = (totals.get(layer, [0, 0])[1] / ops, "count/op")
    metrics["container.bytes_in"] = (tracer.bytes_in / ops, "B/op")
    metrics["container.bytes_out"] = (tracer.bytes_out / ops, "B/op")
    validations, packs = tracer.calls_under("model.validate", "container.pack")
    metrics["model.validate.calls_per_pack"] = (validations / packs if packs else 0.0, "count")
    trials = sum(p.trials for p in passes)
    checked = sum(p.checked for p in passes)
    check_ms = sum(ms for p in passes for c, ms in p.latencies if c == "check")
    metrics["numeric.trials_per_s"] = (trials / (check_ms / 1e3) if check_ms else 0.0, "1/s")
    metrics["numeric.useful_ratio"] = (checked / trials if trials else 0.0, "ratio")
    # unscaled wall time of each traced pass over the mean of the untraced
    # passes on either side of it, so a change of machine speed between
    # passes mostly cancels; the noise floor is how much those two differ
    wall = [sum(p.raw_ns) for p in passes]
    traced_wall = [sum(p.raw_ns) for p in traced]
    overhead = statistics.median(t / ((wall[i] + wall[i + 1]) / 2) for i, t in enumerate(traced_wall))
    floor = statistics.median(abs(wall[i + 1] / wall[i] - 1) for i in range(len(traced)))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes = [
        f"{len(traced)} traced passes: {ops} operations, {len(tracer.start)} spans; per-op figures divide by {ops}",
        f"model.validate.calls_per_pack over {packs} pack calls",
        f"numeric.useful_ratio = {checked} checked of {trials} sampled positions",
        f"trace.overhead_ratio = median over {len(traced)} traced passes of their unscaled time over the mean "
        f"of the untraced passes beside them; adjacent untraced passes differ by a median {floor:.1%} (noise floor)",
    ]
    return metrics, notes


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    runner, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
        return 0

    import workloads

    if args.trace == 0:
        setups = setup_times(args, own_setup)
        passes = measure(runner, args.seconds, workloads.MIN_OPS[args.workload])
        metrics, notes = end_to_end(passes, setups, workloads.TAIL_PERCENTILE[args.workload])
        counted = passes
    else:
        from tracer import Tracer

        tracer = Tracer()
        passes, traced = measure_traced(runner, args.seconds, tracer)
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}")
        metrics, notes = per_layer(passes, traced, tracer)
        counted = passes + traced
    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)

    total_ms = sum(ms for p in passes for ms in p.class_ms.values())
    for input_class, why in workloads.INPUT_CLASSES[args.workload].items():
        count = sum(job.input_class == input_class for job in runner.jobs)
        share = sum(p.class_ms.get(input_class, 0.0) for p in passes) / total_ms
        print(f"input {input_class}: {count} jobs per pass, {share:.1%} of operation time; {why}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
