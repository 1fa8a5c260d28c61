"""radreduce benchmark: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload identity-sweep --seed 1 --seconds 20 --trace 0

Runs the workload's fixed operation list in whole rounds for `--seconds`
(and at least the workload's minimum number of rounds), checks every output
outside the timed region, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off.  With `--trace 1` the rounds alternate between untraced and traced; the
metrics are the per-layer figures of the traced rounds, per round, and the
tracing overhead between the two.  Spans go to perfbench/out/.

The library is imported from src/ of the checkout this file sits in.  Stdlib
only, apart from mpmath for numeric-crosscheck (a dependency of the library)
and sympy, when importable, for one completeness check.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-ups measured per run, each in a fresh process; setup_s is their median.
SETUP_SAMPLES = 7

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten of `samples` beyond it."""
    return math.floor(100 * (1 - 10 / samples))


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Tally:
    """Operation outcomes of a run."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.failures: dict[str, int] = {}


def run_round(wl, tally: Tally, outputs: list | None, tracer=None) -> float:
    """One pass over the operation list; returns its timed seconds."""
    total = 0.0
    for op in wl.ops:
        if tracer is not None:
            tracer.op_id += 1
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises is counted as failed
            out = exc
        dt = perf_counter() - t0
        total += dt
        tally.times.append(dt)
        if isinstance(out, Exception):
            tally.failed += 1
            key = f"{op.name}: {type(out).__name__}: {str(out)[:120]}"
            tally.failures[key] = tally.failures.get(key, 0) + 1
        else:
            err = op.check(out)
            if err:
                tally.errors.append(f"{op.name}: {err}")
        if outputs is not None:
            outputs.append(out)
    return total


def another_round(start: float, seconds: float, rounds: list[float], least: int) -> bool:
    """Whole rounds only: start one more while it should end within `seconds`
    (judged by the slowest round so far), or while fewer than `least` ran."""
    return len(rounds) < least or perf_counter() - start + max(rounds) <= seconds


def measure_setup(args) -> float:
    """Median wall time of SETUP_SAMPLES fresh processes that import the
    library and build the workload's inputs, as a run does before timing."""
    from workloads import run_child

    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        child = run_child(argv)
        samples.append(perf_counter() - t0)
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.decode()[-400:]}")
    return statistics.median(samples)


def build(name: str, seed: int):
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    if hasattr(wl, "warm_up"):
        wl.warm_up()
    return wl


def end_to_end(args, tally: Tally) -> dict:
    setup_s = measure_setup(args)
    wl = build(args.workload, args.seed)
    outputs: list = []
    rounds: list[float] = []
    start = perf_counter()
    while another_round(start, args.seconds, rounds, wl.min_rounds):
        t0 = perf_counter()
        run_round(wl, tally, None if rounds else outputs)
        rounds.append(perf_counter() - t0)
    if hasattr(wl, "peak_rss_mb"):
        rss_mb = wl.peak_rss_mb
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.errors += wl.final_checks(outputs)
    q = tail_percentile(wl.min_rounds * len(wl.ops))
    times = tally.times
    print(
        f"{args.workload}: {len(rounds)} rounds, {len(times)} operations, tail is p{q}",
        file=sys.stderr,
    )
    return {
        "ops_per_s": (len(times) - tally.failed) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_tail_ms": percentile(times, q) * 1000,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def traced(args, tally: Tally) -> dict:
    from spans import Tracer
    from workloads import layer_metrics

    wl = build(args.workload, args.seed)
    tracer = Tracer()
    plain: list[float] = []
    traced_s: list[float] = []
    outputs: list = []
    rounds: list[float] = []
    start = perf_counter()
    while another_round(start, args.seconds, rounds, 2):
        t0 = perf_counter()
        if len(plain) > len(traced_s):
            wl.instrument(tracer)
            try:
                traced_s.append(run_round(wl, tally, None, tracer))
            finally:
                wl.uninstrument(tracer)
        else:
            plain.append(run_round(wl, tally, None if plain else outputs))
        rounds.append(perf_counter() - t0)
    tally.errors += wl.final_checks(outputs)
    overhead = (statistics.median(traced_s) / statistics.median(plain) - 1) * 100
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    print(
        f"{args.workload}: {len(plain)} untraced and {len(traced_s)} traced rounds, "
        f"{len(tracer.spans)} spans",
        file=sys.stderr,
    )
    return layer_metrics(tracer, len(traced_s), overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "radreduce" / "__init__.py").is_file():
        print(f"error: no radreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import LAYER_METRICS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        build(args.workload, args.seed)
        return 0

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    if args.trace:
        values = traced(args, tally)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        values = end_to_end(args, tally)
        units = dict(END_TO_END)
    for key, count in sorted(tally.failures.items()):
        print(f"failed x{count}: {key}", file=sys.stderr)
    for err in tally.errors[:20]:
        print(f"wrong output: {err}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
