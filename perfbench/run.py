"""Run one workload of the g2spaces benchmark and print its metrics.

    python3 perfbench/run.py --workload ssd --seed 1 --seconds 20 --trace 0

One caller runs the workload's operations in a closed loop, in-process, in
one thread, in whole cycles of its inputs until ``--seconds`` seconds of
operation time have passed, and checks each result outside the timed region.
With ``--trace 1`` it instead runs one cycle of operations twice, untraced
and then traced layer by layer, and writes the spans to ``.perfbench/``.

Every time is corrected for the drifting speed of a shared machine by the
yardstick timed right before and after it (see ``perfbench/yardstick.py``);
the report gives the uncorrected values too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a report with every metric, the output digest, the sample counts and each
input's median latency.  The metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import tracer as tracer_mod  # noqa: E402
from perfbench import workloads, yardstick  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Later cycles of the op list that run this many times faster than the first
# reuse something the first left behind, a cache that outlives
# ``workloads.clear_caches``; their ops count as failed.  A whole cycle is
# compared because a single op can run 1.9 times faster on a repeat by the
# drift of a shared machine alone; a cycle's time drifts by a tenth.
REUSE_LIMIT = 1.5


class Tally:
    """Latencies, failures, verdicts and result texts of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []  # corrected by the yardstick
        self.samples: list[float] = []
        self.by_input: dict[str, list[float]] = {}
        self.raw_by_input: dict[str, list[float]] = {}
        self.failed = 0
        self.verdicts: dict[str, int] = {}
        self.texts: dict[str, str] = {}
        self.errors: list[str] = []

    def run(self, op, tracer=None, op_id=None) -> float:
        """Run one op, then check it with the clock stopped; return its time.

        The returned time is raw; the tally keeps it corrected by yardstick
        samples taken right before the op and after each of its steps.

        A full collection first gives every op the same collector state, so
        that a collection owed to earlier ops does not land inside this one."""
        gc.collect()
        workloads.clear_caches()
        before = yardstick.sample()
        self.samples.append(before)
        results, elapsed, fixed, error = [], 0.0, 0.0, None
        if tracer is not None:
            tracer.op = op_id
        for step in op.steps():
            start = perf_counter()
            try:
                results.append(step())
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            took = perf_counter() - start
            after = yardstick.sample()
            self.samples.append(after)
            elapsed += took
            fixed += yardstick.corrected(took, before, after)
            before = after
            if error is not None:
                break
        if tracer is not None:
            tracer.op = None
        self.latencies.append(fixed)
        self.by_input.setdefault(op.label, []).append(fixed)
        self.raw_by_input.setdefault(op.label, []).append(elapsed)
        try:
            if error is not None:
                raise error
            self.texts.setdefault(op.label, op.check(results))
            if op.verdict is not None:
                v = op.verdict(results)
                self.verdicts[v] = self.verdicts.get(v, 0) + 1
        except Exception as exc:  # a check that fails or raises fails the op
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return elapsed

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def digest(self) -> str:
        h = hashlib.sha256()
        for label in sorted(self.texts):
            h.update(f"{label}\t{self.texts[label]}\n".encode())
        return h.hexdigest()[:16]


def setup(name: str, seed: int):
    """Import, generate inputs and warm up, several times; the last one is kept.

    Returns the work and the median set-up time, corrected and raw."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = yardstick.sample()
        start = perf_counter()
        lib = workloads.load_library()
        work = workloads.WORKLOADS[name](lib, seed)
        for warm in work.warmup:
            warm()
        raw.append(perf_counter() - start)
        times.append(yardstick.corrected(raw[-1], before, yardstick.sample()))
    return work, statistics.median(times), statistics.median(raw)


def tail(latencies):
    """(percentile, value): the highest percentile with ten samples beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    return 100 * (n - 10) // n, sorted(latencies)[n - 11]


def measure(work, seconds: float, setup_s: float, setup_raw_s: float):
    """Run whole cycles of the op list until ``seconds`` of op time have passed.

    Whole cycles keep the mix of inputs, and so the metrics, the same however
    fast the machine runs."""
    tally = Tally()
    busy, cycles = 0.0, []
    while busy < seconds:
        for op in work.ops:
            busy += tally.run(op)
        cycles.append(sum(tally.latencies[-len(work.ops):]))
    reuse = cycles[0] / statistics.median(cycles[1:]) if len(cycles) > 1 else None
    if reuse is not None and reuse > REUSE_LIMIT:
        tally.failed += tally.attempted - len(work.ops)
        tally.errors.append(f"later cycles ran {reuse:.1f} times faster than the first")
    n = tally.attempted

    def p50(by_input):
        # Each input's median over the cycles, then the median over inputs:
        # its rank does not move with the number of cycles that fit.
        return statistics.median(statistics.median(v) for v in by_input.values())

    metrics = {
        "ops_per_s": (n / sum(tally.latencies), "1/s"),
        "op_p50_ms": (p50(tally.by_input) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "fail_ratio": (tally.failed / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    t = tail(tally.latencies)
    if t is not None:
        metrics["op_tail_ms"] = (t[1] * 1e3, "ms")
    if tally.verdicts:
        metrics["undecided_ratio"] = (tally.verdicts.get("undecided", 0) / sum(tally.verdicts.values()), "ratio")
    raw = {"ops_per_s": n / busy, "op_p50_ms": p50(tally.raw_by_input) * 1e3, "setup_s": setup_raw_s}
    info = {"samples": n, "tail_percentile": t[0] if t else None, "reuse_ratio": reuse,
            "inputs": len(work.ops), "inputs_covered": len(tally.texts), "verdicts": tally.verdicts,
            "machine_speed": yardstick.NOMINAL_S / statistics.median(tally.samples), "raw": raw,
            "input_p50_ms": {k: statistics.median(v) * 1e3 for k, v in tally.by_input.items()}}
    return tally, metrics, info


def measure_traced(work, name: str, seed: int):
    """Run one cycle of the ops untraced, then traced; derive layer metrics."""
    tally = Tally()
    for op in work.ops:
        tally.run(op)
    reference = sum(tally.latencies)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(work.ops):
            tally.run(op, tracer, i)
    finally:
        tracer.remove()
    # Span times, and so the layer metrics, are raw seconds; the overhead
    # compares corrected times, from which the machine's drift cancels.
    metrics = tracer_mod.layer_metrics(tracer)
    traced = sum(tally.latencies) - reference
    metrics["trace.overhead_ratio"] = (reference / traced, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{name}-{seed}.json.gz")
    info = {"ops": len(work.ops), "untraced_s": reference, "traced_s": traced}
    return tally, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "g2spaces" / "__init__.py").is_file():
        print("perfbench: the library source src/g2spaces is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work, setup_s, setup_raw_s = setup(args.workload, args.seed)
    if args.trace:
        tally, metrics, info = measure_traced(work, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        tally, metrics, info = measure(work, args.seconds, setup_s, setup_raw_s)
        wanted = spec["end_to_end"]
    report = {"workload": args.workload, "seed": args.seed, "digest": tally.digest(),
              "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
              **info, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(report))
    out = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"metric {m['name']} is in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
