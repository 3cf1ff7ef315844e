#!/usr/bin/env python3
"""MHRP end-to-end benchmark: run one workload for a fixed time and
print its metrics, the last line being one JSON object.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pingstorm --seed 1 --seconds 10 --trace 0

``--trace 0`` times the program exactly as shipped and reports the
end-to-end metrics (``ops_per_s``, ``setup_s``, ``peak_rss_mb``).
``--trace 1`` alternates untraced runs with runs whose layer functions
are wrapped in timing spans, and reports the per-layer split.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Where ``--trace 1`` writes the spans of its last traced run.
SPANS_DIR = HERE.parent / ".perfbench"

#: Fewest measured runs per kind, however short ``--seconds`` is.
MIN_REPS = 3
#: Extra set-up-only facade calls after each measured run (``sim`` and
#: ``engine``), so ``setup_s`` is a median over many set-ups.
SETUP_PROBES = 3
#: Iterations of the host-calibration loop (about 0.1 s of pure Python).
CALIBRATION_LOOPS = 1_000_000


def calibrate(rounds: int = 3) -> float:
    """Median time of a fixed pure-Python loop: a slow host shows here."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Bench:
    """Every run made for one workload and seed, and its accounting."""

    def __init__(self, workload: str, seed: int) -> None:
        import scenarios

        self.scenarios = scenarios
        self.workload = workload
        self.spec = scenarios.make_spec(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reference = None
        self.serial_walls: list = []

    def warm_up(self) -> None:
        """One untimed, checked run: lazy imports and first-call set-up.
        On ``partition-load`` it is the ``workers=0`` reference every
        partitioned run must equal, and a speed-up baseline."""
        if self.workload == "partition-load":
            first = self.run(workers=0)
            self.reference = first.result.trace
            self.serial_walls.append(first.wall_s)
        else:
            self.run()

    def run(self, workers=None, recorder=None):
        """One checked run; ``recorder`` wraps it in layer spans."""
        opts = {} if workers is None else {"workers": workers}
        try:
            if recorder is None:
                rep = self.scenarios.run_once(
                    self.workload, self.spec, reference=self.reference, **opts
                )
            else:
                with recorder:
                    rep = self.scenarios.run_once(
                        self.workload, self.spec, reference=self.reference, **opts
                    )
        except Exception as exc:
            ops = self.scenarios.attempted_ops(self.workload, self.spec)
            self.attempted += ops
            self.failed += ops
            self.problems.append(f"run raised {type(exc).__name__}: {exc}")
            raise
        self.attempted += rep.attempted
        self.failed += rep.failed
        self.problems.extend(rep.problems)
        print(
            f"  run: setup {rep.setup_s:.4f} s, run {rep.run_s:.4f} s, "
            f"{rep.completed}/{rep.attempted} ops"
            + (" (traced)" if recorder is not None else ""),
            flush=True,
        )
        return rep


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced runs for ``seconds``; medians of the end-to-end metrics."""
    reps, setups = [], []
    probes = 0 if bench.workload == "partition-load" else SETUP_PROBES
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        rep = bench.run()
        rep.result = None
        reps.append(rep)
        setups.append(rep.setup_s)
        for _ in range(probes):
            setups.append(bench.scenarios.setup_once(bench.workload, bench.spec))
    return {
        "ops_per_s": (statistics.median(r.completed / r.run_s for r in reps), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure_layers(bench: Bench, seconds: float, calib_s: float) -> dict:
    """Untraced and traced runs, alternating, for ``seconds``; the
    per-layer split from the traced ones.

    ``partition-load`` traces its ``workers=0`` runs, since per-partition
    work in worker processes is invisible to wrappers in this process;
    its coordinator counts and set-up come from untraced ``workers=2``
    runs.
    """
    import layers

    partitioned = bench.workload == "partition-load"
    serial = 0 if partitioned else None
    untraced, traced, parallel = [], [], []
    samples = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        untraced.append(bench.run(workers=serial))
        untraced[-1].result = None
        gc.collect()
        recorder = layers.install()
        rep = bench.run(workers=serial, recorder=recorder)
        values = layers.layer_metrics(recorder)
        values.update(_result_counts(bench.workload, rep.result))
        values["scenario.build_s"] = rep.setup_s
        samples.append(values)
        traced.append(rep)
        rep.result = None
        if partitioned:
            gc.collect()
            parallel.append(bench.run())
    SPANS_DIR.mkdir(exist_ok=True)
    recorder.write(SPANS_DIR / f"spans-{bench.workload}.tsv")
    metrics = {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["bench.span_overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - untraced_wall
    )
    metrics["host.calib_s"] = calib_s
    metrics["partition.windows"] = metrics["partition.exports"] = 0
    metrics["partition.speedup"] = 0.0
    if partitioned:
        last = parallel[-1].result.detail
        metrics["partition.windows"] = last.windows
        metrics["partition.exports"] = last.exports_delivered
        metrics["scenario.build_s"] = statistics.median(r.setup_s for r in parallel)
        serial_wall = statistics.median(bench.serial_walls + [r.wall_s for r in untraced])
        metrics["partition.speedup"] = serial_wall / statistics.median(
            r.wall_s for r in parallel
        )
    return {name: (metrics[name], unit) for name, unit in layers.METRICS.items()}


def _result_counts(workload: str, result) -> dict:
    """Per-layer counts read off the facade's result."""
    if workload == "roaming-engine":
        return {"netsim.events": 0, "netsim.trace.retained": 0}
    if workload == "partition-load":
        retained = sum(r["trace_entries"] for r in result.detail.results)
    else:
        retained = len(result.trace.entries)
    return {"netsim.events": result.events, "netsim.trace.retained": retained}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = scenarios.DEFAULT_SEED if args.seed is None else args.seed

    calib_s = calibrate()
    print(f"perfbench {args.workload} seed={seed} trace={args.trace} "
          f"host.calib_s={calib_s:.4f}", flush=True)
    bench = Bench(args.workload, seed)
    metrics = {}
    try:
        bench.warm_up()
        if args.trace:
            metrics = measure_layers(bench, args.seconds, calib_s)
        else:
            metrics = measure(bench, args.seconds)
    except Exception as exc:  # reported as a failed, incorrect run
        if not bench.problems:
            print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in bench.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
