#!/usr/bin/env python
"""CI smoke check: partitioned byte-identity at every worker count.

Runs both pinned corpus scenarios serially (``workers=0``, the
reference) and then with ``workers`` = 1, 2 and ``spec.partitions``,
and fails if any fingerprint component — per-partition trace digests,
health summaries, final mobile-host state — differs.  ``workers=N``
groups the partitions onto ``min(N, partitions, usable CPUs)`` runners,
so the legs cover one worker process holding every partition, grouped
runners, and — with the CPU cap lifted — one partition per runner.
This is the hard promise of the conservative-synchronization engine:
process parallelism is an implementation detail, never an observable
one.

Usage::

    PYTHONPATH=src python benchmarks/partition_smoke.py
"""

from __future__ import annotations

import sys


def _legs(partitions: int):
    """``(label, workers, cpu cap or None)`` per parallel leg."""
    return [
        ("workers=1", 1, None),
        ("workers=2", 2, None),
        (f"workers={partitions}", partitions, None),
        (f"workers={partitions}, ungrouped", partitions, partitions),
    ]


def _run(name: str, workers: int, cpus):
    """Run a fresh copy of the corpus scenario ``name`` (runs must not
    share schedule list objects), optionally with the CPU cap set."""
    from repro.partition import engine, partition_corpus_specs

    spec = next(s for s in partition_corpus_specs() if s.name == name)
    usable = engine.usable_cpus
    if cpus is not None:
        engine.usable_cpus = lambda: cpus
    try:
        return engine.run_partitioned(spec, workers=workers)
    finally:
        engine.usable_cpus = usable


def main() -> int:
    from repro.partition import partition_corpus_specs

    failures = 0
    for spec in partition_corpus_specs():
        serial_fp = _run(spec.name, 0, None).fingerprint()
        for label, workers, cpus in _legs(spec.partitions):
            parallel = _run(spec.name, workers, cpus)
            parallel_fp = parallel.fingerprint()
            if serial_fp == parallel_fp:
                print(
                    f"OK   {spec.name} [{label}]: {parallel.events} events, "
                    f"{parallel.partitions} partitions on {parallel.runners} "
                    f"runner(s) ({parallel.mode} mode, {parallel.windows} "
                    f"windows, {parallel.exports_delivered} cross-partition "
                    f"events) — byte-identical to serial"
                )
                continue
            failures += 1
            print(f"FAIL {spec.name} [{label}]: diverged from serial",
                  file=sys.stderr)
            for component in ("trace", "health", "mobile_state"):
                if serial_fp[component] != parallel_fp[component]:
                    print(
                        f"  {component}: serial={serial_fp[component]!r} "
                        f"parallel={parallel_fp[component]!r}",
                        file=sys.stderr,
                    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
