"""Conservative-synchronization execution of a partitioned scenario.

:func:`run_partitioned` shards a schema-v2 scenario (``partitions`` set)
into one :class:`~repro.partition.runtime.PartitionRuntime` per campus
and advances them under one of two conservative protocols, chosen by
the hierarchy's lookahead ``L`` (the minimum inter-campus delay):

- **Windowed** (``L > 0``): all partitions run events in ``[t, t+L)``
  concurrently — safe because nothing produced inside the window can
  *arrive* before ``t+L`` — then exchange exports and advance to the
  next window.  This is the barrier-window variant of null-message
  synchronization: lookahead is global, so a window barrier carries the
  same guarantee as pairwise null messages at a fraction of the
  messaging.
- **Global barrier** (``L == 0``, e.g. zero-delay inter-partition
  links): partitions step together through one timestamp at a time
  (the global minimum next-event time, inclusive), exchanging after
  each step.  Progress is guaranteed — the minimum always executes —
  so zero lookahead degenerates to lockstep, never deadlock.

Determinism (the byte-identity contract): per-partition simulators are
seeded from ``(spec.seed, index)``; exports are delivered sorted by
``(arrival, source partition, export sequence)`` which is a total order
reproduced identically by any execution schedule; payloads cross the
boundary pickled in *both* serial and parallel mode; and the process-
global ID counters are scoped per partition — every partition runs
through :class:`_SerialPartition`, which swaps them around each slice.

Runners: ``workers=N`` spreads the partitions over ``min(N, partitions,
usable CPUs)`` runners, each a contiguous group of partitions run one
after another.  The orchestrator runs one group itself, between sending
a window to the workers and collecting their replies, and each other
group runs in one worker process.  Whatever the grouping, a serial run
(``workers=0``) is byte-identical — per-partition trace fingerprints,
health summaries, mobile-host state — to a parallel one, which is what
the partition-smoke CI job asserts.  :class:`PartitionedResult` reports
per-partition compute seconds and the orchestrator's barrier wait, the
sync cost a speed-up has to beat.

Long runs poll the cooperative deadline
(:mod:`repro.harness.deadline`) at every window boundary — the
SIGALRM-free timeout path that makes partitioned cells safe inside the
sweep runner's worker pools.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.harness.deadline import check as _check_deadline
from repro.scenario.session import (
    capture_global_counters,
    restore_global_counters,
)
from repro.scenario.spec import ScenarioSpec, canonical_json
from repro.workloads.hierarchy import HierarchyModel, merge_load_summaries

#: Backstop against a livelocked exchange loop (a zero-delay event
#: cycle bouncing between partitions forever).
MAX_ROUNDS = 1_000_000

#: (dst, arrival, kind, blob, export_seq) as drained from a runtime.
_Export = Tuple[int, float, str, bytes, int]


# ----------------------------------------------------------------------
# Runners: groups of partitions, in this process or in one worker each
# ----------------------------------------------------------------------
def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS / Windows
        return os.cpu_count() or 1


def runner_groups(n: int, workers: int) -> List[List[int]]:
    """Split partitions ``0..n-1`` into contiguous groups, one per
    runner: ``min(workers, n, usable CPUs)`` of them (at least one)."""
    r = max(1, min(workers, n, usable_cpus()))
    return [list(range(g * n // r, (g + 1) * n // r)) for g in range(r)]


class _SerialPartition:
    """One partition driven in-process, with global-counter scoping.

    The shared ID counters (packet uids, hardware addresses,
    registration sequence numbers) are captured after every slice of
    this partition's execution and restored before the next, so any
    number of partitions interleaved in one process hand out exactly the
    id sequences an isolated process per partition would."""

    def __init__(self, spec: ScenarioSpec, model: HierarchyModel, index: int) -> None:
        from repro.partition.runtime import PartitionRuntime

        self.runtime = PartitionRuntime(spec, model, index)
        self.next_time = self.runtime.next_time()
        self._counters = capture_global_counters()
        #: Seconds spent executing this partition's slices.
        self.compute_s = 0.0

    def run(self, barrier: float, inclusive: bool, deliveries) -> tuple:
        started = time.perf_counter()
        restore_global_counters(self._counters)
        self.runtime.inject(deliveries)
        executed = self.runtime.run_window(barrier, inclusive)
        self._counters = capture_global_counters()
        self.compute_s += time.perf_counter() - started
        return executed, self.runtime.next_time(), self.runtime.drain_outbox()

    def finish(self, horizon: float, deliveries) -> tuple:
        started = time.perf_counter()
        restore_global_counters(self._counters)
        self.runtime.inject(deliveries)
        self.runtime.finish(horizon)
        self._counters = capture_global_counters()
        self.compute_s += time.perf_counter() - started
        return self.runtime.result(), self.runtime.drain_outbox(), self.compute_s


class _LocalGroup:
    """A group of partitions run by this process, one after another.

    The orchestrator hosts one of these (``workers=0``: all partitions)
    and every worker process serves exactly one; ``run_async`` executes
    at once, so the orchestrator's own group overlaps the workers'."""

    def __init__(self, spec: ScenarioSpec, model: HierarchyModel,
                 indices: List[int]) -> None:
        self.indices = indices
        self.partitions = [_SerialPartition(spec, model, i) for i in indices]
        self._reply: Optional[list] = None

    def initial_next_times(self) -> List[Optional[float]]:
        return [p.next_time for p in self.partitions]

    def run_async(self, barrier: float, inclusive: bool, deliveries) -> None:
        self._reply = [
            p.run(barrier, inclusive, d) for p, d in zip(self.partitions, deliveries)
        ]

    def finish_async(self, horizon: float, deliveries) -> None:
        self._reply = [
            p.finish(horizon, d) for p, d in zip(self.partitions, deliveries)
        ]

    def collect(self) -> list:
        reply, self._reply = self._reply, None
        return reply

    collect_result = collect

    def stop(self) -> None:
        pass


def _worker_main(conn, spec_dict: dict, indices: List[int]) -> None:
    """Worker-process loop: build one group of partitions, serve window
    commands for all of them."""
    import traceback

    try:
        spec = ScenarioSpec.from_dict(spec_dict)
        group = _LocalGroup(spec, HierarchyModel.from_spec(spec), indices)
        conn.send(("ready", group.initial_next_times()))
        while True:
            msg = conn.recv()
            if msg[0] == "window":
                _, barrier, inclusive, deliveries = msg
                group.run_async(barrier, inclusive, deliveries)
                conn.send(("ok", group.collect()))
            elif msg[0] == "finish":
                _, horizon, deliveries = msg
                group.finish_async(horizon, deliveries)
                conn.send(("result", group.collect_result()))
            elif msg[0] == "stop":
                return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _ParallelPartition:
    """One worker process running a group of partitions, driven over a
    pipe; the same surface as :class:`_LocalGroup`."""

    def __init__(self, spec: ScenarioSpec, indices: List[int]) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self.indices = indices
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child, spec.to_dict(), indices),
            name=f"partitions-{indices[0]}-{indices[-1]}",
        )
        self._proc.start()
        child.close()
        self._next: List[Optional[float]] = []

    def _recv(self, expect: str) -> tuple:
        try:
            msg = self._conn.recv()
        except EOFError:
            raise SimulationError(
                f"partition worker {self.indices} exited without replying"
            ) from None
        if msg[0] == "error":
            raise SimulationError(
                f"partition worker {self.indices} failed:\n{msg[1]}"
            )
        if msg[0] != expect:
            raise SimulationError(
                f"partition worker {self.indices}: expected {expect!r}, "
                f"got {msg[0]!r}"
            )
        return msg

    def wait_ready(self) -> None:
        self._next = self._recv("ready")[1]

    def initial_next_times(self) -> List[Optional[float]]:
        return self._next

    def run_async(self, barrier: float, inclusive: bool, deliveries) -> None:
        self._conn.send(("window", barrier, inclusive, deliveries))

    def collect(self) -> list:
        return self._recv("ok")[1]

    def finish_async(self, horizon: float, deliveries) -> None:
        self._conn.send(("finish", horizon, deliveries))

    def collect_result(self) -> list:
        return self._recv("result")[1]

    def stop(self) -> None:
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=10)
        self._conn.close()


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class PartitionedResult:
    """The merged outcome of one partitioned run."""

    spec_name: str
    partitions: int
    workers: int
    mode: str
    lookahead: float
    windows: int
    events: int
    wall_seconds: float
    exports_delivered: int
    exports_dropped: int
    results: List[dict] = field(default_factory=list)
    #: Runners the partitions were spread over (``1`` for ``workers=0``).
    runners: int = 1
    #: Seconds each partition spent executing its slices, by index.
    #: Wall-clock measurements: kept out of :meth:`fingerprint` and of
    #: ``RunResult.counters`` so runs compare across worker counts.
    compute_seconds: List[float] = field(default_factory=list)
    #: Seconds the orchestrator spent blocked on workers at barriers.
    barrier_wait_seconds: float = 0.0

    def health_merged(self) -> Optional[dict]:
        from repro.telemetry.health import merge_health_summaries

        summaries = [r["health"] for r in self.results if r.get("health")]
        return merge_health_summaries(summaries) if summaries else None

    def load_merged(self) -> Optional[dict]:
        summaries = [r["load"] for r in self.results if r.get("load")]
        return merge_load_summaries(summaries) if summaries else None

    def fingerprint(self) -> dict:
        """Per-partition trace digests plus digests of the health and
        mobile-host state — equal fingerprints mean byte-identical runs."""
        import hashlib

        ordered = sorted(self.results, key=lambda r: r["partition"])
        health = canonical_json([r.get("health") for r in ordered])
        mobile = canonical_json([r.get("mobile_state") for r in ordered])
        return {
            "trace": {
                str(r["partition"]): r["trace_fingerprint"] for r in ordered
            },
            "health": hashlib.sha256(health.encode()).hexdigest(),
            "mobile_state": hashlib.sha256(mobile.encode()).hexdigest(),
        }


# ----------------------------------------------------------------------
# Exchange plumbing
# ----------------------------------------------------------------------
def _route(
    outboxes: Dict[int, List[_Export]],
    horizon: float,
    pending: Dict[int, List[Tuple[float, str, bytes]]],
) -> Tuple[int, int]:
    """Merge per-source outboxes into per-destination delivery queues.

    Deliveries are sorted by ``(arrival, source partition, export
    sequence)`` — a total order independent of which partition drained
    first — and anything arriving after the horizon is dropped (it could
    never execute)."""
    delivered = dropped = 0
    staged: Dict[int, List[Tuple[float, int, int, str, bytes]]] = {}
    for src, exports in outboxes.items():
        for dst, arrival, kind, blob, seq in exports:
            if arrival > horizon:
                dropped += 1
                continue
            staged.setdefault(dst, []).append((arrival, src, seq, kind, blob))
    for dst, items in staged.items():
        items.sort(key=lambda item: (item[0], item[1], item[2]))
        pending[dst].extend(
            (arrival, kind, blob) for arrival, _, _, kind, blob in items
        )
        delivered += len(items)
    return delivered, dropped


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def run_partitioned(spec: ScenarioSpec, workers: int = 0) -> PartitionedResult:
    """Run a partitioned scenario to its horizon.

    ``workers=0`` runs every partition in this process (the serial
    reference).  ``workers=N`` spreads the partitions over
    ``r = min(N, partitions, usable CPUs)`` runners: this process runs
    one group of partitions and ``r - 1`` worker processes run one group
    each (with ``r == 1``, a single worker process runs them all).  Every
    worker count produces byte-identical per-partition traces, health
    summaries and mobile-host state.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    model = HierarchyModel.from_spec(spec)
    n = model.n_campuses
    lookahead = model.lookahead()
    mode = "window" if (n > 1 and lookahead > 0) else "barrier"
    horizon = spec.horizon
    started = time.perf_counter()

    groups = runner_groups(n, workers)
    runners: List = []
    pending: Dict[int, List[Tuple[float, str, bytes]]] = {i: [] for i in range(n)}
    nexts: List[Optional[float]] = [None] * n
    windows = delivered_total = dropped_total = 0
    barrier_wait = 0.0

    def take(runner) -> List[list]:
        out = [pending[i] for i in runner.indices]
        for i in runner.indices:
            pending[i] = []
        return out

    def step(barrier: float, inclusive: bool) -> None:
        # Workers first, this process's own group last: its slices run
        # while the workers run theirs.
        nonlocal delivered_total, dropped_total, windows, barrier_wait
        for runner in runners:
            runner.run_async(barrier, inclusive, take(runner))
        outboxes: Dict[int, List[_Export]] = {}
        waited = time.perf_counter()
        for runner in runners:
            for i, (_, next_time, outbox) in zip(runner.indices, runner.collect()):
                nexts[i] = next_time
                outboxes[i] = outbox
        barrier_wait += time.perf_counter() - waited
        delivered, dropped = _route(outboxes, horizon, pending)
        delivered_total += delivered
        dropped_total += dropped
        windows += 1

    try:
        # This process keeps the first group unless ``workers >= 1``
        # left only one, which then goes to a worker.  Fork the workers,
        # build the local group while they build theirs, then wait:
        # every partition build is set-up.
        local = groups.pop(0) if not workers or len(groups) > 1 else None
        for group in groups:
            runners.append(_ParallelPartition(spec, group))
        remote = list(runners)
        if local is not None:
            runners.append(_LocalGroup(spec, model, local))
        for runner in remote:
            runner.wait_ready()
        for runner in runners:
            for i, next_time in zip(runner.indices, runner.initial_next_times()):
                nexts[i] = next_time

        if mode == "window":
            t = 0.0
            while t < horizon:
                _check_deadline()
                barrier = min(t + lookahead, horizon)
                step(barrier, False)
                t = barrier
        else:
            while True:
                _check_deadline()
                if windows > MAX_ROUNDS:
                    raise SimulationError(
                        f"barrier protocol exceeded {MAX_ROUNDS} rounds "
                        f"(zero-delay event cycle between partitions?)"
                    )
                candidates = [x for x in nexts if x is not None and x <= horizon]
                candidates.extend(
                    arrival
                    for deliveries in pending.values()
                    for arrival, _, _ in deliveries
                )
                if not candidates:
                    break
                step(min(candidates), True)

        # Final phase: advance every clock to the horizon (events at
        # exactly the horizon run here, matching ``Session.run``).
        for runner in runners:
            runner.finish_async(horizon, take(runner))
        results: List[dict] = []
        compute = [0.0] * n
        waited = time.perf_counter()
        for runner in runners:
            for i, (result, outbox, seconds) in zip(
                runner.indices, runner.collect_result()
            ):
                results.append(result)
                compute[i] = seconds
                # Horizon-time events can only export beyond the horizon
                # (positive delay) — anything else is a protocol violation.
                for dst, arrival, kind, _, _ in outbox:
                    if arrival <= horizon:
                        raise SimulationError(
                            f"partition {i} exported a {kind} event at "
                            f"t={arrival} after the final exchange "
                            f"(horizon {horizon})"
                        )
                    dropped_total += 1
        barrier_wait += time.perf_counter() - waited
    finally:
        for runner in runners:
            runner.stop()

    results.sort(key=lambda r: r["partition"])
    return PartitionedResult(
        spec_name=spec.name,
        partitions=n,
        workers=workers,
        mode=mode,
        lookahead=lookahead,
        windows=windows,
        events=sum(r["events"] for r in results),
        wall_seconds=time.perf_counter() - started,
        exports_delivered=delivered_total,
        exports_dropped=dropped_total,
        results=results,
        runners=len(runners),
        compute_seconds=compute,
        barrier_wait_seconds=barrier_wait,
    )
