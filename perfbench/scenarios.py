"""The benchmark's four workloads: seeded spec generators, the facade
call that runs each, and the endpoint accounting that checks it.

Every workload is a pure function of its seed: :func:`make_spec` builds
a :class:`~repro.scenario.spec.ScenarioSpec` from the seed alone, so the
same seed gives byte-identical spec JSON.  The program under test only
ever sees that spec, through :func:`repro.backend.run`.

Operations are counted where they complete, at the endpoints:

- ``pingstorm``: echo replies arriving at the correspondent S;
- ``roaming`` / ``roaming-engine``: CBR datagrams received by the mobile
  hosts' sinks;
- ``partition-load``: modeled moves processed, where a cross-campus move
  completes only when its binding update has arrived at the other
  campus (``load_merged()``: ``moves_local + updates_in``).

``ProtocolHealth.packets_delivered`` is deliberately *not* used: it
counts every local delivery, and the two backends disagree on it for
the same ping storm (see the README's known issues).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from spans import resolve

#: Seed whose exact counts are pinned in :data:`PINNED`.
DEFAULT_SEED = 1

#: Workload name -> backend it runs on.
BACKEND = {
    "pingstorm": "sim",
    "roaming": "sim",
    "roaming-engine": "engine",
    "partition-load": "partitioned",
}
WORKLOADS = tuple(BACKEND)

# -- sizes ------------------------------------------------------------------
PING_COUNT = 2000
PING_INTERVAL = 0.25
PING_START = 10.0

ROAM_CELLS = 8
ROAM_HOSTS = 12
ROAM_MOVES = 150
ROAM_HORIZON = 100.0
ROAM_FLOW_INTERVAL = 0.5

LOAD_PARTITIONS = 4
LOAD_HOSTS_PER_CAMPUS = 25_000
LOAD_WORKERS = 2
#: The modeled moves stop this long before the horizon, so every
#: cross-campus update (at most a few hop delays) arrives in the run.
LOAD_TAIL = 0.1


# ----------------------------------------------------------------------
# Spec generators
# ----------------------------------------------------------------------
def pingstorm_spec(seed: int, pings: int = PING_COUNT):
    """Figure 1: M settles in net D, then S pings it ``pings`` times at
    4/s; the seed jitters each send time by up to 50 ms."""
    from repro.wire.conformance import figure1_walkthrough_spec

    rng = random.Random(seed)
    spec = figure1_walkthrough_spec()
    spec.name = f"bench-pingstorm-{seed}"
    spec.seed = seed
    spec.moves = [
        {"t": 0.0, "host": 0, "to": -1},
        {"t": 5.0, "host": 0, "to": 0},
    ]
    spec.pings = [
        {
            "t": round(PING_START + PING_INTERVAL * i + rng.uniform(0.0, 0.05), 6),
            "src": 0,
            "host": 0,
        }
        for i in range(pings)
    ]
    spec.horizon = PING_START + PING_INTERVAL * pings + 5.0
    return spec


def roaming_spec(
    seed: int,
    moves: int = ROAM_MOVES,
    horizon: float = ROAM_HORIZON,
    hosts: int = ROAM_HOSTS,
):
    """An 8-cell campus with ``hosts`` mobile hosts: each host attaches
    home, then ``moves`` seeded moves between cells while every host
    receives one CBR flow at 2/s from one of two correspondents."""
    from repro.scenario.spec import ScenarioSpec

    rng = random.Random(seed)
    # Flows send on the half-second grid and hosts move a quarter period
    # off it, so every handoff completes between two sends.
    slots = int((horizon - 15.0) / ROAM_FLOW_INTERVAL)
    move_times = sorted(
        5.0 + ROAM_FLOW_INTERVAL * (rng.randrange(slots) + 0.5)
        for _ in range(moves)
    )
    flows = []
    for host in range(hosts):
        start = 2.0 + ROAM_FLOW_INTERVAL * rng.randrange(4)
        flows.append({
            "start": start,
            "src": host % 2,
            "host": host,
            "interval": ROAM_FLOW_INTERVAL,
            "count": int((horizon - 5.0 - start) / ROAM_FLOW_INTERVAL),
            "port": 40000 + host,
        })
    return ScenarioSpec(
        name=f"bench-roaming-{seed}",
        seed=seed,
        topology={
            "kind": "campus",
            "n_cells": ROAM_CELLS,
            "n_mobile_hosts": hosts,
            "n_correspondents": 2,
            "advertise": True,
        },
        horizon=horizon,
        moves=[
            {"t": round(0.2 + 0.1 * h, 3), "host": h, "to": -1}
            for h in range(hosts)
        ] + [
            {"t": round(t, 6), "host": rng.randrange(hosts),
             "to": rng.randrange(ROAM_CELLS)}
            for t in move_times
        ],
        flows=flows,
    )


def partition_load_spec(seed: int, hosts_per_campus: int = LOAD_HOSTS_PER_CAMPUS):
    """``partition_load_spec(4, 25_000)`` (the H-MLBN per-level
    registration-signaling model) seeded, with the modeled moves ending
    :data:`LOAD_TAIL` before the horizon."""
    from repro.partition import partition_load_spec as _load_spec

    spec = _load_spec(LOAD_PARTITIONS, hosts_per_campus, seed=seed)
    spec.name = f"bench-partition-load-{seed}"
    spec.topology["load"]["horizon"] = spec.horizon - LOAD_TAIL
    return spec


_GENERATORS: Dict[str, Callable] = {
    "pingstorm": pingstorm_spec,
    "roaming": roaming_spec,
    "roaming-engine": roaming_spec,
    "partition-load": partition_load_spec,
}


def make_spec(workload: str, seed: int, small: bool = False):
    """The workload's spec for ``seed``; ``small`` shrinks it for tests."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    if not small:
        return _GENERATORS[workload](seed)
    if workload == "pingstorm":
        spec = pingstorm_spec(seed, pings=40)
    elif workload == "partition-load":
        spec = partition_load_spec(seed, hosts_per_campus=200)
    else:
        spec = roaming_spec(seed, moves=20, horizon=40.0, hosts=4)
    spec.name += "-small"
    return spec


def attempted_ops(workload: str, spec) -> int:
    """Operations the spec asks for."""
    if workload == "pingstorm":
        return len(spec.pings)
    if workload == "partition-load":
        load = spec.topology["load"]
        return spec.partitions * load["n_hosts"] * load["moves_per_host"]
    return sum(flow["count"] for flow in spec.flows)


# ----------------------------------------------------------------------
# One facade run, its set-up boundary and its endpoint accounting
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """One run of a workload through :func:`repro.backend.run`."""

    setup_s: float
    run_s: float
    wall_s: float
    attempted: int
    completed: int = 0
    problems: List[str] = field(default_factory=list)
    result: object = None

    @property
    def failed(self) -> int:
        """A run that failed a check fails all its operations."""
        return self.attempted if self.problems else self.attempted - self.completed


#: Where set-up ends, per execution path: the first call into the run
#: phase, or the return of the last partition build.
_SETUP_END = {
    "sim": ("repro.scenario.session:Session.run", True),
    "engine": ("repro.wire.driver:EngineDriver.run", True),
    "parallel": ("repro.partition.engine:_ParallelPartition.wait_ready", False),
    "serial": ("repro.partition.engine:_SerialPartition.__init__", False),
}


@contextmanager
def _setup_clock(path: str, marks: List[float], on_entry=None):
    """Append ``perf_counter()`` to ``marks`` at the set-up boundary of
    ``path`` (one wrapped call per run or per partition)."""
    target, at_entry = _SETUP_END[path]
    owner, attr = resolve(target)
    original = owner.__dict__[attr]

    def marked(self, *args, **kwargs):
        if at_entry:
            marks.append(time.perf_counter())
            if on_entry is not None:
                on_entry(self)
            return original(self, *args, **kwargs)
        try:
            return original(self, *args, **kwargs)
        finally:
            marks.append(time.perf_counter())

    setattr(owner, attr, marked)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run_once(workload: str, spec, workers: int = LOAD_WORKERS,
             reference: Optional[dict] = None) -> Rep:
    """Run ``spec`` once through the facade and account its operations.

    ``workers`` applies to ``partition-load`` only; ``reference`` is the
    ``workers=0`` fingerprint its result must equal.
    """
    from repro.ip.icmp import TYPE_ECHO_REPLY

    replies = [0]

    def count_reply(packet, message) -> None:
        replies[0] += 1

    def listen(session) -> None:
        # The application's own reply listener on the pinging host S.
        session.world.correspondents[0].on_icmp(TYPE_ECHO_REPLY, count_reply)

    result, started, ready, finished = _facade_call(
        workload, spec, workers, listen if workload == "pingstorm" else None
    )
    rep = Rep(
        setup_s=ready - started,
        run_s=finished - ready,
        wall_s=finished - started,
        attempted=attempted_ops(workload, spec),
        result=result,
    )
    _account(workload, spec, result, replies[0], rep, reference)
    return rep


def setup_once(workload: str, spec) -> float:
    """Set-up time of one facade call stopped at t=0: the same spec to a
    runnable world, with almost nothing run.  Not for ``partition-load``
    (the partitioned backend always runs to the horizon)."""
    _, started, ready, _ = _facade_call(workload, spec, until=0.0)
    return ready - started


def _facade_call(workload: str, spec, workers: int = LOAD_WORKERS,
                 on_entry=None, until: Optional[float] = None):
    """``repro.backend.run`` with the set-up boundary marked; returns
    ``(result, started, ready, finished)`` perf-counter times."""
    from repro import backend

    name = BACKEND[workload]
    opts = {} if until is None else {"until": until}
    path = name
    if name == "partitioned":
        opts["workers"] = workers
        path = "parallel" if workers else "serial"
    marks: List[float] = []
    with _setup_clock(path, marks, on_entry):
        started = time.perf_counter()
        result = backend.run(spec, name, **opts)
        finished = time.perf_counter()
    return result, started, marks[-1], finished


def _account(workload, spec, result, replies: int, rep: Rep,
             reference: Optional[dict]) -> None:
    """Count completed operations and run the workload's checks."""
    problems = rep.problems
    if not result.ok:
        problems.append(f"run status {result.status!r}")
    health = result.health or {}
    if workload == "pingstorm":
        rep.completed = replies
    elif workload == "roaming":
        for stream in result.detail._flows:
            seqs = stream.log.sequence_numbers()
            if len(set(seqs)) != len(seqs) or any(s >= stream.count for s in seqs):
                problems.append(f"flow to port {stream.port}: duplicate or unsent datagrams")
            rep.completed += len(set(seqs))
    elif workload == "roaming-engine":
        topo = result.detail.topo
        rep.completed = sum(
            topo.mobile_host(i).flow_datagrams for i in range(len(topo.mobile_hosts))
        )
    else:
        load = result.detail.load_merged()
        if load["moves_local"] + load["moves_cross"] != rep.attempted:
            problems.append(f"load model processed {load['moves_local'] + load['moves_cross']} "
                            f"of {rep.attempted} moves")
        if not load["updates_in"] <= load["updates_out"] == load["moves_cross"]:
            problems.append(f"updates out/in {load['updates_out']}/{load['updates_in']} "
                            f"for {load['moves_cross']} cross-campus moves")
        rep.completed = load["moves_local"] + load["updates_in"]
        if reference is not None and result.trace != reference:
            problems.append("fingerprint differs from the workers=0 reference")
    if workload != "partition-load" and health.get("moves") != len(spec.moves):
        problems.append(f"health saw {health.get('moves')} moves, spec has {len(spec.moves)}")
    if rep.completed > rep.attempted:
        problems.append(f"{rep.completed} completed of {rep.attempted} attempted")
    pinned = PINNED.get((workload, spec.name))
    if pinned is not None:
        got = {"events": result.events, "completed": rep.completed}
        if got != pinned:
            problems.append(f"pinned counts {pinned}, got {got}")


#: Exact counts on :data:`DEFAULT_SEED`, keyed by (workload, spec name):
#: any change in protocol behaviour moves them.
PINNED: Dict[tuple, dict] = {
    ("pingstorm", "bench-pingstorm-1"): {"events": 19217, "completed": 2000},
    ("roaming", "bench-roaming-1"): {"events": 13337, "completed": 2221},
    ("roaming-engine", "bench-roaming-1"): {"events": 27918, "completed": 2221},
    ("partition-load", "bench-partition-load-1"): {
        "events": 240246, "completed": 200000,
    },
}
