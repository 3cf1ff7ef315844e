"""Pinned partitioned scenarios for byte-identity checks.

Two four-campus scenarios exercised by the conformance tests, the
``partition-smoke`` CI job and the benchmarks.  Like the wire
conformance corpus, these are *pinned*: serial (``workers=0``) and
parallel (partitions grouped onto runners) executions of each must
produce identical fingerprints, so any edit here invalidates recorded
baselines deliberately.

Both use four campuses under a depth-2 binary hierarchy
(``hop_delay=0.01`` → lookahead 0.02s): campuses 0·1 and 2·3 are
sibling pairs, cross-pair traffic climbs to the root.  Global index
plan (2 hosts, 2 cells, 1 correspondent per campus): host ``h`` is
``campus h//2``, cell ``g`` is ``campus g//2``, correspondent ``c`` is
campus ``c``.
"""

from __future__ import annotations

from typing import List

from repro.scenario.spec import ScenarioSpec

#: Per-campus topology shared by both pinned scenarios.
_TOPOLOGY = {
    "kind": "hierarchy",
    "n_cells": 2,
    "n_mobile_hosts": 2,
    "n_correspondents": 1,
    "advertise": True,
}

_HIERARCHY = {"depth": 2, "branching": 2, "hop_delay": 0.01}

#: Staggered initial attach-home of every host, fuzz-corpus style.
_ATTACHES = [
    {"t": round(0.2 + 0.1 * h, 3), "host": h, "to": -1} for h in range(8)
]


def partition_handoff_spec() -> ScenarioSpec:
    """Cross-campus handoffs under traffic: host 0 tours campus 1 while
    a campus-1 correspondent streams at its home address, host 5 visits
    campus 0, and correspondents ping both while they are away."""
    return ScenarioSpec(
        name="partition-handoff",
        seed=42,
        topology=dict(_TOPOLOGY),
        horizon=12.0,
        instruments=[{"kind": "health"}],
        partitions=4,
        hierarchy=dict(_HIERARCHY),
        moves=_ATTACHES
        + [
            {"t": 1.0, "host": 0, "to": 0},   # local handoff, campus 0
            {"t": 2.0, "host": 5, "to": 4},   # local handoff, campus 2
            {"t": 3.0, "host": 0, "to": 2},   # migrate 0 -> campus 1
            {"t": 4.5, "host": 5, "to": 1},   # migrate 2 -> campus 0 (cross-pair)
            {"t": 6.0, "host": 0, "to": 3},   # forwarded move: handoff inside campus 1
            {"t": 8.0, "host": 5, "to": -1},  # migrate home, campus 2
            {"t": 9.0, "host": 0, "to": -1},  # migrate home, campus 0
        ],
        flows=[
            # Campus-1 correspondent -> host 0's home address; the host
            # migrates *into* campus 1 mid-flow.
            {"start": 4.0, "src": 1, "host": 0, "interval": 0.5, "count": 8,
             "port": 40000},
            # Purely local flow inside campus 3.
            {"start": 2.0, "src": 3, "host": 6, "interval": 0.4, "count": 5,
             "port": 40001},
        ],
        pings=[
            {"t": 5.5, "src": 0, "host": 5},  # host 5 is visiting campus 0
            {"t": 7.0, "src": 2, "host": 0},  # host 0 is visiting campus 1
            {"t": 10.5, "src": 3, "host": 0},  # after it migrated home
        ],
    )


def partition_faults_spec() -> ScenarioSpec:
    """Migrations racing router faults: campus 2's cell router crashes
    while its host is away and reboots before the host returns."""
    return ScenarioSpec(
        name="partition-faults",
        seed=1337,
        topology=dict(_TOPOLOGY),
        horizon=14.0,
        instruments=[{"kind": "health"}],
        partitions=4,
        hierarchy=dict(_HIERARCHY),
        moves=_ATTACHES
        + [
            {"t": 1.2, "host": 4, "to": 4},   # local handoff, campus 2
            {"t": 2.5, "host": 2, "to": 6},   # migrate 1 -> campus 3 (cross-pair)
            {"t": 3.5, "host": 7, "to": 1},   # migrate 3 -> campus 0
            {"t": 6.5, "host": 4, "to": 5},   # local handoff onto rebooting cell
            {"t": 9.0, "host": 2, "to": -1},  # migrate home, campus 1
            {"t": 10.0, "host": 7, "to": -1},  # migrate home, campus 3
        ],
        faults=[
            {"t": 5.0, "node": "FR0", "kind": "crash", "campus": 2},
            {"t": 6.0, "node": "FR0", "kind": "reboot", "campus": 2},
        ],
        flows=[
            # Campus-0 correspondent -> host 7 (visiting campus 0).
            {"start": 4.0, "src": 0, "host": 7, "interval": 0.5, "count": 10,
             "port": 40000},
        ],
        pings=[
            {"t": 4.5, "src": 3, "host": 2},  # host 2 is visiting campus 3
            {"t": 7.5, "src": 2, "host": 4},  # local ping around the fault
            {"t": 11.0, "src": 1, "host": 2},  # after it migrated home
        ],
    )


def partition_load_spec(
    partitions: int = 4,
    hosts_per_campus: int = 25_000,
    moves_per_host: int = 2,
    horizon: float = 6.0,
    depth: int = 2,
    branching: int = 2,
    hop_delay: float = 0.01,
    seed: int = 7,
) -> ScenarioSpec:
    """The E4 scale scenario: each campus models ``hosts_per_campus``
    statistical hosts through the :class:`RegistrationLoadModel`
    (registration/update events walked by one plan cursor per campus,
    cross-campus updates exported over the partition boundary) while a handful of real mobile hosts ride along
    for protocol fidelity.  Total modeled population is
    ``partitions * hosts_per_campus`` — the 10^5–10^6-host regime the
    paper's scalability argument extrapolates to."""
    topology = dict(_TOPOLOGY)
    topology["load"] = {
        "n_hosts": int(hosts_per_campus),
        "moves_per_host": int(moves_per_host),
    }
    return ScenarioSpec(
        name=f"partition-load-{partitions}x{hosts_per_campus}",
        seed=seed,
        topology=topology,
        horizon=horizon,
        instruments=[{"kind": "health"}],
        partitions=partitions,
        hierarchy={"depth": depth, "branching": branching,
                   "hop_delay": hop_delay},
        moves=[
            {"t": round(0.2 + 0.1 * h, 3), "host": h, "to": -1}
            for h in range(2 * partitions)
        ],
    )


def partition_corpus_specs() -> List[ScenarioSpec]:
    """The pinned pair the smoke job and benchmarks run."""
    return [partition_handoff_spec(), partition_faults_spec()]
