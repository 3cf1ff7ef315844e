"""``python -m repro`` — demos and the sweep harness.

::

    python -m repro                    # list commands
    python -m repro quickstart         # the Section 6 walkthrough
    python -m repro comparison         # the Section 7 shoot-out
    python -m repro robustness         # the Section 5 mechanisms
    python -m repro transfer           # TCP across handoffs
    python -m repro campus [hosts] [cells] [seconds]
    python -m repro netstat [seed] [--json] [--all]
                                       # per-node dataplane counters for
                                       # the Figure-1 walkthrough
    python -m repro health [scenario] [--json] [--perfetto PATH]
                                       # protocol-health panel (latency,
                                       # stretch, blackout percentiles)
    python -m repro trace [uid]        # follow one packet's journey
    python -m repro sweep <experiment> [--jobs N] [--no-cache]
                                       [--quick] [--check-baseline]
    python -m repro audit <scenario>   # run a scenario (or a fuzz repro
                                       # JSON) under the invariant auditor
    python -m repro fuzz [--seeds N] [--shrink] [--quick]
                                       # fuzz random scenarios; shrink any
                                       # violation to a minimal repro
    python -m repro live [scenario] [--speed X] [--conformance]
                                       # run a scenario over real loopback
                                       # UDP sockets (the sans-io engines)
    python -m repro top [source] [--backend sim|driver|live] [--dag]
                                       # protocol health + runtime stats
                                       # panel; tails live snapshot streams
    python -m repro run [scenario] [--backend sim|engine|live|partitioned]
                                       # any scenario on any execution
                                       # backend, one uniform result
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

# The demo modules live in examples/ next to the package source; resolve
# the repository root once at import so every command sees it (the
# editable-install layout: <root>/src/repro/__main__.py).
_REPO_ROOT = str(Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

_DEMOS = {
    "quickstart": ("examples.quickstart", "the paper's Section 6 walkthrough"),
    "comparison": ("examples.protocol_comparison", "all six protocols, one workload"),
    "robustness": ("examples.robustness_demo", "crash recovery and loop dissolution"),
    "transfer": ("examples.mobile_file_transfer", "a TCP download across 3 handoffs"),
    "campus": ("examples.campus_roaming", "many hosts roaming under load"),
    "telemetry": ("examples.protocol_health", "live health panel + Perfetto export"),
}

_COMMANDS = {
    "netstat": "per-node/per-stage dataplane counters for a demo scenario",
    "health": "protocol-health telemetry panel (see `health --help`)",
    "trace": "follow one packet uid through a scenario (see `trace --help`)",
    "sweep": "run a multi-seed experiment sweep (see `sweep --help`)",
    "audit": "check protocol invariants over a scenario (see `audit --help`)",
    "fuzz": "fuzz scenarios under the invariant auditor (see `fuzz --help`)",
    "live": "run a scenario over loopback UDP sockets (see `live --help`)",
    "top": "health + runtime stats panel / snapshot tail (see `top --help`)",
    "run": "run a scenario on any execution backend (see `run --help`)",
}


def _netstat(argv: list[str]) -> int:
    """Run the Figure-1 Section 6 walkthrough and print every node's
    dataplane pipeline counters, grouped by stage."""
    import json

    from repro.clibase import build_parser
    from repro.metrics.netstat import netstat_json, render_netstat
    from repro.workloads.topology import build_figure1, drive_figure1

    parser = build_parser(
        "netstat",
        "per-node dataplane pipeline counters for the Figure-1 walkthrough",
        seed_help="simulation seed (default 42)",
    )
    parser.add_argument("seed_pos", nargs="?", type=int, default=None,
                        metavar="seed", help="positional alias for --seed")
    parser.add_argument("--all", action="store_true", dest="include_idle",
                        help="include interfaces/stages with zero counters")
    args = parser.parse_args(argv)

    seed = args.seed if args.seed is not None else (
        args.seed_pos if args.seed_pos is not None else 42
    )
    topo = build_figure1(seed=seed)
    sim = topo.sim
    drive_figure1(topo)
    nodes = [topo.s, topo.r1, topo.r2, topo.r3, topo.r4, topo.r5, topo.m]
    if args.as_json:
        print(json.dumps(netstat_json(nodes, include_idle=args.include_idle),
                         indent=2, sort_keys=True))
        return 0
    if not args.quiet:
        print(render_netstat(nodes,
                             title=f"figure-1 walkthrough (seed {seed}) — "
                                   f"dataplane counters at t={sim.now:g}s",
                             include_idle=args.include_idle))
    return 0


def _usage(stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    print(__doc__.strip().split("\n")[0], file=stream)
    print("\nAvailable demos:", file=stream)
    for name, (_, blurb) in _DEMOS.items():
        print(f"  {name:12s} {blurb}", file=stream)
    print("\nOther commands:", file=stream)
    for name, blurb in _COMMANDS.items():
        print(f"  {name:12s} {blurb}", file=stream)


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        _usage()
        return 0
    name = argv[0]
    if name == "sweep":
        from repro.harness.cli import main as sweep_main

        return sweep_main(argv[1:])
    if name == "netstat":
        return _netstat(argv[1:])
    if name == "health":
        from repro.telemetry.cli import health_main

        return health_main(argv[1:])
    if name == "trace":
        from repro.telemetry.cli import trace_main

        return trace_main(argv[1:])
    if name == "audit":
        from repro.invariants.cli import audit_main

        return audit_main(argv[1:])
    if name == "fuzz":
        from repro.invariants.cli import fuzz_main

        return fuzz_main(argv[1:])
    if name == "live":
        from repro.live.cli import live_main

        return live_main(argv[1:])
    if name == "top":
        from repro.obs.cli import top_main

        return top_main(argv[1:])
    if name == "run":
        from repro.backend import run_main

        return run_main(argv[1:])
    entry = _DEMOS.get(name)
    if entry is None:
        print(f"unknown command {name!r}\n", file=sys.stderr)
        _usage(stream=sys.stderr)
        return 2
    module = importlib.import_module(entry[0])
    if name == "campus":
        args = [int(a) for a in argv[1:3]] + [float(a) for a in argv[3:4]]
        module.main(*args)
    else:
        module.main()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
