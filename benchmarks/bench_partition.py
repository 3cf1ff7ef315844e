#!/usr/bin/env python
"""The E4 scalability curve: partitioned throughput and signaling load.

Two sweeps over the hierarchical registration-load model (the
~10^5-host statistical population, walked by one plan cursor per
campus):

- **events/s vs partition count** — the same per-campus load executed
  at 1, 2, 4 and 8 partitions, serial reference vs ``workers=N``
  (partitions grouped onto at most one runner per CPU).  This is the
  scalability claim of the paper's E4 argument made measurable: on a
  multi-core host the parallel curve rises with partition count; on a
  single-core host it honestly falls (one worker process pays the
  synchronization overhead for nothing) and the output says so.

- **signaling load vs hierarchy depth** — total signaling units (one
  campus registration per move plus one binding update per tree level
  climbed, H-MLBN style) for the same mobility workload under deeper
  aggregation trees.  Deeper hierarchies localize more moves below the
  root, which is the scalability mechanism the paper's Section 7
  extrapolation relies on.

Usage::

    PYTHONPATH=src python benchmarks/bench_partition.py [--json]
    PYTHONPATH=src python benchmarks/bench_partition.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import time


def _depth_for(partitions: int, branching: int = 2) -> int:
    depth = 1
    while branching**depth < partitions:
        depth += 1
    return depth


def _run_point(partitions: int, hosts_per_campus: int, workers: int):
    from repro.partition import partition_load_spec, run_partitioned

    spec = partition_load_spec(
        partitions=partitions,
        hosts_per_campus=hosts_per_campus,
        depth=_depth_for(partitions),
    )
    start = time.perf_counter()
    result = run_partitioned(spec, workers=workers)
    wall = time.perf_counter() - start
    return result, wall


def sweep_partitions(hosts_per_campus: int, counts) -> list:
    """events/s vs partition count, serial and parallel legs."""
    rows = []
    for n in counts:
        serial, serial_wall = _run_point(n, hosts_per_campus, workers=0)
        parallel, parallel_wall = _run_point(n, hosts_per_campus, workers=n)
        identical = serial.fingerprint() == parallel.fingerprint()
        rows.append({
            "partitions": n,
            "depth": _depth_for(n),
            "modeled_hosts": n * hosts_per_campus,
            "events": parallel.events,
            "lookahead": serial.lookahead,
            "mode": serial.mode,
            "windows": serial.windows,
            "cross_partition_events": serial.exports_delivered,
            "serial_events_per_sec": round(serial.events / serial_wall),
            "parallel_events_per_sec": round(parallel.events / parallel_wall),
            "speedup": round(serial_wall / parallel_wall, 3),
            "byte_identical": identical,
        })
    return rows


def sweep_depth(hosts_per_campus: int, partitions: int, depths) -> list:
    """Signaling units vs hierarchy depth for a fixed campus count."""
    from repro.partition import partition_load_spec, run_partitioned

    rows = []
    for depth in depths:
        spec = partition_load_spec(
            partitions=partitions,
            hosts_per_campus=hosts_per_campus,
            depth=depth,
        )
        result = run_partitioned(spec, workers=0)
        load = result.load_merged()
        by_level = load["signaling_by_level"]
        rows.append({
            "depth": depth,
            "partitions": partitions,
            "modeled_hosts": load["modeled_hosts"],
            "moves_local": load["moves_local"],
            "moves_cross": load["moves_cross"],
            "signaling_units": load["signaling_units"],
            "signaling_per_move": round(
                load["signaling_units"]
                / (load["moves_local"] + load["moves_cross"]),
                4,
            ),
            # Binding updates that climb all the way to the backbone
            # root — the location database the whole internetwork
            # shares, and the quantity a deeper hierarchy must shrink
            # for the paper's E4 extrapolation to hold.
            "root_updates": by_level.get(str(depth), by_level.get(depth, 0)),
            "signaling_by_level": by_level,
        })
    return rows


def render(report: dict) -> str:
    lines = [
        f"E4 scalability curve ({report['cpu_count']} cpu(s); on a "
        "single-core host the parallel leg is one worker and the speedup "
        "column honestly reads < 1.0)",
        "",
        "  events/s vs partition count "
        f"({report['hosts_per_campus']} modeled hosts per campus):",
        "    N  depth  hosts    events    serial-ev/s  parallel-ev/s  "
        "speedup  identical",
    ]
    for row in report["partition_curve"]:
        lines.append(
            f"    {row['partitions']:<2} {row['depth']:<6} "
            f"{row['modeled_hosts']:<8} {row['events']:<9} "
            f"{row['serial_events_per_sec']:<12} "
            f"{row['parallel_events_per_sec']:<14} "
            f"{row['speedup']:<8} {'yes' if row['byte_identical'] else 'NO'}"
        )
    lines += [
        "",
        "  signaling load vs hierarchy depth "
        f"({report['depth_partitions']} campuses; root-updates is the "
        "backbone-level database load deeper trees must shrink):",
        "    depth  moves(local/cross)  signaling-units  per-move  "
        "root-updates",
    ]
    for row in report["depth_curve"]:
        lines.append(
            f"    {row['depth']:<6} "
            f"{row['moves_local']}/{row['moves_cross']:<12} "
            f"{row['signaling_units']:<16} {row['signaling_per_move']:<9} "
            f"{row['root_updates']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--hosts", type=int, default=25_000,
                        help="modeled hosts per campus (default 25000)")
    parser.add_argument("--quick", action="store_true",
                        help="small population / fewer points (CI)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")
    args = parser.parse_args(argv)

    hosts = 2_000 if args.quick else args.hosts
    counts = (1, 2, 4) if args.quick else (1, 2, 4, 8)
    depths = (1, 2, 3) if args.quick else (1, 2, 3, 4)
    depth_partitions = 8

    report = {
        "cpu_count": os.cpu_count() or 1,
        "hosts_per_campus": hosts,
        "partition_curve": sweep_partitions(hosts, counts),
        "depth_partitions": depth_partitions,
        "depth_curve": sweep_depth(hosts, depth_partitions, depths),
    }
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render(report))
    return 0 if all(r["byte_identical"] for r in report["partition_curve"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
