"""Partitioned parallel simulation (conservative synchronization).

The E4 scalability layer: a hierarchical world is sharded one campus
per partition, each partition runs in its own simulator (partitions are
grouped onto at most one runner per CPU: this process plus worker
processes), and the engine advances them under a lookahead-derived
window or global-barrier protocol such that a parallel run is
byte-identical to the serial reference.  See
:mod:`repro.partition.engine` for the synchronization protocols,
:mod:`repro.partition.runtime` for the per-partition world slice and
the ``state_dict`` host-migration format, and
:mod:`repro.partition.corpus` for the pinned byte-identity scenarios.
"""

from repro.partition.engine import PartitionedResult, run_partitioned
from repro.partition.runtime import PartitionRuntime, derive_partition_seed
from repro.partition.corpus import (
    partition_corpus_specs,
    partition_faults_spec,
    partition_handoff_spec,
    partition_load_spec,
)

__all__ = [
    "PartitionedResult",
    "PartitionRuntime",
    "run_partitioned",
    "derive_partition_seed",
    "partition_corpus_specs",
    "partition_faults_spec",
    "partition_handoff_spec",
    "partition_load_spec",
]
