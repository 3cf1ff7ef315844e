"""The conservative-synchronization engine: byte-identity and liveness.

The load-bearing property is that a *parallel* partitioned run
(partitions grouped onto runners: this process plus worker processes)
is indistinguishable from the *serial* reference (``workers=0``, same
protocol in one process): identical per-partition trace digests, health
summaries, and final mobile-host state.  Both pinned corpus scenarios
check it, plus the zero-lookahead degenerate case where the engine must
fall back to a global barrier instead of deadlocking, and the load
scenario against digests pinned from an earlier engine.
"""

import multiprocessing

import pytest

from repro.errors import SimulationError
from repro.partition import (
    PartitionRuntime,
    derive_partition_seed,
    partition_faults_spec,
    partition_handoff_spec,
    partition_load_spec,
    run_partitioned,
)
from repro.partition import engine


@pytest.fixture
def four_cpus(monkeypatch):
    """Pretend four CPUs are usable, so ``workers`` alone picks the
    grouping whatever the host has."""
    monkeypatch.setattr(engine, "usable_cpus", lambda: 4)


def _zero_delay(spec):
    spec.hierarchy = dict(spec.hierarchy, hop_delay=0.0)
    return spec


class TestByteIdentity:
    @pytest.mark.parametrize(
        "spec_fn", [partition_handoff_spec, partition_faults_spec],
        ids=["handoff", "faults"],
    )
    def test_parallel_matches_serial(self, spec_fn):
        serial = run_partitioned(spec_fn(), workers=0)
        parallel = run_partitioned(spec_fn(), workers=spec_fn().partitions)
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.events == serial.events
        assert serial.workers == 0 and parallel.workers == 4
        assert parallel.mode == "window"

    def test_serial_rerun_is_deterministic(self):
        first = run_partitioned(partition_handoff_spec(), workers=0)
        second = run_partitioned(partition_handoff_spec(), workers=0)
        assert first.fingerprint() == second.fingerprint()


class TestZeroDelayBarrier:
    def test_zero_lookahead_forces_barrier_and_terminates(self):
        serial = run_partitioned(_zero_delay(partition_handoff_spec()), workers=0)
        assert serial.lookahead == 0.0
        assert serial.mode == "barrier"
        # No deadlock, and the whole schedule still executed: every
        # partition ran its horizon out.
        assert all(r["now"] == pytest.approx(12.0) for r in serial.results)

    def test_zero_lookahead_still_byte_identical(self):
        serial = run_partitioned(_zero_delay(partition_handoff_spec()), workers=0)
        parallel = run_partitioned(_zero_delay(partition_handoff_spec()), workers=4)
        assert parallel.mode == "barrier"
        assert parallel.fingerprint() == serial.fingerprint()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_zero_lookahead_grouped_runners_byte_identical(self, four_cpus, workers):
        serial = run_partitioned(_zero_delay(partition_handoff_spec()), workers=0)
        grouped = run_partitioned(
            _zero_delay(partition_handoff_spec()), workers=workers
        )
        assert grouped.mode == "barrier" and grouped.runners == workers
        assert grouped.fingerprint() == serial.fingerprint()
        assert grouped.windows == serial.windows


class TestWindowProtocol:
    def test_lookahead_and_exchange_counters(self):
        result = run_partitioned(partition_handoff_spec(), workers=0)
        # depth-2 binary tree, hop_delay=0.01: nearest siblings are two
        # tree hops apart.
        assert result.lookahead == pytest.approx(0.02)
        assert result.windows > 0
        assert result.exports_delivered > 0
        # Cross-partition flow + migrations + pings all crossed borders.
        sent = sum(r["counters"]["packets_exported"] for r in result.results)
        assert sent > 0

    def test_merged_health_is_coherent(self):
        result = run_partitioned(partition_handoff_spec(), workers=0)
        merged = result.health_merged()
        per_partition = [r["health"] for r in result.results]
        for key in ("moves", "registrations", "packets_delivered"):
            assert merged[key] == sum(h[key] for h in per_partition)
        assert merged["moves"] > 0 and merged["packets_delivered"] > 0


class TestSeedDerivation:
    def test_partition_seeds_are_distinct_and_stable(self):
        seeds = [derive_partition_seed(42, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert seeds == [derive_partition_seed(42, i) for i in range(16)]
        assert derive_partition_seed(43, 0) != derive_partition_seed(42, 0)


# ----------------------------------------------------------------------
# The load scenario, pinned: fingerprint() and load_merged() digests
# recorded from the engine that scheduled one bulk event per move.
# ----------------------------------------------------------------------
_HEALTH = "4b68826d0d59e1c53d0f2896b991ac4a96587b9a4eaa8659ec11cf5468b5d8f8"
_MOBILE = "7c68ec6185cacc669e0f46b4b836710b5f6405848081a07b03b7a5145d6a3669"
PINNED_LOAD = {
    1: {
        "events": 19183,
        "fingerprint": {
            "health": _HEALTH,
            "mobile_state": _MOBILE,
            "trace": {
                "0": "e0e63203a13d80ebe04a4fd72dfb7cf251fe26e41b0b11a166c065c18d5716c1",
                "1": "f74c948e75de33017915c27db928e908d8fc8d7e7bc7c7ca2e8ec582f855e620",
                "2": "36f3bbebc0dd5d07649f6ae3938f53fe57f02c39d955b7cbd88e2835e812549c",
                "3": "04ef844d305a58906d46b60cb33698ac94e67acd3faf585fbe472a292c165fcd",
            },
        },
        "load": {
            "modeled_hosts": 8000, "moves_cross": 3067, "moves_local": 12933,
            "signaling_by_level": {"0": 16000, "1": 3067, "2": 2064},
            "signaling_units": 21131, "updates_in": 3047, "updates_out": 3067,
        },
    },
    7: {
        "events": 19413,
        "fingerprint": {
            "health": _HEALTH,
            "mobile_state": _MOBILE,
            "trace": {
                "0": "e436cbe3bef1cbe606f4156b416f1e293e80f83e95bbb1e34aa76c37c448aac9",
                "1": "01d69e024fb6041bdd68894441213f88798b7d70527fd33b985e18b771f82e7b",
                "2": "e28d1d32e336afe9293ba7244baf7e50b1fc38a1ebc3dca6c9e2b916bd14e7f5",
                "3": "06158fd56e32428a9fb34f01c0ec106f618dca9dcbb7b569e0e1bab3afa4c53d",
            },
        },
        "load": {
            "modeled_hosts": 8000, "moves_cross": 3292, "moves_local": 12708,
            "signaling_by_level": {"0": 16000, "1": 3292, "2": 2215},
            "signaling_units": 21507, "updates_in": 3277, "updates_out": 3292,
        },
    },
}


class TestPinnedLoad:
    @pytest.mark.parametrize("seed", sorted(PINNED_LOAD))
    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_fingerprint_and_load_match_pins(self, four_cpus, seed, workers):
        pytest.importorskip("numpy")  # the pins come from the numpy planner
        result = run_partitioned(partition_load_spec(4, 2000, seed=seed), workers=workers)
        pinned = PINNED_LOAD[seed]
        assert result.fingerprint() == pinned["fingerprint"]
        assert result.load_merged() == pinned["load"]
        assert result.events == pinned["events"]
        assert result.runners == max(workers, 1)


# ----------------------------------------------------------------------
# Runner groups
# ----------------------------------------------------------------------
class TestRunnerGroups:
    @pytest.mark.parametrize(
        "n, workers, cpus, groups",
        [
            (4, 0, 2, [[0, 1, 2, 3]]),
            (4, 1, 8, [[0, 1, 2, 3]]),
            (4, 2, 8, [[0, 1], [2, 3]]),
            (4, 4, 2, [[0, 1], [2, 3]]),
            (4, 4, 8, [[0], [1], [2], [3]]),
            (5, 2, 2, [[0, 1], [2, 3, 4]]),
            (3, 8, 1, [[0, 1, 2]]),
        ],
    )
    def test_groups_are_contiguous_and_cpu_capped(
        self, monkeypatch, n, workers, cpus, groups
    ):
        monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
        assert engine.runner_groups(n, workers) == groups

    def test_usable_cpus_is_positive(self):
        assert engine.usable_cpus() >= 1

    def test_one_runner_still_forks_one_worker(self, monkeypatch):
        monkeypatch.setattr(engine, "usable_cpus", lambda: 1)
        started = []
        original = engine._ParallelPartition.__init__

        def spy(self, spec, indices):
            started.append(list(indices))
            original(self, spec, indices)

        monkeypatch.setattr(engine._ParallelPartition, "__init__", spy)
        serial = run_partitioned(partition_handoff_spec(), workers=4)
        assert started == [[0, 1, 2, 3]]
        assert serial.runners == 1 and serial.workers == 4
        assert serial.fingerprint() == run_partitioned(
            partition_handoff_spec(), workers=0
        ).fingerprint()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_partitioned(partition_handoff_spec(), workers=-3)
        assert multiprocessing.active_children() == []


class TestWorkerCleanup:
    @pytest.fixture(autouse=True)
    def _reap(self):
        """If a test here fails, end the workers it leaked so the suite
        fails instead of waiting on them at exit."""
        yield
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=10)

    @staticmethod
    def _fail_build(monkeypatch, failing):
        original = PartitionRuntime.__init__

        def build(self, spec, model=None, index=0):
            if index == failing:
                raise RuntimeError(f"partition {index} refuses to build")
            original(self, spec, model, index)

        monkeypatch.setattr(PartitionRuntime, "__init__", build)

    def test_worker_build_failure_joins_every_worker(self, monkeypatch, four_cpus):
        # Four runners: partitions 1..3 each in a worker (fork inherits
        # the patch); partition 3's fails while the others are running.
        self._fail_build(monkeypatch, 3)
        with pytest.raises(SimulationError, match="refuses to build"):
            run_partitioned(partition_handoff_spec(), workers=4)
        assert multiprocessing.active_children() == []

    def test_local_build_failure_joins_every_worker(self, monkeypatch, four_cpus):
        self._fail_build(monkeypatch, 0)
        with pytest.raises(RuntimeError, match="refuses to build"):
            run_partitioned(partition_handoff_spec(), workers=2)
        assert multiprocessing.active_children() == []


class TestSyncCost:
    def test_compute_and_barrier_wait_are_reported(self, four_cpus):
        result = run_partitioned(partition_handoff_spec(), workers=2)
        assert result.runners == 2
        assert len(result.compute_seconds) == result.partitions
        assert all(seconds > 0 for seconds in result.compute_seconds)
        assert result.barrier_wait_seconds >= 0

    def test_timings_stay_out_of_fingerprint_and_counters(self):
        from repro.backend import run

        result = run(partition_handoff_spec(), backend="partitioned", workers=0)
        assert set(result.trace) == {"trace", "health", "mobile_state"}
        for key in result.counters:
            assert "seconds" not in key and "wait" not in key
