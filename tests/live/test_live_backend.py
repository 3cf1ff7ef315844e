"""The live asyncio-UDP backend: unit pieces plus the loopback smoke.

The full-corpus live conformance run is the CI ``live-smoke`` job
(``python -m repro live <scenario> --conformance``); tier-1 keeps one
real end-to-end run — the Figure-1 walkthrough over actual loopback
sockets, diffed against the simulator — plus fast unit tests for the
clock and the port directory.
"""

import asyncio

import pytest

from repro import backend
from repro.live.backend import DEFAULT_SPEED, LiveRun, VirtualClock
from repro.wire.conformance import (
    backend_run_from_events,
    check_spec,
    figure1_walkthrough_spec,
)


class TestVirtualClock:
    def test_speed_must_be_positive(self):
        loop = asyncio.new_event_loop()
        try:
            with pytest.raises(ValueError):
                VirtualClock(loop, speed=0)
            with pytest.raises(ValueError):
                VirtualClock(loop, speed=-1)
        finally:
            loop.close()

    def test_wall_delay_scales_and_clamps(self):
        loop = asyncio.new_event_loop()
        try:
            clock = VirtualClock(loop, speed=20.0)
            assert clock.wall_delay(2.0) == pytest.approx(0.1)
            assert clock.wall_delay(-5.0) == 0.0  # never negative
        finally:
            loop.close()

    def test_now_advances_with_wall_time(self):
        loop = asyncio.new_event_loop()
        try:
            clock = VirtualClock(loop, speed=100.0)

            async def probe():
                clock.start()
                first = clock.now()
                await asyncio.sleep(0.01)
                return first, clock.now()

            first, later = loop.run_until_complete(probe())
            assert first < later
            assert later >= 1.0  # 0.01 s wall at 100x
        finally:
            loop.close()


class TestLiveRun:
    def test_clock_is_zero_before_start(self):
        run = LiveRun(figure1_walkthrough_spec())
        assert run.now == 0.0


class TestLiveFlowSmoke:
    """Transport flows and convergence probes over the live backend (the
    PR 6 ROADMAP follow-up): a CBR flow and a probe pair ride the
    Figure-1 walkthrough over real loopback sockets, and every datagram
    lands in the mobile host's transport sinks."""

    def test_flow_and_probe_datagrams_delivered_live(self):
        spec = figure1_walkthrough_spec()
        # M sits registered on net D from t=5 to t=20: the flow's five
        # datagrams (8.0..10.0) and none of the walkthrough's moves
        # overlap, so any loss would be a transport-path bug, not a
        # handoff race.  The probe pair (24.0 and 24.0 + PROBE_GAP)
        # lands while M is settled on net E.
        spec.flows = [
            {"start": 8.0, "src": 0, "host": 0, "interval": 0.5, "count": 5},
        ]
        spec.probes = [{"t": 24.0, "src": 0, "host": 0}]
        run = backend.run(spec, "live", speed=DEFAULT_SPEED).detail
        mh = run.topo.mobile_host(0)
        assert mh.flow_datagrams == 5
        assert mh.probes_received == 2
        assert run.topo.correspondent(0).probes_sent == 2


class TestLoopbackSmoke:
    """One real run over loopback UDP, shared across the assertions."""

    @pytest.fixture(scope="class")
    def finished(self):
        run = backend.run(
            figure1_walkthrough_spec(), "live", speed=DEFAULT_SPEED
        ).detail
        return run, run.feed.health

    def test_every_interface_got_its_own_port(self, finished):
        run, _ = finished
        ports = [port for _, port in run._endpoints.values()]
        assert len(ports) == len(set(ports))
        assert len(ports) >= 12  # the Figure-1 world's interfaces

    def test_datagrams_actually_crossed_sockets(self, finished):
        run, _ = finished
        assert run.datagrams_sent > 0
        assert run.datagrams_received == run.datagrams_sent

    def test_clock_is_capped_at_the_horizon(self, finished):
        run, _ = finished
        assert run.now == run.horizon
        assert all(t <= run.horizon for t, _ in run.events)

    def test_walkthrough_conforms_to_simulator(self, finished):
        run, health = finished
        candidate = backend_run_from_events(
            "live", (event for _, event in run.events), health=health
        )
        report = check_spec(run.spec, candidate=candidate)
        assert report.ok, report.render()

    def test_health_counts_match_the_walkthrough(self, finished):
        _, health = finished
        summary = health.summary()
        assert summary["moves"] == 3
        assert summary["registrations"] == 2
        assert summary["loops_dissolved"] == 0


class TestVirtualClockDrift:
    def test_note_lag_converts_to_virtual_seconds(self):
        loop = asyncio.new_event_loop()
        try:
            clock = VirtualClock(loop, speed=20.0)
            assert clock.note_lag(0.05) == pytest.approx(1.0)
            assert clock.drift_virtual == pytest.approx(1.0)
            clock.note_lag(0.01)
            assert clock.drift_virtual == pytest.approx(0.2)
            assert clock.max_drift_virtual == pytest.approx(1.0)
            assert clock.note_lag(-0.5) == 0.0  # early is not drift
        finally:
            loop.close()


class TestRuntimeSampler:
    def test_sampler_runs_and_prunes_timer_wheel(self):
        run = backend.run(figure1_walkthrough_spec(), "live", speed=40.0).detail
        assert run.runtime_samples >= 2
        assert run.drift_warnings == 0
        # The sampler pruned fired handles; the wheel never holds the
        # full schedule's worth of dead entries at the end.
        assert len(run._handles) < 30

    def test_sustained_drift_logs_a_warning(self, caplog):
        import logging

        spec = figure1_walkthrough_spec()
        run = LiveRun(spec, speed=40.0, drift_warn_virtual=0.0,
                      drift_warn_samples=2)
        with caplog.at_level(logging.WARNING, logger="repro.live"):
            asyncio.run(run.main())
        assert run.drift_warnings >= 1
        assert any(
            "virtual clock slipping" in record.message
            for record in caplog.records
        )

    def test_snapshot_stream_rows_are_monotonic(self, tmp_path):
        import json

        from repro.obs import ObsPlane

        path = tmp_path / "snap.jsonl"
        run = backend.run(
            figure1_walkthrough_spec(), "live", speed=40.0, obs=ObsPlane(),
            snapshot_path=str(path),
        ).detail
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == run.runtime_samples
        times = [row["t_virtual"] for row in rows]
        assert times == sorted(times)
        assert rows[-1]["datagrams_sent"] > 0
        assert rows[-1]["spans"] == 41

    def test_endpoint_counters_only_when_attached(self):
        from repro.obs import ObsPlane

        detached = backend.run(
            figure1_walkthrough_spec(), "live", speed=40.0
        ).detail
        assert detached._endpoint_counters == {}
        obs = ObsPlane()
        attached = backend.run(
            figure1_walkthrough_spec(), "live", speed=40.0, obs=obs
        ).detail
        assert attached._endpoint_counters
        snapshot = obs.metrics.snapshot()
        rx = sum(
            v for k, v in snapshot["counters"].items()
            if k.startswith("live_datagrams_total") and "direction=rx" in k
        )
        assert rx == attached.datagrams_received
