"""Unit tests for the deterministic engine driver."""

from repro.backend import run
from repro.ip.address import IPAddress
from repro.wire.conformance import figure1_walkthrough_spec
from repro.wire.driver import EngineDriver
from repro.wire.engine import Datagram, EngineOutput
from repro.wire.topo import build_engine_world


def figure1_driver(**kwargs):
    return EngineDriver(build_engine_world({"kind": "figure1"}), **kwargs)


class TestBootAndScheduling:
    def test_boot_turn_starts_the_advertisers(self):
        """The simulator starts periodic advertisers at construction; the
        driver's boot turn must reproduce that (first broadcasts go out
        immediately, the periodic timers are armed)."""
        driver = figure1_driver()
        # The periodic advertiser timers (R2's HA, R4/R5's FAs) are armed
        # by the boot turn itself.
        assert sorted(a[1] for _, _, a in driver._heap if a[0] == "timer") == [
            "R2", "R4", "R5",
        ]
        # Once someone is listening on the home cell, adverts arrive.
        driver.schedule_move(0.0, 0, -1)
        driver.run(until=5.0)
        assert driver.datagrams_delivered > 0

    def test_run_lands_exactly_on_until(self):
        driver = figure1_driver()
        driver.run(until=3.5)
        assert driver.now == 3.5
        driver.run(until=3.5)  # idempotent when nothing is due
        assert driver.now == 3.5

    def test_clock_never_goes_backwards(self):
        driver = figure1_driver()
        driver.run(until=2.0)
        stamps = [t for t, _ in driver.events]
        assert stamps == sorted(stamps)

    def test_detached_interface_send_is_unresolved(self):
        """Bits sent out a detached interface go nowhere (a retransmit
        racing a disconnect) — counted, never raised."""
        driver = figure1_driver()
        mh = driver.topo.mobile_host(0)  # M starts detached
        out = EngineOutput()
        out.datagrams.append(Datagram(
            data=b"\x00", iface=mh.WIFI, next_hop=IPAddress("10.2.0.254"),
        ))
        before = driver.datagrams_unresolved
        driver.process(mh, out)
        assert driver.datagrams_unresolved == before + 1

    def test_stale_timer_generation_is_discarded(self):
        """Re-arming a (node, key) timer invalidates queued fires."""
        driver = figure1_driver()
        node = next(iter(driver.world.nodes.values()))
        fired = []
        from repro.wire.engine import TimerOp

        def arm(delay):
            out = EngineOutput()
            node._timers["unit-test"] = lambda: fired.append(driver.now)
            out.timers.append(TimerOp(key="unit-test", delay=delay))
            driver.process(node, out)

        arm(1.0)
        arm(2.0)  # supersedes: the 1.0 s fire must be discarded
        driver.run(until=5.0)
        assert fired == [2.0]

    def test_spec_flow_reaches_the_mobile_host(self):
        """A scenario ``flow`` entry drives the correspondent engine's
        CBR endpoint; every datagram lands in the mobile host's UDP
        sink."""
        spec = figure1_walkthrough_spec()
        spec.flows = [
            {"start": 8.0, "src": 0, "host": 0, "interval": 0.5, "count": 6},
        ]
        driver = figure1_driver()
        driver.install_spec(spec)
        driver.run(until=spec.horizon)
        assert driver.topo.mobile_host(0).flow_datagrams == 6

    def test_spec_probe_reaches_the_mobile_host(self):
        """A ``probe`` entry sends the warm probe at t and the audited
        one at t + PROBE_GAP, both landing in the probe sink."""
        spec = figure1_walkthrough_spec()
        spec.probes = [{"t": 8.0, "src": 0, "host": 0}]
        driver = figure1_driver()
        driver.install_spec(spec)
        driver.run(until=spec.horizon)
        assert driver.topo.correspondent(0).probes_sent == 2
        assert driver.topo.mobile_host(0).probes_received == 2


class TestWalkthrough:
    def test_figure1_health_counts(self):
        summary = run(figure1_walkthrough_spec(), backend="engine").health
        assert summary["moves"] == 3          # home, netD, netE
        assert summary["registrations"] == 2  # one per foreign cell
        assert summary["loops_dissolved"] == 0
        assert summary["packets_delivered"] > 0

    def test_figure1_echo_replies_observed(self):
        driver = run(figure1_walkthrough_spec(), backend="engine").detail
        replies = [
            event for _, event in driver.events
            if event.category == "icmp.echo"
            and event.detail.get("event") == "reply-received"
        ]
        assert len(replies) == 3  # the three scheduled pings round-trip

    def test_two_runs_are_identical(self):
        """Same spec, two drivers: byte-identical event streams (the
        (time, sequence) heap tiebreak makes execution deterministic)."""
        def fingerprint():
            driver = run(figure1_walkthrough_spec(), backend="engine").detail
            return [
                (t, e.category, e.node, sorted(
                    (k, str(v)) for k, v in e.detail.items()
                ))
                for t, e in driver.events
            ]

        assert fingerprint() == fingerprint()


class TestSnapshots:
    def test_role_state_round_trips(self):
        """state_dict()/load_state() (the PR 5 snapshot contract) still
        round-trips on the engine roles mid-scenario."""
        driver = run(figure1_walkthrough_spec(), backend="engine").detail
        fresh = build_engine_world({"kind": "figure1"})
        checked = 0
        for name, router in driver.topo.roles.items():
            for role in ("cache_agent", "foreign_agent", "home_agent"):
                agent = getattr(router, role)
                if agent is None:
                    continue
                twin = getattr(fresh.roles[name], role)
                state = agent.state_dict()
                twin.load_state(state)
                assert twin.state_dict() == state, (name, role)
                checked += 1
        assert checked > 0


class TestLocalQueryRecovery:
    """Section 5.2 in ``believe_home_agent=False`` mode, on the engine
    substrate: the rebooted foreign agent refuses to trust the home
    agent's update and instead proves the host's presence with a local
    query (an ICMP echo probe on the wire backends) before re-adding
    the visitor.  Mirrors tests/core's ``test_verify_with_query_mode``
    with the advertisement-driven recovery suppressed, so the
    data-driven path is what we observe."""

    def test_engine_fa_verifies_with_local_query(self):
        topo = build_engine_world({
            "kind": "figure1", "believe_home_agent": False,
        })
        driver = EngineDriver(topo)
        mh = topo.mobile_host(0)
        sender = topo.correspondent(0)
        r4 = topo.world.nodes["R4"]
        fa = topo.roles["R4"].foreign_agent
        assert fa.believe_home_agent is False
        # Attach M to net D and prime S's cache so it keeps tunneling
        # to R4 after the crash.
        driver.schedule_move(0.0, 0, 0)
        driver.schedule_ping(5.0, 0, 0)
        driver.run(until=10.0)
        assert fa.is_serving(mh.home_address)
        # Crash/reboot R4 with the advertiser muted (the reboot turn's
        # fresh-boot-id broadcast is dropped before transmission) so
        # the advertisement-driven half of Section 5.2 cannot race the
        # data-driven one.
        fa.advertiser.stop()
        driver.process(r4, r4.command(driver.now, "crash"))
        driver.run(until=12.0)
        reboot_out = r4.command(driver.now, "reboot")
        reboot_out.datagrams.clear()
        fa.advertiser.stop()
        driver.process(r4, reboot_out)
        assert not fa.is_serving(mh.home_address)
        # S tunnels into the void: R4 bounces to the home agent, the
        # update comes back, and the FA probes instead of believing it.
        driver.process(
            sender, sender.command(driver.now, "ping", dst=mh.home_address)
        )
        driver.run(until=30.0)
        assert topo.roles["R2"].home_agent.recoveries >= 1
        # The probe's echo reply proved presence on net D...
        assert fa.port.neighbor_known(fa.local_iface_name, mh.home_address)
        # ...so the visitor came back, via the query path.
        assert fa.is_serving(mh.home_address)
        recovered = [
            event for _, event in driver.events
            if event.detail.get("event") == "fa-recover-visitor"
        ]
        assert len(recovered) == 1
        # And the next packet is delivered normally end-to-end.
        replies_before = len([
            e for _, e in driver.events
            if e.category == "icmp.echo"
            and e.detail.get("event") == "reply-received"
        ])
        driver.process(
            sender, sender.command(driver.now, "ping", dst=mh.home_address)
        )
        driver.run(until=35.0)
        replies_after = len([
            e for _, e in driver.events
            if e.category == "icmp.echo"
            and e.detail.get("event") == "reply-received"
        ])
        assert replies_after == replies_before + 1
