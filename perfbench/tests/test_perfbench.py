"""Tests for the benchmark's own code (not the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_of_a_nested_call_tree():
    # root A [0, 10) -> B [1, 4) -> C [2, 3); A -> B [5, 6); A -> C [7, 9)
    names = ["A", "B", "C"]
    layer = [0, 1, 2, 1, 2]
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.0]
    out = dict(zip(names, spans.self_times(layer, parent, start, end, 3)))
    assert out == {"A": 4.0, "B": 3.0, "C": 3.0}
    assert sum(out.values()) == end[0] - start[0]


def test_same_layer_recursion_is_not_counted_twice():
    layer = [0, 0, 0]
    parent = [-1, 0, 1]
    start = [0.0, 1.0, 2.0]
    end = [8.0, 5.0, 3.0]
    assert spans.self_times(layer, parent, start, end, 1) == [8.0]


class _Tree:
    """Three nested calls across two layers, for the recorder."""

    def outer(self):
        time.sleep(0.002)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.001)


def test_recorder_spans_sum_to_the_root_span():
    recorder = spans.SpanRecorder()
    with recorder:
        recorder.patch(f"{__name__}:_Tree.outer", "outer")
        recorder.patch(f"{__name__}:_Tree.inner", "inner")
        _Tree().outer()
    assert recorder.calls() == {"outer": 1, "inner": 2}
    assert list(recorder.parent) == [-1, 0, 0]
    self_s = recorder.self_times()
    root = recorder.end[0] - recorder.start[0]
    assert self_s["outer"] + self_s["inner"] == pytest.approx(root)
    assert self_s["inner"] >= 0.002 and self_s["outer"] >= 0.002


def test_observe_counts_results_outside_the_span():
    recorder = spans.SpanRecorder()

    def observe(counts, args, result):
        counts["claims"] = counts.get("claims", 0) + (result is not None)

    with recorder:
        recorder.patch(f"{__name__}:_claim", "hooks", observe)
        assert [_claim(i) for i in range(4)] == [None, 1, None, 3]
    assert recorder.counts == {"claims": 2}
    assert _claim.__name__ == "_claim" and not hasattr(_claim, spans.WRAPPED_ATTR)


def _claim(value):
    return value if value % 2 else None


# ----------------------------------------------------------------------
# Install / uninstall
# ----------------------------------------------------------------------
def _references():
    """Every attribute a layer target can be reached through: the class
    attribute itself, or each module global holding the function."""
    refs = {}
    for target, _, _ in layers.TARGETS:
        owner, attr = spans.resolve(target)
        if isinstance(owner, type):
            refs[(id(owner), attr)] = (owner, attr, owner.__dict__[attr])
            continue
        function = getattr(owner, attr)
        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                if value is function:
                    refs[(id(module), name)] = (module, name, value)
    return refs


def test_install_wraps_and_uninstall_restores_every_attribute():
    before = _references()
    assert len(before) >= len(layers.TARGETS)
    recorder = layers.install()
    try:
        for owner, attr, original in before.values():
            current = vars(owner)[attr]
            assert current is not original
            assert getattr(current, spans.WRAPPED_ATTR) is original
    finally:
        recorder.uninstall()
    for owner, attr, original in before.values():
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"


def test_uninstall_also_restores_copies_made_while_installed():
    import types

    recorder = spans.SpanRecorder()
    recorder.patch("repro.wire.codec:encode_packet", "wire.codec")
    import repro.wire.codec as codec

    late = types.ModuleType("perfbench_late_import")
    late.encode_packet = codec.encode_packet  # a `from ... import` meanwhile
    sys.modules[late.__name__] = late
    try:
        recorder.uninstall()
        assert late.encode_packet is codec.encode_packet
        assert not hasattr(codec.encode_packet, spans.WRAPPED_ATTR)
    finally:
        del sys.modules[late.__name__]


# ----------------------------------------------------------------------
# Workload generators and operation accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_spec_json_is_a_pure_function_of_the_seed(workload):
    from repro.scenario.spec import canonical_json

    def spec_json(seed):
        return canonical_json(scenarios.make_spec(workload, seed).to_dict())

    assert spec_json(3) == spec_json(3)
    assert spec_json(3) != spec_json(4)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_attempted_is_completed_plus_failed(workload):
    spec = scenarios.make_spec(workload, 5, small=True)
    reference = None
    if workload == "partition-load":
        reference = scenarios.run_once(workload, spec, workers=0).result.trace
    rep = scenarios.run_once(workload, spec, reference=reference)
    assert rep.problems == []
    assert rep.attempted == scenarios.attempted_ops(workload, spec) > 0
    assert rep.attempted == rep.completed + rep.failed
    assert rep.setup_s > 0 and rep.run_s > 0


def test_a_failed_check_fails_every_operation():
    rep = scenarios.Rep(setup_s=0.1, run_s=1.0, wall_s=1.1, attempted=10, completed=9)
    assert rep.failed == 1
    rep.problems.append("pinned counts differ")
    assert rep.failed == 10


def test_traced_runs_see_every_layer_the_workload_uses():
    spec = scenarios.make_spec("roaming", 5, small=True)
    recorder = layers.install()
    with recorder:
        rep = scenarios.run_once("roaming", spec)
    assert rep.problems == []
    values = layers.layer_metrics(recorder)
    for layer in ("ip", "link", "wire.roles", "transport", "telemetry"):
        assert values[f"{layer}.self_s"] > 0, layer
    assert values["wire.codec.calls"] == 0  # the simulator never encodes
