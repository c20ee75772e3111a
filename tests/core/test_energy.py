"""Tests for Sec. 5 energy saving: scheduled client sleep."""

import pytest

from repro.core import ControllerConfig, build_domino_network
from repro.core.energy import (EnergyAccountant, involvement_slots,
                               sleep_windows)
from repro.core.relative_schedule import (RelativeBatch, RelativeSlot,
                                          SlotEntry, TriggerDuty)
from repro.metrics.stats import FlowRecorder
from repro.sim.engine import Simulator
from repro.topology.builder import fig1_topology
from repro.topology.links import Link
from repro.traffic.udp import SaturatedSource


def make_batch():
    """Six slots; client 9 (of AP 8) involved in slots 0 and 5 only."""
    slots = []
    for index in range(6):
        entries = [SlotEntry(link=Link(20, 21))]
        if index in (0, 5):
            entries.append(SlotEntry(link=Link(8, 9)))
        slots.append(RelativeSlot(index=index, entries=entries))
    return RelativeBatch(batch_id=0, slots=slots)


class TestPlanning:
    def test_involvement_from_entries(self):
        involved = involvement_slots(make_batch(), client=9, ap_id=8)
        assert involved == {0, 5}

    def test_duty_extends_involvement(self):
        batch = make_batch()
        batch.duties[(9, 2)] = TriggerDuty(node=9, slot=2,
                                           targets=frozenset({20}))
        involved = involvement_slots(batch, client=9, ap_id=8)
        assert {2, 3} <= involved

    def test_trigger_target_involvement(self):
        batch = make_batch()
        batch.duties[(20, 3)] = TriggerDuty(node=20, slot=3,
                                            targets=frozenset({9}))
        involved = involvement_slots(batch, client=9, ap_id=8)
        assert {3, 4} <= involved

    def test_poll_involvement(self):
        batch = make_batch()
        batch.rop_polls[2] = [8]
        involved = involvement_slots(batch, client=9, ap_id=8)
        assert {2, 3} <= involved
        # A different AP's poll does not wake this client.
        assert 2 not in involvement_slots(batch, client=9, ap_id=99)

    def test_sleep_windows_cover_gaps(self):
        windows = sleep_windows(make_batch(), client=9, ap_id=8)
        assert windows == [(1, 4)]

    def test_short_gaps_not_worth_sleeping(self):
        batch = make_batch()
        batch.slots[2].entries.append(SlotEntry(link=Link(8, 9)))
        windows = sleep_windows(batch, client=9, ap_id=8,
                                min_gap_slots=3)
        assert windows == []

    def test_uninvolved_client_sleeps_whole_batch(self):
        windows = sleep_windows(make_batch(), client=77, ap_id=76)
        assert windows == [(0, 5)]


def test_accountant():
    accountant = EnergyAccountant(horizon_us=1000.0)
    accountant.record(9, 250.0)
    accountant.record(9, 250.0)
    assert accountant.sleep_fraction(9) == pytest.approx(0.5)
    assert accountant.sleep_fraction(8) == 0.0


def test_integration_idle_client_sleeps_without_hurting_others():
    """C3 (node 5) has no traffic of its own on Fig. 1 when its flows
    are excluded; declared energy-constrained, it should spend real
    time asleep while the rest of the network is unaffected."""
    horizon = 400_000.0

    def run(constrained):
        topology = fig1_topology()
        # Only two flows — C3's pair idles except for polls and the
        # fake-link insertions involving it.
        topology.flows = [Link(0, 1), Link(3, 2)]
        sim = Simulator(seed=1)
        config = ControllerConfig(
            energy_constrained=frozenset(constrained))
        net = build_domino_network(sim, topology, config=config)
        recorder = FlowRecorder(topology.flows, warmup_us=40_000)
        recorder.attach_all(net.macs.values())
        for flow in topology.flows:
            SaturatedSource(sim, net.macs[flow.src], flow.dst).start()
        net.controller.start()
        sim.run(until=horizon)
        return net, recorder

    baseline_net, baseline_rec = run(constrained=())
    sleepy_net, sleepy_rec = run(constrained=(5,))

    slept = sleepy_net.macs[5].stats.sleep_us
    assert slept > 0.05 * horizon          # real sleep happened
    assert baseline_net.macs[5].stats.sleep_us == 0.0
    # Network throughput is not harmed by C3 sleeping.
    assert sleepy_rec.aggregate_throughput_mbps(horizon) > \
        0.95 * baseline_rec.aggregate_throughput_mbps(horizon)


def test_controller_leaves_callers_converter_config_alone():
    """The fake-filler exclusion goes to the controller's own copy of
    the converter config, not into the object the caller passed."""
    config = ControllerConfig(energy_constrained=frozenset({5}))
    net = build_domino_network(Simulator(seed=1), fig1_topology(),
                               config=config)
    assert config.converter.fake_exclude_nodes == frozenset()
    assert net.controller.plane.converter.config.fake_exclude_nodes == \
        frozenset({5})
