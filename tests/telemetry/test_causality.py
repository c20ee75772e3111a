"""Critical-path attribution over v3 causal spans.

Acceptance tests for :mod:`repro.telemetry.analysis.causality`:

* **conservation** — per-edge critical waits telescope, so their sum
  equals each batch's root-to-end makespan exactly (fig12 reference
  run and a fig14-style random placement);
* **attribution** — deafen one node's trigger detection (its
  signatures are "dropped") and the report must *re-attribute* that
  node's slots: the signature-detection edges on links into it vanish
  from critical paths, its recovery shifts to poll/self resync, and
  its per-slot critical wait grows.
"""

from collections import Counter

import pytest

from repro import telemetry
from repro.core import TriggerDetectionModel, build_domino_network
from repro.experiments.common import run_scheme
from repro.experiments.fig12_t10_2 import default_topology
from repro.metrics.stats import FlowRecorder
from repro.sim.engine import Simulator
from repro.telemetry.analysis import causality_report, summarize_causality
from repro.topology.builder import random_t_topology
from repro.traffic.udp import SaturatedSource

HORIZON_US = 120_000.0
WARMUP_US = 20_000.0

#: The node whose trigger detection the lossy fixture silences.  A
#: mid-chain AP of the fig12 T(10, 2) reference placement: it executes
#: both primary-triggered and poll-resynced slots when healthy, so the
#: deaf run has something to re-attribute.
VICTIM = 34


def _manual_run(deaf_node=None, seed=1):
    """fig12 reference network, optionally with one deaf node.

    Built by hand (instead of ``run_scheme``) so one MAC's trigger
    model can be swapped after construction, before the run.
    """
    recorder = telemetry.TraceRecorder()
    telemetry.activate(recorder)
    try:
        sim = Simulator(seed=seed)
        topology = default_topology()
        domino = build_domino_network(sim, topology)
        if deaf_node is not None:
            domino.macs[deaf_node].trigger_model = TriggerDetectionModel(
                detection_by_combined={i: 0.0 for i in range(1, 13)})
        flow_recorder = FlowRecorder(topology.flows, warmup_us=WARMUP_US)
        flow_recorder.attach_all(domino.macs.values())
        for flow in topology.flows:
            SaturatedSource(sim, domino.macs[flow.src], flow.dst,
                            payload_bytes=512).start()
        domino.controller.start()
        for mac in domino.macs.values():
            mac.start()
        sim.run(until=HORIZON_US)
    finally:
        telemetry.deactivate()
    return recorder.records()


@pytest.fixture(scope="module")
def healthy_records():
    return _manual_run()


@pytest.fixture(scope="module")
def deaf_records():
    return _manual_run(deaf_node=VICTIM)


@pytest.fixture(scope="module")
def healthy_report(healthy_records):
    return causality_report(healthy_records)


def _assert_conserved(report):
    assert report.batches, "run produced no batch chains"
    for chain in report.batches:
        assert chain.attributed_us == pytest.approx(
            chain.makespan_us, rel=1e-9), (
            f"batch {chain.batch}: attributed waits "
            f"{chain.attributed_us} != makespan {chain.makespan_us}")


class TestConservation:
    def test_fig12_attributed_waits_sum_to_makespan(self, healthy_report):
        _assert_conserved(healthy_report)

    def test_fig14_style_random_placement_conserved(self):
        result = run_scheme(
            "domino", random_t_topology(6, 2, seed=7),
            horizon_us=100_000.0, warmup_us=WARMUP_US,
            downlink_mbps=10.0, uplink_mbps=4.0, seed=7, trace=True)
        report = causality_report(result.trace.records())
        _assert_conserved(report)

    def test_edges_are_time_ordered_root_to_terminal(self, healthy_report):
        for chain in healthy_report.batches:
            times = [edge.t_child for edge in chain.edges]
            assert times == sorted(times)
            assert chain.edges[0].parent_id == chain.root_id
            assert chain.edges[-1].child_id == chain.terminal_id
            assert chain.edges[-1].ev == "slot_exec"

    def test_waits_nonnegative(self, healthy_report):
        for chain in healthy_report.batches:
            assert all(edge.wait_us >= 0.0 for edge in chain.edges)

    def test_link_rollup_matches_edge_sum(self, healthy_report):
        total_edges = sum(e.wait_us for c in healthy_report.batches
                          for e in c.edges)
        total_links = sum(healthy_report.total_wait_by_link().values())
        total_steps = sum(healthy_report.total_wait_by_step().values())
        assert total_links == pytest.approx(total_edges)
        assert total_steps == pytest.approx(total_edges)


class TestLossyAttribution:
    """Silencing one node's detections must move the charge, not just
    shrink the report."""

    def _victim_slot_edges(self, report):
        return [e for c in report.batches for e in c.edges
                if e.ev == "slot_exec" and e.link[1] == VICTIM]

    def test_healthy_run_charges_signature_links_into_victim(
            self, healthy_report):
        sig_edges = [e for c in healthy_report.batches for e in c.edges
                     if e.ev == "sig_detect" and e.link[1] == VICTIM]
        assert sig_edges, "victim never primary-triggered when healthy"
        # sig_detect edges carry the dropped link explicitly:
        # (triggering sender -> victim).
        assert all(e.link[0] != VICTIM for e in sig_edges)
        via = Counter(e.via for e in self._victim_slot_edges(healthy_report))
        assert via["primary"] > 0

    def test_deaf_victim_loses_its_signature_links(self, deaf_records):
        report = causality_report(deaf_records)
        _assert_conserved(report)        # attribution stays conserved
        sig_edges = [e for c in report.batches for e in c.edges
                     if e.ev == "sig_detect" and e.link[1] == VICTIM]
        assert sig_edges == []
        via = Counter(e.via for e in self._victim_slot_edges(report))
        assert via["primary"] == 0
        # The slots still run — recovered by poll resync / self chains.
        assert via["poll"] + via["self"] > 0

    def test_slowdown_charged_to_victims_recovery_edges(
            self, healthy_report, deaf_records):
        deaf_report = causality_report(deaf_records)
        healthy = self._victim_slot_edges(healthy_report)
        deaf = self._victim_slot_edges(deaf_report)
        assert healthy and deaf
        healthy_mean = sum(e.wait_us for e in healthy) / len(healthy)
        deaf_mean = sum(e.wait_us for e in deaf) / len(deaf)
        # Losing the primary trigger makes every one of the victim's
        # critical slots wait for the slower resync path.
        assert deaf_mean > 1.3 * healthy_mean


class TestReportShape:
    def test_json_round_trips(self, healthy_report):
        import json
        data = json.loads(json.dumps(healthy_report.to_json(),
                                     sort_keys=True))
        assert data["batches"]
        first = data["batches"][0]
        assert first["attributed_us"] == pytest.approx(
            first["makespan_us"], rel=1e-9)
        assert data["makespan_p95_us"] >= data["makespan_p50_us"]

    def test_render_mentions_critical_waits_and_links(
            self, healthy_report):
        text = healthy_report.render()
        assert "batch chains" in text
        assert "critical wait" in text
        assert "slowest chain" in text

    def test_batch_render_lists_every_edge(self, healthy_report):
        chain = healthy_report.slowest()
        text = chain.render()
        assert f"batch {chain.batch}" in text
        assert len(text.splitlines()) == len(chain.edges) + 2

    def test_summary_is_plain_picklable_data(self, healthy_records):
        import pickle
        summary = summarize_causality(healthy_records)
        assert summary is not None
        assert pickle.loads(pickle.dumps(summary)) == summary
        assert summary["batches"] > 0
        assert summary["makespan_p95_us"] >= summary["makespan_p50_us"]
        assert summary["slowest"]["batch"] >= 0

    def test_spanless_records_summarize_to_none(self):
        records = [{"ev": "slot_exec", "t": 1.0, "node": 1, "slot": 0,
                    "dst": 2, "fake": False}]
        assert summarize_causality(records) is None
        report = causality_report(records)
        assert not report.has_spans
        assert "no causal spans" in report.render()

    def test_doctor_attaches_causality_section(self, healthy_records):
        from repro.telemetry.analysis import diagnose
        report = diagnose(healthy_records)
        assert report.causality is not None
        assert report.causality.batches
        assert "causality" in report.render()
        assert report.to_json()["causality"]["batches"]
