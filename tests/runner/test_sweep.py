"""Determinism under parallelism for the sweep engine.

The runner's contract: a point's result is a pure function of the
point, so serial, 1-worker and 4-worker execution of the same points
must agree byte-for-byte — same throughput, same doctor report, same
canonical-trace digest (:func:`repro.telemetry.analysis.diff_traces`
is the structural enforcement tool from the trace-diff layer).
"""

import pytest

from repro.runner import (ExperimentPoint, PointResult, TopologySpec,
                          run_point, run_sweep, scheme_sweep, trace_digest)
from repro.telemetry.analysis import diff_traces
from repro.topology.builder import fig1_topology, random_t_topology

HORIZON_US = 100_000.0
WARMUP_US = 20_000.0


def _points(n_topologies=1):
    return [
        ExperimentPoint(
            scheme=scheme, seed=100 + i,
            topology=TopologySpec(random_t_topology, (6, 2),
                                  {"seed": 100 + i}),
            label=f"{scheme}:{i}", horizon_us=HORIZON_US,
            warmup_us=WARMUP_US,
            run_kwargs={"downlink_mbps": 10.0, "uplink_mbps": 4.0})
        for i in range(n_topologies) for scheme in ("dcf", "domino")
    ]


@pytest.fixture(scope="module")
def serial_parallel():
    """One traced sweep run serially, with 1 worker, and with 4."""
    points = _points()
    return {
        workers: run_sweep(points, workers=workers, trace=True,
                           keep_traces=True)
        for workers in (0, 1, 4)
    }


class TestDeterminismUnderParallelism:
    def test_trace_digests_identical(self, serial_parallel):
        serial = serial_parallel[0]
        for workers in (1, 4):
            assert serial_parallel[workers].digests() == serial.digests()
        assert all(d is not None for d in serial.digests())

    def test_throughput_delay_fairness_identical(self, serial_parallel):
        serial = serial_parallel[0]
        for workers in (1, 4):
            for a, b in zip(serial.points, serial_parallel[workers].points):
                assert b.aggregate_mbps == a.aggregate_mbps
                assert b.mean_delay_us == a.mean_delay_us
                assert b.fairness == a.fairness
                assert b.events_processed == a.events_processed
                assert b.flows == a.flows

    def test_structural_diff_identical(self, serial_parallel):
        for a, b in zip(serial_parallel[0].points,
                        serial_parallel[4].points):
            assert diff_traces(a.trace_records, b.trace_records).identical

    def test_doctor_reports_identical(self, serial_parallel):
        for a, b in zip(serial_parallel[0].points,
                        serial_parallel[4].points):
            assert b.doctor().render() == a.doctor().render()

    def test_digest_matches_records(self, serial_parallel):
        point = serial_parallel[4].points[0]
        assert trace_digest(point.trace_records) == point.trace_digest


class TestSweepResult:
    def test_submission_order_preserved(self, serial_parallel):
        labels = [p.label for p in serial_parallel[4].points]
        assert labels == [p.label for p in _points()]

    def test_by_label(self, serial_parallel):
        by_label = serial_parallel[0].by_label()
        assert set(by_label) == {"dcf:0", "domino:0"}
        assert by_label["domino:0"].scheme == "domino"

    def test_flow_summaries_sum_to_aggregate(self, serial_parallel):
        for point in serial_parallel[0].points:
            total = sum(f.mbps for f in point.flows)
            assert total == pytest.approx(point.aggregate_mbps)

    def test_merged_metrics_sum_counters(self, serial_parallel):
        sweep = serial_parallel[0]
        merged = sweep.merged_metrics()
        name = "medium.airtime_us"
        assert merged[name] == pytest.approx(sum(
            p.metrics[name] for p in sweep.points))

    def test_events_per_sec_positive(self, serial_parallel):
        sweep = serial_parallel[0]
        assert sweep.total_events > 0
        assert sweep.events_per_sec > 0

    def test_domino_points_report_cache_activity(self, serial_parallel):
        domino = serial_parallel[0].by_label()["domino:0"]
        dcf = serial_parallel[0].by_label()["dcf:0"]
        assert domino.cache_hits + domino.cache_misses > 0
        assert dcf.cache_hits == dcf.cache_misses == 0


class TestRunPoint:
    def test_untraced_point_has_no_digest(self):
        point = run_point(_points()[0])
        assert point.trace_digest is None
        assert point.metrics is None
        assert point.trace_records is None
        assert point.aggregate_mbps > 0
        assert point.wall_s > 0

    def test_traced_point_drops_records_unless_kept(self):
        point = run_point(_points()[0], trace=True)
        assert point.trace_digest is not None
        assert point.metrics is not None
        assert point.trace_records is None
        with pytest.raises(ValueError):
            point.doctor()

    def test_flow_mbps_accepts_links_and_tuples(self, serial_parallel):
        point = serial_parallel[0].points[0]
        flow = point.flows[0].flow
        assert point.flow_mbps(flow) == point.flows[0].mbps
        assert point.flow_mbps((-1, -2)) == 0.0


class TestPointResultJson:
    @pytest.mark.parametrize(
        "legacy",
        [{}, {"engine": "matrix"},
         {"phases": {"build_ms": 1.0, "run_ms": 2.0, "reduce_ms": 0.5}}],
        ids=["current", "legacy_engine_key", "legacy_phases_key"])
    def test_from_json_roundtrips(self, serial_parallel, legacy):
        # Older result files may carry an "engine" key (written before
        # the single-engine simulator) or a "phases" key (the removed
        # build/run/reduce timer); both are ignored, not rejected.
        point = serial_parallel[0].points[0]
        clone = PointResult.from_json({**point.to_json(), **legacy})
        assert clone.to_json() == point.to_json()


class TestSchemeSweep:
    def test_builds_one_point_per_scheme(self):
        points = scheme_sweep(("dcf", "domino"), TopologySpec(fig1_topology),
                              horizon_us=HORIZON_US, seed=7,
                              label_prefix="fig1:", saturated=True)
        assert [p.label for p in points] == ["fig1:dcf", "fig1:domino"]
        assert all(p.seed == 7 for p in points)
        assert all(p.run_kwargs == {"saturated": True} for p in points)
        # each point owns its kwargs dict
        points[0].run_kwargs["saturated"] = False
        assert points[1].run_kwargs["saturated"] is True
