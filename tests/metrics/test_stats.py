"""Tests for throughput/delay/fairness accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.stats import FlowRecorder, jain_index
from repro.sim.packet import data_frame
from repro.topology.links import Link


def test_jain_known_values():
    assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    assert jain_index([2.0, 4.0]) == pytest.approx(36.0 / (2 * 20))
    assert jain_index([]) == 0.0
    assert jain_index([0.0, 0.0]) == 0.0


@given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1,
                max_size=30))
def test_property_jain_bounds(values):
    index = jain_index(values)
    assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


def test_recorder_counts_per_flow():
    recorder = FlowRecorder([(0, 1), (2, 3)])
    frame = data_frame(0, 1, 512, 0, enqueued_at=100.0)
    recorder.on_delivery(frame, now=600.0)
    recorder.on_delivery(data_frame(2, 3, 256, 0, 0.0), now=700.0)
    recorder.on_delivery(data_frame(8, 9, 512, 0, 0.0), now=800.0)  # untracked
    assert recorder.records[(0, 1)].packets == 1
    assert recorder.records[(0, 1)].payload_bytes == 512
    assert recorder.records[(2, 3)].payload_bytes == 256
    assert set(recorder.records) == {(0, 1), (2, 3)}


def test_recorder_accepts_link_keys():
    recorder = FlowRecorder([Link(0, 1)])
    recorder.on_delivery(data_frame(0, 1, 512, 0, 0.0), now=10.0)
    assert recorder.records[(0, 1)].packets == 1


def test_warmup_discards_early_deliveries():
    recorder = FlowRecorder([(0, 1)], warmup_us=1000.0)
    recorder.on_delivery(data_frame(0, 1, 512, 0, 0.0), now=500.0)
    recorder.on_delivery(data_frame(0, 1, 512, 1, 0.0), now=1500.0)
    assert recorder.records[(0, 1)].packets == 1


def test_throughput_math():
    recorder = FlowRecorder([(0, 1)])
    for i in range(10):
        recorder.on_delivery(data_frame(0, 1, 512, i, 0.0), now=100.0 * i)
    # 10 * 512 * 8 bits over 1e6 us = 0.04096 Mbps.
    assert recorder.flow_throughput_mbps((0, 1), 1_000_000.0) == \
        pytest.approx(0.04096)
    assert recorder.aggregate_throughput_mbps(1_000_000.0) == \
        pytest.approx(0.04096)


def test_delay_metrics():
    recorder = FlowRecorder([(0, 1), (2, 3)])
    recorder.on_delivery(data_frame(0, 1, 512, 0, enqueued_at=0.0), now=100.0)
    recorder.on_delivery(data_frame(0, 1, 512, 1, enqueued_at=0.0), now=300.0)
    recorder.on_delivery(data_frame(2, 3, 512, 0, enqueued_at=0.0), now=1000.0)
    # per-link mean: ((100+300)/2 + 1000)/2 = 600
    assert recorder.mean_delay_us() == pytest.approx(600.0)
    assert recorder.records[(0, 1)].delays_us == [100.0, 300.0]


def test_fairness_over_flows():
    recorder = FlowRecorder([(0, 1), (2, 3)])
    for i in range(4):
        recorder.on_delivery(data_frame(0, 1, 512, i, 0.0), now=10.0)
    for i in range(1):
        recorder.on_delivery(data_frame(2, 3, 512, i, 0.0), now=10.0)
    expected = jain_index([4.0, 1.0])
    assert recorder.fairness(1000.0) == pytest.approx(expected)


def test_empty_recorder_safe():
    recorder = FlowRecorder([(0, 1)])
    assert recorder.aggregate_throughput_mbps(1000.0) == 0.0
    assert recorder.mean_delay_us() == 0.0
    assert recorder.fairness(1000.0) == 0.0
