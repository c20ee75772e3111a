"""Unit tests for the jittery wired backbone."""

import statistics

import pytest

from repro.sim.engine import Simulator
from repro.sim.wire import WiredBackbone


def _wired_pair(mean=285.0, std=22.0, seed=7):
    sim = Simulator(seed=1)
    wire = WiredBackbone(sim, mean_us=mean, std_us=std, seed=seed)
    inbox = []
    wire.register(0, lambda src, msg: inbox.append((sim.now, src, msg)))
    return sim, wire, inbox


def test_message_arrives_with_latency():
    sim, wire, inbox = _wired_pair()
    latency = wire.send(WiredBackbone.SERVER_ID, 0, {"hello": 1})
    sim.run(until=10_000.0)
    assert len(inbox) == 1
    arrival, src, msg = inbox[0]
    assert arrival == pytest.approx(latency)
    assert src == WiredBackbone.SERVER_ID
    assert msg == {"hello": 1}


def test_latency_distribution_matches_parameters():
    sim, wire, _ = _wired_pair(mean=285.0, std=22.0)
    samples = [wire.latency_sample_us() for _ in range(2000)]
    assert statistics.mean(samples) == pytest.approx(285.0, abs=3.0)
    assert statistics.stdev(samples) == pytest.approx(22.0, abs=3.0)


def test_latency_never_below_minimum():
    sim, wire, _ = _wired_pair(mean=5.0, std=50.0)
    assert min(wire.latency_sample_us() for _ in range(500)) >= wire.min_us


def test_jitter_can_reorder_messages():
    sim = Simulator(seed=3)
    wire = WiredBackbone(sim, mean_us=100.0, std_us=60.0, seed=11)
    order = []
    wire.register(0, lambda src, msg: order.append(msg))
    for i in range(50):
        wire.send(-1, 0, i)
    sim.run(until=100_000.0)
    assert sorted(order) == list(range(50))
    assert order != list(range(50))  # at least one reorder at this seed


def test_unknown_endpoint_raises():
    sim, wire, _ = _wired_pair()
    with pytest.raises(KeyError):
        wire.send(0, 99, "nope")


def test_duplicate_registration_rejected():
    sim, wire, _ = _wired_pair()
    with pytest.raises(ValueError):
        wire.register(0, lambda src, msg: None)


def test_stats_accumulate():
    sim, wire, _ = _wired_pair()
    for _ in range(10):
        wire.send(-1, 0, None)
    assert wire.stats.messages == 10
