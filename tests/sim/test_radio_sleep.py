"""Tests for the radio power-save path (Sec. 5 energy saving)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.sim.packet import Frame, FrameKind, data_frame
from repro.sim.phy import DOT11G
from repro.sim.radio import Radio


class SinkMac:
    def __init__(self):
        self.received = []
        self.triggers = []

    def on_receive(self, frame, rss_dbm):
        self.received.append(frame)

    def on_receive_failed(self, frame, rss_dbm):
        pass

    def on_trigger(self, frame, *args):
        self.triggers.append(frame)

    def on_queue_report(self, *args):
        pass

    def on_channel_busy(self):
        pass

    def on_channel_idle(self):
        pass

    def on_tx_end(self, frame):
        pass


def build():
    sim = Simulator(seed=1)
    medium = Medium(sim, DOT11G, lambda a, b: -50.0)
    tx = Radio(0, medium)
    rx = Radio(1, medium)
    mac = SinkMac()
    rx.mac = mac
    return sim, tx, rx, mac


def test_sleeping_radio_hears_nothing():
    sim, tx, rx, mac = build()
    rx.sleep_until(1_000.0)
    tx.transmit(data_frame(0, 1, 512, 0, 0.0))
    sim.run(until=2_000.0)
    assert mac.received == []


def test_awake_after_wake_time():
    sim, tx, rx, mac = build()
    rx.sleep_until(100.0)
    sim.run(until=150.0)
    assert not rx.asleep
    tx.transmit(data_frame(0, 1, 512, 0, 0.0))
    sim.run(until=1_000.0)
    assert len(mac.received) == 1


def test_sleep_accounting_accumulates():
    sim, tx, rx, mac = build()
    assert rx.sleep_until(100.0) == pytest.approx(100.0)
    # Extending the same nap only grants the extension.
    assert rx.sleep_until(150.0) == pytest.approx(50.0)
    # Shrinking grants nothing.
    assert rx.sleep_until(120.0) == 0.0
    assert rx.total_sleep_us == pytest.approx(150.0)


def test_transmitting_radio_refuses_sleep():
    sim, tx, rx, mac = build()
    tx.transmit(data_frame(0, 1, 512, 0, 0.0))
    assert tx.sleep_until(1_000.0) == 0.0
    assert not tx.asleep


def test_sleep_abandons_ongoing_reception():
    sim, tx, rx, mac = build()
    tx.transmit(data_frame(0, 1, 512, 0, 0.0))
    sim.run(until=50.0)  # mid-frame
    rx.sleep_until(5_000.0)
    sim.run(until=6_000.0)
    assert mac.received == []


def test_sleep_interrupts_trigger_in_the_air():
    sim, tx, rx, mac = build()
    tx.transmit(Frame(kind=FrameKind.TRIGGER, src=0, dst=None,
                      meta={"targets": frozenset({1}), "slot": 0}))
    # A nap shorter than the trigger: the radio is awake again at its
    # end edge, but the trigger was cut and never reaches the MAC.
    assert rx.sleep_until(1.0) == pytest.approx(1.0)
    sim.run(until=1_000.0)
    assert not rx.asleep
    assert mac.triggers == []
