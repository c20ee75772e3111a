"""Tests for packet splitting / aggregation (Sec. 3.5 virtual packets)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.packet import data_frame
from repro.traffic.virtual_packets import (Reassembler, VirtualPacketizer)


def frame(payload, seq=0, dst=2):
    return data_frame(1, dst, payload, seq, enqueued_at=5.0)


class TestSplit:
    def test_small_packet_passes_through(self):
        packetizer = VirtualPacketizer(512)
        original = frame(300)
        assert packetizer.split(original) == [original]

    def test_large_packet_fragments(self):
        packetizer = VirtualPacketizer(512)
        fragments = packetizer.split(frame(1500, seq=9))
        assert len(fragments) == 3
        assert [f.payload_bytes for f in fragments] == [512, 512, 476]
        assert all(f.meta["orig_seq"] == 9 for f in fragments)
        assert [f.meta["frag"] for f in fragments] == [0, 1, 2]
        bundles = {f.meta["bundle"] for f in fragments}
        assert len(bundles) == 1

    def test_each_fragment_fits_one_slot(self):
        packetizer = VirtualPacketizer(512)
        for size in (513, 1024, 4096, 10_000):
            for fragment in packetizer.split(frame(size)):
                assert fragment.payload_bytes <= 512

    def test_non_data_rejected(self):
        from repro.sim.packet import ack_frame
        with pytest.raises(ValueError):
            VirtualPacketizer(512).split(ack_frame(1, 2, 0))

    def test_invalid_slot_size(self):
        with pytest.raises(ValueError):
            VirtualPacketizer(0)


class TestAggregate:
    def test_small_packets_packed(self):
        packetizer = VirtualPacketizer(512)
        frames = [frame(100, seq=i) for i in range(4)]
        out = packetizer.aggregate(frames)
        assert len(out) == 1
        assert out[0].payload_bytes == 400
        assert len(out[0].meta["aggregated"]) == 4

    def test_capacity_respected(self):
        packetizer = VirtualPacketizer(512)
        frames = [frame(200, seq=i) for i in range(5)]  # 1000 B total
        out = packetizer.aggregate(frames)
        assert len(out) == 3  # 400, 400, 200
        assert all(f.payload_bytes <= 512 for f in out)

    def test_different_destinations_not_mixed(self):
        packetizer = VirtualPacketizer(512)
        frames = [frame(100, seq=0, dst=2), frame(100, seq=1, dst=3)]
        out = packetizer.aggregate(frames)
        assert len(out) == 2
        assert {f.dst for f in out} == {2, 3}

    def test_oversized_packet_mid_stream_is_split(self):
        packetizer = VirtualPacketizer(512)
        frames = [frame(100, seq=0), frame(1200, seq=1), frame(100, seq=2)]
        out = packetizer.aggregate(frames)
        assert sum(f.payload_bytes for f in out) == 1400
        assert all(f.payload_bytes <= 512 for f in out)

    def test_lone_packet_not_wrapped(self):
        packetizer = VirtualPacketizer(512)
        original = frame(400)
        out = packetizer.aggregate([original])
        assert out == [original]
        assert "aggregated" not in out[0].meta


class TestReassembly:
    def test_split_roundtrip(self):
        packetizer = VirtualPacketizer(512)
        reassembler = Reassembler()
        fragments = packetizer.split(frame(1500, seq=9))
        results = []
        for i, fragment in enumerate(fragments):
            results.extend(reassembler.accept(fragment, now=100.0 + i))
        assert len(results) == 1
        packet = results[0]
        assert packet.seq == 9
        assert packet.payload_bytes == 1500
        assert packet.enqueued_at == 5.0
        assert packet.completed_at == 102.0

    def test_aggregate_roundtrip(self):
        packetizer = VirtualPacketizer(512)
        reassembler = Reassembler()
        out = packetizer.aggregate([frame(100, seq=3), frame(100, seq=4)])
        results = reassembler.accept(out[0], now=50.0)
        assert [r.seq for r in results] == [3, 4]
        assert all(r.payload_bytes == 100 for r in results)

    def test_partial_bundle_waits(self):
        packetizer = VirtualPacketizer(512)
        reassembler = Reassembler()
        fragments = packetizer.split(frame(1024, seq=1))
        assert reassembler.accept(fragments[0], 1.0) == []
        assert [r.seq for r in reassembler.accept(fragments[1], 2.0)] == [1]

    def test_plain_packet_passes(self):
        reassembler = Reassembler()
        results = reassembler.accept(frame(256, seq=7), now=9.0)
        assert len(results) == 1 and results[0].seq == 7


@given(st.integers(min_value=1, max_value=20_000))
def test_property_split_conserves_bytes(size):
    packetizer = VirtualPacketizer(512)
    fragments = packetizer.split(frame(size))
    assert sum(f.payload_bytes for f in fragments) == size
    assert len(fragments) == math.ceil(size / 512)


@given(st.lists(st.integers(min_value=1, max_value=512), min_size=1,
                max_size=25))
def test_property_aggregate_conserves_packets(sizes):
    packetizer = VirtualPacketizer(512)
    reassembler = Reassembler()
    frames = [frame(s, seq=i) for i, s in enumerate(sizes)]
    out = packetizer.aggregate(frames)
    recovered = []
    for virtual in out:
        recovered.extend(reassembler.accept(virtual, 1.0))
    assert [r.seq for r in recovered] == list(range(len(sizes)))
    assert [r.payload_bytes for r in recovered] == sizes
