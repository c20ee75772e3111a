"""Integration tests for the medium + radio reception model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.medium import Medium, Transmission
from repro.sim.packet import Frame, FrameKind, data_frame
from repro.sim.phy import DOT11G, dbm_to_mw, mw_to_dbm
from repro.sim.radio import Radio


class RecordingMac:
    """Minimal MAC stub recording every radio callback, as counts and
    lists per kind and as one ordered ``events`` stream."""

    def __init__(self):
        self.received = []
        self.failed = []
        self.triggers = []
        self.reports = []
        self.busy_edges = 0
        self.idle_edges = 0
        self.tx_done = []
        self.events = []

    def on_receive(self, frame, rss_dbm):
        self.received.append((frame, rss_dbm))
        self.events.append(("rx", frame.src))

    def on_receive_failed(self, frame, rss_dbm):
        self.failed.append((frame, rss_dbm))
        self.events.append(("fail", frame.src))

    def on_trigger(self, frame, sinr_db, rss_dbm, overlapping):
        self.triggers.append((frame, sinr_db, overlapping))
        self.events.append(("trigger", frame.src, sinr_db))

    def on_queue_report(self, frame, rss_dbm):
        self.reports.append((frame, rss_dbm))
        self.events.append(("report", frame.src))

    def on_channel_busy(self):
        self.busy_edges += 1
        self.events.append(("busy",))

    def on_channel_idle(self):
        self.idle_edges += 1
        self.events.append(("idle",))

    def on_tx_end(self, frame):
        self.tx_done.append(frame)
        self.events.append(("tx_end", frame.src))


def build(rss_pairs, n_nodes=3, profile=DOT11G):
    """Medium with explicit pairwise RSS (default: unreachable)."""
    sim = Simulator(seed=1)

    def rss(tx, rx):
        return rss_pairs.get((tx, rx), rss_pairs.get((rx, tx), -200.0))

    medium = Medium(sim, profile, rss)
    radios = {}
    macs = {}
    for node in range(n_nodes):
        radio = Radio(node, medium)
        mac = RecordingMac()
        radio.mac = mac
        radios[node] = radio
        macs[node] = mac
    return sim, medium, radios, macs


def test_clean_reception_succeeds():
    sim, medium, radios, macs = build({(0, 1): -50.0})
    frame = data_frame(0, 1, 512, 0, 0.0)
    radios[0].transmit(frame)
    sim.run(until=1_000.0)
    assert [f for f, _ in macs[1].received] == [frame]
    assert macs[1].failed == []
    assert macs[0].tx_done == [frame]


def test_below_sensitivity_not_locked():
    sim, medium, radios, macs = build({(0, 1): -92.0})  # < -88 sensitivity
    radios[0].transmit(data_frame(0, 1, 512, 0, 0.0))
    sim.run(until=1_000.0)
    assert macs[1].received == []
    assert macs[1].failed == []


def test_collision_destroys_comparable_frames():
    # Both senders at similar power at the receiver: neither decodes.
    sim, medium, radios, macs = build({(0, 2): -60.0, (1, 2): -58.0})
    radios[0].transmit(data_frame(0, 2, 512, 0, 0.0))
    radios[1].transmit(data_frame(1, 2, 512, 0, 0.0))
    sim.run(until=1_000.0)
    assert macs[2].received == []
    assert len(macs[2].failed) == 1  # the locked one reports failure


def test_strong_interferer_mid_frame_kills_reception():
    sim, medium, radios, macs = build({(0, 1): -60.0, (2, 1): -55.0})
    radios[0].transmit(data_frame(0, 1, 512, 0, 0.0))
    # Interferer starts mid-frame (hidden terminal behaviour).
    sim.schedule(100.0, radios[2].transmit, data_frame(2, 0, 512, 1, 0.0))
    sim.run(until=2_000.0)
    assert macs[1].received == []
    assert len(macs[1].failed) == 1


def test_weak_interferer_is_survived():
    sim, medium, radios, macs = build({(0, 1): -50.0, (2, 1): -75.0})
    radios[0].transmit(data_frame(0, 1, 512, 0, 0.0))
    sim.schedule(50.0, radios[2].transmit, data_frame(2, 0, 512, 1, 0.0))
    sim.run(until=2_000.0)
    assert len(macs[1].received) == 1


def test_preamble_capture_steals_lock():
    import dataclasses
    profile = dataclasses.replace(DOT11G, capture_margin_db=10.0)
    sim, medium, radios, macs = build(
        {(0, 2): -70.0, (1, 2): -50.0}, profile=profile)
    radios[0].transmit(data_frame(0, 2, 512, 0, 0.0))
    # Much stronger frame arrives within the first frame's preamble.
    sim.schedule(5.0, radios[1].transmit, data_frame(1, 2, 512, 1, 0.0))
    sim.run(until=2_000.0)
    received = [f.src for f, _ in macs[2].received]
    assert received == [1]


def test_half_duplex_transmitter_hears_nothing():
    sim, medium, radios, macs = build({(0, 1): -50.0, (1, 0): -50.0})
    radios[0].transmit(data_frame(0, 1, 512, 0, 0.0))
    sim.schedule(10.0, radios[1].transmit, data_frame(1, 0, 512, 1, 0.0))
    sim.run(until=2_000.0)
    # Node 1 was transmitting while node 0's frame was on air -> lost.
    assert macs[1].received == []


def test_carrier_sense_edges():
    sim, medium, radios, macs = build({(0, 1): -70.0})  # above CS -82
    radios[0].transmit(data_frame(0, 9, 512, 0, 0.0))
    sim.run(until=2_000.0)
    assert macs[1].busy_edges == 1
    assert macs[1].idle_edges == 1
    assert not radios[1].channel_busy()


def test_energy_below_cs_threshold_not_busy():
    sim, medium, radios, macs = build({(0, 1): -86.0})  # < -82 CS
    radios[0].transmit(data_frame(0, 9, 512, 0, 0.0))
    sim.run(until=2_000.0)
    assert macs[1].busy_edges == 0


def test_trigger_detected_through_data_collision():
    # A trigger frame 20 dB below a data frame still reaches the MAC
    # with its SINR (correlation gain is applied by the model layer).
    sim, medium, radios, macs = build({(0, 1): -50.0, (2, 1): -70.0})
    radios[0].transmit(data_frame(0, 1, 512, 0, 0.0))
    trigger = Frame(kind=FrameKind.TRIGGER, src=2, dst=None,
                    meta={"targets": frozenset({1}), "slot": 0})
    sim.schedule(50.0, radios[2].transmit, trigger)
    sim.run(until=2_000.0)
    assert len(macs[1].triggers) == 1
    _, sinr, _ = macs[1].triggers[0]
    assert sinr == pytest.approx(-20.0, abs=1.0)
    # The data frame still decodes (trigger is 20 dB down).
    assert len(macs[1].received) == 1


def test_overlapping_signature_count():
    sim, medium, radios, macs = build(
        {(0, 2): -60.0, (1, 2): -62.0}, n_nodes=3)
    t1 = Frame(kind=FrameKind.TRIGGER, src=0, dst=None,
               meta={"targets": frozenset({5, 6}), "slot": 0})
    t2 = Frame(kind=FrameKind.TRIGGER, src=1, dst=None,
               meta={"targets": frozenset({7, 8, 9}), "slot": 0})
    radios[0].transmit(t1)
    radios[1].transmit(t2)
    sim.run(until=100.0)
    assert len(macs[2].triggers) == 2
    counts = {f.src: overlap for f, _, overlap in macs[2].triggers}
    assert counts[0] == 5  # 2 + 3 comparable-power signatures
    assert counts[1] == 5


def test_far_weaker_trigger_not_counted_in_overlap():
    sim, medium, radios, macs = build(
        {(0, 2): -50.0, (1, 2): -75.0}, n_nodes=3)  # 25 dB apart
    t1 = Frame(kind=FrameKind.TRIGGER, src=0, dst=None,
               meta={"targets": frozenset({5}), "slot": 0})
    t2 = Frame(kind=FrameKind.TRIGGER, src=1, dst=None,
               meta={"targets": frozenset({6}), "slot": 0})
    radios[0].transmit(t1)
    radios[1].transmit(t2)
    sim.run(until=100.0)
    counts = {f.src: overlap for f, _, overlap in macs[2].triggers}
    assert counts[0] == 1  # the weak one is negligible to the strong
    assert counts[1] == 2  # the strong one dominates the weak


def test_queue_reports_delivered_concurrently():
    sim, medium, radios, macs = build(
        {(0, 2): -50.0, (1, 2): -55.0}, n_nodes=3)
    for src, sub in ((0, 0), (1, 1)):
        report = Frame(kind=FrameKind.QUEUE_REPORT, src=src, dst=2,
                       meta={"queue_len": 5, "subchannel": sub})
        radios[src].transmit(report)
    sim.run(until=100.0)
    assert len(macs[2].reports) == 2


def test_transmit_while_transmitting_raises():
    sim, medium, radios, macs = build({(0, 1): -50.0})
    radios[0].transmit(data_frame(0, 1, 512, 0, 0.0))
    with pytest.raises(RuntimeError):
        radios[0].transmit(data_frame(0, 1, 512, 1, 0.0))


def test_duplicate_radio_registration_rejected():
    sim, medium, radios, macs = build({})
    with pytest.raises(ValueError):
        Radio(0, medium)


# ----------------------------------------------------------------------
# The radio tracks interference only for what the MAC reads (the locked
# frame and uninterrupted TRIGGERs), refreshes it only at start edges,
# recounts signature overlaps only when a TRIGGER starts and skips the
# power sum when nothing is read and carrier sense is busy.  All of
# that must be invisible: check every value the MAC is handed against
# a brute-force oracle that re-evaluates every frame at every edge.
# ----------------------------------------------------------------------
_frame_specs = st.lists(
    st.tuples(st.booleans(),                                # TRIGGER?
              st.floats(min_value=-95.0, max_value=-40.0),  # RSS dBm
              st.integers(min_value=1, max_value=4)),       # signatures
    min_size=1, max_size=6)


@st.composite
def _edge_sequences(draw):
    """Frame specs plus an edge order: each frame's token appears twice
    in a permutation; its first occurrence is the start edge, the
    second the end edge, so every permutation is a valid sequence.  Up
    to two ``"nap"`` tokens put the radio briefly to sleep, which
    interrupts every frame then in the air."""
    specs = draw(_frame_specs)
    tokens = [i for i in range(len(specs)) for _ in range(2)]
    tokens += ["nap"] * draw(st.integers(min_value=0, max_value=2))
    return specs, draw(st.permutations(tokens))


def _oracle(specs, order, noise_mw):
    """(min_sinr_db, max_overlapping_signatures) per frame index."""
    rss_mw = [dbm_to_mw(rss) for _, rss, _ in specs]
    worst = {}
    overlap = {}
    present = []
    for i in order:
        if i in present:
            present.remove(i)
        else:
            present.append(i)
            worst[i] = -1.0
            overlap[i] = 0
        total = sum(rss_mw[j] for j in present)
        for j in present:
            worst[j] = max(worst[j], total - rss_mw[j])
            if specs[j][0]:
                floor_mw = rss_mw[j] / 10.0
                count = sum(specs[o][2] for o in present
                            if specs[o][0] and rss_mw[o] >= floor_mw)
                overlap[j] = max(overlap[j], count)
    return {i: (mw_to_dbm(rss_mw[i]) - mw_to_dbm(worst[i] + noise_mw),
                overlap[i])
            for i in worst}


@given(_edge_sequences())
def test_edge_skips_match_brute_force_oracle(case):
    specs, order = case
    sim = Simulator(seed=1)
    medium = Medium(sim, DOT11G, lambda tx, rx: -200.0)
    radio = Radio(0, medium)
    mac = RecordingMac()
    radio.mac = mac
    txs = {}
    interrupted = set()
    ends = []
    for i in order:
        if i == "nap":
            # Sleep and wake again before the next edge: the frames in
            # the air are lost but still count as interference and as
            # overlapping signatures.
            interrupted.update(j for j in txs if j not in ends)
            radio.sleep_until(sim.now + 1.0)
            sim.run(until=sim.now + 1.0)
            continue
        is_trigger, rss_dbm, n_sig = specs[i]
        if i in txs:
            ends.append(i)
            radio.on_energy_end(txs[i], rss_dbm, dbm_to_mw(rss_dbm))
            continue
        if is_trigger:
            frame = Frame(kind=FrameKind.TRIGGER, src=i + 1, dst=None,
                          meta={"targets": frozenset(range(n_sig)),
                                "slot": 0})
        else:
            frame = data_frame(i + 1, 0, 512, i, 0.0)
        txs[i] = Transmission(frame=frame, src=i + 1, start=sim.now,
                              end=sim.now + 1.0, tx_power_dbm=15.0)
        radio.on_energy_start(txs[i], rss_dbm, dbm_to_mw(rss_dbm))

    expected = _oracle(specs, [i for i in order if i != "nap"],
                       radio.profile.noise_mw())
    # Every uninterrupted TRIGGER reaches the MAC, in end order, with
    # the oracle's (min SINR, overlap) pair.
    assert ([(sinr, count) for _, sinr, count in mac.triggers]
            == [expected[i] for i in ends
                if specs[i][0] and i not in interrupted])
    # Every frame the radio locked gets the oracle's verdict.
    verdicts = ([(frame, True) for frame, _ in mac.received]
                + [(frame, False) for frame, _ in mac.failed])
    for frame, ok in verdicts:
        i = frame.src - 1
        assert not specs[i][0] and i not in interrupted
        threshold = radio.profile.frame_sinr_threshold_db(frame)
        assert ok == (expected[i][0] >= threshold)


# ----------------------------------------------------------------------
# Carrier sense only re-sums the incoming power where the verdict can
# flip (idle at a start edge, busy from energy at an end edge).  That
# skip must be invisible: check the ordered MAC callback stream, the
# receive/fail split and preamble-capture outcomes against a model
# that re-sums at every edge.
# ----------------------------------------------------------------------
# Powers around the CS threshold (-82 dBm) and sensitivity (-88 dBm),
# 10 dB apart for the capture margin, plus free draws.
_edge_rss_dbm = st.one_of(
    st.sampled_from([-40.0, -50.0, -60.0, -70.0, -80.0, -82.0, -85.0,
                     -88.0, -89.0, -92.0]),
    st.floats(min_value=-95.0, max_value=-40.0))
_radio_frames = st.lists(
    st.tuples(st.sampled_from([FrameKind.DATA, FrameKind.TRIGGER,
                               FrameKind.QUEUE_REPORT]),
              _edge_rss_dbm),
    min_size=1, max_size=6)
# Gaps straddle the 20 us preamble; the radio's own frame lasts 52 us.
_gap_us = st.sampled_from([0.0, 3.0, 20.0, 25.0, 60.0, 150.0])


@st.composite
def _radio_scripts(draw):
    """A list of ``(gap_us, token)``: a frame index (first occurrence
    starts its energy, second ends it), ``"tx"`` (the radio transmits
    if idle) or ``("sleep", us)``."""
    frames = draw(_radio_frames)
    tokens = [i for i in range(len(frames)) for _ in range(2)]
    tokens += ["tx"] * draw(st.integers(min_value=0, max_value=2))
    tokens += [("sleep", draw(st.sampled_from([5.0, 50.0, 400.0])))
               for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    order = draw(st.permutations(tokens))
    return frames, [(draw(_gap_us), token) for token in order]


class _BruteForceRadio:
    """The radio's rules with every carrier-sense verdict and every
    interference maximum recomputed by ``sum()`` at every edge."""

    def __init__(self, profile):
        self.profile = profile
        self.cs_mw = dbm_to_mw(profile.cs_threshold_dbm)
        self.noise_mw = profile.noise_mw()
        self.capture = dbm_to_mw(profile.capture_margin_db)
        self.present = {}   # index -> dict, in arrival order
        self.lock = None
        self.own_end = None
        self.sleep_until = 0.0
        self.busy = False
        self.events = []

    def _edge(self):
        total = sum(f["mw"] for f in self.present.values())
        for f in self.present.values():
            f["worst"] = max(f["worst"], total - f["mw"])
        busy = self.own_end is not None or total >= self.cs_mw
        if busy != self.busy:
            self.busy = busy
            self.events.append(("busy",) if busy else ("idle",))

    def start(self, i, frame, rss_dbm, now):
        mw = dbm_to_mw(rss_dbm)
        f = {"frame": frame, "mw": mw, "start": now, "worst": -1.0,
             "lost": self.own_end is not None or now < self.sleep_until}
        self.present[i] = f
        if (frame.kind is FrameKind.DATA and not f["lost"]
                and rss_dbm >= self.profile.sensitivity_dbm):
            locked = self.present.get(self.lock)
            if locked is None:
                self.lock = i
            elif (now - locked["start"] <= self.profile.preamble_us
                  and mw >= locked["mw"] * self.capture):
                locked["lost"] = True
                self.lock = i
        self._edge()

    def end(self, i):
        f = self.present.pop(i)
        self._edge()
        frame = f["frame"]
        sinr = mw_to_dbm(f["mw"]) - mw_to_dbm(f["worst"] + self.noise_mw)
        if frame.kind is FrameKind.TRIGGER:
            if not f["lost"]:
                self.events.append(("trigger", frame.src, sinr))
        elif frame.kind is FrameKind.QUEUE_REPORT:
            if not f["lost"]:
                self.events.append(("report", frame.src))
        elif self.lock == i:
            self.lock = None
            ok = (not f["lost"] and sinr
                  >= self.profile.frame_sinr_threshold_db(frame))
            self.events.append(("rx" if ok else "fail", frame.src))

    def transmit(self, airtime_us, now):
        self.lock = None
        for f in self.present.values():
            f["lost"] = True
        self.own_end = now + airtime_us
        self._edge()

    def own_tx_end(self):
        self.own_end = None
        self._edge()
        self.events.append(("tx_end", 0))

    def sleep(self, wake, now):
        if self.own_end is not None:
            return 0.0
        previous = max(self.sleep_until, now)
        if wake <= previous:
            return 0.0
        self.sleep_until = wake
        self.lock = None
        for f in self.present.values():
            f["lost"] = True
        return wake - previous


def _energy_frame(kind, i):
    src = i + 1
    if kind is FrameKind.TRIGGER:
        return Frame(kind=kind, src=src, dst=None,
                     meta={"targets": frozenset({0}), "slot": 0})
    if kind is FrameKind.QUEUE_REPORT:
        return Frame(kind=kind, src=src, dst=0,
                     meta={"queue_len": 1, "subchannel": 0})
    return data_frame(src, 0, 512, i, 0.0)


@settings(deadline=None, max_examples=300)
@given(_radio_scripts())
def test_carrier_sense_and_lock_match_brute_force_model(case):
    frames, script = case
    sim = Simulator(seed=1)
    medium = Medium(sim, DOT11G, lambda tx, rx: -200.0)
    radio = Radio(0, medium)
    mac = RecordingMac()
    radio.mac = mac
    model = _BruteForceRadio(DOT11G)
    txs = {}
    sent = 0
    for gap, token in script:
        now = sim.now + gap
        if model.own_end is not None and model.own_end <= now:
            model.own_tx_end()  # the engine runs it before the token
        sim.run(until=now)
        if token == "tx":
            if model.own_end is None:
                own = data_frame(0, 9, 20, sent, 0.0)
                sent += 1
                radio.transmit(own)
                model.transmit(DOT11G.frame_airtime_us(own), now)
        elif isinstance(token, tuple):
            assert (radio.sleep_until(now + token[1])
                    == model.sleep(now + token[1], now))
        else:
            kind, rss_dbm = frames[token]
            if token in txs:
                radio.on_energy_end(txs.pop(token), rss_dbm,
                                    dbm_to_mw(rss_dbm))
                model.end(token)
            else:
                frame = _energy_frame(kind, token)
                txs[token] = Transmission(frame=frame, src=frame.src,
                                          start=now, end=now + 1.0,
                                          tx_power_dbm=15.0)
                radio.on_energy_start(txs[token], rss_dbm,
                                      dbm_to_mw(rss_dbm))
                model.start(token, frame, rss_dbm, now)
        assert mac.events == model.events
        assert radio.channel_busy() == model.busy
    sim.run(until=sim.now + 1_000.0)
    if model.own_end is not None:
        model.own_tx_end()
    assert mac.events == model.events
    assert not radio.channel_busy()
