"""The DOMINO doctor: turn a trace into a :class:`HealthReport`.

:func:`diagnose` reads one :class:`~repro.telemetry.trace_view.TraceView`
per event kind and hands the same view to the trigger-chain and
critical-path reconstructions.  It does not simulate anything
and needs no topology object — everything is inferred from the trace,
so it runs identically on a live recorder and on a JSONL file.

The findings heuristics encode the failure modes the paper's design
sections anticipate: missed signature detections (Sec. 3.2) degrade
into backup-trigger fallbacks and, past the watchdog, into chain
stalls; guard-tolerance violations and low SNR rot the ROP queue
picture (Sec. 3.1); fake bursts keep chains alive but burn airtime.
Thresholds are deliberately loose — the doctor flags "this run is not
behaving like the calibrated protocol", not third-decimal noise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..metrics import MetricsRegistry
from ..trace_tools import trigger_chain_timeline
from ..trace_view import Trace, TraceView, as_view
from .causality import CausalityReport, _fmt_link, causality_report
from .reports import (AirtimeBucket, AirtimeReport, FlowHealth, FlowStats,
                      HealthReport, LinkTriggerStats, RopHealth,
                      TriggerHealth)

#: Signature miss rate above which the trigger chain is flagged, given
#: enough draws to mean something.
MISS_RATE_THRESHOLD = 0.15
MISS_RATE_MIN_DRAWS = 20
#: Fraction of executed slots reached via backup before the chain is
#: declared unreliable.
FALLBACK_SLOT_THRESHOLD = 0.10
#: Per-report ROP decode error above which polling is flagged.
ROP_ERROR_THRESHOLD = 0.10
#: Fake share of slotted (data + fake) airtime above which the
#: schedule is flagged as padding instead of carrying traffic.
FAKE_AIRTIME_THRESHOLD = 0.30
#: A batch chain this much slower than the median batch is flagged as
#: the "slowest chain" (v3 traces), naming the link that carried the
#: most critical-path wait.  Needs a few batches for a median to mean
#: anything.
SLOW_CHAIN_RATIO = 1.5
SLOW_CHAIN_MIN_BATCHES = 3


def _trigger_health(view: TraceView) -> TriggerHealth:
    health = TriggerHealth()
    links: Dict[Tuple[int, int], LinkTriggerStats] = {}
    for record in view.of("sig_detect"):
        health.draws += 1
        link = links.get((record["src"], record["node"]))
        if link is None:
            link = links[(record["src"], record["node"])] = \
                LinkTriggerStats(src=record["src"], dst=record["node"])
        link.draws += 1
        if record["detected"]:
            health.hits += 1
            link.hits += 1
        p = record.get("p")
        if p is not None:
            health.expected_hits += p
            link.expected_hits += p
    for record in view.of("backup_trigger"):
        reason = record["reason"]
        health.fallbacks_by_reason[reason] = \
            health.fallbacks_by_reason.get(reason, 0) + 1
    health.per_link = [links[key] for key in sorted(links)]

    timeline = trigger_chain_timeline(view)
    last_executed = max((e.slot for e in timeline if e.senders), default=-1)
    for entry in timeline:
        if entry.senders:
            health.executed_slots += 1
            if entry.fallback_used:
                health.fallback_slots += 1
            elif entry.signature_detected:
                health.primary_slots += 1
        elif ((entry.trigger_node is not None or entry.detected)
              and entry.slot < last_executed):
            # A duty burst targeted this slot but nobody ever executed
            # it — the chain died here.  Slots past the last executed
            # one are excluded: those are the horizon cutting the run
            # off mid-chain, not a protocol failure.
            health.stalled_slots.append(entry.slot)
    return health


def _rop_health(view: TraceView) -> RopHealth:
    health = RopHealth(polls=len(view.of("rop_poll")))
    last_decode_t: Dict[int, float] = {}
    gaps: List[float] = []
    for record in view.of("rop_decode"):
        node = record["node"]
        health.rounds += 1
        health.rounds_by_ap[node] = health.rounds_by_ap.get(node, 0) + 1
        health.reports_decoded += record["decoded"]
        health.reports_failed += record["failed"]
        health.low_snr += record.get("low_snr", 0)
        health.blocked += record.get("blocked", 0)
        offered = record["decoded"] + record["failed"]
        if offered:
            health.round_errors.append(record["failed"] / offered)
        previous = last_decode_t.get(node)
        if previous is not None:
            gaps.append(record["t"] - previous)
        last_decode_t[node] = record["t"]
    if gaps:
        health.staleness_mean_us = sum(gaps) / len(gaps)
        health.staleness_max_us = max(gaps)
    return health


def _airtime_report(view: TraceView, horizon_us: float) -> AirtimeReport:
    report = AirtimeReport()
    #: (src, frame kind, seq) -> airtime, for joining drops back to
    #: their transmissions.
    tx_airtime: Dict[Tuple[int, str, int], float] = {}
    collided: Dict[Tuple[int, str, int], float] = {}
    for record in view.of("frame_tx", "frame_drop"):
        if record["ev"] == "frame_tx":
            frame = record["frame"]
            bucket = report.by_kind.get(frame)
            if bucket is None:
                bucket = report.by_kind[frame] = AirtimeBucket()
            bucket.frames += 1
            bucket.airtime_us += record["airtime_us"]
            tx_airtime[(record["node"], frame, record["seq"])] = \
                record["airtime_us"]
            batch_id = view.batch_of_slot(record["slot"])
            if batch_id is not None:
                batch = report.per_batch.setdefault(batch_id, {})
                batch[frame] = batch.get(frame, 0.0) + record["airtime_us"]
        elif record["reason"] == "sinr":
            key = (record["src"], record["frame"], record["seq"])
            if key not in collided:
                collided[key] = tx_airtime.get(key, 0.0)
    report.collision_count = len(collided)
    report.collision_airtime_us = sum(collided.values())
    report.horizon_us = horizon_us
    return report


def _flow_health(view: TraceView) -> FlowHealth:
    health = FlowHealth()
    # Radios record every locked frame, including ones addressed
    # elsewhere (overhearing); join receptions back to the
    # transmission's intended dst so only true endpoint deliveries
    # count as flow traffic.
    tx_dst: Dict[Tuple[int, int], Optional[int]] = {}
    for record in view.of("frame_tx"):
        if record["frame"] == "data":
            tx_dst[(record["node"], record["seq"])] = record["dst"]
    delivered: Dict[Tuple[int, int], set] = {}
    dropped: Dict[Tuple[int, int], int] = {}
    for record in view.of("frame_rx", "frame_drop"):
        if record["frame"] != "data":
            continue
        if tx_dst.get((record["src"], record["seq"])) != record["node"]:
            continue
        if record["ev"] == "frame_rx":
            delivered.setdefault((record["src"], record["node"]),
                                 set()).add(record["seq"])
        else:
            key = (record["src"], record["node"])
            dropped[key] = dropped.get(key, 0) + 1
    for key in sorted(set(delivered) | set(dropped)):
        src, dst = key
        health.flows.append(FlowStats(
            src=src, dst=dst, delivered=len(delivered.get(key, ())),
            dropped=dropped.get(key, 0)))
    counts = [flow.delivered for flow in health.flows]
    if counts and any(counts):
        square_of_sum = float(sum(counts)) ** 2
        sum_of_squares = float(sum(c * c for c in counts))
        health.fairness = square_of_sum / (len(counts) * sum_of_squares)
    return health


def _slow_chain_finding(causality: Optional[CausalityReport]
                        ) -> Optional[str]:
    """Name the batch (and link) that dominated the run's latency."""
    if causality is None or len(causality.batches) < SLOW_CHAIN_MIN_BATCHES:
        return None
    makespans = sorted(causality.makespans_us())
    median = makespans[len(makespans) // 2]
    slowest = causality.slowest()
    if slowest is None or median <= 0.0 \
            or slowest.makespan_us < SLOW_CHAIN_RATIO * median:
        return None
    link, wait = slowest.dominant_link()
    culprit = ""
    if link is not None and wait > 0.0:
        culprit = (f" — {wait / 1000.0:.3f} ms of it waiting on link "
                   f"{_fmt_link(link)}")
    return (f"slowest chain: batch {slowest.batch} took "
            f"{slowest.makespan_us / 1000.0:.3f} ms root-to-end, "
            f"{slowest.makespan_us / median:.1f}x the median batch "
            f"({median / 1000.0:.3f} ms){culprit}")


def _findings(trigger: TriggerHealth, rop: RopHealth,
              airtime: AirtimeReport, flows: FlowHealth,
              causality: Optional[CausalityReport] = None) -> List[str]:
    findings: List[str] = []
    # Order: most causally-upstream problem first — a bad trigger
    # chain explains the fallbacks, the stalls and the lost airtime.
    if (trigger.draws >= MISS_RATE_MIN_DRAWS
            and trigger.miss_rate > MISS_RATE_THRESHOLD):
        expected = trigger.expected_miss_rate
        versus = (f" (calibrated model expects {100.0 * expected:.1f} %)"
                  if trigger.expected_hits else "")
        findings.append(
            f"signature misses: {trigger.misses}/{trigger.draws} detection "
            f"draws failed ({100.0 * trigger.miss_rate:.1f} %){versus} — "
            f"trigger links are lossier than the protocol is tuned for")
    if (trigger.executed_slots
            and trigger.fallback_slots / trigger.executed_slots
            > FALLBACK_SLOT_THRESHOLD):
        findings.append(
            f"backup-trigger fallbacks carried "
            f"{trigger.fallback_slots}/{trigger.executed_slots} executed "
            f"slots — the chain keeps dying and restarting via the "
            f"watchdog, which stalls every slot in between")
    if trigger.stalled_slots:
        findings.append(
            f"chain stalls: {len(trigger.stalled_slots)} scheduled slots "
            f"never executed (first at slot {trigger.stalled_slots[0]}) — "
            f"their airtime was simply lost")
    if rop.offered and rop.decode_error > ROP_ERROR_THRESHOLD:
        dominant = ("low SNR" if rop.low_snr >= rop.blocked
                    else "guard-subcarrier blocking")
        findings.append(
            f"ROP decode error {100.0 * rop.decode_error:.1f} % "
            f"({rop.reports_failed}/{rop.offered} reports, mostly "
            f"{dominant}) — the controller is scheduling against a stale "
            f"queue picture")
    data = airtime.by_kind.get("data", AirtimeBucket()).airtime_us
    fake = airtime.by_kind.get("fake", AirtimeBucket()).airtime_us
    if (data + fake) > 0 and fake / (data + fake) > FAKE_AIRTIME_THRESHOLD:
        findings.append(
            f"fake bursts burned {100.0 * fake / (data + fake):.1f} % of "
            f"slotted airtime — chains are being kept alive without "
            f"payload to send")
    if len(flows.flows) >= 2 and flows.fairness and flows.fairness < 0.6:
        thin = min(flows.flows, key=lambda f: f.delivered)
        findings.append(
            f"fairness {flows.fairness:.2f} (Jain) across "
            f"{len(flows.flows)} flows — flow {thin.src} -> {thin.dst} "
            f"delivered only {thin.delivered} frames")
    slow = _slow_chain_finding(causality)
    if slow is not None:
        findings.append(slow)
    return findings


def diagnose(trace: Trace,
             metrics: Optional[MetricsRegistry] = None,
             horizon_us: Optional[float] = None) -> HealthReport:
    """Diagnose a trace (a view, live recorder records or loaded JSONL).

    ``metrics`` optionally attaches a registry snapshot to the report
    (live runs only — metrics are not part of exported traces).
    ``horizon_us`` pins the airtime accounting horizon; without it the
    last event timestamp is used, which understates idle time slightly.
    """
    view = as_view(trace)
    times = [r["t"] for r in view.records]
    trigger = _trigger_health(view)
    rop = _rop_health(view)
    airtime = _airtime_report(
        view, float(horizon_us) if horizon_us else max([0.0, *times]))
    flows = _flow_health(view)
    spans = causality_report(view)
    causality = spans if spans.has_spans else None
    return HealthReport(
        trigger=trigger, rop=rop, airtime=airtime, flows=flows,
        findings=_findings(trigger, rop, airtime, flows, causality),
        t0_us=min(times) if times else 0.0,
        t1_us=max(times) if times else 0.0,
        events=len(view.records),
        metrics=metrics.snapshot() if metrics is not None else None,
        causality=causality)
