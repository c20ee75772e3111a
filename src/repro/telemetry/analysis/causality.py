"""Causal trigger-chain analysis: critical paths and latency attribution.

Schema v3 traces carry ``id``/``cause`` pointers that link every event
to the one that triggered it — a signature detection points at the
trigger burst it heard, a slot execution at the detection (or backup
restart) that planned it, a duty burst at the slot that anchored it.
Each event has at most one cause, so the pointers form a *forest* of
trigger trees, one tree per chain restart.

This module reconstructs those trees per controller batch and answers
the question the flat trace cannot: **which link made this batch
slow?**

* :func:`causality_report` — the full analysis: per-batch critical
  path (the cause-chain ending at the batch's last executed slot),
  per-edge waits and per-link/per-step attribution.
* :func:`summarize_causality` — a small plain-dict rollup (makespan
  percentiles, dominant links) cheap enough to ship across a process
  boundary, used by sweep workers and the telemetry-overhead bench.

Conservation: along a critical path the edge waits telescope, so the
attributed waits sum to the batch makespan (terminal time minus chain
root time) up to float summation error — ``BatchChain.attributed_us``
vs. ``BatchChain.makespan_us``, pinned by the causality tests.

Events evicted from the recorder's ring buffer leave dangling
``cause`` pointers; a walk treats the first missing parent as the
chain root, so bounded-buffer traces degrade gracefully (the path is
truncated, never wrong).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..trace_view import Trace, as_view

#: Critical-path steps are labelled by the *child* event: what the
#: chain was waiting for during that edge.
Link = Tuple[Optional[int], Optional[int]]


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted list."""
    if not ordered:
        return 0.0
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class ChainEdge:
    """One parent -> child step on a batch's critical path."""

    child_id: int
    parent_id: Optional[int]       # None on the root pseudo-edge
    ev: str                        # child event kind
    t_parent: float
    t_child: float
    #: (acting parent node, acting child node); None side when the
    #: event has no node (controller events) or the parent is missing.
    link: Link = (None, None)
    #: slot_exec reference kind ("primary"/"backup"/...), else None.
    via: Optional[str] = None
    slot: Optional[int] = None

    @property
    def wait_us(self) -> float:
        return self.t_child - self.t_parent

    def step_label(self) -> str:
        label = self.ev
        if self.via:
            label += f"[{self.via}]"
        return label

    def to_json(self) -> dict:
        return {
            "child_id": self.child_id, "parent_id": self.parent_id,
            "ev": self.ev, "via": self.via, "slot": self.slot,
            "link": list(self.link), "t_parent": self.t_parent,
            "t_child": self.t_child, "wait_us": self.wait_us,
        }


@dataclass
class BatchChain:
    """The critical path of one batch's trigger tree."""

    batch: int
    root_id: int
    terminal_id: int               # last executed slot's slot_exec
    terminal_slot: int
    t_root: float
    t_end: float
    #: Root -> terminal, in causal order (first edge leaves the root).
    edges: List[ChainEdge] = field(default_factory=list)

    @property
    def makespan_us(self) -> float:
        return self.t_end - self.t_root

    @property
    def attributed_us(self) -> float:
        """Sum of critical-path waits; telescopes to the makespan."""
        return sum(edge.wait_us for edge in self.edges)

    def wait_by_link(self) -> Dict[Link, float]:
        waits: Dict[Link, float] = {}
        for edge in self.edges:
            waits[edge.link] = waits.get(edge.link, 0.0) + edge.wait_us
        return waits

    def wait_by_step(self) -> Dict[str, float]:
        waits: Dict[str, float] = {}
        for edge in self.edges:
            label = edge.step_label()
            waits[label] = waits.get(label, 0.0) + edge.wait_us
        return waits

    def dominant_link(self) -> Tuple[Optional[Link], float]:
        """The link charged the most critical-path wait."""
        best: Tuple[Optional[Link], float] = (None, 0.0)
        for link, wait in sorted(self.wait_by_link().items(),
                                 key=lambda kv: (-kv[1], str(kv[0]))):
            if link != (None, None):
                return link, wait
            best = (link, wait)
        return best

    def to_json(self) -> dict:
        return {
            "batch": self.batch, "root_id": self.root_id,
            "terminal_id": self.terminal_id,
            "terminal_slot": self.terminal_slot,
            "t_root": self.t_root, "t_end": self.t_end,
            "makespan_us": self.makespan_us,
            "attributed_us": self.attributed_us,
            "edges": [edge.to_json() for edge in self.edges],
        }

    def render(self) -> str:
        lines = [
            f"batch {self.batch} — {self.makespan_us / 1000.0:.3f} ms "
            f"root-to-end, {len(self.edges)} critical steps "
            f"(terminal slot {self.terminal_slot})",
            f"  {'t (us)':>12}  {'wait (us)':>10}  {'step':<22} link",
        ]
        for edge in self.edges:
            lines.append(
                f"  {edge.t_child:>12.2f}  {edge.wait_us:>10.2f}  "
                f"{edge.step_label():<22} {_fmt_link(edge.link)}")
        return "\n".join(lines)


def _fmt_link(link: Link) -> str:
    src, dst = link
    if src is None and dst is None:
        return "(control)"
    return f"{'?' if src is None else src} -> {'?' if dst is None else dst}"


@dataclass
class CausalityReport:
    """Per-batch critical paths plus cross-batch rollups."""

    batches: List[BatchChain] = field(default_factory=list)
    events: int = 0                # records examined
    spanned: int = 0               # records carrying a v3 id

    @property
    def has_spans(self) -> bool:
        return self.spanned > 0

    def makespans_us(self) -> List[float]:
        return [chain.makespan_us for chain in self.batches]

    def makespan_percentile_us(self, q: float) -> float:
        return _percentile(sorted(self.makespans_us()), q)

    def total_wait_by_link(self) -> Dict[Link, float]:
        waits: Dict[Link, float] = {}
        for chain in self.batches:
            for link, wait in chain.wait_by_link().items():
                waits[link] = waits.get(link, 0.0) + wait
        return waits

    def total_wait_by_step(self) -> Dict[str, float]:
        waits: Dict[str, float] = {}
        for chain in self.batches:
            for step, wait in chain.wait_by_step().items():
                waits[step] = waits.get(step, 0.0) + wait
        return waits

    def slowest(self) -> Optional[BatchChain]:
        if not self.batches:
            return None
        return max(self.batches, key=lambda c: (c.makespan_us, -c.batch))

    def top_links(self, n: int = 3) -> List[Tuple[Link, float]]:
        ranked = [(link, wait)
                  for link, wait in self.total_wait_by_link().items()
                  if link != (None, None)]
        ranked.sort(key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[:n]

    def to_json(self) -> dict:
        return {
            "events": self.events,
            "spanned": self.spanned,
            "batches": [chain.to_json() for chain in self.batches],
            "makespan_p50_us": self.makespan_percentile_us(50.0),
            "makespan_p95_us": self.makespan_percentile_us(95.0),
            "wait_by_step_us": dict(sorted(
                self.total_wait_by_step().items())),
            "top_links": [{"link": list(link), "wait_us": wait}
                          for link, wait in self.top_links()],
        }

    def render(self) -> str:
        if not self.has_spans:
            return ("causality: trace carries no causal spans "
                    "(recorded before schema v3) — nothing to attribute")
        lines = [f"causality — {len(self.batches)} batch chains from "
                 f"{self.spanned} spanned events"]
        if self.batches:
            lines.append(
                f"  makespan             p50 "
                f"{self.makespan_percentile_us(50.0) / 1000.0:.3f} ms  "
                f"p95 {self.makespan_percentile_us(95.0) / 1000.0:.3f} ms")
            steps = sorted(self.total_wait_by_step().items(),
                           key=lambda kv: -kv[1])
            total = sum(wait for _, wait in steps) or 1.0
            for step, wait in steps[:4]:
                lines.append(f"  critical wait        {step:<20} "
                             f"{wait / 1000.0:>9.3f} ms "
                             f"({100.0 * wait / total:4.1f} %)")
            for link, wait in self.top_links():
                lines.append(f"  busiest link         {_fmt_link(link):<20} "
                             f"{wait / 1000.0:>9.3f} ms on critical paths")
            slowest = self.slowest()
            if slowest is not None:
                link, wait = slowest.dominant_link()
                culprit = (f"; {wait / 1000.0:.3f} ms of it on link "
                           f"{_fmt_link(link)}" if link is not None else "")
                lines.append(
                    f"  slowest chain        batch {slowest.batch}: "
                    f"{slowest.makespan_us / 1000.0:.3f} ms root-to-end "
                    f"over {len(slowest.edges)} steps{culprit}")
        else:
            lines.append("  (no completed batch chains in trace)")
        return "\n".join(lines)


def _edge_link(parent: Optional[dict], child: dict) -> Link:
    # sig_detect records both ends of the trigger link explicitly;
    # everything else derives from the acting nodes of the two events.
    if child["ev"] == "sig_detect":
        return (child.get("src"), child.get("node"))
    parent_node = parent.get("node") if parent else None
    return (parent_node, child.get("node"))


def causality_report(trace: Trace) -> CausalityReport:
    """Reconstruct per-batch trigger trees and their critical paths.

    Works on a view or the records to build one from.  Traces without
    v3 spans produce an empty report (``has_spans`` is ``False``)
    rather than an error, so tooling can run on any schema version.
    """
    view = as_view(trace)
    by_id = view.by_id
    report = CausalityReport(events=len(view.records), spanned=len(by_id))
    if not by_id:
        return report

    # Terminal per batch: the last slot_exec (by time, then id) whose
    # slot the batch dispatched — the moment the batch's chain ended.
    terminals: Dict[int, dict] = {}
    for record in view.of("slot_exec"):
        if record.get("id") is None:
            continue
        batch = view.batch_of_slot(record["slot"])
        if batch is None:
            continue
        best = terminals.get(batch)
        if (best is None
                or (record["t"], record["id"]) > (best["t"], best["id"])):
            terminals[batch] = record

    for batch in sorted(terminals):
        terminal = terminals[batch]
        # Walk the cause chain terminal -> root.  A missing parent
        # (evicted from the ring, or a genuine root) ends the walk.
        path: List[dict] = [terminal]
        seen = {terminal["id"]}
        node = terminal
        while True:
            cause = node.get("cause")
            if cause is None or cause not in by_id or cause in seen:
                break
            node = by_id[cause]
            seen.add(cause)
            path.append(node)
        path.reverse()                       # root first
        root = path[0]
        chain = BatchChain(
            batch=batch, root_id=root["id"], terminal_id=terminal["id"],
            terminal_slot=terminal["slot"], t_root=root["t"],
            t_end=terminal["t"])
        for parent, child in zip(path, path[1:]):
            chain.edges.append(ChainEdge(
                child_id=child["id"], parent_id=parent["id"],
                ev=child["ev"], t_parent=parent["t"], t_child=child["t"],
                link=_edge_link(parent, child), via=child.get("via"),
                slot=child.get("slot")))
        report.batches.append(chain)
    return report


def summarize_causality(trace: Trace) -> Optional[dict]:
    """Small, picklable rollup of :func:`causality_report`.

    Returns ``None`` for traces without causal spans.  Used by sweep
    workers (per-point observability without shipping whole traces)
    and by the telemetry-overhead bench, which pins the seeded run's
    makespan percentiles.
    """
    report = causality_report(trace)
    if not report.has_spans:
        return None
    slowest = report.slowest()
    summary = {
        "batches": len(report.batches),
        "makespan_p50_us": round(report.makespan_percentile_us(50.0), 3),
        "makespan_p95_us": round(report.makespan_percentile_us(95.0), 3),
        "wait_by_step_us": {
            step: round(wait, 3)
            for step, wait in sorted(report.total_wait_by_step().items())},
        "top_links": [
            {"link": list(link), "wait_us": round(wait, 3)}
            for link, wait in report.top_links()],
    }
    if slowest is not None:
        link, wait = slowest.dominant_link()
        summary["slowest"] = {
            "batch": slowest.batch,
            "makespan_us": round(slowest.makespan_us, 3),
            "link": None if link is None else list(link),
            "link_wait_us": round(wait, 3),
        }
    return summary
