"""Per-layer span tracing, built entirely from outside the program.

The tracer wraps public functions of the ``repro`` package in place
(class attributes and module attributes), records one span per call
and keeps per-layer aggregates in memory.  Nothing inside ``src/`` is
edited and none of the program's own timers is read.

Two kinds of wrapping:

* **entry points** -- the public functions wrapped in
  :meth:`Tracer.install` run inside a span of a fixed layer;
* **callbacks** -- ``Simulator.schedule_at`` (which ``schedule`` calls)
  and ``Mac.add_delivery_handler`` wrap the callable they are handed,
  so the callback later runs inside a span labelled with the layer of
  the module that owns it (for a bound method, the module of the
  instance's class).  Private timers such as DCF backoff ticks thereby
  land in ``mac.dcf``.

Self time of a span is its duration minus the durations of the spans
it directly contains.  A layer's ``self_s`` is the sum over its spans.
Callbacks whose module maps to no layer run in an ``(other)`` span, so
their time stays out of every named layer and shows in
``unattributed_s``.

Spans are aggregated as they close (per layer: self seconds; per key:
call count and inclusive seconds) rather than stored one by one: a
fig14-domino iteration closes over a million spans, and keeping them
would cost more memory than the workload itself.  ``Tracer.table()``
writes the aggregate out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer.  The longest matching prefix wins.
MODULE_LAYERS: Dict[str, str] = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.medium": "sim.medium",
    "repro.sim.radio": "sim.radio",
    "repro.sim.phy": "sim.radio",
    "repro.sim.wire": "core.controller",
    "repro.mac.dcf": "mac.dcf",
    "repro.core.domino_mac": "core.domino_mac",
    "repro.core.controller": "core.controller",
    "repro.core.relative_schedule": "core.controller",
    "repro.core.converter": "core.converter",
    "repro.core.conversion_cache": "core.conversion_cache",
    "repro.sched.rand_scheduler": "sched.rand_scheduler",
    "repro.topology.interference_map": "topology.interference_map",
    "repro.topology.conflict_graph": "topology.conflict_graph",
    "repro.topology.builder": "topology.builder",
    "repro.service": "service",
    "repro.traffic": "traffic",
    "repro.metrics.timeline": "metrics.timeline",
    "repro.telemetry.analysis": "telemetry.analysis",
    "repro.telemetry": "telemetry.recorder",
}

#: Every named layer, in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.medium", "sim.radio", "mac.dcf", "core.domino_mac",
    "sched.rand_scheduler", "topology.interference_map", "core.converter",
    "core.conversion_cache", "core.controller", "topology.conflict_graph",
    "service", "traffic", "metrics.timeline", "telemetry.recorder",
    "telemetry.analysis", "topology.builder",
)

OTHER = "(other)"

_MAC_HANDLERS = ("on_receive", "on_receive_failed", "on_trigger",
                 "on_queue_report", "on_channel_busy", "on_channel_idle",
                 "on_tx_end")

_RECORDER_EMITTERS = ("emit", "frame_tx", "frame_rx", "frame_drop",
                      "sig_detect", "trigger_fire", "backup_trigger",
                      "slot_exec", "rop_poll", "rop_decode",
                      "sched_dispatch", "batch_start", "sched_revision",
                      "revision_phases")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """Layer owning ``module`` (``None`` when no prefix matches)."""
    if not module:
        return None
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
                best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


def _observe_cache_get(values: Dict[str, float], result: Any) -> None:
    if result is not None:
        values["core.conversion_cache.hits"] += 1


def _observe_revalidate(values: Dict[str, float], result: Any) -> None:
    kept, evicted = result
    values["core.conversion_cache.kept"] += kept
    values["core.conversion_cache.examined"] += kept + evicted


def _observe_revise(values: Dict[str, float], result: Any) -> None:
    values["service.dirty_links"] += result.dirty_links


class Tracer:
    """Installs span wrappers, aggregates self time, restores on exit."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(float)
        self._undo: List[Callable[[], None]] = []
        self._layer_cache: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    # Span primitive
    # ------------------------------------------------------------------
    def span(self, layer: str, key: str, fn: Callable[..., Any],
             observe: Optional[Callable[[Dict[str, float], Any], None]]
             = None, keep_name: bool = True) -> Callable[..., Any]:
        """``fn`` wrapped so each call is one span of ``layer``.

        ``keep_name=False`` skips copying ``fn``'s name and docstring,
        which per-event callback wrappers cannot afford.
        """
        clock = self._clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        total_s = self.total_s
        values = self.values

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                calls[key] += 1
                total_s[key] += dur
            if observe is not None:
                observe(values, result)
            return result

        return functools.wraps(fn)(wrapper) if keep_name else wrapper

    def layer_of(self, fn: Callable[..., Any]) -> str:
        """Layer of a callback: its instance's class module for a bound
        method, else the function's own module."""
        owner = getattr(fn, "__self__", None)
        cache_key = type(owner) if owner is not None else getattr(
            fn, "__module__", None)
        layer = self._layer_cache.get(cache_key)
        if layer is None:
            module = (type(owner).__module__ if owner is not None
                      else getattr(fn, "__module__", None))
            layer = layer_of_module(module) or OTHER
            self._layer_cache[cache_key] = layer
        return layer

    def callback(self, fn: Callable[..., Any],
                 kind: str = "callback") -> Callable[..., Any]:
        """``fn`` as a span of its owner's layer, keyed ``layer.kind``."""
        layer = self.layer_of(fn)
        return self.span(layer, f"{layer}.{kind}", fn, keep_name=False)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch_attr(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        old = vars(owner).get(name)

        def undo() -> None:
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

        setattr(owner, name, value)
        self._undo.append(undo)

    def wrap_method(self, cls: type, name: str, layer: str, key: str,
                    observe: Optional[Callable[[Dict[str, float], Any], None]]
                    = None) -> None:
        self._patch_attr(cls, name,
                         self.span(layer, key, getattr(cls, name), observe))

    def wrap_function(self, fn: Callable[..., Any], layer: str, key: str,
                      observe: Optional[Callable[[Dict[str, float], Any],
                                                 None]] = None) -> None:
        """Wrap a module-level function under every name any loaded
        ``repro`` module binds it to (``from x import f`` copies)."""
        wrapped = self.span(layer, key, fn, observe)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch_attr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary.  Idempotent only via uninstall()."""
        from repro import telemetry
        from repro.core import controller as controller_mod
        from repro.core import relative_schedule
        from repro.core.conversion_cache import ConversionCache
        from repro.core.converter import ScheduleConverter
        from repro.core.domino_mac import DominoMac
        from repro.mac.base import Mac
        from repro.mac.dcf import DcfMac
        from repro.metrics.timeline import TimelineRecorder
        from repro.sched.rand_scheduler import RandScheduler
        from repro.service import incremental, revision
        from repro.sim.engine import Simulator
        from repro.sim.medium import Medium
        from repro.sim.radio import Radio
        from repro.telemetry.analysis import causality, doctor
        from repro.topology import builder, conflict_graph
        from repro.topology.interference_map import InterferenceMap
        from repro.traffic.queueing import MacQueue

        # Engine: scheduling is an engine span; the callback it is
        # handed becomes a span of its owner's layer.
        schedule_span = self.span("sim.engine", "sim.engine.schedule",
                                  Simulator.schedule_at)
        callback = self.callback

        def schedule_at(sim: Any, when: float, fn: Callable[..., Any],
                        *args: Any) -> Any:
            return schedule_span(sim, when, callback(fn), *args)

        self._patch_attr(Simulator, "schedule_at", schedule_at)
        self.wrap_method(Simulator, "run", "sim.engine", "sim.engine.run")

        # Delivery handlers (flow recorders, TCP endpoints) run in the
        # layer of whoever registered them.
        add_handler = Mac.add_delivery_handler

        def add_delivery_handler(mac: Any, handler: Callable[..., Any],
                                 *args: Any, **kwargs: Any) -> Any:
            return add_handler(mac, callback(handler, "delivery"), *args,
                               **kwargs)

        self._patch_attr(Mac, "add_delivery_handler", add_delivery_handler)

        self.wrap_method(Medium, "transmit", "sim.medium", "sim.medium.tx")
        self.wrap_method(Radio, "on_energy_start", "sim.radio",
                         "sim.radio.energy_start")
        self.wrap_method(Radio, "on_energy_end", "sim.radio",
                         "sim.radio.energy_end")
        for cls, layer in ((DcfMac, "mac.dcf"),
                           (DominoMac, "core.domino_mac")):
            for name in _MAC_HANDLERS:
                self.wrap_method(cls, name, layer, layer + ".handler")
            self.wrap_method(cls, "enqueue", layer, layer + ".enqueue")
        self.wrap_method(MacQueue, "push", "traffic", "traffic.queue")
        self.wrap_method(MacQueue, "pop", "traffic", "traffic.queue")

        # Control plane.
        self.wrap_method(RandScheduler, "schedule_batch",
                         "sched.rand_scheduler", "sched.rand_scheduler.batch")
        self.wrap_method(InterferenceMap, "set_survives",
                         "topology.interference_map",
                         "topology.interference_map.set_check")
        self.wrap_method(InterferenceMap, "conflicts",
                         "topology.interference_map",
                         "topology.interference_map.conflict")
        self.wrap_method(ScheduleConverter, "convert", "core.converter",
                         "core.converter.convert")
        self.wrap_method(ScheduleConverter, "revalidate_cache",
                         "core.converter", "core.converter.revalidate",
                         _observe_revalidate)
        self.wrap_method(ConversionCache, "get", "core.conversion_cache",
                         "core.conversion_cache.get", _observe_cache_get)
        self.wrap_method(ConversionCache, "put", "core.conversion_cache",
                         "core.conversion_cache.put")
        self.wrap_method(ConversionCache, "count_reject",
                         "core.conversion_cache",
                         "core.conversion_cache.reject")
        self.wrap_function(controller_mod.build_domino_network,
                           "core.controller", "core.controller.build")
        self.wrap_function(relative_schedule.build_programs,
                           "core.controller", "core.controller.batch")
        for fn in (conflict_graph.build_conflict_graph,
                   conflict_graph.update_conflict_graph):
            self.wrap_function(fn, "topology.conflict_graph",
                               "topology.conflict_graph.check")

        # Online service.
        ctl = incremental.IncrementalController
        self.wrap_method(ctl, "apply_events", "service", "service.apply")
        self.wrap_method(ctl, "revise", "service", "service.revise",
                         _observe_revise)
        self.wrap_function(revision.batch_digest, "service",
                           "service.digest")

        # Telemetry and the slot timeline.
        for name in _RECORDER_EMITTERS:
            self.wrap_method(telemetry.TraceRecorder, name,
                             "telemetry.recorder", "telemetry.recorder.record")
        self.wrap_method(telemetry.TraceRecorder, "records",
                         "telemetry.recorder", "telemetry.recorder.export")
        self.wrap_method(TimelineRecorder, "record", "metrics.timeline",
                         "metrics.timeline.record")
        self.wrap_function(doctor.diagnose, "telemetry.analysis",
                           "telemetry.analysis.diagnose")
        self.wrap_function(causality.causality_report, "telemetry.analysis",
                           "telemetry.analysis.causality")

        # Topology construction.
        for fn in (builder.random_t_topology, builder.build_t_topology):
            self.wrap_function(fn, "topology.builder",
                               "topology.builder.build")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def reset(self) -> None:
        """Forget the aggregates (the wrappers stay installed)."""
        for table in (self.self_s, self.calls, self.total_s, self.values):
            table.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def table(self) -> Dict[str, Dict[str, float]]:
        """The raw aggregate: per-layer self seconds, per-key counts and
        inclusive seconds, and observed values."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "total_s": dict(self.total_s), "values": dict(self.values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, outputs: Dict[str, float],
                  scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``wall_s`` is the iteration's traced wall time; ``outputs`` carries
    the program's own result counters the iteration read afterwards
    (MAC/queue/TCP statistics -- counts, never timers).  Every time is
    multiplied by ``scale`` (calibrated seconds per wall second).
    """
    s = defaultdict(float, tracer.self_s)
    c = defaultdict(int, tracer.calls)
    t = defaultdict(float, tracer.total_s)
    v = defaultdict(float, tracer.values)
    events = sum(n for key, n in c.items() if key.endswith(".callback"))
    edges = c["sim.radio.energy_start"] + c["sim.radio.energy_end"]
    mac_handlers = c["mac.dcf.handler"] + c["core.domino_mac.handler"]
    gets = c["core.conversion_cache.get"]
    m = {
        "sim.engine.events": events,
        "sim.engine.schedules": c["sim.engine.schedule"],
        "sim.engine.ns_per_event": _ratio(s["sim.engine"], events) * 1e9,
        "sim.medium.tx": c["sim.medium.tx"],
        "sim.medium.fanout": _ratio(c["sim.radio.energy_start"],
                                    c["sim.medium.tx"]),
        "sim.radio.edges": edges,
        "sim.radio.useful_ratio": _ratio(mac_handlers, edges),
        "mac.dcf.callbacks": (c["mac.dcf.handler"] + c["mac.dcf.callback"]
                              + c["mac.dcf.enqueue"]),
        "mac.dcf.success_ratio": outputs.get("dcf_success_ratio", 0.0),
        "core.domino_mac.callbacks": (c["core.domino_mac.handler"]
                                      + c["core.domino_mac.callback"]
                                      + c["core.domino_mac.enqueue"]),
        "core.domino_mac.trigger_ratio": outputs.get("trigger_ratio", 0.0),
        "sched.rand_scheduler.batches": c["sched.rand_scheduler.batch"],
        "topology.interference_map.set_checks":
            c["topology.interference_map.set_check"],
        "core.converter.converts": c["core.converter.convert"],
        "core.converter.revalidate_s": t["core.converter.revalidate"],
        "core.conversion_cache.hit_ratio": _ratio(
            v["core.conversion_cache.hits"], gets),
        "core.conversion_cache.kept_ratio": _ratio(
            v["core.conversion_cache.kept"],
            v["core.conversion_cache.examined"]),
        "core.conversion_cache.rejects": c["core.conversion_cache.reject"],
        "core.controller.batches": c["core.controller.batch"],
        "core.controller.build_s": t["core.controller.build"],
        "topology.conflict_graph.checks": c["topology.conflict_graph.check"],
        "service.apply_s": t["service.apply"],
        "service.revise_s": t["service.revise"],
        "service.digest_s": t["service.digest"],
        "service.dirty_links": v["service.dirty_links"],
        "traffic.drop_ratio": outputs.get("drop_ratio", 0.0),
        "traffic.tcp.retransmit_ratio": outputs.get("retransmit_ratio", 0.0),
        "metrics.timeline.records": c["metrics.timeline.record"],
        "telemetry.recorder.records": c["telemetry.recorder.record"],
        "telemetry.analysis.causality_s": t["telemetry.analysis.causality"],
        "topology.builder.build_s": t["topology.builder.build"],
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = s[layer]
    m["unattributed_s"] = wall_s - sum(s[layer] for layer in LAYERS)
    m["traced_wall_s"] = wall_s
    return {name: float(value) * (scale if _is_time(name) else 1.0)
            for name, value in m.items()}


def _is_time(name: str) -> bool:
    return name.endswith(("_s", "ns_per_event"))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if _is_time(name):
        return "ns" if name.endswith("ns_per_event") else "s"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    if name.endswith("fanout"):
        return "rx/tx"
    return "count"


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over iterations."""
    return {name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]}


def grown_layers(before: Dict[str, float], after: Dict[str, float],
                 min_s: float, min_ratio: float = 0.2) -> List[str]:
    """Layers whose ``self_s`` grew by more than ``min_s`` seconds and
    by more than ``min_ratio`` of the earlier value, largest first."""
    grown = []
    for layer in LAYERS:
        key = layer + ".self_s"
        if key not in before:
            continue
        delta = after[key] - before[key]
        if delta > min_s and delta > min_ratio * before[key]:
            grown.append((delta, layer))
    return [layer for _, layer in sorted(grown, reverse=True)]
