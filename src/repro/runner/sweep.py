"""Sweep execution: serial in-process or fan-out over a process pool.

``run_sweep(points, workers=N)`` executes every
:class:`~repro.runner.points.ExperimentPoint` and returns a
:class:`~repro.runner.points.SweepResult` in submission order.
``workers=0`` (the default) runs in-process; ``workers >= 1`` fans out
over a ``ProcessPoolExecutor`` using the ``fork`` start method where
available (simulation state is rebuilt per point either way, so fork
inherits nothing that matters).

Each worker reduces its run to plain data (:class:`PointResult`)
because ``RunResult`` holds live MACs and the simulator.  Per-point
telemetry is recorded *inside* the worker — recorders are
process-local, so no cross-process merging of live objects is needed;
the registry snapshot and canonical-trace digest come back with the
point and :meth:`SweepResult.merged_metrics` recombines them.

Two opt-in observability layers ride on top (see
:mod:`repro.runner.progress`):

* ``progress=`` — workers post start/finish heartbeats over a queue;
  the parent renders per-point one-liners, events/sec, an ETA, and
  stall warnings while the sweep is still running.
* ``diagnose=True`` — workers also run the doctor and the causal
  critical-path rollup over their own trace and ship only the plain
  findings/summary (never the trace), populating
  ``PointResult.doctor_findings`` / ``PointResult.causality``.

Neither layer touches what gets recorded, so trace digests stay
byte-identical with them on or off.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue as queue_mod
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from ..telemetry.jsonl import dumps_record
from .points import (ExperimentPoint, FlowSummary, PointResult, SweepResult,
                     TopologySpec)
from .progress import SweepMonitor, finish_record, start_record

__all__ = ["run_point", "run_sweep", "trace_digest"]

#: How often the parent polls the heartbeat queue / stall detector.
_POLL_S = 0.2


def trace_digest(records: Iterable[dict]) -> str:
    """sha256 over the canonical JSONL serialization of a trace."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(dumps_record(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _reduce(point: ExperimentPoint, result: Any, wall_s: float,
            keep_trace: bool, diagnose: bool = False) -> PointResult:
    """Collapse a live ``RunResult`` into a picklable ``PointResult``."""
    from ..telemetry.analysis import summarize_causality
    from ..telemetry.analysis.doctor import diagnose as run_doctor

    flows = [
        FlowSummary(flow=flow, packets=record.packets,
                    payload_bytes=record.payload_bytes,
                    total_delay_us=record.total_delay_us,
                    delays_us=list(record.delays_us),
                    mbps=result.recorder.flow_throughput_mbps(
                        flow, point.horizon_us))
        for flow, record in result.recorder.records.items()
    ]
    sim = next(iter(result.macs.values())).sim
    cache = getattr(result.controller, "conversion_cache", None)
    digest = None
    metrics = None
    records = None
    findings = None
    causality = None
    if result.trace is not None:
        records = result.trace.records()
        digest = trace_digest(records)
        metrics = result.trace.metrics.snapshot()
        if diagnose:
            findings = run_doctor(records,
                                  horizon_us=point.horizon_us).findings
            causality = summarize_causality(records)
        if not keep_trace:
            records = None
    return PointResult(
        label=point.label, scheme=point.scheme, seed=point.seed,
        horizon_us=point.horizon_us, warmup_us=point.warmup_us,
        aggregate_mbps=result.aggregate_mbps,
        mean_delay_us=result.mean_delay_us,
        fairness=result.fairness,
        flows=flows,
        events_processed=sim.events_processed,
        wall_s=wall_s,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        trace_digest=digest, metrics=metrics,
        doctor_findings=findings, causality=causality,
        trace_records=records)


def run_point(point: ExperimentPoint, trace: bool = False,
              keep_trace: bool = False,
              diagnose: bool = False) -> PointResult:
    """Execute one point in this process (the pool worker entry)."""
    # Imported here, not at module top: the experiment modules import
    # repro.runner to build their sweeps, so a top-level import of
    # repro.experiments.common would be circular.
    from ..experiments.common import run_scheme

    started = time.perf_counter()
    result = run_scheme(
        point.scheme, point.topology.build(),
        horizon_us=point.horizon_us, warmup_us=point.warmup_us,
        seed=point.seed, trace=True if trace else None,
        **point.run_kwargs)
    return _reduce(point, result, time.perf_counter() - started,
                   keep_trace, diagnose)


# -- heartbeat plumbing (parallel path) ----------------------------------

#: Worker-side heartbeat queue (a manager-proxy queue, typed loosely
#: because the proxy class is synthesized at runtime), installed by
#: the pool initializer.  ``None`` means "sweep not being watched"
#: and costs one ``if``.
_HEARTBEATS: Optional[Any] = None


def _pool_init(heartbeats: Any) -> None:
    global _HEARTBEATS
    _HEARTBEATS = heartbeats


def _post(record: dict) -> None:
    if _HEARTBEATS is not None:
        try:
            _HEARTBEATS.put(record)
        except Exception:      # a dead monitor must never kill the point
            pass


def _pool_run_point(index: int, point: ExperimentPoint, trace: bool,
                    keep_trace: bool, diagnose: bool) -> PointResult:
    """Worker entry: run one point, bracketed by heartbeats."""
    _post(start_record(index, point.label))
    result = run_point(point, trace=trace, keep_trace=keep_trace,
                       diagnose=diagnose)
    _post(finish_record(index, point.label, result.wall_s,
                        result.events_processed,
                        findings=result.doctor_findings,
                        causality=result.causality))
    return result


def _pool_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def _resolve_emit(progress: Union[None, bool, Callable[[str], None]],
                  ) -> Optional[Callable[[str], None]]:
    if progress is None or progress is False:
        return None
    if progress is True:
        return lambda line: print(line, file=sys.stderr, flush=True)
    return progress


def run_sweep(points: Sequence[ExperimentPoint], workers: int = 0,
              trace: bool = False, keep_traces: bool = False,
              diagnose: bool = False,
              progress: Union[None, bool, Callable[[str], None]] = None,
              stall_timeout_s: float = 60.0) -> SweepResult:
    """Run every point; ``workers=0`` serial, else a pool of that size.

    Results come back in submission order regardless of which worker
    finished first, and are bit-identical to a serial run of the same
    points (same seeds, same topology specs — see the determinism
    contract in :mod:`repro.runner.points`).

    ``progress`` turns on live observability: ``True`` prints
    heartbeat one-liners to stderr, a callable receives them instead.
    ``diagnose=True`` (needs ``trace=True``) makes each worker run the
    doctor and critical-path rollup over its own trace so heartbeats
    and :class:`PointResult` carry health verdicts without shipping
    traces across the pipe.  Points running longer than
    ``stall_timeout_s`` without finishing are flagged once as stalled.
    """
    points = list(points)
    emit = _resolve_emit(progress)
    monitor = (SweepMonitor(len(points), workers, emit,
                            stall_timeout_s=stall_timeout_s)
               if emit is not None else None)
    started = time.perf_counter()
    if workers <= 0:
        results = []
        for index, point in enumerate(points):
            if monitor is not None:
                monitor.note(start_record(index, point.label))
            result = run_point(point, trace=trace, keep_trace=keep_traces,
                               diagnose=diagnose)
            if monitor is not None:
                monitor.note(finish_record(
                    index, point.label, result.wall_s,
                    result.events_processed,
                    findings=result.doctor_findings,
                    causality=result.causality))
            results.append(result)
    else:
        results = _run_pool(points, workers, trace, keep_traces, diagnose,
                            monitor)
    return SweepResult(points=results, workers=workers,
                       wall_s=time.perf_counter() - started)


def _run_pool(points: Sequence[ExperimentPoint], workers: int, trace: bool,
              keep_traces: bool, diagnose: bool,
              monitor: Optional[SweepMonitor]) -> List[PointResult]:
    """Fan out over a process pool, draining heartbeats while we wait.

    The heartbeat queue is a manager proxy so it survives any start
    method; it exists only when someone is watching (``progress=``) —
    unwatched sweeps take the exact pre-observability fast path.
    """
    context = _pool_context()
    manager = context.Manager() if monitor is not None else None
    heartbeats = manager.Queue() if manager is not None else None
    try:
        with ProcessPoolExecutor(
                max_workers=workers, mp_context=context,
                initializer=_pool_init if heartbeats is not None else None,
                initargs=(heartbeats,) if heartbeats is not None else ()
        ) as pool:
            futures = [
                pool.submit(_pool_run_point, index, point, trace,
                            keep_traces, diagnose)
                for index, point in enumerate(points)
            ]
            if monitor is not None:
                pending = set(futures)
                while pending:
                    try:
                        monitor.note(heartbeats.get(timeout=_POLL_S))
                    except queue_mod.Empty:
                        monitor.check_stalls()
                    pending = {f for f in pending if not f.done()}
                while True:         # late heartbeats from the last points
                    try:
                        monitor.note(heartbeats.get_nowait())
                    except queue_mod.Empty:
                        break
            return [future.result() for future in futures]
    finally:
        if manager is not None:
            manager.shutdown()


def scheme_sweep(schemes: Sequence[str], topology: TopologySpec, *,
                 horizon_us: float, warmup_us: float = 100_000.0,
                 seed: int = 1, label_prefix: str = "",
                 **run_kwargs: Any) -> List[ExperimentPoint]:
    """Convenience: the same topology/traffic across several schemes."""
    return [
        ExperimentPoint(
            scheme=scheme, topology=topology,
            label=f"{label_prefix}{scheme}", seed=seed,
            horizon_us=horizon_us, warmup_us=warmup_us,
            run_kwargs=dict(run_kwargs))
        for scheme in schemes
    ]
