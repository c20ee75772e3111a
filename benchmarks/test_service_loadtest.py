"""Online-controller load bench: churn at scale + latency gate.

Drives the controller service through a seeded 40-node workload —
queue-heavy churn with membership turnover, then RSS wobble on two
clients and a mobility walk — three times:

* **replay** — the deterministic ``run_events`` loop: epoch
  boundaries are a pure function of the scenario, so ``events``,
  ``incremental_hit_rate``, ``conflict_checks`` and the Python calls
  the replay makes (``replay_calls``) are deterministic outputs,
  asserted exactly at the default size (:data:`PINNED`), and
  ``revision_p50_ms`` / ``revision_p99_ms`` measure exactly the
  incremental path (apply + revise; the equality oracle's
  from-scratch recomputes run outside the timed window);
* **instrumented replay** — the identical replay with the whole ops
  plane on (telemetry, phase timing, SLO tracker, armed flight
  recorder, exporter renders every ``RENDER_EVERY`` revisions):
  digests must match the plain replay exactly, and the Python calls
  the ops plane adds (``instrumented_calls`` over ``replay_calls``,
  both pinned) must stay under ``MAX_OVERHEAD_PCT`` (3 %);
* **live** — the asyncio loop fed by ``SERVICE_BENCH_PRODUCERS``
  concurrent producers (default 2), proving the daemon survives the
  same volume with interleaved arrival and periodic oracle checks.

``SERVICE_CHURN_UPDATES`` scales the churn stream (default 10_000;
the generator handles >= 10**5 for soak runs).  Every 16th epoch is
verified against a from-scratch recompute in both passes — a digest
mismatch is a correctness bug and fails the bench outright.

Each replay runs twice: once with its calls counted (the profiling
hook slows it several-fold, so its clocks are not reported) and once
timed.  The timed pair's wall-clock overhead (``export_overhead_pct``)
and every latency land in ``BENCH_service.json`` (latest snapshot)
for people to read; no wall number is asserted, because on a shared
box they move by more than the ops plane costs.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import time

from repro import telemetry
from repro.service import (ControllerService, IncrementalController,
                           build_scenario)
from repro.telemetry.ops import (FlightRecorder, SloConfig, SloTracker,
                                 render_prometheus)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(_ROOT, "BENCH_service.json")
#: Flight-recorder dumps land here; CI uploads the directory as an
#: artifact when the loadtest fails.
FLIGHT_DUMP_DIR = os.path.join(_ROOT, "BENCH_flight_dumps")

UPDATES = int(os.environ.get("SERVICE_CHURN_UPDATES", "10000"))
PRODUCERS = int(os.environ.get("SERVICE_BENCH_PRODUCERS", "2"))
CHECK_EVERY = 16
#: Exporter renders every this many revisions in the instrumented
#: pass — a scraper hitting /metrics at a realistic cadence.
RENDER_EVERY = 128
#: Hard ceiling on what the whole ops plane may cost (acceptance
#: criterion: exporter + phase timing overhead < 3 %), counted in
#: Python calls.
MAX_OVERHEAD_PCT = 3.0
#: Deterministic replay outputs per ``SERVICE_CHURN_UPDATES``; a move
#: means the controller's work changed.  Soak sizes are not pinned.
#: The call counts were recorded on Python 3.11.
PINNED = {
    10_000: {"events": 10440, "incremental_hit_rate": 0.2032,
             "conflict_checks": 98638, "replay_calls": 1681226,
             "instrumented_calls": 1700830},
}

# Churn at a 40 us mean gap spans UPDATES * 40 us of virtual time;
# the wobble / mobility phases start just past that so the cache sees
# the steady-state single-link regime the service is built for.
_CHURN_SPAN_US = UPDATES * 40.0


def loadtest_scenario():
    return build_scenario({
        "name": f"loadtest-{UPDATES}",
        "topology": {"kind": "random_t", "m": 10, "n": 3, "seed": 2},
        "config": {"batch_slots": 12, "debounce_events": 64,
                   "epoch_gap_us": 2000.0},
        "sources": [
            {"kind": "churn", "updates": UPDATES, "seed": 11},
            {"kind": "rss_wobble", "client": 2, "updates": 200,
             "start_us": _CHURN_SPAN_US + 50_000.0, "gap_us": 2000.0,
             "jitter_db": 0.75},
            {"kind": "rss_wobble", "client": 5, "updates": 200,
             "start_us": _CHURN_SPAN_US + 51_000.0, "gap_us": 2000.0,
             "jitter_db": 0.75},
            {"kind": "mobility", "node": 1, "to": [400.0, 400.0],
             "steps": 40, "interval_us": 4000.0,
             "start_us": _CHURN_SPAN_US + 500_000.0},
        ],
    })


async def _live_run(scenario):
    engine = IncrementalController(scenario.make_state(), scenario.config)
    service = ControllerService(engine, check_every=CHECK_EVERY)

    async def producer(lane):
        # Round-robin lanes keep submissions in rough global time
        # order while still exercising concurrent interleaving.
        for i, event in enumerate(scenario.events[lane::PRODUCERS]):
            await service.submit(event)
            if i % 13 == 0:
                await asyncio.sleep(0)

    async def producers():
        await asyncio.gather(*(producer(k) for k in range(PRODUCERS)))
        await service.close()

    stats, _ = await asyncio.gather(service.run(), producers())
    return service, stats


def _replay(service, events, count_calls):
    """``(stats, wall_s, calls)`` of one ``run_events`` pass; ``calls``
    is ``None`` unless ``count_calls`` (the conftest fixture) is given.
    """
    _quiesce_gc()
    try:
        t0 = time.perf_counter()
        if count_calls is None:
            calls, stats = None, service.run_events(events)
        else:
            calls, stats = count_calls(lambda: service.run_events(events))
        wall_s = time.perf_counter() - t0
    finally:
        gc.enable()
    return stats, wall_s, calls


def _instrumented_replay(scenario, count_calls=None):
    """The same replay with the full ops plane riding along.

    Telemetry active, every revision phase timed, the SLO tracker fed,
    the flight recorder armed, and the Prometheus exporter rendered
    every ``RENDER_EVERY`` revisions — everything a live deployment
    would pay for.  Returns ``(service, stats, wall_s, phase_p99_ms,
    reject_counts, calls)``.
    """
    scenario.config.phase_timing = True
    recorder = telemetry.activate()
    try:
        engine = IncrementalController(scenario.make_state(),
                                       scenario.config)
        slo = SloTracker(SloConfig(p99_target_ms=250.0))
        flight = FlightRecorder(recorder, FLIGHT_DUMP_DIR)
        service = ControllerService(engine, check_every=CHECK_EVERY,
                                    slo=slo, flight=flight)
        renders = []

        def maybe_render(revision):
            if revision.version % RENDER_EVERY == 0:
                renders.append(len(render_prometheus(recorder.metrics)))

        service.on_revision(maybe_render)
        stats, wall_s, calls = _replay(service, scenario.events,
                                       count_calls)
        assert renders, "exporter never rendered during the replay"
        phase_p99_ms = recorder.metrics.histogram(
            "service.phase.total_ms").percentile(99.0)
        reject_counts = dict(engine.cache.reject_counts)
    finally:
        telemetry.deactivate()
        scenario.config.phase_timing = False
    return service, stats, wall_s, phase_p99_ms, reject_counts, calls


def _quiesce_gc():
    """Collect, then disable the collector for the timed replay.

    The oracle's from-scratch recomputes shed enough garbage that
    cyclic-GC pauses (50-100 ms on a busy box) land inside later
    revise() windows and own the nearest-rank p99 outright.  The
    pauses are an artifact of the bench's verification cadence, not
    of the incremental path being measured, so the timed windows run
    with the collector off (refcounting still reclaims everything
    acyclic).
    """
    gc.collect()
    gc.disable()


def _plain_replay(scenario, count_calls=None):
    engine = IncrementalController(scenario.make_state(), scenario.config)
    service = ControllerService(engine, check_every=CHECK_EVERY)
    stats, wall_s, calls = _replay(service, scenario.events, count_calls)
    return service, stats, wall_s, calls


def test_service_loadtest(count_calls):
    scenario = loadtest_scenario()
    n_events = len(scenario.events)

    # Counted pass: the pinned numbers and the ops-plane gate.
    service, stats, _, replay_calls = _plain_replay(scenario, count_calls)
    (instr_service, instr_stats, _, _, reject_counts,
     instr_calls) = _instrumented_replay(loadtest_scenario(), count_calls)
    # Timed pass: the walls and latencies the snapshot reports.
    _, stats_b, replay_wall_s, _ = _plain_replay(loadtest_scenario())
    _, _, instr_wall_s, phase_p99_ms, _, _ = \
        _instrumented_replay(loadtest_scenario())
    assert stats_b.last_digest == stats.last_digest
    revision_p50_ms = stats_b.revision_p50_ms
    revision_p99_ms = stats_b.revision_p99_ms

    assert stats.events == n_events
    assert stats.oracle_checks >= stats.revisions // CHECK_EVERY
    versions = [r.version for r in service.revisions]
    assert versions == sorted(versions)
    # The history keeps batch-free records: the service's retained
    # memory does not grow with the revisions it has made.
    assert not any(hasattr(r, "batch") for r in service.revisions)

    # Instrumented replay: telemetry + phase timing + SLO + flight
    # recorder + periodic exporter renders.  Same digests (timing is
    # pure observation), bounded extra calls.
    assert instr_stats.revisions == stats.revisions
    assert instr_stats.last_digest == stats.last_digest
    calls_overhead_pct = (100.0 * (instr_calls - replay_calls)
                          / replay_calls)
    assert calls_overhead_pct < MAX_OVERHEAD_PCT, (
        f"ops plane adds {calls_overhead_pct:.2f} % Python calls "
        f"(plain {replay_calls} vs instrumented {instr_calls}); "
        f"budget is {MAX_OVERHEAD_PCT} %")
    overhead_pct = (100.0 * (instr_wall_s - replay_wall_s)
                    / replay_wall_s)
    # The seeded workload must exercise the dominant rejection rule —
    # this is the hit-rate explanation the snapshot now carries.
    assert reject_counts["rule1"] > 0

    # Live daemon under concurrent producers: same volume, same
    # oracle, arrival-dependent epochs.
    t0 = time.perf_counter()
    live_service, live_stats = asyncio.run(_live_run(scenario))
    live_wall_s = time.perf_counter() - t0
    assert live_stats.events == n_events
    assert live_stats.oracle_checks > 0
    live_versions = [r.version for r in live_service.revisions]
    assert live_versions == sorted(live_versions)

    report = {
        "workload": f"T(10,3) churn x {UPDATES} + 2 wobble streams "
                    f"+ mobility walk ({n_events} events)",
        "events": n_events,
        "producers": PRODUCERS,
        "replay_revisions": stats.revisions,
        "replay_wall_s": round(replay_wall_s, 4),
        "revision_p50_ms": round(revision_p50_ms, 4),
        "revision_p99_ms": round(revision_p99_ms, 4),
        "revision_mean_ms": round(stats.revision_mean_ms, 4),
        "incremental_hit_rate": round(stats.incremental_hit_rate, 4),
        "conflict_checks": stats.conflict_checks,
        "oracle_checks": stats.oracle_checks + live_stats.oracle_checks,
        "live_revisions": live_stats.revisions,
        "live_wall_s": round(live_wall_s, 4),
        "live_events_per_sec": round(n_events / live_wall_s, 1)
        if live_wall_s else 0.0,
        "instrumented_wall_s": round(instr_wall_s, 4),
        "export_overhead_pct": round(overhead_pct, 2),
        "replay_calls": replay_calls,
        "instrumented_calls": instr_calls,
        "export_calls_overhead_pct": round(calls_overhead_pct, 3),
        "revision_phase_p99_ms": round(phase_p99_ms, 4),
        "cache_reject_counts": reject_counts,
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    pinned = PINNED.get(UPDATES)
    if pinned is not None:
        measured = {key: report[key] for key in pinned}
        assert measured == pinned, (measured, pinned)

    # The wobble/mobility tail must actually replay from cache — a
    # hit rate collapse means revalidation got too aggressive.
    assert stats.incremental_hit_rate > 0.05, report
