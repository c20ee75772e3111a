"""Sweep-engine speedup bench: serial vs. process-pool fan-out.

Runs the fig14 random-network sweep (the runner's target shape: many
independent mid-sized points) once serially and once across a worker
pool, then asserts the engine's two promises:

* **identity** — per-point canonical-trace digests are byte-identical
  between the two runs, always, on any machine;
* **speedup** — with >= 4 workers on a >= 4-core box the parallel run
  finishes >= 2.5x faster.  A smaller box cannot physically show a
  speedup, so there the ratio is neither asserted nor published — the
  snapshot records ``"skipped_reason": "cores<4"`` — but identity is
  still checked;
* **work** — the sweep's simulator event total is a deterministic
  output, asserted exactly (:data:`TOTAL_EVENTS`): a move means the
  simulated work changed, whatever the machine.

The worker count follows ``SWEEP_BENCH_WORKERS`` (default: 4 capped
to the core count) so CI can pin a reproducible pool size.  Numbers,
throughput included, land in ``BENCH_sweep.json`` (latest snapshot)
for people to read.
"""

from __future__ import annotations

import json
import os

from repro.experiments.fig14_random import sweep_points
from repro.runner import run_sweep, write_sweep_report

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(_ROOT, "BENCH_sweep.json")
REPORT_HTML_PATH = os.path.join(_ROOT, "BENCH_sweep_report.html")
SWEEP_JSON_PATH = os.path.join(_ROOT, "BENCH_sweep_points.json")

N_RUNS = 4                        # placements; two points (dcf+domino) each
M, N = 8, 2                       # T(8,2) keeps one point mid-sized
HORIZON_US = 250_000.0
MIN_SPEEDUP = 2.5
SPEEDUP_WORKERS = 4               # the floor only applies at this scale
TOTAL_EVENTS = 481191             # simulator events over every point


def bench_points():
    return sweep_points(n_runs=N_RUNS, m=M, n=N, horizon_us=HORIZON_US)


def test_sweep_speedup_and_identity():
    cores = os.cpu_count() or 1
    workers = int(os.environ.get("SWEEP_BENCH_WORKERS",
                                 min(SPEEDUP_WORKERS, cores)))
    points = bench_points()

    serial = run_sweep(points, workers=0, trace=True)
    parallel = run_sweep(points, workers=workers, trace=True)

    digests_identical = serial.digests() == parallel.digests()
    # A sub-SPEEDUP_WORKERS box cannot show a speedup, only pool
    # overhead: publishing its sub-1x ratio as "the speedup" would
    # poison the snapshot, so the ratio is withheld and the snapshot
    # says why instead.
    measurable = workers >= SPEEDUP_WORKERS and cores >= SPEEDUP_WORKERS
    speedup = (serial.wall_s / parallel.wall_s
               if measurable and parallel.wall_s else None)

    report = {
        "workload": f"fig14 random T({M},{N}) x {N_RUNS} placements, "
                    f"dcf+domino, horizon={HORIZON_US / 1000.0:.0f} ms",
        "points": len(points),
        "workers": workers,
        "cores": cores,
        "serial_s": round(serial.wall_s, 4),
        "parallel_s": round(parallel.wall_s, 4),
        "speedup": round(speedup, 4) if speedup is not None else None,
        "skipped_reason": None if measurable
        else f"cores<{SPEEDUP_WORKERS}",
        "total_events": serial.total_events,
        "serial_events_per_sec": round(serial.events_per_sec, 1),
        "parallel_events_per_sec": round(parallel.events_per_sec, 1),
        "digests_identical": digests_identical,
        "speedup_floor": MIN_SPEEDUP if measurable else None,
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Untimed third pass with worker-side diagnosis for the HTML
    # artifact CI uploads — kept out of the timed runs above so the
    # doctor/causality cost never skews the published throughput.
    diagnosed = run_sweep(points, workers=workers, trace=True,
                          diagnose=True)
    diagnosed.save_json(SWEEP_JSON_PATH)
    write_sweep_report(
        diagnosed, REPORT_HTML_PATH,
        title=f"sweep-speedup bench — {report['workload']}")

    assert digests_identical, (
        "parallel sweep diverged from serial", serial.digests(),
        parallel.digests())
    assert serial.total_events == parallel.total_events
    assert serial.total_events == TOTAL_EVENTS, (
        f"sweep ran {serial.total_events} events, pinned {TOTAL_EVENTS}")
    # Observability must not perturb the simulation: same digests with
    # diagnosis on.
    assert diagnosed.digests() == serial.digests()
    if measurable:
        assert speedup >= MIN_SPEEDUP, report
