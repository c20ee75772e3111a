"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fig14-domino --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer self
time and counts.  ``--workload all`` runs every workload, each in its
own process, and prints one table.  The last line of a single-workload
run is the JSON result; everything above it is for people.  See
README.md in this directory for what each workload and metric means.

Exit codes: 0 all output checks passed; 1 a check failed (the JSON
line says ``"correct": false``); 2 bad arguments or no program to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(HERE, "pins.json")
#: Where the traced run writes its span table (ignored by git).
OUT_DIR = os.path.join(HERE, "out")

#: End-to-end metrics (``--trace 0``) and their units.  Every time is
#: in calibrated seconds (see ``workloads.Calibrator``).
END_TO_END_UNITS = {
    "sim_ms_per_s": "ms/s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Environment every run executes under; ``run.py`` re-executes itself
#: to get it.  Every run hashes strings alike, so dict and set layouts,
#: and their speed, repeat from run to run (the program's outputs do not
#: depend on them; the pinned digests check that).  numpy's BLAS runs
#: on the caller's thread, as the workloads are single-threaded.
RUN_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up-only repetitions per timed run.  ``setup_s`` is their
#: median, not that of the timed iterations: the service fits only a
#: few iterations in a run.
SETUP_REPS = 9


def fingerprint() -> Dict[str, Any]:
    """The machine a result was measured on.  Wall-time ratios are only
    comparable between results with the same fingerprint."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` values."""
    return max(1, int(-(-n * q // 100)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[percentile_rank(len(values), q) - 1]


def load_pins() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Ledger:
    """Output checks: every iteration of a seed must reproduce the
    reference iteration's outputs, and the reference must match the
    pinned outputs when the seed is pinned."""

    def __init__(self, workload: str, seed: int) -> None:
        self.pin = load_pins().get(workload, {}).get(str(seed))
        self.iterations: List[Any] = []

    def add(self, iteration: Any) -> Any:
        self.iterations.append(iteration)
        return iteration

    def verify(self, reference: Any) -> Tuple[int, int]:
        """``(attempted, failed)`` over every iteration added."""
        failed = 0
        for index, it in enumerate(self.iterations):
            problems = list(it.errors)
            for key, want in reference.check.items():
                if key in it.check and it.check[key] != want:
                    problems.append(f"{key} = {it.check[key]!r}, "
                                    f"reference {want!r}")
            if it is reference and self.pin is not None:
                problems.extend(
                    f"{key} = {it.check.get(key)!r}, pinned {want!r}"
                    for key, want in self.pin.items()
                    if it.check.get(key) != want)
            if problems:
                failed += 1
                for problem in problems:
                    print(f"  check failed (iteration {index}): {problem}")
        return len(self.iterations), failed


def _median_info(iterations: Sequence[Any], key: str) -> Optional[float]:
    values = [it.info[key] for it in iterations if key in it.info]
    return statistics.median(values) if values else None


def timed_run(workload: Any, seed: int,
              seconds: float) -> Tuple[Dict[str, float], int, int]:
    """End-to-end metrics with tracing off.

    One untimed warm-up iteration first: the first run in a fresh
    process is about 1.5x slower (imports, allocator arenas, lazy
    caches).  Then timed iterations until ``seconds`` have passed (peak
    memory is read after the first, so that it does not depend on how
    many fit), then set-up-only repetitions, each from a collected
    heap, then one untimed check iteration (traced, or with the
    service's equality oracle on) that every other iteration must
    reproduce.
    """
    ledger = Ledger(workload.name, seed)
    ledger.add(workload.iterate(seed))
    start = perf_counter()
    timed = [ledger.add(workload.iterate(seed))]
    rss = peak_rss_mb()
    while perf_counter() - start < seconds:
        timed.append(ledger.add(workload.iterate(seed)))
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        setups.append(workload.setup(seed))
    reference = ledger.add(workload.iterate(seed, check=True))
    attempted, failed = ledger.verify(reference)

    steps = [step for it in timed for step in it.steps_ms]
    metrics = {
        "sim_ms_per_s": statistics.median(
            it.advance_ms / it.loop_s for it in timed),
        "step_p50_ms": percentile(steps, 50),
        "step_p95_ms": percentile(steps, 95),
        "job_s": statistics.median(it.job_s for it in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    print(f"  {len(timed)} timed iterations, {len(steps)} steps "
          f"({len(steps) - percentile_rank(len(steps), 95)} beyond p95), "
          f"{len(setups)} set-ups; median scale "
          f"{statistics.median(it.scale for it in timed):.4f}")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:14.4f} {END_TO_END_UNITS[name]}")
    print(f"  (raw wall job: "
          f"{statistics.median(it.wall_s for it in timed):.4f} s)")
    for key, unit in (("goodput_mbps", "Mbps (simulated; checked exactly)"),
                      ("diagnose_s", "s"),
                      ("updates_per_s", "1/s"),
                      ("trace_records", "records")):
        value = _median_info(timed + [reference], key)
        if value is not None:
            print(f"  {key:<16} {value:14.4f} {unit}")
    if "updates_per_s" in timed[0].info:
        print(f"  revision_p50_ms  {metrics['step_p50_ms']:14.4f} ms "
              "(= step_p50_ms)")
        print(f"  revision_p95_ms  {metrics['step_p95_ms']:14.4f} ms "
              "(= step_p95_ms)")
    print(f"  failed_ratio     {failed / attempted:14.4f} "
          f"({failed} of {attempted} iterations)")
    return metrics, attempted, failed


def traced_run(workload: Any, seed: int,
               seconds: float) -> Tuple[Dict[str, float], int, int]:
    """Per-layer metrics from span-traced iterations.

    A reference check iteration (no wrappers) warms the process up;
    the same check iteration under the wrappers must reproduce its
    digest exactly.  Then plain and traced iterations alternate until
    ``seconds`` have passed; per-layer metrics are medians over the
    traced ones and ``trace_overhead`` is traced over plain median wall.
    """
    from spans import Tracer, layer_metrics, median_metrics

    ledger = Ledger(workload.name, seed)
    reference = ledger.add(workload.iterate(seed, check=True))
    tracer = Tracer()
    with tracer:
        ledger.add(workload.iterate(seed, check=True))
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    samples: List[Dict[str, float]] = []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        it = ledger.add(workload.iterate(seed))
        plain_walls.append(it.job_s)
        tracer.reset()
        with tracer:
            it = ledger.add(workload.iterate(seed))
        traced_walls.append(it.job_s)
        samples.append(layer_metrics(tracer, it.wall_s, it.layer_outputs,
                                     it.scale))
        # Every event must have run inside a span of its owner's layer.
        spanned = samples[-1]["sim.engine.events"]
        if "digest" in reference.check and spanned != it.check["events"]:
            it.errors.append(f"{spanned:.0f} callback spans for "
                             f"{it.check['events']} events")
    attempted, failed = ledger.verify(reference)

    metrics = median_metrics(samples)
    metrics["trace_overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(plain_walls))
    print(f"  {len(samples)} traced + {len(plain_walls)} plain iterations")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:16.6f}")
    table = tracer.table()
    print("  spans of the last traced iteration (key, calls, inclusive s):")
    for key in sorted(table["calls"]):
        print(f"    {key:<44} {table['calls'][key]:>9} "
              f"{table['total_s'][key]:10.4f}")
    print(f"  failed_ratio {failed / attempted:.4f} "
          f"({failed} of {attempted} iterations)")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}-spans.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed,
                   "fingerprint": fingerprint(), "metrics": metrics,
                   "last_traced_iteration": table}, handle, indent=1,
                  sort_keys=True)
    print(f"  span table written to {os.path.relpath(path, ROOT)}")
    return metrics, attempted, failed


def run_one(args: argparse.Namespace) -> int:
    from spans import unit_of
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    run = traced_run if args.trace else timed_run
    metrics, attempted, failed = run(workload, args.seed, args.seconds)
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": END_TO_END_UNITS.get(name)
                           or unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (peak memory is per process)."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if proc.returncode in (0, 1) and lines:
            rows.append((name, json.loads(lines[-1])))
    if not args.trace:
        print()
        print(f"{'workload':<15}" + "".join(f"{m:>14}"
                                            for m in END_TO_END_UNITS)
              + f"{'failed_ratio':>14}")
        for name, result in rows:
            values = "".join(f"{result['metrics'][m]['value']:14.4f}"
                             for m in END_TO_END_UNITS)
            ratio = result["failed"] / result["attempted"]
            print(f"{name:<15}{values}{ratio:14.4f}")
    return status


def write_pins(workload_names: Sequence[str], seeds: Sequence[int]) -> None:
    """Record each seed's check-iteration outputs in pins.json."""
    from workloads import WORKLOADS

    pins = load_pins() if os.path.exists(PINS_PATH) else {}
    for name in workload_names:
        for seed in seeds:
            check = WORKLOADS[name].iterate(seed, check=True).check
            pins.setdefault(name, {})[str(seed)] = check
            print(f"pinned {name} seed {seed}: {check}", flush=True)
            with open(PINS_PATH, "w", encoding="utf-8") as handle:
                json.dump(pins, handle, indent=1, sort_keys=True)
                handle.write("\n")


def _import_program() -> Optional[str]:
    """Put this checkout's ``src`` first on the path; return an error
    message when the program is not there."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the program from {SRC}: {exc}"
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if not where.startswith(SRC + os.sep):
        return f"repro was imported from {where}, not from {SRC}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed part of a run lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-seeds", metavar="A-B",
                        help="record the outputs of seeds A..B in pins.json "
                             "instead of measuring")
    args = parser.parse_args(argv)

    error = _import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.pin_seeds:
        low, _, high = args.pin_seeds.partition("-")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        write_pins(names, range(int(low), int(high or low) + 1))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if any(os.environ.get(key) != value for key, value in RUN_ENV.items()):
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **RUN_ENV})
    sys.exit(main())
