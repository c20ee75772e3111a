"""The four benchmark workloads, driven through the program's public
entry points: ``run_scheme`` (default engine), ``ControllerService.
run_events`` and ``telemetry.analysis.diagnose``.

Each workload runs *iterations*.  One iteration is one complete user
job with the same inputs every time: build the topology and network,
run the simulator to the horizon (and, for fig12-observe, diagnose the
trace), or build the service scenario and replay it.  An iteration
returns its timings, the outputs that must repeat exactly, and the
program's own result counters the traced run reports per layer.

The seed drives only what varies a run without changing its size: the
simulator seed (backoff draws, traffic phases) for the simulations and
the event-stream seed for the service.  Placements are the fixed ones
named in README.md, so every seed loads the same layers equally.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.core.domino_mac import DominoMac
from repro.experiments.common import run_scheme
from repro.experiments.fig12_t10_2 import default_topology
from repro.mac.dcf import DcfMac
from repro.runner.sweep import trace_digest
from repro.service import ControllerService, IncrementalController
from repro.service import build_scenario
from repro.service.service import OracleMismatch
from repro.sim.engine import Simulator
from repro.topology import builder

#: Simulated time per timed step of a simulation (one ``Simulator.run``
#: slice).  Shorter slices split the step times into idle slices and
#: slices holding a transmission or a DOMINO batch, whose mix moves
#: with the seed; at 1 ms every run still has at least 200 steps, so
#: p95 has at least ten samples beyond it.
SLICE_US = 1_000.0

#: Trace ring for traced iterations: far above what any horizon here
#: emits (the default 65,536 nearly fills on a 300 ms fig12 run), and
#: an iteration that evicts anyway fails its check.
TRACE_CAPACITY = 1 << 21


@dataclass
class Iteration:
    """What one iteration measured and produced.

    ``wall_s`` is raw wall time; every other time is in calibrated
    seconds (see :class:`Calibrator`).  The calibration chunks are
    taken out of all of them.
    """

    wall_s: float              # start of set-up to end of the job
    job_s: float               # the same, calibrated
    loop_s: float              # event loop (Simulator.run / run_events)
    advance_ms: float          # simulated / scenario time covered
    steps_ms: List[float]      # each step of the loop
    scale: float               # median calibrated s per wall s
    #: Outputs that must repeat exactly on every iteration of a seed.
    check: Dict[str, Any] = field(default_factory=dict)
    #: Reported for people, never gated (goodput, diagnose, updates/s).
    info: Dict[str, float] = field(default_factory=dict)
    #: Program result counters the traced run reports per layer.
    layer_outputs: Dict[str, float] = field(default_factory=dict)
    #: Why the iteration's output is wrong on its own (empty = fine).
    errors: List[str] = field(default_factory=list)


class _Body:
    __slots__ = ("x", "v")

    def __init__(self, x: float) -> None:
        self.x = x
        self.v = 0.0

    def step(self, dt: float) -> float:
        self.v -= self.x * dt
        self.x += self.v * dt
        return self.x


#: The calibration kernel's memory: 8 MiB of doubles, and the
#: scattered indices it reads them at.
_MEMORY = array("d", bytes(8 << 20))
_PROBES = array("l", ((i * 2_654_435_761) % len(_MEMORY)
                      for i in range(4_000)))


class Calibrator:
    """Measures how fast this machine runs Python right now.

    The box this benchmark runs on is shared: the same iteration takes
    anywhere from 1x to 2x its best time depending on what neighbours
    do, in phases that last from tens of milliseconds to tens of
    seconds.  A fixed pure-Python kernel runs in short chunks between
    the timed steps, at most every ``INTERVAL_S``: attribute access,
    method calls, float arithmetic and dict stores, then reads spread
    over an 8 MiB array, because neighbours slow the program's
    cache-missing object graph more than they slow code that stays in
    the first-level cache.  It allocates no tracked objects, so it
    cannot shift the program's garbage collections.

    A step of ``raw`` wall seconds counts as ``raw * NOMINAL_S / c``
    calibrated seconds, where ``c`` is the mean length of the chunks
    just before and just after it: seconds of a machine on which a
    chunk takes exactly ``NOMINAL_S``, about its length on an idle
    2-core Xeon.  The kernel is benchmark code: no change to the
    program can make it faster or slower.
    """

    TRIPS = 4_000
    NOMINAL_S = 0.0015
    INTERVAL_S = 0.03

    def __init__(self) -> None:
        self._bodies = [_Body(0.5 + i) for i in range(64)]
        self._table: Dict[int, float] = {}
        self._ends: List[float] = []
        self._lengths: List[float] = []

    def start(self) -> None:
        """Begin an iteration: forget old chunks and take one."""
        self._ends = []
        self._lengths = []
        self.chunk()

    def chunk(self) -> None:
        bodies = self._bodies
        table = self._table
        acc = 0.0
        t0 = perf_counter()
        for i in range(self.TRIPS):
            acc += bodies[i & 63].step(0.001)
            table[i & 255] = acc
        for k in _PROBES:
            acc += _MEMORY[k]
        end = perf_counter()
        self._ends.append(end)
        self._lengths.append(end - t0)

    def maybe_chunk(self) -> None:
        if perf_counter() - self._ends[-1] >= self.INTERVAL_S:
            self.chunk()

    @property
    def spent_s(self) -> float:
        """Time spent in chunks since the first one of the iteration."""
        return sum(self._lengths[1:])

    @property
    def scale(self) -> float:
        """Median calibrated seconds per wall second this iteration."""
        return self.NOMINAL_S / statistics.median(self._lengths)

    def calibrate(self, end: float, raw_s: float) -> float:
        """``raw_s`` wall seconds that ended at ``end``, calibrated by
        the chunks just before and just after them."""
        j = bisect.bisect_left(self._ends, end)
        near = self._lengths[max(0, j - 1):j + 1]
        return raw_s * self.NOMINAL_S / statistics.mean(near)


class _SetupDone(Exception):
    """Raised at the first event of a set-up-only iteration."""


class SliceProbe:
    """Times ``Simulator.run`` from outside, one slice at a time.

    ``run(until)`` is replaced by consecutive ``run`` calls that each
    advance the clock by ``SLICE_US``.  Nothing of the program executes
    between two slices, so the event order is exactly that of one call;
    the pinned trace digests prove it.  With ``setup_only`` the first
    call raises :class:`_SetupDone` instead of running anything.
    """

    def __init__(self, calibrator: Calibrator, setup_only: bool) -> None:
        self.calibrator = calibrator
        self.setup_only = setup_only
        self.first_event_at = 0.0
        #: ``(end, wall seconds)`` of every slice.
        self.slices: List[Tuple[float, float]] = []
        self.sim: Optional[Simulator] = None
        self._orig: Optional[Callable[..., None]] = None

    def install(self) -> None:
        orig = self._orig = Simulator.run
        probe = self

        def run(sim: Simulator, until: float) -> None:
            probe.sim = sim
            probe.first_event_at = perf_counter()
            if probe.setup_only:
                raise _SetupDone()
            t = sim.now
            while t < until:
                t = min(t + SLICE_US, until)
                t0 = perf_counter()
                orig(sim, t)
                t1 = perf_counter()
                probe.slices.append((t1, t1 - t0))
                probe.calibrator.maybe_chunk()

        Simulator.run = run  # type: ignore[method-assign]

    def uninstall(self) -> None:
        if self._orig is not None:
            Simulator.run = self._orig  # type: ignore[method-assign]
            self._orig = None


def report_digest(report: Any) -> str:
    """Digest of a doctor report minus its wall-clock metrics snapshot."""
    body = report.to_json()
    body.pop("metrics", None)
    blob = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _sum_stat(objs: List[Any], name: str) -> float:
    return float(sum(getattr(obj.stats, name) for obj in objs))


def _sim_layer_outputs(result: Any) -> Dict[str, float]:
    """Outcome ratios from the program's result counters (counts only)."""
    macs = list(result.macs.values())
    dcf = [m for m in macs if isinstance(m, DcfMac)]
    domino = [m for m in macs if isinstance(m, DominoMac)]
    queues = [q for m in macs for _, q in m.queues.items()]
    out: Dict[str, float] = {}
    if dcf:
        out["dcf_success_ratio"] = (_sum_stat(dcf, "successes")
                                    / max(1.0, _sum_stat(dcf, "data_tx")))
    if domino:
        detected = _sum_stat(domino, "triggers_detected")
        missed = _sum_stat(domino, "triggers_missed")
        out["trigger_ratio"] = detected / max(1.0, detected + missed)
    enqueued = _sum_stat(queues, "enqueued")
    dropped = _sum_stat(queues, "dropped")
    out["drop_ratio"] = dropped / max(1.0, enqueued + dropped)
    if result.tcp_flows:
        out["retransmit_ratio"] = (
            _sum_stat(result.tcp_flows, "retransmits")
            / max(1.0, _sum_stat(result.tcp_flows, "sent")))
    return out


@dataclass
class SimWorkload:
    """A simulation workload: one ``run_scheme`` call per iteration."""

    name: str
    why: str
    scheme: str
    topology: Callable[[], Any]
    horizon_us: float
    downlink_mbps: float
    uplink_mbps: float
    tcp: bool = False
    #: Trace and diagnose every iteration (the observability path).
    observe: bool = False
    #: Simulator seed when it must not follow ``--seed`` (see README).
    sim_seed: Optional[int] = None
    calibrator: Calibrator = field(default_factory=Calibrator)

    @property
    def warmup_us(self) -> float:
        # The goodput window must be non-empty: run_scheme's default
        # 100 ms warm-up cut would zero goodput at these horizons.
        return self.horizon_us / 3.0

    def _run(self, seed: int, recorder: Any) -> Any:
        return run_scheme(
            self.scheme, self.topology(), horizon_us=self.horizon_us,
            warmup_us=self.warmup_us, downlink_mbps=self.downlink_mbps,
            uplink_mbps=self.uplink_mbps, tcp=self.tcp,
            seed=seed if self.sim_seed is None else self.sim_seed,
            trace=recorder)

    def setup(self, seed: int) -> float:
        """Build everything up to the first event; return calibrated s."""
        calibrator = self.calibrator
        calibrator.start()
        probe = SliceProbe(calibrator, setup_only=True)
        probe.install()
        try:
            t0 = perf_counter()
            self._run(seed, (telemetry.TraceRecorder(capacity=TRACE_CAPACITY)
                             if self.observe else None))
        except _SetupDone:
            pass
        finally:
            probe.uninstall()
        calibrator.chunk()
        return calibrator.calibrate(probe.first_event_at,
                                    probe.first_event_at - t0)

    def iterate(self, seed: int, check: bool = False) -> Iteration:
        """One job.  ``check=True`` also records a trace to digest."""
        recorder = (telemetry.TraceRecorder(capacity=TRACE_CAPACITY)
                    if self.observe or check else None)
        calibrator = self.calibrator
        calibrator.start()
        probe = SliceProbe(calibrator, setup_only=False)
        probe.install()
        try:
            t0 = perf_counter()
            result = self._run(seed, recorder)
        finally:
            probe.uninstall()
        records = report = None
        t_diag = t_end = perf_counter()
        if self.observe:
            assert recorder is not None
            records = recorder.records()
            report = telemetry.analysis.diagnose(
                records, metrics=recorder.metrics,
                horizon_us=self.horizon_us)
            t_end = perf_counter()
        wall_s = t_end - t0 - calibrator.spent_s
        calibrator.chunk()

        cal = calibrator.calibrate
        setup_raw = probe.first_event_at - t0
        steps = [cal(end, raw) for end, raw in probe.slices]
        # The analysis has no steps of its own: the chunks just before
        # and after it calibrate it as a whole.
        diagnose_s = cal(t_end, t_end - t_diag)
        rest_raw = (wall_s - setup_raw - (t_end - t_diag)
                    - sum(raw for _, raw in probe.slices))
        assert probe.sim is not None
        goodput = result.aggregate_mbps
        it = Iteration(
            wall_s=wall_s,
            job_s=(cal(probe.first_event_at, setup_raw) + sum(steps)
                   + diagnose_s + rest_raw * calibrator.scale),
            loop_s=sum(steps), advance_ms=self.horizon_us / 1_000.0,
            steps_ms=[step * 1_000.0 for step in steps],
            scale=calibrator.scale,
            check={"events": probe.sim.events_processed,
                   "goodput_mbps": goodput},
            info={"goodput_mbps": goodput},
            layer_outputs=_sim_layer_outputs(result))
        if self.observe:
            it.info["diagnose_s"] = diagnose_s
        if goodput <= 0.0:
            it.errors.append("goodput is 0: horizon inside the warm-up cut")
        if recorder is not None:
            if recorder.evicted:
                it.errors.append(f"trace ring evicted {recorder.evicted} "
                                 "records")
            it.check["digest"] = trace_digest(
                records if records is not None else recorder.records())
            it.info["trace_records"] = float(recorder.emitted)
        if report is not None:
            it.check["report_digest"] = report_digest(report)
        return it


#: Seed of the churn stream: the load-test bench's.
CHURN_SEED = 11


def service_scenario_spec(seed: int, updates: int) -> Dict[str, Any]:
    """The service load-test scenario; ``seed`` drives the mobility walk.

    The other streams keep the load-test's seeds: the churn stream's
    membership random walk decides how many clients are active, which
    moved revision p50 between 1.7 and 10 ms across seeds 11-15, and
    the RSS-wobble jitter moved a replay's cost by 30 % between odd and
    even seeds.  The mobility seed moved it by under 4 %.
    """
    churn_span_us = updates * 40.0
    return {
        "name": f"perfbench-churn-{updates}",
        "topology": {"kind": "random_t", "m": 10, "n": 3, "seed": 2},
        "config": {"batch_slots": 12, "debounce_events": 64,
                   "epoch_gap_us": 2000.0},
        "sources": [
            {"kind": "churn", "updates": updates, "seed": CHURN_SEED},
            {"kind": "rss_wobble", "client": 2, "updates": 200,
             "start_us": churn_span_us + 50_000.0, "gap_us": 2000.0,
             "jitter_db": 0.75},
            {"kind": "rss_wobble", "client": 5, "updates": 200,
             "start_us": churn_span_us + 51_000.0, "gap_us": 2000.0,
             "jitter_db": 0.75},
            {"kind": "mobility", "node": 1, "to": [400.0, 400.0],
             "steps": 40, "interval_us": 4000.0, "seed": seed,
             "start_us": churn_span_us + 500_000.0},
        ],
    }


@dataclass
class ServiceWorkload:
    """The online controller: one full scenario replay per iteration."""

    name: str
    why: str
    updates: int
    #: Epoch stride of the equality oracle on check iterations.
    check_every: int = 16
    calibrator: Calibrator = field(default_factory=Calibrator)

    def _build(self, seed: int, check: bool) -> Any:
        scenario = build_scenario(service_scenario_spec(seed, self.updates))
        engine = IncrementalController(scenario.make_state(),
                                       scenario.config)
        service = ControllerService(
            engine, check_every=self.check_every if check else 0)
        return scenario, service

    def setup(self, seed: int) -> float:
        """Build the scenario and controller; return calibrated s."""
        self.calibrator.start()
        t0 = perf_counter()
        self._build(seed, check=False)
        t1 = perf_counter()
        self.calibrator.chunk()
        return self.calibrator.calibrate(t1, t1 - t0)

    def iterate(self, seed: int, check: bool = False) -> Iteration:
        """One replay.  ``check=True`` runs the equality oracle."""
        calibrator = self.calibrator
        calibrator.start()
        t0 = perf_counter()
        scenario, service = self._build(seed, check)
        #: ``(end, wall seconds)`` of every revision epoch.
        steps: List[Tuple[float, float]] = []
        step_start = [0.0]

        def on_revision(_revision: Any) -> None:
            end = perf_counter()
            steps.append((end, end - step_start[0]))
            calibrator.maybe_chunk()
            step_start[0] = perf_counter()

        service.on_revision(on_revision)
        errors: List[str] = []
        t1 = step_start[0] = perf_counter()
        try:
            stats = service.run_events(scenario.events)
        except OracleMismatch as exc:
            errors.append(f"oracle: {exc}")
            stats = service.stats()
        t2 = perf_counter()
        wall_s = t2 - t0 - calibrator.spent_s
        calibrator.chunk()

        cal = calibrator.calibrate
        step_s = [cal(end, raw) for end, raw in steps]
        rest_raw = wall_s - (t1 - t0) - sum(raw for _, raw in steps)
        loop_s = sum(step_s) + rest_raw * calibrator.scale
        setup_s = cal(t1, t1 - t0)
        it = Iteration(
            wall_s=wall_s, job_s=setup_s + loop_s,
            loop_s=loop_s, advance_ms=scenario.events[-1].t_us / 1_000.0,
            steps_ms=[step * 1_000.0 for step in step_s],
            scale=calibrator.scale,
            check={"events": stats.events, "revisions": stats.revisions,
                   "final_digest": stats.last_digest},
            info={"updates_per_s": stats.events / loop_s},
            errors=errors)
        if check and stats.oracle_checks == 0:
            it.errors.append("oracle never ran")
        return it


def _fig14_topology() -> Any:
    # Called through the module so the traced run's topology.builder
    # wrapper sees it.
    return builder.random_t_topology(20, 3, seed=100)


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (
        SimWorkload(
            name="fig14-domino",
            why="whole stack: DOMINO control plane plus 43-receiver "
                "medium/radio fan-out on an 80-node T(20,3)",
            scheme="domino", topology=_fig14_topology, horizon_us=30_000.0,
            downlink_mbps=10.0, uplink_mbps=10.0),
        SimWorkload(
            name="fig14-dcf",
            why="same placement and traffic under DCF: engine, medium and "
                "radio with no control plane and no DOMINO MAC",
            scheme="dcf", topology=_fig14_topology, horizon_us=30_000.0,
            downlink_mbps=10.0, uplink_mbps=10.0),
        ServiceWorkload(
            name="service-churn",
            why="online controller replaying 10^4 churn updates, RSS "
                "wobble and a mobility walk; incremental control plane, "
                "no simulator",
            updates=10_000),
        SimWorkload(
            name="fig12-observe",
            why="traced T(10,2) DOMINO TCP run plus diagnose(): the only "
                "path where recorder, analysis and TCP do real work",
            scheme="domino", topology=lambda: default_topology(3),
            horizon_us=100_000.0, downlink_mbps=10.0, uplink_mbps=4.0,
            tcp=True, observe=True, sim_seed=1),
    )
}
