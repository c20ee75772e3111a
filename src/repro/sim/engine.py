"""Discrete-event simulation engine.

The whole reproduction runs on a single event loop with a microsecond
clock.  All protocol timing in the paper (9 us WiFi slots, 6.35 us
signatures, 16 us ROP symbols, ~285 us wired backbone latency) is
expressed directly in microseconds, so a plain float clock is both
convenient and precise enough (sub-nanosecond resolution at the time
scales simulated here).

Determinism: every stochastic component draws from ``Simulator.rng``
(or from an explicitly seeded ``random.Random`` handed to it), so a
run is fully reproducible from its seed.

Per-slot MAC countdown timers must not be collapsed into one scheduled
event.  Each per-slot hop re-enters the heap and receives a fresh
sequence number *at that boundary*; when several stations' counters
expire at the same float instant (the collision case the whole model
exists to capture), those sequence numbers decide commit order — and
whether a commit fires before or after a frame-end edge sharing the
instant, which changes SINRs.  A one-shot timer carries a sequence
number from when the countdown *started* and provably reorders such
ties.  Slot timers are therefore part of the observable ordering;
make them cheap, not fewer.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..telemetry import wallclock


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can
    cancel them (``event.cancel()``).  Cancelled events stay in the
    heap but are skipped when popped; this is the standard "lazy
    deletion" trick and keeps scheduling O(log n).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_live")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...],
                 live: Optional[List[int]] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Shared live-event counter owned by the simulator, so
        # ``Simulator.pending`` stays O(1) under lazy deletion.
        self._live = live

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._live is not None:
                self._live[0] -= 1

    def __lt__(self, other: "Event") -> bool:
        # Exact comparison is deliberate here: the heap tiebreak must
        # treat bit-identical timestamps (same float sums in the same
        # order, the determinism contract) as equal so the sequence
        # number decides — an epsilon would *introduce* order
        # sensitivity.  dominolint: disable=DOM104
        if self.time != other.time:  # dominolint: disable=DOM104
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, fn={getattr(self.fn, '__name__', self.fn)}, {state})"


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class Simulator:
    """Heap-based discrete-event simulator with a microsecond clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  Components
        that need independent streams should derive their own
        ``random.Random(sim.rng.getrandbits(64))``.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> hits = []
    >>> _ = sim.schedule(5.0, hits.append, 'a')
    >>> _ = sim.schedule(2.0, hits.append, 'b')
    >>> sim.run(until=10.0)
    >>> hits
    ['b', 'a']
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        # Heap entries are (time, seq, event) triples, not bare events:
        # tuple comparison runs in C, and with unique integer seqs the
        # event object itself is never compared.  Ordering is identical
        # to Event.__lt__ — exact float time, then scheduling order.
        self._heap: List[Tuple[float, int, Event]] = []
        # Count of non-cancelled events in the heap, shared with every
        # Event so cancel() can keep it current without a scan.
        self._live: List[int] = [0]
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        # Telemetry session bound at construction (the no-op recorder
        # when disabled); run() reports event-loop throughput to it.
        self._telemetry = telemetry.current()
        # Named per-simulation serial counters (see serial()).
        self._serials: Dict[str, int] = {}

    def serial(self, name: str) -> int:
        """Next value (1, 2, ...) of the per-simulation counter ``name``.

        Components needing process-global-looking identifiers (e.g.
        transport-level ACK uids that must not collide across flows)
        draw them here instead of from module/class globals: a fresh
        simulator always counts from zero again, so running two
        simulations in one process yields identical traces — the
        property the pinned trace digests rely on.
        """
        value = self._serials.get(name, 0) + 1
        self._serials[name] = value
        return value

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self.now})"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args, self._live)
        heapq.heappush(self._heap, (time, seq, event))
        self._live[0] += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Run until the clock reaches ``until`` (inclusive) or no events remain.

        The clock is left at ``until`` even if the heap drains earlier, so
        rate computations over a fixed horizon stay honest.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        tel = self._telemetry
        started = self._events_processed
        # Wall time is read through telemetry's accessor (never `time`
        # directly — DOM101): the readings feed the metrics registry
        # only, so the exported trace stays deterministic per seed.
        wall_start = wallclock.perf_counter() if tel.enabled else 0.0
        try:
            self._drain(until)
            self.now = max(self.now, until)
        finally:
            self._running = False
            if tel.enabled:
                # Event-loop throughput goes to the metrics registry
                # only: wall-clock numbers must never enter the trace
                # (the exported trace is deterministic per seed).
                elapsed = wallclock.perf_counter() - wall_start
                processed = self._events_processed - started
                metrics = tel.metrics
                metrics.counter("engine.events").inc(processed)
                metrics.counter("engine.wall_s").inc(elapsed)
                if elapsed > 0.0 and processed:
                    metrics.histogram("engine.events_per_sec").observe(
                        processed / elapsed)

    def _drain(self, until: float) -> None:
        """The event loop: pop and fire events up to ``until``."""
        heap = self._heap
        heappop = heapq.heappop
        live = self._live
        processed = 0
        try:
            while heap:
                time = heap[0][0]
                if time > until:
                    break
                event = heappop(heap)[2]
                if event.cancelled:
                    continue
                live[0] -= 1
                self.now = time
                processed += 1
                event.fn(*event.args)
        finally:
            self._events_processed += processed

    def step(self) -> bool:
        """Process exactly one pending (non-cancelled) event.

        Returns ``True`` if an event ran, ``False`` if the heap is empty.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if event.cancelled:
                continue
            self._live[0] -= 1
            self.now = event.time
            self._events_processed += 1
            event.fn(*event.args)
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still in the heap.  O(1):
        maintained by ``schedule``/``cancel`` instead of scanned."""
        return self._live[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}us, pending={self.pending})"
