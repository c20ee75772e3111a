"""The live ops plane: Prometheus exporter, SLO tracking, flight recorder.

Everything post-hoc about the telemetry stack (doctor reports, causal
spans, sweep reports) answers "what happened"; this module answers
"what is happening *right now*" for a long-running controller
(:mod:`repro.service`):

* :func:`render_prometheus` — the metrics registry in Prometheus text
  exposition format (version 0.0.4), so a stock Prometheus scraper or
  a bare ``curl`` can watch live revision-latency histograms;
* :class:`OpsServer` — a stdlib-only asyncio HTTP endpoint serving
  ``/metrics``, ``/healthz`` and ``/statusz`` (JSON run state from a
  caller-supplied status provider);
* :class:`SloTracker` — rolling-window p99 latency target plus an
  oracle-mismatch budget, emitting doctor-style :class:`SloAlert`
  findings to subscribers the moment a budget is burned, not after
  the run ends;
* :class:`FlightRecorder` — dumps the tail of the active trace ring
  to a JSONL file when something goes wrong (oracle mismatch, SLO
  breach), capturing the causal context of an anomaly without tracing
  the whole run.

Layering: this module sits *on* the telemetry substrate (metrics,
jsonl, recorder, wallclock) and knows nothing about the service — the
service hands it callables (a status provider, alert subscribers), so
the ``repro.telemetry.ops -> repro.telemetry`` edge is the only one it
needs (see ``[tool.dominolint.layers]``).

Determinism: nothing here feeds back into simulation or controller
state.  Wall-clock readings come from :mod:`~repro.telemetry.wallclock`
and stay inside metrics, alerts and dump *file names* — never inside
trace records themselves.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .jsonl import FLIGHT_KEY, dumps_record, header_record
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from .recorder import TraceRecorder
from .wallclock import perf_counter

__all__ = [
    "render_prometheus", "prometheus_name",
    "OpsServer",
    "SloAlert", "SloConfig", "SloTracker",
    "FlightRecorder",
]


# ----------------------------------------------------------------------
# Prometheus text rendering
# ----------------------------------------------------------------------
_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0))


def prometheus_name(name: str) -> str:
    """A registry name as a legal Prometheus metric name.

    Dots (the registry's namespace separator) become underscores;
    anything else outside ``[a-zA-Z0-9_:]`` is squashed to ``_``, and
    a leading digit gets a ``_`` prefix.
    """
    cleaned = _NAME_OK.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format.

    Counters render with the conventional ``_total`` suffix,
    histograms as summaries (p50/p95/p99 quantiles plus ``_count`` /
    ``_sum``).  Output is sorted by registry name, ends with exactly
    one trailing newline, and is valid even for an empty registry.
    """
    lines: List[str] = []
    for name in registry:
        metric = registry._metrics[name]  # registry iteration is sorted
        pname = prometheus_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {pname}_total counter")
            lines.append(f"{pname}_total {_fmt(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {pname} summary")
            snap = metric.snapshot()
            for label, pct in _QUANTILES:
                lines.append(
                    f'{pname}{{quantile="{label}"}} '
                    f"{_fmt(metric.percentile(pct))}")
            lines.append(f"{pname}_count {_fmt(snap['count'])}")
            lines.append(f"{pname}_sum {_fmt(snap['sum'])}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_fmt(metric.value)}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """A sample value: integers without the trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# SLO tracking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloAlert:
    """One live SLO finding, in the doctor's finding idiom.

    ``rule`` is machine-matchable (``slo_p99``, ``oracle_budget``),
    ``severity`` is ``warn`` or ``critical``, and :meth:`render`
    produces the same ``[severity] message`` line style the doctor's
    report uses, so the two read alike in a terminal.
    """

    rule: str
    severity: str
    message: str
    value: float
    threshold: float
    epoch: Optional[int] = None

    def render(self) -> str:
        where = f" (epoch {self.epoch})" if self.epoch is not None else ""
        return f"[{self.severity}] {self.rule}: {self.message}{where}"


@dataclass
class SloConfig:
    """Targets the tracker holds the service to."""

    #: Rolling-window p99 revision latency target, milliseconds.
    p99_target_ms: float = 50.0
    #: Observations the rolling window holds.
    window: int = 512
    #: Samples required before the p99 is judged at all (a p99 of
    #: three samples is noise, not a tail).
    min_samples: int = 32
    #: Oracle mismatches tolerated before the budget alert fires
    #: (0 = the first mismatch is already a breach).
    oracle_budget: int = 0


class SloTracker:
    """Rolling-window SLO judge with a subscribable alert stream.

    Feed it every revision latency (:meth:`observe_latency`) and every
    oracle verdict (:meth:`record_oracle`); it re-judges the rolling
    p99 / mismatch budget on each sample and pushes an
    :class:`SloAlert` to every subscriber on an ok→breach transition.
    Alerts are edge-triggered: a sustained breach alerts once, then
    re-arms only after the window recovers below target.
    """

    def __init__(self, config: Optional[SloConfig] = None):
        self.config = config if config is not None else SloConfig()
        self._window: Deque[float] = deque(maxlen=self.config.window)
        self._subscribers: List[Callable[[SloAlert], None]] = []
        self.alerts: List[SloAlert] = []
        self.samples = 0
        self.oracle_checks = 0
        self.oracle_failures = 0
        self._latency_breached = False

    # -- wiring ---------------------------------------------------------
    def subscribe(self, callback: Callable[[SloAlert], None]) -> None:
        """``callback`` receives every future alert, synchronously."""
        self._subscribers.append(callback)

    def _emit(self, alert: SloAlert) -> None:
        self.alerts.append(alert)
        for callback in self._subscribers:
            callback(alert)

    # -- observations ---------------------------------------------------
    @property
    def rolling_p99_ms(self) -> float:
        return percentile(sorted(self._window), 99.0)

    @property
    def breached(self) -> bool:
        return bool(self.alerts)

    def observe_latency(self, latency_ms: float,
                        epoch: Optional[int] = None) -> Optional[SloAlert]:
        """Fold one revision latency in; returns the alert if one fired."""
        self._window.append(float(latency_ms))
        self.samples += 1
        if len(self._window) < self.config.min_samples:
            return None
        p99 = self.rolling_p99_ms
        target = self.config.p99_target_ms
        if p99 > target:
            if self._latency_breached:
                return None         # edge-triggered: already alerted
            self._latency_breached = True
            alert = SloAlert(
                rule="slo_p99", severity="warn",
                message=(f"rolling p99 revision latency {p99:.3f} ms "
                         f"exceeds the {target:.3f} ms target over the "
                         f"last {len(self._window)} revisions"),
                value=p99, threshold=target, epoch=epoch)
            self._emit(alert)
            return alert
        self._latency_breached = False
        return None

    def record_oracle(self, ok: bool,
                      epoch: Optional[int] = None) -> Optional[SloAlert]:
        """Fold one equality-oracle verdict in."""
        self.oracle_checks += 1
        if ok:
            return None
        self.oracle_failures += 1
        budget = self.config.oracle_budget
        if self.oracle_failures <= budget:
            return None
        alert = SloAlert(
            rule="oracle_budget", severity="critical",
            message=(f"{self.oracle_failures} oracle mismatch(es) exceed "
                     f"the budget of {budget} — incremental revisions "
                     f"are diverging from from-scratch recomputes"),
            value=float(self.oracle_failures), threshold=float(budget),
            epoch=epoch)
        self._emit(alert)
        return alert

    def status(self) -> Dict[str, Any]:
        """JSON-ready summary for ``/statusz``."""
        return {
            "p99_target_ms": self.config.p99_target_ms,
            "rolling_p99_ms": round(self.rolling_p99_ms, 4),
            "window": len(self._window),
            "samples": self.samples,
            "oracle_checks": self.oracle_checks,
            "oracle_failures": self.oracle_failures,
            "breached": self.breached,
            "alerts": [alert.render() for alert in self.alerts],
        }


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class FlightRecorder:
    """Dump the tail of the live trace when an anomaly fires.

    The trace recorder already *is* a bounded ring of recent raw
    events; the flight recorder's job is to freeze that ring's tail to
    disk at the moment of an anomaly, so the exact causal context (the
    last revisions, the events that fed them) survives without anyone
    having traced the whole run to a file.

    Dumps are JSONL: the standard trace header, one ``__flight__``
    meta record naming the trigger, then the last ``keep_last``
    records of the ring — loadable by every existing trace tool
    (``python -m repro.telemetry doctor dump.jsonl`` works).  File
    names are ``flight-<seq>-<reason>.jsonl``, sequence-numbered per
    recorder so repeated anomalies never overwrite each other.
    """

    #: Key of the dump's meta record (second line, after the header).
    META_KEY = FLIGHT_KEY

    def __init__(self, recorder: TraceRecorder, dump_dir: str,
                 keep_last: int = 4096):
        if keep_last <= 0:
            raise ValueError("flight recorder keep_last must be positive")
        self.recorder = recorder
        self.dump_dir = dump_dir
        self.keep_last = keep_last
        self.dumps: List[str] = []

    def dump(self, reason: str,
             detail: Optional[Dict[str, Any]] = None) -> str:
        """Write one dump; returns the file path."""
        os.makedirs(self.dump_dir, exist_ok=True)
        seq = len(self.dumps)
        safe_reason = _NAME_OK.sub("_", reason)
        path = os.path.join(self.dump_dir,
                            f"flight-{seq:04d}-{safe_reason}.jsonl")
        records = self.recorder.records()
        tail = records[-self.keep_last:]
        meta: Dict[str, Any] = {
            self.META_KEY: 1,
            "reason": reason,
            "events": len(tail),
            "evicted_before_dump": self.recorder.evicted,
        }
        if detail:
            meta.update(detail)
        with open(path, "w", encoding="utf-8", newline="\n") as stream:
            stream.write(dumps_record(header_record()) + "\n")
            stream.write(dumps_record(meta) + "\n")
            for record in tail:
                stream.write(dumps_record(record) + "\n")
        self.dumps.append(path)
        return path


# ----------------------------------------------------------------------
# The HTTP ops endpoint
# ----------------------------------------------------------------------
#: ``/statusz`` provider: a callable returning a JSON-serializable dict.
StatusFn = Callable[[], Dict[str, Any]]

_RESPONSE = (
    "HTTP/1.1 {status}\r\n"
    "Content-Type: {ctype}\r\n"
    "Content-Length: {length}\r\n"
    "Connection: close\r\n"
    "\r\n"
)

#: Content type Prometheus scrapers expect from a text exposition.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class OpsServer:
    """Stdlib-only asyncio HTTP endpoint for a live controller.

    Routes:

    * ``GET /metrics``  — :func:`render_prometheus` over ``metrics``;
    * ``GET /healthz``  — ``ok`` (200) while the provider reports
      healthy, ``unhealthy`` (503) otherwise;
    * ``GET /statusz``  — the status provider's dict as pretty JSON,
      with the server's own ``uptime_s`` folded in.

    Only ``GET`` is served (405 otherwise); unknown paths 404.  The
    server binds ``host:port`` (``port=0`` picks a free port, exposed
    as :attr:`port` after :meth:`start` — tests use that).  One
    request per connection: parse the request line, drain headers,
    respond, close — the minimal HTTP/1.x a scraper or curl needs.
    """

    def __init__(self, metrics: MetricsRegistry,
                 status_fn: Optional[StatusFn] = None,
                 healthy_fn: Optional[Callable[[], bool]] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.metrics = metrics
        self.status_fn = status_fn
        self.healthy_fn = healthy_fn
        self.host = host
        self.port = port
        self.requests = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = perf_counter()

    @property
    def uptime_s(self) -> float:
        return perf_counter() - self._started_at

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> int:
        """Bind and serve in the running loop; returns the bound port."""
        if self._server is not None:
            raise RuntimeError("ops server already started")
        self._started_at = perf_counter()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break
        return self.port

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # -- request handling -----------------------------------------------
    def _respond(self, path: str) -> Tuple[str, str, str]:
        """(status line, content type, body) for one GET path."""
        if path == "/metrics":
            return ("200 OK", METRICS_CONTENT_TYPE,
                    render_prometheus(self.metrics))
        if path == "/healthz":
            healthy = self.healthy_fn() if self.healthy_fn else True
            if healthy:
                return ("200 OK", "text/plain; charset=utf-8", "ok\n")
            return ("503 Service Unavailable",
                    "text/plain; charset=utf-8", "unhealthy\n")
        if path == "/statusz":
            status = dict(self.status_fn()) if self.status_fn else {}
            status.setdefault("uptime_s", round(self.uptime_s, 3))
            body = json.dumps(status, indent=2, sort_keys=True) + "\n"
            return ("200 OK", "application/json; charset=utf-8", body)
        return ("404 Not Found", "text/plain; charset=utf-8",
                "not found; routes: /metrics /healthz /statusz\n")

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            # Drain headers up to the blank line; nothing in them
            # matters for these routes.
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            if len(parts) < 2:
                status, ctype, body = ("400 Bad Request",
                                       "text/plain; charset=utf-8",
                                       "bad request\n")
            elif parts[0] != "GET":
                status, ctype, body = ("405 Method Not Allowed",
                                       "text/plain; charset=utf-8",
                                       "only GET is served\n")
            else:
                path = parts[1].split("?", 1)[0]
                status, ctype, body = self._respond(path)
            payload = body.encode("utf-8")
            head = _RESPONSE.format(status=status, ctype=ctype,
                                    length=len(payload))
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
            self.requests += 1
        except (ConnectionError, asyncio.IncompleteReadError):
            pass                      # a dropped scraper is not our problem
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
