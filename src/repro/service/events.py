"""The controller's typed input event stream.

Four event kinds cover everything an enterprise WLAN controller hears
about between schedules:

* :class:`Associate` — a client joins an AP, bringing measured RSS
  for both directions of every pair it participates in;
* :class:`Disassociate` — a client leaves; its links vanish from the
  universe;
* :class:`RssDelta` — new measurements for one node's RSS row/column
  (mobility drift, a beacon campaign, a single re-measured pair);
* :class:`QueueUpdate` — a backlog report for one link (the online
  analogue of the ROP / wired queue reports).

Timestamps are *virtual* microseconds on the event stream's own
clock.  The service debounces on them and stamps them into trace
events, so a replayed scenario is bit-for-bit reproducible no matter
how fast the host machine drains it.

Events are immutable and JSON round-trippable
(:func:`event_to_json` / :func:`event_from_json`) so scenarios can be
stored under ``examples/`` and replayed from the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Union


@dataclass(frozen=True)
class Associate:
    """A client joined ``ap``; carries its measured RSS entries.

    ``rss_to[other]`` is the RSS at ``other`` when the client
    transmits; ``rss_from[other]`` the reverse direction.  Entries may
    cover any subset of nodes (a real association only measures what
    it can hear); unmentioned pairs keep their previous values.
    """

    t_us: float
    client: int
    ap: int
    rss_to: Mapping[int, float] = field(default_factory=dict)
    rss_from: Mapping[int, float] = field(default_factory=dict)

    KIND = "associate"


@dataclass(frozen=True)
class Disassociate:
    """A client left the network."""

    t_us: float
    client: int

    KIND = "disassociate"


@dataclass(frozen=True)
class RssDelta:
    """Fresh RSS measurements for one node's row/column.

    A single re-measured pair is the degenerate case: one entry in
    ``rss_to`` and/or ``rss_from``.  The dirty region is always
    confined to links touching ``node`` (see the conflict test's
    read-set argument in
    :func:`repro.topology.conflict_graph.update_conflict_graph`).
    """

    t_us: float
    node: int
    rss_to: Mapping[int, float] = field(default_factory=dict)
    rss_from: Mapping[int, float] = field(default_factory=dict)

    KIND = "rss_delta"


@dataclass(frozen=True)
class QueueUpdate:
    """A backlog report for link ``src -> dst`` (packets, fractional)."""

    t_us: float
    src: int
    dst: int
    backlog: float

    KIND = "queue_update"


ControllerEvent = Union[Associate, Disassociate, RssDelta, QueueUpdate]

_KINDS = {cls.KIND: cls for cls in (Associate, Disassociate, RssDelta,
                                    QueueUpdate)}
_ID_FIELDS = ("node", "client", "ap", "src", "dst")
_NUMBER_FIELDS = ("t_us", "backlog")


def _rss_out(mapping: Mapping[int, float]) -> Dict[str, float]:
    # JSON object keys are strings; sort for stable files.
    return {str(node): float(value)
            for node, value in sorted(mapping.items())}


def finite_number(value: object) -> bool:
    """A JSON number that is finite (bool is not a number here)."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _rss_in(kind: object, name: str, mapping: object) -> Dict[int, float]:
    """One RSS field: a JSON object of finite numbers in dBm.  A NaN
    entry would fail every SINR comparison, silently keeping its
    link out of every slot, so it is refused here."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{kind} event: {name} must be a JSON object, "
                         f"not {type(mapping).__name__}")
    for node, value in mapping.items():
        if not finite_number(value):
            raise ValueError(f"{kind} event: {name}[{node!r}] must be a "
                             f"finite number, not {value!r}")
    return {int(node): float(value) for node, value in mapping.items()}


def event_to_json(event: ControllerEvent) -> Dict[str, object]:
    """One event as a plain JSON-serializable dict."""
    if isinstance(event, Associate):
        return {"kind": event.KIND, "t_us": event.t_us,
                "client": event.client, "ap": event.ap,
                "rss_to": _rss_out(event.rss_to),
                "rss_from": _rss_out(event.rss_from)}
    if isinstance(event, Disassociate):
        return {"kind": event.KIND, "t_us": event.t_us,
                "client": event.client}
    if isinstance(event, RssDelta):
        return {"kind": event.KIND, "t_us": event.t_us, "node": event.node,
                "rss_to": _rss_out(event.rss_to),
                "rss_from": _rss_out(event.rss_from)}
    return {"kind": event.KIND, "t_us": event.t_us, "src": event.src,
            "dst": event.dst, "backlog": event.backlog}


def event_from_json(record: Mapping[str, object]) -> ControllerEvent:
    """Parse one scenario record; unknown kinds and wrongly typed
    scalars fail loudly with a one-line ValueError."""
    data = dict(record)
    kind = data.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"unknown controller event kind: {kind!r}")
    for name, value in data.items():
        if name in _ID_FIELDS:
            types, expected = (int,), "an integer"
        elif name in _NUMBER_FIELDS:
            types, expected = (int, float), "a finite number"
        else:
            continue
        if not isinstance(value, types) or not finite_number(value):
            raise ValueError(f"{kind} event: {name} must be {expected}, "
                             f"not {value!r}")
    if kind in ("associate", "rss_delta"):
        for name in ("rss_to", "rss_from"):
            data[name] = _rss_in(kind, name, data.get(name, {}))
    return _KINDS[kind](**data)  # type: ignore[arg-type, no-any-return]
