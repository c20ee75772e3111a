"""Replayable scenarios: JSON in, a fully seeded service run out.

A scenario file pins everything the online controller consumes — the
seed topology, the engine/debounce configuration, and one or more
event sources — so ``python -m repro.service --scenario f.json`` is
bit-reproducible run to run (all sources are seeded generators, and
the replay driver debounces on virtual time only).

Schema (all sections optional except ``topology``)::

    {
      "name": "forty-node-churn",
      "topology": {"kind": "random_t", "m": 10, "n": 3, "seed": 0},
      "config":   {"batch_slots": 12, "epoch_gap_us": 2000.0},
      "sources": [
        {"kind": "churn", "updates": 2000, "seed": 7},
        {"kind": "rss_wobble", "client": 1, "updates": 50},
        {"kind": "mobility", "node": 1, "to": [400.0, 400.0],
         "steps": 10, "interval_us": 5000.0},
        {"kind": "events", "events": [
          {"kind": "queue_update", "t_us": 10.0,
           "src": 0, "dst": 1, "backlog": 4}]}
      ]
    }

``topology.kind`` is ``"fig7"`` or ``"random_t"``; sources merge into
one stream sorted by ``t_us``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..topology.builder import Topology, fig7_topology, random_t_topology
from .churn import ChurnConfig, churn_events, link_rss_wobble, mobility_events
from .events import ControllerEvent, event_from_json, finite_number
from .incremental import ServiceConfig
from .state import NetworkState


@dataclass
class Scenario:
    """A parsed scenario, ready to run."""

    name: str
    topology: Topology
    config: ServiceConfig
    events: List[ControllerEvent] = field(default_factory=list)

    def make_state(self) -> NetworkState:
        return NetworkState.from_topology(self.topology)


def _object(value: Any, what: str) -> Dict[str, Any]:
    """``value`` if it is a JSON object, else a one-line ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"not {type(value).__name__}")
    return value


def _integer(spec: Dict[str, Any], what: str, name: str,
             default: Optional[int] = None) -> int:
    """An integer field of ``what`` (a topology, the config or a
    source): a JSON integer, else a one-line ValueError naming both.
    A float, string or bool is refused rather than truncated or
    coerced (``"steps": 2.9`` would walk 2 steps, ``"seed": true``
    would be seed 1)."""
    value = spec[name] if default is None else spec.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what}: {name} must be an integer, "
                         f"not {value!r}")
    return value


def _build_topology(spec: Dict[str, Any]) -> Topology:
    kind = _object(spec, "topology").get("kind")
    if kind == "fig7":
        return fig7_topology(uplinks=bool(spec.get("uplinks", False)))
    if kind == "random_t":
        what = "random_t topology"
        return random_t_topology(
            m=_integer(spec, what, "m"), n=_integer(spec, what, "n"),
            area_m=float(spec.get("area_m", 800.0)),
            seed=_integer(spec, what, "seed", 0),
            tx_power_dbm=float(spec.get("tx_power_dbm", 20.0)),
            max_client_range_m=float(spec.get("max_client_range_m", 40.0)))
    raise ValueError(f"unknown topology kind: {kind!r}")


def _build_config(spec: Dict[str, Any]) -> ServiceConfig:
    config = ServiceConfig()
    spec = _object(spec, "config")
    for key in ("batch_slots", "demand_cap", "debounce_events"):
        if key in spec:
            setattr(config, key, _integer(spec, "config", key))
    if "epoch_gap_us" in spec:
        config.epoch_gap_us = float(spec["epoch_gap_us"])
    if "poll_every_batch" in spec:
        config.poll_every_batch = bool(spec["poll_every_batch"])
    return config


def _number(spec: Dict[str, Any], kind: str, name: str,
            default: Optional[float] = None) -> float:
    """A source's numeric field: a finite JSON number, else a one-line
    ValueError naming the source kind and the field.  A NaN here would
    reach event times or the RSS table, where it fails every SINR
    comparison silently."""
    value = spec[name] if default is None else spec.get(name, default)
    if not finite_number(value):
        raise ValueError(f"{kind} source: {name} must be a finite number, "
                         f"not {value!r}")
    return float(value)


#: The churn source's integer fields (the others are floats).
_CHURN_INTEGERS = ("updates", "seed", "max_backlog")


def _source_events(spec: Dict[str, Any], topology: Topology,
                   state: NetworkState) -> List[ControllerEvent]:
    kind = _object(spec, "source").get("kind")
    what = f"{kind} source"
    if kind == "churn":
        fields = {k: v for k, v in spec.items() if k != "kind"}
        for name in fields:
            if name in _CHURN_INTEGERS:
                _integer(spec, what, name)
            else:
                _number(spec, kind, name)
        return list(churn_events(state, ChurnConfig(**fields)))
    if kind == "rss_wobble":
        return list(link_rss_wobble(
            state, client=_integer(spec, what, "client"),
            updates=_integer(spec, what, "updates"),
            seed=_integer(spec, what, "seed", 0),
            start_us=_number(spec, kind, "start_us", 0.0),
            gap_us=_number(spec, kind, "gap_us", 500.0),
            jitter_db=_number(spec, kind, "jitter_db", 1.5)))
    if kind == "mobility":
        node = spec["node"]
        if (isinstance(node, bool) or not isinstance(node, int)
                or not 0 <= node < state.n_nodes):
            raise ValueError(f"mobility source: node must be a node id in "
                             f"[0, {state.n_nodes}), not {node!r}")
        to = spec["to"]
        if (not isinstance(to, list) or len(to) != 2
                or not all(finite_number(v) for v in to)):
            raise ValueError("mobility source: to must be two finite "
                             f"numbers [x, y], not {to!r}")
        return list(mobility_events(
            topology.trace, node=node,
            to_pos=(float(to[0]), float(to[1])),
            steps=_integer(spec, what, "steps"),
            interval_us=_number(spec, kind, "interval_us"),
            start_us=_number(spec, kind, "start_us", 0.0),
            seed=_integer(spec, what, "seed", 0)))
    if kind == "events":
        return [event_from_json(_object(raw, "event"))
                for raw in spec["events"]]
    raise ValueError(f"unknown event source kind: {kind!r}")


def build_scenario(data: Dict[str, Any]) -> Scenario:
    """Assemble a scenario from already-parsed JSON.

    Raises a one-line ValueError (or KeyError/TypeError on a missing
    or mistyped field) for malformed input.
    """
    topology = _build_topology(_object(data, "scenario").get("topology", {}))
    # Sources see a scratch state so generating events (which tracks
    # ground truth on copies anyway) can never leak into the state the
    # engine is later seeded from.
    scratch = NetworkState.from_topology(topology)
    events: List[ControllerEvent] = []
    for spec in data.get("sources", []):
        events.extend(_source_events(spec, topology, scratch))
    events.sort(key=lambda e: e.t_us)
    return Scenario(
        name=str(data.get("name", "scenario")),
        topology=topology,
        config=_build_config(data.get("config", {})),
        events=events,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return build_scenario(json.load(handle))
