"""One validated, indexed view of a trace — what every trace reader takes.

Construction checks every record against the event dataclasses of
:mod:`~repro.telemetry.events` (the single schema source) and raises
:class:`TraceFormatError` naming the record index, kind and field;
DESIGN.md ("One validated trace view") states the rules.
"""

from __future__ import annotations

import types
from bisect import bisect_right
from dataclasses import MISSING, fields
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple, Union, get_args, get_origin, get_type_hints)

from .events import EVENT_TYPES
from .jsonl import FLIGHT_KEY, TraceFormatError

__all__ = ["Trace", "TraceFormatError", "TraceView", "as_view"]

_Types = FrozenSet[type]
_SCALARS: Dict[object, Tuple[_Types, str]] = {
    int: (frozenset({int}), "int"),
    float: (frozenset({int, float}), "number"),
    bool: (frozenset({bool}), "bool"),
    str: (frozenset({str}), "string"),
}


def _rule(annotation: object) -> Tuple[_Types, Optional[_Types], str]:
    """(value types, list-item types, description) for one annotation."""
    origin, args = get_origin(annotation), get_args(annotation)
    if origin in (Union, types.UnionType) and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        accepted, items, name = _rule(inner)
        return accepted | {type(None)}, items, f"{name} or null"
    if origin is list:
        items, name = _SCALARS[args[0]]
        return frozenset({list}), items, f"list of {name}"
    accepted, name = _SCALARS[annotation]
    return accepted, None, name


#: kind -> (field, required, value types, list-item types, description).
_RULES = {
    kind: [(f.name, f.default is MISSING and f.default_factory is MISSING,
            *_rule(get_type_hints(cls)[f.name])) for f in fields(cls)]
    for kind, cls in EVENT_TYPES.items()}
_NAMES = {kind: frozenset(f.name for f in fields(cls)) | {"ev"}
          for kind, cls in EVENT_TYPES.items()}
_ABSENT = object()


def _validate(index: int, record: dict) -> str:
    """Check one record against the schema; return its kind."""
    kind = record.get("ev")
    rules = _RULES.get(kind) if isinstance(kind, str) else None
    if rules is None:
        what = "no event kind" if kind is None else f"unknown kind {kind!r}"
        raise TraceFormatError(f"record #{index}: {what}")
    for name, required, accepted, items, expected in rules:
        value = record.get(name, _ABSENT)
        if value is _ABSENT:
            if required:
                raise TraceFormatError(
                    f"record #{index} ({kind}): missing field {name!r}")
        elif type(value) not in accepted or (
                items is not None and type(value) is list
                and not all(type(item) in items for item in value)):
            raise TraceFormatError(
                f"record #{index} ({kind}): field {name!r} must be "
                f"{expected}, got {type(value).__name__}")
    unknown = record.keys() - _NAMES[kind]
    if unknown:
        raise TraceFormatError(f"record #{index} ({kind}): unknown field "
                               f"{sorted(unknown)[0]!r}")
    return kind


class TraceView:
    """A validated trace, indexed by kind, by span id and by slot."""

    def __init__(self, records: Iterable[object]) -> None:
        #: Every record, in trace order.
        self.records: List[dict] = []
        #: The v3 span index: event id -> record.
        self.by_id: Dict[int, dict] = {}
        #: Event kind -> its records in trace order; kinds in first-seen
        #: order.
        self.by_kind: Dict[str, List[dict]] = {}
        dispatches: List[Tuple[int, int, int, int]] = []
        for index, record in enumerate(records):
            if index == 0 and isinstance(record, dict) and FLIGHT_KEY in record:
                continue  # a flight-recorder dump's meta record
            if not isinstance(record, dict):
                raise TraceFormatError(
                    f"record #{index}: expected a JSON object, got "
                    f"{type(record).__name__}")
            kind = _validate(index, record)
            self.records.append(record)
            self.by_kind.setdefault(kind, []).append(record)
            if record.get("id") is not None:
                self.by_id[record["id"]] = record
            # An inverted range (last < first) holds no slot.
            if (kind == "sched_dispatch"
                    and record["first_slot"] <= record["last_slot"]):
                dispatches.append((record["first_slot"], record["last_slot"],
                                   record["batch"], index))
        #: (first_slot, last_slot, batch, record index), by first slot.
        self._ranges = sorted(dispatches)
        for (_, last, _, before), (first, _, _, index) in zip(
                self._ranges, self._ranges[1:]):
            if first <= last:
                raise TraceFormatError(
                    f"record #{index} (sched_dispatch): slot {first} is "
                    f"already dispatched by record #{before}")
        self._starts = [first for first, _, _, _ in self._ranges]

    def of(self, *kinds: str) -> Sequence[dict]:
        """The records of the given kinds, in trace order (read-only)."""
        if len(kinds) == 1:
            return self.by_kind.get(kinds[0], [])
        return [record for record in self.records if record["ev"] in kinds]

    def batch_of_slot(self, slot: Optional[int]) -> Optional[int]:
        """The batch whose dispatched range holds ``slot``, if any."""
        if slot is None:
            return None
        at = bisect_right(self._starts, slot) - 1
        if at < 0:
            return None
        _, last, batch, _ = self._ranges[at]
        return batch if slot <= last else None


#: What the trace readers accept: a view, or records to build one from.
Trace = Union[TraceView, Iterable[dict]]


def as_view(trace: Trace) -> TraceView:
    """``trace`` itself if it is already a view, else a new view of it."""
    return trace if isinstance(trace, TraceView) else TraceView(trace)
