"""Deterministic JSONL serialization for trace exports.

One record per line, keys sorted, compact separators, no trailing
whitespace.  Given identical record values this produces *byte*
identical output — the property the determinism regression test
pins down — because:

* ``sort_keys=True`` removes dict-insertion-order effects;
* floats serialize via ``repr`` (shortest round-trip form), which is
  deterministic for identical IEEE-754 values;
* set-valued fields are sorted into lists before they get here (the
  recorder's typed helpers do this).
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, List, Union

from .events import SCHEMA_VERSION

#: First line of every exported trace.
HEADER_KEY = "__domino_trace__"

#: Explicit version field in the header (v2+).  v1 files carried the
#: version as the value of :data:`HEADER_KEY` only; readers accept
#: both spellings.
VERSION_KEY = "schema_version"

#: Key of the meta record a flight-recorder dump writes right after
#: the header; :class:`~repro.telemetry.trace_view.TraceView` skips it.
FLIGHT_KEY = "__flight__"


def header_record() -> dict:
    return {HEADER_KEY: SCHEMA_VERSION, VERSION_KEY: SCHEMA_VERSION}


def dumps_record(record: dict) -> str:
    """One record as its canonical single-line JSON form."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_jsonl(stream: IO[str], records: Iterable[dict],
                header: bool = True) -> int:
    """Write records to an open text stream; returns the line count."""
    n = 0
    if header:
        stream.write(dumps_record(header_record()))
        stream.write("\n")
        n += 1
    for record in records:
        stream.write(dumps_record(record))
        stream.write("\n")
        n += 1
    return n


def dump_jsonl(path: str, records: Iterable[dict], header: bool = True) -> int:
    """Write records to ``path``; returns the line count."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        return write_jsonl(stream, records, header=header)


class TraceFormatError(ValueError):
    """The file is not a DOMINO trace, or its schema is unsupported."""


def _check_version(version: object) -> None:
    """Refuse traces this build cannot faithfully parse.

    Older versions are fine — every schema addition since v1 carries a
    default, so old records still round-trip.  *Newer* versions must
    fail here, with one clean line, rather than deep inside
    :func:`~repro.telemetry.events.from_record` on an unknown field.
    """
    if not isinstance(version, int) or isinstance(version, bool):
        raise TraceFormatError(
            f"trace header carries a malformed schema version {version!r}"
        )
    if version > SCHEMA_VERSION:
        raise TraceFormatError(
            f"trace schema v{version} is newer than this build supports "
            f"(reads up to v{SCHEMA_VERSION}); upgrade the trace tooling"
        )
    if version < 1:
        raise TraceFormatError(f"trace schema v{version} is not a known version")


def read_jsonl(source: Union[str, IO[str]]) -> Iterator[dict]:
    """Yield records from a trace file or open stream.

    The header line, when present, is validated and swallowed;
    headerless input (e.g. piped ``filter`` output) reads as the current
    schema, which :class:`~repro.telemetry.trace_view.TraceView` checks.
    Blank lines are skipped so hand-edited traces stay loadable; a line
    that is not JSON raises :class:`TraceFormatError`.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as stream:
            yield from read_jsonl(stream)
        return
    first = True
    for lineno, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"not JSONL (line {lineno}: {exc.msg})") from exc
        if first:
            first = False
            if isinstance(record, dict) and HEADER_KEY in record:
                _check_version(record.get(VERSION_KEY, record[HEADER_KEY]))
                continue
        yield record


def load_jsonl(source: Union[str, IO[str]]) -> List[dict]:
    """Eager form of :func:`read_jsonl`."""
    return list(read_jsonl(source))
