"""Trace tooling CLI.

Usage::

    python -m repro.telemetry summarize run.jsonl
    python -m repro.telemetry timeline  run.jsonl [--first N] [--last N]
    python -m repro.telemetry filter    run.jsonl --kind sig_detect \
        [--node 3] [--slot 7] [--t0 0] [--t1 50000]
    python -m repro.telemetry doctor    run.jsonl [--json] [--horizon-us H]
    python -m repro.telemetry causality run.jsonl [--json] [--batch B]
    python -m repro.telemetry diff      a.jsonl b.jsonl [--json]

``summarize`` prints headline statistics and the reconstructed
trigger-chain timeline (slot index, senders, triggering node,
signature detected y/n, backup fallback used y/n); ``timeline``
prints just the table; ``filter`` re-emits matching records as JSONL
for further piping; ``doctor`` runs the diagnosis layer
(:mod:`~repro.telemetry.analysis`) and prints the health report;
``causality`` reconstructs the per-batch trigger trees (schema v3
spans) and prints critical-path latency attribution; ``diff`` aligns
two traces slot-by-slot and reports the first divergence.  Every
subcommand first reads its input into one validated
:class:`~repro.telemetry.trace_view.TraceView`.

Exit codes are CI-friendly: ``0`` healthy / identical, ``1`` the
doctor reported findings or the diff diverged, ``2`` the input could
not be read, is not JSONL, or breaks the trace schema (one
``error: <path>: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import causality_report, diagnose, diff_traces
from .jsonl import dumps_record, read_jsonl
from .trace_tools import (filter_records, render_timeline, summarize,
                          trigger_chain_timeline)
from .trace_view import TraceFormatError, TraceView


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", help="trace file (JSONL, '-' for stdin)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect DOMINO telemetry traces.")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser(
        "summarize", help="headline stats + trigger-chain timeline")
    _add_trace_arg(cmd)

    cmd = commands.add_parser(
        "timeline", help="the trigger-chain timeline table only")
    _add_trace_arg(cmd)
    cmd.add_argument("--first", type=int, default=None,
                     help="first slot index to show")
    cmd.add_argument("--last", type=int, default=None,
                     help="last slot index to show")

    cmd = commands.add_parser(
        "filter", help="re-emit matching records as JSONL")
    _add_trace_arg(cmd)
    cmd.add_argument("--kind", default=None, help="event kind (e.g. sig_detect)")
    cmd.add_argument("--node", type=int, default=None)
    cmd.add_argument("--slot", type=int, default=None)
    cmd.add_argument("--t0", type=float, default=None,
                     help="ignore events before this sim time (us)")
    cmd.add_argument("--t1", type=float, default=None,
                     help="ignore events after this sim time (us)")

    cmd = commands.add_parser(
        "doctor", help="diagnose protocol health from a trace "
                       "(exit 1 when findings are reported)")
    _add_trace_arg(cmd)
    cmd.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")
    cmd.add_argument("--horizon-us", type=float, default=None,
                     help="airtime accounting horizon (defaults to the "
                          "last event timestamp)")

    cmd = commands.add_parser(
        "causality", help="per-batch critical paths and latency "
                          "attribution (schema v3 spans)")
    _add_trace_arg(cmd)
    cmd.add_argument("--json", action="store_true",
                     help="emit the report as JSON instead of text")
    cmd.add_argument("--batch", type=int, default=None,
                     help="show the full critical path of one batch")

    cmd = commands.add_parser(
        "diff", help="align two traces slot-by-slot, report divergence")
    cmd.add_argument("trace_a", help="baseline trace (JSONL)")
    cmd.add_argument("trace_b", help="candidate trace (JSONL)")
    cmd.add_argument("--json", action="store_true",
                     help="emit the diff as JSON instead of text")

    args = parser.parse_args(argv)
    paths = ([args.trace_a, args.trace_b] if args.command == "diff"
             else [args.trace])
    views: List[TraceView] = []
    for path in paths:
        try:
            views.append(TraceView(read_jsonl(sys.stdin if path == "-"
                                              else path)))
        except OSError as exc:
            print(f"error: {path}: cannot read: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        except (TraceFormatError, UnicodeDecodeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    view = views[0]

    try:
        if args.command == "summarize":
            print(summarize(view))
        elif args.command == "timeline":
            timeline = trigger_chain_timeline(view)
            if args.first is not None:
                timeline = [e for e in timeline if e.slot >= args.first]
            if args.last is not None:
                timeline = [e for e in timeline if e.slot <= args.last]
            print(render_timeline(timeline))
        elif args.command == "doctor":
            report = diagnose(view, horizon_us=args.horizon_us)
            if args.json:
                print(json.dumps(report.to_json(), sort_keys=True, indent=2))
            else:
                print(report.render())
            if report.findings:
                return 1
        elif args.command == "causality":
            report = causality_report(view)
            if args.batch is not None:
                chain = next((c for c in report.batches
                              if c.batch == args.batch), None)
                if chain is None:
                    print(f"error: no causal chain for batch {args.batch} "
                          f"in this trace", file=sys.stderr)
                    return 2
                if args.json:
                    print(json.dumps(chain.to_json(), sort_keys=True,
                                     indent=2))
                else:
                    print(chain.render())
            elif args.json:
                print(json.dumps(report.to_json(), sort_keys=True, indent=2))
            else:
                print(report.render())
        elif args.command == "diff":
            result = diff_traces(view, views[1])
            if args.json:
                print(json.dumps(result.to_json(), sort_keys=True, indent=2))
            else:
                print(result.render())
            if not result.identical:
                return 1
        else:
            for record in filter_records(view, kind=args.kind,
                                         node=args.node, slot=args.slot,
                                         t0=args.t0, t1=args.t1):
                print(dumps_record(record))
    except BrokenPipeError:  # e.g. `... | head`; not an error
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
