"""TraceView: schema validation, indexes, and the CLI's exit-2 contract.

Every trace reader takes one validated view, so a malformed trace must
end at construction with :class:`TraceFormatError` — never deep inside
an analysis with a ``KeyError``, and never silently as "healthy".  The
CLI turns that error into one ``error: <path>: ...`` line and exit 2.
"""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import run_scheme
from repro.telemetry import __main__ as cli
from repro.telemetry.jsonl import FLIGHT_KEY, load_jsonl
from repro.telemetry.ops import FlightRecorder
from repro.telemetry.trace_view import TraceFormatError, TraceView
from repro.topology.builder import fig1_topology

CHAIN = os.path.join(os.path.dirname(__file__), "fixtures", "chain.jsonl")


def slot_exec(**fields):
    record = {"ev": "slot_exec", "t": 1.0, "node": 1, "slot": 0, "dst": 2,
              "fake": False}
    record.update(fields)
    return record


def dispatch(batch, first, last):
    return {"ev": "sched_dispatch", "t": 0.0, "batch": batch,
            "first_slot": first, "last_slot": last,
            "slots": last - first + 1}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestValidation:
    def test_fixture_and_optional_fields_load(self):
        view = TraceView(load_jsonl(CHAIN))
        assert len(view.records) == 17
        # v3 fields default: no id, no cause, no via.
        assert TraceView([slot_exec()]).by_id == {}

    def test_int_is_accepted_for_float(self):
        TraceView([slot_exec(t=1)])

    @pytest.mark.parametrize("record, message", [
        (slot_exec(node=True), "record #0 (slot_exec): field 'node' must "
                               "be int, got bool"),
        (slot_exec(slot=1.0), "field 'slot' must be int, got float"),
        (slot_exec(t=None), "field 't' must be number, got NoneType"),
        (slot_exec(fake=0), "field 'fake' must be bool, got int"),
        (slot_exec(via=3), "field 'via' must be string or null, got int"),
        ({"ev": "trigger_fire", "t": 1.0, "node": 1, "slot": 0,
          "targets": [2, "3"], "rop": False, "polls": []},
         "field 'targets' must be list of int, got list"),
        ({"ev": "slot_exec", "id": 1, "cause": 5},
         "record #0 (slot_exec): missing field 't'"),
        (slot_exec(colour="red"), "unknown field 'colour'"),
        ({"ev": "warp_drive"}, "record #0: unknown kind 'warp_drive'"),
        ({"ev": ["slot_exec"]}, "unknown kind ['slot_exec']"),
        ({"foo": 1}, "record #0: no event kind"),
        ([1, 2], "record #0: expected a JSON object, got list"),
    ])
    def test_violation_names_index_kind_and_field(self, record, message):
        with pytest.raises(TraceFormatError) as err:
            TraceView([record])
        assert message in str(err.value)

    def test_error_names_the_offending_record(self):
        with pytest.raises(TraceFormatError, match=r"^record #2 "):
            TraceView([slot_exec(), slot_exec(), slot_exec(dst="x")])

    def test_none_only_where_optional(self):
        TraceView([{"ev": "frame_tx", "t": 0.0, "node": 1, "frame": "ack",
                    "dst": None, "seq": 0, "slot": None,
                    "airtime_us": 44}])
        with pytest.raises(TraceFormatError, match="'seq' must be int,"):
            TraceView([{"ev": "frame_tx", "t": 0.0, "node": 1,
                        "frame": "ack", "dst": None, "seq": None,
                        "slot": None, "airtime_us": 44.0}])


class TestIndexes:
    def test_of_keeps_trace_order_across_kinds(self):
        view = TraceView(load_jsonl(CHAIN))
        mixed = view.of("frame_tx", "frame_drop")
        assert [r["t"] for r in mixed] == sorted(r["t"] for r in mixed)
        assert [r["ev"] for r in mixed][-2:] == ["frame_tx", "frame_drop"]
        assert len(view.of("slot_exec")) == 3
        assert view.of("batch_start") == []

    def test_by_id(self):
        view = TraceView([slot_exec(id=4), slot_exec(id=None)])
        assert list(view.by_id) == [4]

    def test_batch_of_slot(self):
        view = TraceView([dispatch(1, 5, 9), dispatch(0, 0, 4),
                          dispatch(2, 12, 12)])
        assert [view.batch_of_slot(s) for s in (0, 4, 5, 9, 12)] == \
            [0, 0, 1, 1, 2]
        assert view.batch_of_slot(10) is None
        assert view.batch_of_slot(13) is None
        assert view.batch_of_slot(-1) is None
        assert view.batch_of_slot(None) is None

    @pytest.mark.parametrize("ranges", [
        [(0, 0, 4), (1, 4, 8)],
        [(0, 0, 9), (1, 3, 5)],
        [(0, 2, 2), (1, 2, 2)],
    ])
    def test_overlapping_dispatch_ranges_are_refused(self, ranges):
        records = [dispatch(*r) for r in ranges]
        with pytest.raises(TraceFormatError, match="already dispatched"):
            TraceView(records)

    def test_inverted_dispatch_range_holds_no_slot(self):
        view = TraceView([dispatch(0, 5, 4), dispatch(1, 6, 9)])
        assert [view.batch_of_slot(s) for s in (4, 5, 6)] == [None, None, 1]
        # Inside another range it holds no slot either: no overlap.
        view = TraceView([dispatch(0, 0, 9), dispatch(1, 5, 4)])
        assert view.batch_of_slot(5) == 0

    def test_flight_meta_record_is_skipped_only_first(self):
        meta = {FLIGHT_KEY: 1, "reason": "slo_breach"}
        assert TraceView([meta, slot_exec()]).records == [slot_exec()]
        with pytest.raises(TraceFormatError, match="record #1: no event"):
            TraceView([slot_exec(), meta])

    def test_huge_dispatch_range_is_not_enumerated(self):
        view = TraceView([dispatch(0, 0, 10**11)])
        assert view.batch_of_slot(10**11) == 0
        assert view.batch_of_slot(10**11 + 1) is None


#: One-line-ish malformed traces: each crashed or passed silently
#: before the view validated every record.
PROBES = {
    "slot_exec_missing_fields": '{"ev":"slot_exec","id":1,"cause":5}\n',
    "frame_tx_string_node":
        '{"ev":"frame_tx","t":1.0,"node":"a"}\n{"ev":"warp_drive"}\n',
    "unknown_kind":
        '{"ev":"slot_exec","t":1.0,"node":1,"slot":0,"dst":2,'
        '"fake":false}\n{"ev":"warp_drive"}\n',
    "no_kind": '{"foo":1}\n',
    "not_an_object": "[1,2]\n",
}

@pytest.fixture(scope="module")
def flight_dump(tmp_path_factory):
    """A real flight-recorder dump: the tail of a traced DOMINO run."""
    result = run_scheme("domino", fig1_topology(), horizon_us=30_000.0,
                        seed=1, saturated=True, trace=True)
    flight = FlightRecorder(result.trace,
                            str(tmp_path_factory.mktemp("flight")),
                            keep_last=600)
    return flight.dump("oracle_mismatch", {"epoch": 3})


SUBCOMMANDS = {
    "summarize": lambda path: ["summarize", path],
    "timeline": lambda path: ["timeline", path],
    "filter": lambda path: ["filter", path, "--kind", "slot_exec"],
    "doctor": lambda path: ["doctor", path],
    "causality": lambda path: ["causality", path],
    "diff": lambda path: ["diff", CHAIN, path],
}


class TestCli:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_malformed_trace_exits_two_with_one_line(self, tmp_path, probe,
                                                     command):
        path = tmp_path / f"{probe}.jsonl"
        path.write_text(PROBES[probe])
        code, _, err = run_cli(SUBCOMMANDS[command](str(path)))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["doctor", "causality"])
    def test_huge_dispatch_range_finishes_fast(self, tmp_path, command):
        # With a span id, causality reaches its slot -> batch lookup.
        path = tmp_path / "huge.jsonl"
        path.write_text(json.dumps({**dispatch(0, 0, 10**11), "id": 0})
                        + "\n")
        start = time.perf_counter()
        code, _, err = run_cli([command, str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == ""

    def test_overlapping_dispatch_exits_two(self, tmp_path):
        path = tmp_path / "overlap.jsonl"
        path.write_text(json.dumps(dispatch(0, 0, 4)) + "\n"
                        + json.dumps(dispatch(1, 3, 6)) + "\n")
        code, _, err = run_cli(["doctor", str(path)])
        assert code == 2
        assert err == (f"error: {path}: record #1 (sched_dispatch): slot 3 "
                       f"is already dispatched by record #0\n")

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_flight_recorder_dump_reads_like_a_trace(self, flight_dump,
                                                     command):
        assert len(TraceView(load_jsonl(flight_dump)).records) == 600
        argv = SUBCOMMANDS[command](flight_dump)
        if command == "diff":
            argv = ["diff", flight_dump, flight_dump]
        code, out, err = run_cli(argv)
        assert code in (0, 1) and err == "" and out

    def test_headerless_filter_output_reads_back(self, tmp_path):
        code, out, _ = run_cli(["filter", CHAIN, "--kind", "slot_exec"])
        assert code == 0
        path = tmp_path / "filtered.jsonl"
        path.write_text(out)
        code, out, err = run_cli(["timeline", str(path)])
        assert code == 0 and err == "" and "fake" in out


# ----------------------------------------------------------------------
# Mutation fuzzing over the committed fixture.
# ----------------------------------------------------------------------
with open(CHAIN) as _handle:
    CHAIN_LINES = _handle.read().splitlines()

json_scalars = (st.none() | st.booleans() | st.integers(-10**12, 10**12)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_chains(draw):
    """chain.jsonl with one line mutated: a field dropped or retyped,
    the kind renamed, or the whole line replaced by a non-object."""
    lines = list(CHAIN_LINES)
    index = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[index])
    how = draw(st.sampled_from(["drop", "retype", "rename", "non_object"]))
    if how == "non_object":
        lines[index] = json.dumps(draw(json_values.filter(
            lambda value: not isinstance(value, dict))))
        return lines
    if how == "rename":
        record["ev"] = draw(st.sampled_from(["slot_exec", "frame_rx",
                                             "rop_poll", "sched_revision"])
                            | st.text(max_size=10))
    else:
        key = draw(st.sampled_from(sorted(record)))
        if how == "drop":
            del record[key]
        else:
            record[key] = draw(json_values)
    lines[index] = json.dumps(record)
    return lines


@settings(deadline=None, max_examples=100)
@given(mutated_chains())
def test_mutated_trace_loads_valid_or_is_refused(lines):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "mutated.jsonl")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        try:
            TraceView(load_jsonl(path))
            refused = False
        except TraceFormatError:
            refused = True
        for command in sorted(SUBCOMMANDS):
            code, _, err = run_cli(SUBCOMMANDS[command](path))
            assert code in (0, 1, 2)
            if refused:
                assert code == 2 and len(err.splitlines()) == 1
            else:
                assert code in (0, 1), err
