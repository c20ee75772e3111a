"""Recorder semantics: ring eviction, no-op path, activation, JSONL."""

import io
import logging

import pytest

from repro import telemetry
from repro.sim.packet import Frame, FrameKind
from repro.telemetry import (NULL, NullRecorder, TraceRecorder, TraceView,
                             filter_records, from_record, jsonl)
from repro.telemetry.events import SignatureDetect, required_fields


@pytest.fixture(autouse=True)
def _clean_module_state():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def make_frame(src=0, dst=1, seq=7, slot=None):
    frame = Frame(kind=FrameKind.DATA, src=src, dst=dst, seq=seq,
                  payload_bytes=512)
    if slot is not None:
        frame.meta["slot"] = slot
    return frame


class TestRingBuffer:
    def test_eviction_keeps_newest(self):
        rec = TraceRecorder(capacity=4)
        for i in range(10):
            rec.emit({"ev": "x", "t": float(i)})
        assert len(rec) == 4
        assert rec.emitted == 10
        assert rec.evicted == 6
        assert [r["t"] for r in rec.records()] == [6.0, 7.0, 8.0, 9.0]

    def test_no_eviction_below_capacity(self):
        rec = TraceRecorder(capacity=4)
        rec.emit({"ev": "x", "t": 0.0})
        assert rec.evicted == 0 and rec.emitted == 1

    def test_clear_resets_counters(self):
        rec = TraceRecorder(capacity=2)
        for i in range(5):
            rec.emit({"ev": "x", "t": float(i)})
        rec.clear()
        assert len(rec) == 0 and rec.emitted == 0 and rec.evicted == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_empty_recorder_is_truthy(self):
        # __len__ alone would make a fresh recorder falsy, and
        # `run_scheme(..., trace=TraceRecorder(...))` would silently
        # skip activation.
        assert TraceRecorder()
        assert len(TraceRecorder()) == 0


class TestNullRecorder:
    def test_disabled_and_silent(self):
        null = NullRecorder()
        assert null.enabled is False
        # Every typed helper must be callable and record nothing.
        null.emit({"ev": "x", "t": 0.0})
        null.frame_tx(0.0, 1, make_frame(), 100.0)
        null.frame_rx(0.0, 1, make_frame())
        null.frame_drop(0.0, 1, make_frame(), "sinr")
        null.sig_detect(0.0, 1, 2, 3, 12.0, 1, True)
        null.trigger_fire(0.0, 1, 3, {2, 4}, False, set())
        null.backup_trigger(0.0, 1, 3, "watchdog")
        null.slot_exec(0.0, 1, 3, 2, False)
        null.rop_poll(0.0, 1, 3, 0)
        null.rop_decode(0.0, 1, 2, 0)
        null.sched_dispatch(0.0, 1, 0, 7, 8)
        null.batch_start(0.0, 1, 0)
        # Metrics sink exists (records into the void) — callers that
        # skip the `enabled` check must not crash.
        null.metrics.counter("x").inc()

    def test_null_mirrors_trace_recorder_interface(self):
        # Any typed helper added to TraceRecorder needs a no-op twin
        # declared on NullRecorder itself, otherwise code written
        # against the null interface misses events on a real recorder.
        hot_path = [name for name in vars(NullRecorder)
                    if not name.startswith("_") and
                    callable(getattr(NullRecorder, name))]
        assert "emit" in hot_path and "frame_tx" in hot_path
        for name in hot_path:
            assert name in vars(TraceRecorder), (
                f"TraceRecorder must override the no-op {name}")


class TestActivation:
    def test_default_is_null(self):
        assert telemetry.current() is NULL
        assert telemetry.enabled() is False

    def test_activate_returns_fresh_recorder(self):
        rec = telemetry.activate()
        assert isinstance(rec, TraceRecorder)
        assert telemetry.current() is rec
        assert telemetry.enabled() is True

    def test_activate_accepts_explicit_recorder(self):
        mine = TraceRecorder(capacity=16)
        assert telemetry.activate(mine) is mine
        assert telemetry.current() is mine

    def test_nested_activation_is_an_error(self):
        telemetry.activate()
        with pytest.raises(RuntimeError):
            telemetry.activate()

    def test_deactivate_is_idempotent(self):
        telemetry.activate()
        telemetry.deactivate()
        telemetry.deactivate()
        assert telemetry.current() is NULL


class TestTypedHelpers:
    def test_frame_helpers_use_frame_fields_not_uid(self):
        rec = TraceRecorder()
        rec.frame_tx(10.0, 0, make_frame(slot=3), 450.0)
        rec.frame_rx(11.0, 1, make_frame(slot=3))
        rec.frame_drop(12.0, 1, make_frame(), "tx_busy")
        tx, rx, drop = rec.records()
        assert tx == {"ev": "frame_tx", "t": 10.0, "node": 0,
                      "frame": "data", "dst": 1, "seq": 7, "slot": 3,
                      "airtime_us": 450.0, "id": 0, "cause": None}
        assert rx["src"] == 0 and rx["slot"] == 3
        assert drop["reason"] == "tx_busy" and drop["slot"] is None
        # The process-global frame uid must never leak into a record.
        assert all("uid" not in r for r in (tx, rx, drop))

    def test_set_fields_sorted_at_emit(self):
        rec = TraceRecorder()
        rec.trigger_fire(5.0, 2, 4, {9, 1, 5}, True, {8, 0})
        record = rec.records()[0]
        assert record["targets"] == [1, 5, 9]
        assert record["polls"] == [0, 8]

    def test_records_round_trip_through_typed_events(self):
        rec = TraceRecorder()
        rec.sig_detect(20.0, 3, 1, 4, 17.123456, 2, True)
        event = from_record(rec.records()[0])
        assert isinstance(event, SignatureDetect)
        assert event.sinr_db == 17.123       # rounded at emit
        assert event.detected is True

    def test_every_helper_matches_its_schema(self):
        rec = TraceRecorder()
        rec.frame_tx(0.0, 0, make_frame(), 1.0)
        rec.frame_rx(0.0, 1, make_frame())
        rec.frame_drop(0.0, 1, make_frame(), "sinr")
        rec.sig_detect(0.0, 1, 0, 2, 9.0, 1, False)
        rec.trigger_fire(0.0, 1, 2, [3], False, [])
        rec.backup_trigger(0.0, 1, 2, "initial")
        rec.slot_exec(0.0, 1, 2, 3, True)
        rec.rop_poll(0.0, 1, 2, 0)
        rec.rop_decode(0.0, 1, 1, 0)
        rec.sched_dispatch(0.0, 0, 0, 5, 6)
        rec.batch_start(0.0, 0, 1)
        for record in rec.records():
            kind = record["ev"]
            assert set(record) - {"ev"} == set(required_fields(kind)), kind
            from_record(record)  # parses without TypeError

    def test_events_filter(self):
        rec = TraceRecorder()
        rec.slot_exec(10.0, 1, 0, 2, False)
        rec.slot_exec(20.0, 2, 1, 3, False)
        rec.backup_trigger(30.0, 1, 2, "watchdog")
        records = rec.records()
        assert len(list(filter_records(records, kind="slot_exec"))) == 2
        assert len(list(filter_records(records, node=1))) == 2
        assert [r["t"] for r in filter_records(records, t0=15.0,
                                               t1=25.0)] == [20.0]


class TestJsonl:
    def test_round_trip_values_and_header(self, tmp_path):
        rec = TraceRecorder()
        rec.slot_exec(10.5, 1, 0, 2, False)
        rec.trigger_fire(11.0, 2, 0, {4, 3}, True, {1})
        path = str(tmp_path / "trace.jsonl")
        lines = rec.export_jsonl(path)
        assert lines == 3  # header + 2 records
        loaded = jsonl.load_jsonl(path)
        assert loaded == rec.records()

    def test_header_is_first_line_and_versioned(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        TraceRecorder().export_jsonl(path)
        with open(path) as handle:
            first = handle.readline().strip()
        assert first == '{"__domino_trace__":5,"schema_version":5}'

    def test_unsupported_schema_version_rejected(self):
        stream = io.StringIO('{"__domino_trace__":99}\n{"ev":"x","t":0}\n')
        with pytest.raises(jsonl.TraceFormatError):
            jsonl.load_jsonl(stream)

    def test_newer_schema_version_rejected_with_clear_error(self):
        stream = io.StringIO(
            '{"__domino_trace__":2,"schema_version":99}\n{"ev":"x","t":0}\n')
        with pytest.raises(jsonl.TraceFormatError) as err:
            jsonl.load_jsonl(stream)
        assert "newer than this build supports" in str(err.value)

    def test_v1_header_still_accepted(self):
        # v1 headers carry only the magic key; v2 fields all default.
        stream = io.StringIO(
            '{"__domino_trace__":1}\n'
            '{"ev":"sig_detect","t":1.0,"node":2,"src":1,"slot":0,'
            '"sinr_db":9.0,"combined":1,"detected":true}\n')
        records = jsonl.load_jsonl(stream)
        event = from_record(records[0])
        assert event.detected is True and event.p is None

    def test_headerless_stream_reads_as_current_schema(self):
        # e.g. `filter` output piped back into `doctor -`.
        line = ('{"ev":"slot_exec","t":1.0,"node":1,"slot":0,"dst":2,'
                '"fake":false,"id":0,"cause":null,"via":"initial"}\n')
        records = jsonl.load_jsonl(io.StringIO(line))
        assert TraceView(records).records == records
        assert from_record(records[0]).via == "initial"

    def test_non_json_line_is_a_format_error(self):
        stream = io.StringIO('{"__domino_trace__":5}\nnot json\n')
        with pytest.raises(jsonl.TraceFormatError, match="line 2"):
            jsonl.load_jsonl(stream)

    def test_blank_lines_skipped(self):
        stream = io.StringIO(
            '{"__domino_trace__":1}\n\n{"ev":"x","t":1.0}\n\n')
        assert jsonl.load_jsonl(stream) == [{"ev": "x", "t": 1.0}]

    def test_dumps_record_is_canonical(self):
        a = jsonl.dumps_record({"b": 1, "a": 2})
        b = jsonl.dumps_record({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'
        with pytest.raises(ValueError):
            jsonl.dumps_record({"x": float("nan")})


class TestNullMetricsWarning:
    """Writing metrics to the disabled recorder warns once, then stays
    quiet — the numbers go nowhere, and the user should hear about it
    exactly one time per process."""

    @pytest.fixture()
    def captured(self, monkeypatch):
        from repro.telemetry import recorder as recorder_mod
        from repro.telemetry.log import get_logger

        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = Capture()
        logger = get_logger("telemetry")
        logger.addHandler(handler)
        monkeypatch.setattr(recorder_mod, "_NULL_METRICS_WARNED", False)
        try:
            yield records
        finally:
            logger.removeHandler(handler)

    def test_warns_once_and_still_counts_into_the_void(self, captured):
        recorder = NullRecorder()
        recorder.metrics.counter("lost.frames").inc()
        recorder.metrics.gauge("lost.depth").set(3)
        recorder.metrics.counter("lost.frames").inc()

        assert len(captured) == 1
        message = captured[0].getMessage()
        assert "lost.frames" in message and "discarded" in message
        assert captured[0].levelno == logging.WARNING
        # The registry still works — callers never crash, they just
        # record into the void.
        assert recorder.metrics.counter("lost.frames").value == 2.0

    def test_warns_once_per_process_not_per_instance(self, captured):
        # A sweep calls run_scheme(trace=None) once per point, each of
        # which can construct fresh NullRecorders — the flag must be
        # process-wide or N points produce N identical warnings.
        for _ in range(3):
            NullRecorder().metrics.counter("lost.frames").inc()
        assert len(captured) == 1

    def test_enabled_recorder_never_warns(self, captured):
        recorder = TraceRecorder()
        recorder.metrics.counter("kept.frames").inc()
        assert captured == []
