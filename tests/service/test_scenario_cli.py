"""Scenario loading and the ``python -m repro.service`` CLI."""

import json
import os

import pytest

from repro.service import build_scenario, load_scenario
from repro.service.__main__ import main

_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
EXAMPLE = os.path.join(_ROOT, "examples", "service_churn.json")


def small_scenario_dict():
    return {
        "name": "tiny",
        "topology": {"kind": "fig7"},
        "config": {"batch_slots": 6, "epoch_gap_us": 1000.0},
        "sources": [
            {"kind": "churn", "updates": 60, "seed": 4},
            {"kind": "events", "events": [
                {"kind": "queue_update", "t_us": 10.0,
                 "src": 0, "dst": 1, "backlog": 4},
            ]},
        ],
    }


class TestScenarioBuilding:
    def test_build_merges_and_sorts_sources(self):
        scenario = build_scenario(small_scenario_dict())
        assert scenario.name == "tiny"
        assert scenario.config.batch_slots == 6
        assert len(scenario.events) == 61
        times = [e.t_us for e in scenario.events]
        assert times == sorted(times)

    def test_build_is_deterministic(self):
        a = build_scenario(small_scenario_dict())
        b = build_scenario(small_scenario_dict())
        assert a.events == b.events

    def test_unknown_topology_kind(self):
        with pytest.raises(ValueError):
            build_scenario({"topology": {"kind": "moebius"}})

    def test_unknown_source_kind(self):
        with pytest.raises(ValueError):
            build_scenario({"topology": {"kind": "fig7"},
                            "sources": [{"kind": "quantum"}]})

    @pytest.mark.parametrize("data, message", [
        ({"topology": {"kind": "random_t", "m": 2, "n": 2.0}},
         "random_t topology: n must be an integer, not 2.0"),
        ({"topology": {"kind": "fig7"}, "config": {"batch_slots": True}},
         "config: batch_slots must be an integer, not True"),
        ({"topology": {"kind": "fig7"}, "sources": [
            {"kind": "mobility", "node": 1, "to": [1.0, 1.0],
             "steps": 2.9, "interval_us": 1.0}]},
         "mobility source: steps must be an integer, not 2.9"),
        ({"topology": {"kind": "fig7"}, "sources": [
            {"kind": "rss_wobble", "client": 1, "updates": "5"}]},
         "rss_wobble source: updates must be an integer, not '5'"),
        ({"topology": {"kind": "fig7"}, "sources": [
            {"kind": "churn", "updates": 5, "seed": True}]},
         "churn source: seed must be an integer, not True"),
    ])
    def test_integer_fields_are_not_coerced(self, data, message):
        with pytest.raises(ValueError) as excinfo:
            build_scenario(data)
        assert str(excinfo.value) == message

    def test_example_scenario_loads(self):
        scenario = load_scenario(EXAMPLE)
        assert scenario.name == "forty-node-churn"
        assert scenario.make_state().n_nodes == 40
        assert len(scenario.events) > 2_000


class TestCli:
    def run_cli(self, tmp_path, extra):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(small_scenario_dict()))
        return main(["--scenario", str(path)] + extra)

    def test_json_summary(self, tmp_path, capsys):
        code = self.run_cli(tmp_path, ["--check-every", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "tiny"
        assert payload["events"] == 61
        assert payload["revisions"] >= 1
        assert payload["oracle_checks"] >= 1
        assert len(payload["last_digest"]) == 64

    def test_text_summary(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, []) == 0
        out = capsys.readouterr().out
        assert "revision p99" in out
        assert "tiny" in out

    def test_trace_output(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = self.run_cli(tmp_path, ["--trace", str(trace_path),
                                       "--quiet"])
        assert code == 0
        lines = [json.loads(line)
                 for line in trace_path.read_text().splitlines() if line]
        revisions = [r for r in lines if r.get("ev") == "sched_revision"]
        assert revisions
        assert all(len(r["digest"]) == 12 for r in revisions)

    def test_clean_exit_summary_line_on_stderr(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, ["--check-every", "2",
                                       "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""       # --quiet keeps stdout silent
        assert "clean exit: revision version" in captured.err
        assert "oracle check" in captured.err

    def test_clean_exit_line_does_not_pollute_json(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "tiny"

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "oracle" in out and "scenario" in out

    def test_phase_timing_flag_traces_phases(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = self.run_cli(tmp_path, ["--trace", str(trace_path),
                                       "--phase-timing", "--quiet"])
        assert code == 0
        lines = [json.loads(line)
                 for line in trace_path.read_text().splitlines() if line]
        revisions = [r for r in lines if r.get("ev") == "sched_revision"]
        phases = [r for r in lines if r.get("ev") == "revision_phases"]
        assert len(phases) == len(revisions) > 0

    def test_flight_dir_without_mismatch_stays_empty(self, tmp_path,
                                                     capsys):
        dump_dir = tmp_path / "flight"
        code = self.run_cli(tmp_path, ["--check-every", "4", "--quiet",
                                       "--flight-dump-dir",
                                       str(dump_dir)])
        assert code == 0
        assert not dump_dir.exists() or not list(dump_dir.iterdir())

    def test_missing_scenario_exits_2(self, capsys):
        assert main(["--scenario", "/nonexistent/nope.json"]) == 2

    @pytest.mark.parametrize("scenario", [
        {"topology": {"kind": "moebius"}},
        [1],
        {"topology": []},
        {"topology": {"kind": "fig7"}, "sources": [1]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "events", "events": [
                {"kind": "rss_delta", "t_us": 0.0, "node": "x",
                 "rss_to": {"0": -50.0}}]}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "events", "events": [
                {"kind": "queue_update", "t_us": 0.0, "src": 0, "dst": 1,
                 "backlog": "lots"}]}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "events", "events": [
                {"kind": "rss_delta", "t_us": 0.0, "node": 1,
                 "rss_to": [-50.0]}]}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "events", "events": [
                {"kind": "queue_update", "t_us": 0.0, "src": 0, "dst": 1,
                 "backlog": float("inf")}]}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "events", "events": [
                {"kind": "rss_delta", "t_us": 0.0, "node": 1,
                 "rss_to": {"0": float("nan")}}]}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "events", "events": [
                {"kind": "associate", "t_us": 0.0, "client": 1, "ap": 0,
                 "rss_from": {"0": float("-inf")}}]}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "events", "events": [
                {"kind": "rss_delta", "t_us": 0.0, "node": 1,
                 "rss_to": {"0": "-50"}}]}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "mobility", "node": 999, "to": [10.0, 10.0],
             "steps": 2, "interval_us": 1000.0}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "mobility", "node": -1, "to": [10.0, 10.0],
             "steps": 2, "interval_us": 1000.0}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "mobility", "node": 1, "to": [1.0],
             "steps": 2, "interval_us": 1000.0}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "mobility", "node": 1, "to": [float("nan"), 10.0],
             "steps": 2, "interval_us": 1000.0}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "rss_wobble", "client": 1, "updates": 2,
             "jitter_db": float("nan")}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "churn", "updates": 50,
             "rss_jitter_db": float("nan")}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "mobility", "node": 1, "to": [10.0, 10.0],
             "steps": 2.9, "interval_us": 1000.0}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "mobility", "node": 1, "to": [10.0, 10.0],
             "steps": 2, "interval_us": 1000.0, "seed": True}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "rss_wobble", "client": 1, "updates": "5"}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "rss_wobble", "client": 2.5, "updates": 2}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "rss_wobble", "client": 1, "updates": 2,
             "seed": 1.0}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "churn", "updates": 50, "seed": True}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "churn", "updates": 50.0}]},
        {"topology": {"kind": "fig7"}, "sources": [
            {"kind": "churn", "updates": 50, "max_backlog": "8"}]},
        {"topology": {"kind": "random_t", "m": 2.5, "n": 2}},
        {"topology": {"kind": "random_t", "m": 2, "n": 2, "seed": "0"}},
        {"topology": {"kind": "fig7"}, "config": {"batch_slots": 12.0}},
        {"topology": {"kind": "fig7"}, "config": {"demand_cap": True}},
        {"topology": {"kind": "fig7"}, "config": {"debounce_events": "64"}},
    ], ids=["unknown-kind", "list", "topology-list", "source-int",
            "event-node-str", "event-backlog-str", "event-rss-list",
            "event-backlog-inf", "event-rss-nan", "event-rss-inf",
            "event-rss-str", "mobility-node-oob", "mobility-node-neg",
            "mobility-to-short", "mobility-to-nan", "wobble-jitter-nan",
            "churn-jitter-nan", "mobility-steps-float", "mobility-seed-bool",
            "wobble-updates-str", "wobble-client-float", "wobble-seed-float",
            "churn-seed-bool", "churn-updates-float", "churn-backlog-str",
            "topology-m-float", "topology-seed-str", "config-slots-float",
            "config-cap-bool", "config-debounce-str"])
    def test_invalid_scenario_exits_2(self, tmp_path, capsys, scenario):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        if isinstance(scenario, dict) and scenario.get("sources"):
            source = scenario["sources"][0]
            if isinstance(source, dict) and source["kind"] != "events":
                assert f"{source['kind']} source: " in err
