"""Pinned trace-tool outputs on traced paper workloads.

Every ``python -m repro.telemetry`` subcommand, and the
:func:`~repro.telemetry.analysis.summarize_causality` rollup, runs over
exported traces of three paper workloads at the configurations of
``tests/sim/test_digest_pins.py``: Fig. 2 (saturated fig1, DOMINO),
Fig. 12 (T(10, 2), DOMINO, TCP) and Fig. 14 (random T(20, 3),
DOMINO).  Each output is pinned as its exit code plus the sha256 of
its stdout, so a change to how the tools read a trace cannot move a
single byte of what they print unnoticed.

The ``diff`` outputs compare the trace with itself and with a copy
whose first ``sig_detect`` has its verdict flipped.

Regenerate a pin only for an intended output-format change, and say so.
"""

import hashlib
import json

import pytest

from repro.experiments.common import run_scheme
from repro.telemetry import __main__ as cli
from repro.telemetry.analysis import causality_report, summarize_causality
from repro.telemetry.jsonl import dump_jsonl
from repro.topology.builder import (build_t_topology, fig1_topology,
                                    random_t_topology)
from repro.topology.trace import two_building_trace

WORKLOADS = {
    "fig02/domino": lambda: run_scheme(
        "domino", fig1_topology(), horizon_us=120_000.0, seed=1,
        trace=True, saturated=True),
    "fig12/domino/tcp": lambda: run_scheme(
        "domino", build_t_topology(two_building_trace(), 10, 2, seed=3),
        horizon_us=100_000.0, seed=1, trace=True, downlink_mbps=10.0,
        uplink_mbps=2.0, tcp=True),
    "fig14/domino": lambda: run_scheme(
        "domino", random_t_topology(20, 3, seed=100), horizon_us=60_000.0,
        seed=100, trace=True, downlink_mbps=10.0, uplink_mbps=10.0),
}

#: (workload, output) -> (exit code, sha256 of stdout).
PINS = {
    ("fig02/domino", "summarize"):
        (0, "8711e5d1f898caf72fa48bfa2efcf0bdbadcc3448f1d4b2f15f2063470d629b4"),
    ("fig02/domino", "timeline"):
        (0, "7b257f4492f538727cde2a609211fec4dbe3debd6de67196ff26cbf0d8c8e3bc"),
    ("fig02/domino", "filter"):
        (0, "0d1b72b057db5e908e6c281d1e5de451619cb069cd034c86e9af420ac3e49077"),
    ("fig02/domino", "doctor"):
        (1, "4b8fea8b7fc8e7569b50066485446f879d68ff329cc111192a3c0f6080d265cf"),
    ("fig02/domino", "doctor_json"):
        (1, "2667f7b37d176214c23b52d795667ab64cc2e202d5e27ec0606a15809c0a4318"),
    ("fig02/domino", "causality"):
        (0, "075d1f8d7cfc78daeab8eae7c5b6314f8f32daae90f46f2323c82067705c309c"),
    ("fig02/domino", "causality_json"):
        (0, "ea14fdf069b10dccb88debdc804bb0487c5b19e3d9d07cb887bcc53ab4e6944b"),
    ("fig02/domino", "causality_batch"):
        (0, "358ef7a72500ee0f2027b716d86fefe8d8cf5d6d92cea7dcd354be5741d1ce86"),
    ("fig02/domino", "diff_same"):
        (0, "a61f2405d8777bdb1587a9d5bf560b31360704511e6477ef4ec258ef026331cb"),
    ("fig02/domino", "diff_flipped"):
        (1, "88989e22b1a6b123d21597b9a6f2813922f6b84b712ce4c5e3123fb5a4f2925c"),
    ("fig02/domino", "summarize_causality"):
        (0, "284d530bf4959127c0af3664f5c6f5cef3c9df73263789ca5e8b6d983470143b"),
    ("fig12/domino/tcp", "summarize"):
        (0, "fbca81384ef4cfb72911f88dcb8c42b95d27e9b3cd30dee8523a2b948c669f50"),
    ("fig12/domino/tcp", "timeline"):
        (0, "f1dd8040c68863598232522381ca258b1a7dc667c570ad6f5c779a715789b10c"),
    ("fig12/domino/tcp", "filter"):
        (0, "1b37a6e97e4f86cbab734272b84c74281f6d2454025b302ff874ba8592bd328b"),
    ("fig12/domino/tcp", "doctor"):
        (1, "613199ebaaf2fb002346a81e2f08c373042ddc0da908f98575bae04d5a30cdc4"),
    ("fig12/domino/tcp", "doctor_json"):
        (1, "538ca848aaed22ceebeeb52ea5da40774f11ee09ee6722bcdebd27d67348facb"),
    ("fig12/domino/tcp", "causality"):
        (0, "446d8621b7d9119f80334589252fd6e679a80bbe536e9e03ccac2d16355e34ec"),
    ("fig12/domino/tcp", "causality_json"):
        (0, "c90cad968ca2a9fc698ec7c9cc3068f612fa69c718894b70de69999476ee87eb"),
    ("fig12/domino/tcp", "causality_batch"):
        (0, "f60c7a32731819168ce71ff1c2321f18eb160660187f6932dc3831d02196eba9"),
    ("fig12/domino/tcp", "diff_same"):
        (0, "950f6e7136721447a7e2da3498f37530ee6d96ad248599b073896f0bc2cf1f60"),
    ("fig12/domino/tcp", "diff_flipped"):
        (1, "7e45ab8f0f88ea257b83306861fd88e2fc100fb0d4244bf27c345635620c3fd6"),
    ("fig12/domino/tcp", "summarize_causality"):
        (0, "65110a02756383bde65c7a5ad55acb71c3567d072814ca74f0896bc9c36ae456"),
    ("fig14/domino", "summarize"):
        (0, "8b5b0dd31e190c6a6d45347a7d29b28520dbebf59d9115b1adb4a3c5bdf73112"),
    ("fig14/domino", "timeline"):
        (0, "33c4fadd242cc096690e1d92b40cb6fa494d3be4edb41472b0563174022b36ae"),
    ("fig14/domino", "filter"):
        (0, "96079a1004f18a7e3da43ffec26b6e3a7dda6b1fd9f7427e85ef265a6d95e1bc"),
    ("fig14/domino", "doctor"):
        (1, "23a0efac7f5de92fd2552a5c6eb84e7626d77e01932c15d992a2ea695dbe5fb5"),
    ("fig14/domino", "doctor_json"):
        (1, "89616a2ca9c30acd1480dc61edc1e03d219a0e352289f7f0b566cd178d48829c"),
    ("fig14/domino", "causality"):
        (0, "77870cd2f942d58bf3be18ab15c8dee57fd0a874df22095cdd3241f9d9e683f7"),
    ("fig14/domino", "causality_json"):
        (0, "3491e5ce1f1460f3daae3e36d8e5ecdb7837da25d723ff3bf5f2deb35bcb4c3a"),
    ("fig14/domino", "causality_batch"):
        (0, "518b6b346dfd56d039887151eca5ccda7724b1d81d1df7cd6ddd0c6307d24293"),
    ("fig14/domino", "diff_same"):
        (0, "58ca493824fc6f1c1349765e2ad577f5b3c34b2f5180c8a2866c9d95df65e427"),
    ("fig14/domino", "diff_flipped"):
        (1, "ddabeda1c1d6f6e1ce41e94f6a27f44d44564b2fcf670db58601ef99a086be13"),
    ("fig14/domino", "summarize_causality"):
        (0, "56278a02c80b17d85f8397859fbaecfeff8a52494e6ff1ca5964830799204152"),
}

OUTPUTS = ("summarize", "timeline", "filter", "doctor", "doctor_json",
           "causality", "causality_json", "causality_batch", "diff_same",
           "diff_flipped", "summarize_causality")


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Exported trace paths per workload, built once per module."""
    built = {}

    def get(workload):
        if workload not in built:
            records = WORKLOADS[workload]().trace.records()
            root = tmp_path_factory.mktemp(workload.replace("/", "-"))
            path = str(root / "trace.jsonl")
            dump_jsonl(path, records)
            flipped = [dict(r) for r in records]
            first = next(r for r in flipped if r["ev"] == "sig_detect")
            first["detected"] = not first["detected"]
            flipped_path = str(root / "flipped.jsonl")
            dump_jsonl(flipped_path, flipped)
            built[workload] = (path, flipped_path, records)
        return built[workload]

    return get


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _output(traces, workload, output, capsys):
    path, flipped, records = traces(workload)
    if output == "summarize_causality":
        summary = summarize_causality(records)
        return 0, _digest(json.dumps(summary, sort_keys=True, indent=2))
    argv = {
        "summarize": ["summarize", path],
        "timeline": ["timeline", path],
        "filter": ["filter", path, "--kind", "slot_exec"],
        "doctor": ["doctor", path],
        "doctor_json": ["doctor", path, "--json"],
        "causality": ["causality", path],
        "causality_json": ["causality", path, "--json"],
        "causality_batch": [
            "causality", path, "--batch",
            str(causality_report(records).slowest().batch)],
        "diff_same": ["diff", path, path],
        "diff_flipped": ["diff", path, flipped],
    }[output]
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, _digest(captured.out)


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_output_pinned(traces, workload, output, capsys):
    assert _output(traces, workload, output, capsys) == \
        PINS[(workload, output)]
