"""Self-test of the benchmark.

The per-layer report must name the layer that got slower: a fixed
delay injected into ``ScheduleConverter.convert`` (a few times the
converter's own time) must show up as ``core.converter`` on a short
fig14-domino run, and fig14-dcf, which never converts, must show no
layer change.  The output checks must fail a run whose outputs move.

Run from the repository root (tier-1 does not collect it)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import LAYERS, Tracer, grown_layers, layer_metrics  # noqa: E402
from spans import median_metrics  # noqa: E402
from workloads import WORKLOADS, Calibrator, Iteration  # noqa: E402

from repro.core.converter import ScheduleConverter  # noqa: E402

#: Busy-wait added to every ``convert`` call.
DELAY_S = 0.05
#: Traced iterations per layer table (the table is their median).
REPS = 5
HORIZON_US = 15_000.0


def _short(name: str) -> Any:
    return dataclasses.replace(WORKLOADS[name], horizon_us=HORIZON_US,
                               calibrator=Calibrator())


def _layer_table(workload: Any) -> Dict[str, float]:
    samples = []
    for _ in range(REPS):
        tracer = Tracer()
        with tracer:
            it = workload.iterate(seed=1)
        samples.append(layer_metrics(tracer, it.wall_s, it.layer_outputs,
                                     it.scale))
    return median_metrics(samples)


@contextmanager
def _delayed(cls: type, name: str, delay_s: float) -> Iterator[None]:
    orig = vars(cls)[name]

    def slow(*args: Any, **kwargs: Any) -> Any:
        end = perf_counter() + delay_s
        while perf_counter() < end:
            pass
        return orig(*args, **kwargs)

    setattr(cls, name, slow)
    try:
        yield
    finally:
        setattr(cls, name, orig)


def test_injected_delay_names_the_layer() -> None:
    domino, dcf = _short("fig14-domino"), _short("fig14-dcf")
    domino.iterate(seed=1)            # warm the process up
    before = {"domino": _layer_table(domino), "dcf": _layer_table(dcf)}
    with _delayed(ScheduleConverter, "convert", DELAY_S):
        after = {"domino": _layer_table(domino), "dcf": _layer_table(dcf)}
    converts = after["domino"]["core.converter.converts"]
    assert converts == before["domino"]["core.converter.converts"] > 0
    # A calibrated second was 1-2.5 wall seconds on a shared 2-core
    # Xeon, so the injected delay reads as at least 0.4x its wall time.
    min_s = converts * DELAY_S / 5
    assert grown_layers(before["domino"], after["domino"],
                        min_s) == ["core.converter"]
    assert after["dcf"]["core.converter.converts"] == 0
    assert grown_layers(before["dcf"], after["dcf"], min_s) == []


def test_spans_cover_the_traced_wall() -> None:
    table = _layer_table(_short("fig14-dcf"))
    assert table["mac.dcf.self_s"] > 0
    assert 0.0 <= table["unattributed_s"] < 0.2 * table["traced_wall_s"]


def _iteration(**check: Any) -> Iteration:
    return Iteration(wall_s=1.0, job_s=1.0, loop_s=0.9, advance_ms=1.0,
                     steps_ms=[1.0], scale=1.0, check=check)


def test_ledger_fails_moved_outputs() -> None:
    ledger = run.Ledger("no-such-workload", 1)
    reference = ledger.add(_iteration(events=10, goodput_mbps=1.5))
    ledger.add(_iteration(events=10, goodput_mbps=1.5))
    assert ledger.verify(reference) == (2, 0)
    ledger.add(_iteration(events=11, goodput_mbps=1.5))
    bad = _iteration(events=10, goodput_mbps=1.5)
    bad.errors.append("trace ring evicted 3 records")
    ledger.add(bad)
    assert ledger.verify(reference) == (4, 2)
    ledger.pin = {"events": 9}
    assert ledger.verify(reference) == (4, 3)


def test_benchmark_json_names_what_the_run_prints() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert ([m["name"] for m in spec["end_to_end"]]
            == list(run.END_TO_END_UNITS))
    tracer = Tracer()
    names = list(layer_metrics(tracer, 1.0, {})) + ["trace_overhead"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
