"""Pinned canonical-trace digests of the paper workloads.

The byte-identical canonical trace is the simulator's behaviour
contract: a change that keeps every digest below is behaviour-
preserving by definition.  The configurations cover Fig. 2 (saturated
fig1 topology, all four schemes), Fig. 12 (T(10, 2), UDP and TCP) and
Fig. 14 (random T(20, 3), at two simulator seeds) and the Sec. 5
energy-saving network (the only caller of ``Radio.sleep_until``) at
CI-sized horizons — divergence is per-event, not per-horizon.

On a mismatch the failure message carries the
:func:`~repro.telemetry.analysis.diff_traces` report of the run
against a fresh rerun.  "traces identical" there means the code now
computes a different (but deterministic) trace, i.e. a behaviour
change; anything else names the first slot where the simulator is no
longer reproducible.

Regenerate a pin only for an intended behaviour change, and say so.
"""

import pytest

from repro import telemetry
from repro.experiments.common import run_scheme
from repro.experiments.sec5_extensions import run_energy
from repro.runner import trace_digest
from repro.telemetry.analysis import diff_traces
from repro.topology.builder import (build_t_topology, fig1_topology,
                                    random_t_topology)
from repro.topology.trace import two_building_trace

PINS = {
    "fig02/dcf":
        "42a883a6d30f98ba7661f9a6a2102fc400a15f3698a087e3aaf42a9c8d113684",
    "fig02/centaur":
        "c2eeac606a984caa7d7ff0813ddfeddadeabef145317e6094505d9bc2d458171",
    "fig02/domino":
        "099a5830b999d757a3006cf320112a2c2f521ccf878204a8ef9cf271890bc775",
    "fig02/omniscient":
        "2952dc12ffc44d189a34afba19e1b4fef5adba776300a19bc941ebc1a333d51c",
    "fig12/dcf/udp":
        "e158810bbc69745c83cc0f3413532c82fb564b0556fefc44b3dff13037b4a25e",
    "fig12/dcf/tcp":
        "f58c0442efae7d6900881ebf8d8aab87057d6c324b4af9cd65a64527d0e2264f",
    "fig12/domino/udp":
        "d13b73c9887e0572d0a68a84fb65c13edf74708695a610f4ef1d479cc5acd465",
    "fig12/domino/tcp":
        "8410bddf14fc5fb4b4c6a1fcd705b8c9d9ecbb281def649e5de8a1bcd6f0517e",
    "fig14/dcf":
        "0a4a7aa3d1b7c08f3ee21541c8979859e9e9e095b41480d66fafdeb98b89c586",
    "fig14/domino":
        "3d6df6aeb7298352e75152dc7d3719088859f3ea772f3fb63769798c86ddceef",
    "fig14/dcf/seed7":
        "7ee63f8cd375875721c25e12fa78fac751de161e27f30a75cf2566ba44cbd808",
    "fig14/domino/seed7":
        "7146f236e94be2cd7fc8bbb285cc1714c13e9ffde7dc8e7f3d2e12c32c453ebd",
    "sec5/energy":
        "aeb5f2c40bdfaa466c8ecc861d370998d1b2df3489f0c7652bffd2d5da2b534e",
}


def _records(scheme, make_topology, seed, horizon_us, **run_kwargs):
    result = run_scheme(scheme, make_topology(), horizon_us=horizon_us,
                        seed=seed, trace=True, **run_kwargs)
    return result.trace.records()


def _assert_digest(label, make_records):
    records = make_records()
    assert len(records) > 0, f"{label}: empty trace proves nothing"
    digest = trace_digest(records)
    if digest != PINS[label]:
        rerun = make_records()
        pytest.fail(f"{label}: trace digest {digest} != pinned "
                    f"{PINS[label]}\nrun vs fresh rerun:\n"
                    f"{diff_traces(records, rerun).render()}")


def _assert_pinned(label, scheme, make_topology, seed, horizon_us,
                   **run_kwargs):
    _assert_digest(label, lambda: _records(scheme, make_topology, seed,
                                           horizon_us, **run_kwargs))


@pytest.mark.parametrize("scheme",
                         ["dcf", "centaur", "domino", "omniscient"])
def test_fig02_saturated_digest(scheme):
    _assert_pinned(f"fig02/{scheme}", scheme, fig1_topology, seed=1,
                   horizon_us=120_000.0, saturated=True)


def _fig12_topology():
    return build_t_topology(two_building_trace(), 10, 2, seed=3)


@pytest.mark.parametrize("scheme", ["dcf", "domino"])
@pytest.mark.parametrize("tcp", [False, True], ids=["udp", "tcp"])
def test_fig12_t_topology_digest(scheme, tcp):
    _assert_pinned(f"fig12/{scheme}/{'tcp' if tcp else 'udp'}", scheme,
                   _fig12_topology, seed=1, horizon_us=100_000.0,
                   downlink_mbps=10.0, uplink_mbps=2.0, tcp=tcp)


def _fig14_topology():
    return random_t_topology(20, 3, seed=100)


@pytest.mark.parametrize("scheme", ["dcf", "domino"])
def test_fig14_random_digest(scheme):
    _assert_pinned(f"fig14/{scheme}", scheme, _fig14_topology, seed=100,
                   horizon_us=60_000.0, downlink_mbps=10.0,
                   uplink_mbps=10.0)


@pytest.mark.parametrize("scheme", ["dcf", "domino"])
def test_fig14_random_second_seed_digest(scheme):
    """Same placement and traffic, another simulator seed: a second
    draw of backoffs and detection outcomes over the dense fan-out."""
    _assert_pinned(f"fig14/{scheme}/seed7", scheme, _fig14_topology,
                   seed=7, horizon_us=60_000.0, downlink_mbps=10.0,
                   uplink_mbps=10.0)


def _energy_records():
    recorder = telemetry.activate()
    try:
        result = run_energy(horizon_us=120_000.0, seed=1)
    finally:
        telemetry.deactivate()
    assert recorder.evicted == 0
    assert result.sleep_fraction > 0.5, "the sleep path must be exercised"
    return recorder.records()


def test_sec5_energy_saving_digest():
    """Both networks of ``run_energy``: the baseline, then the one with
    client 5 energy-constrained, whose radio sleeps through slots that
    do not involve it."""
    _assert_digest("sec5/energy", _energy_records)


def test_same_process_reruns_are_identical():
    """Two runs in one process must match (Simulator.serial counters).

    Guards the regression where a class-global counter (e.g. TCP ACK
    uids) leaked state across runs, so only the *first* run in a
    process matched a fresh process's trace.
    """
    def topo():
        return build_t_topology(two_building_trace(), 6, 2, seed=3)

    digests = [
        trace_digest(_records("dcf", topo, seed=1, horizon_us=60_000.0,
                              downlink_mbps=8.0, uplink_mbps=2.0,
                              tcp=True))
        for _ in range(2)
    ]
    assert digests[0] == digests[1]
