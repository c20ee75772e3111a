"""diff_traces pinpoints a single perturbed slot in a traced run.

When a change makes one slot behave differently, the debugging tool of
record is :func:`repro.telemetry.analysis.diff_traces` — it must name
*exactly* the perturbed slot as the first divergence, not an earlier or
later one, or forensics start in the wrong place.  This test
manufactures that situation deliberately: take one traced domino run,
flip one slot-chain-visible field in a copy of its trace, and check
the report.
"""

import copy

from repro.experiments.common import run_scheme
from repro.telemetry.analysis import diff_traces
from repro.telemetry.trace_tools import trigger_chain_timeline
from repro.topology.builder import fig1_topology


def _domino_records():
    result = run_scheme("domino", fig1_topology(), horizon_us=120_000.0,
                        seed=1, saturated=True, trace=True)
    return result.trace.records()


def test_single_slot_perturbation_is_pinpointed():
    records = _domino_records()
    timeline = trigger_chain_timeline(records)
    executed = [e.slot for e in timeline if e.senders]
    assert len(executed) >= 4, "need a few executed slots to perturb one"
    # Perturb a mid-chain slot so the report must skip identical
    # earlier slots and stop before later (also-identical) ones.
    target_slot = executed[len(executed) // 2]

    perturbed = copy.deepcopy(records)
    index = next(i for i, r in enumerate(perturbed)
                 if r.get("ev") == "slot_exec"
                 and r.get("slot") == target_slot)
    perturbed[index]["fake"] = not perturbed[index]["fake"]

    diff = diff_traces(records, perturbed)
    assert not diff.identical
    assert diff.first_divergence is not None
    assert diff.first_divergence.slot == target_slot
    assert diff.slots_divergent == 1
    assert diff.first_record_mismatch == index

    # Sanity: the unperturbed trace diffs clean against itself.
    assert diff_traces(records, copy.deepcopy(records)).identical
