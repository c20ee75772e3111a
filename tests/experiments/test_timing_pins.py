"""Pinned Fig. 10 / Fig. 11 timing results.

Both figures are read off the per-slot transmission start times, so
these pins hold the exact numbers the default runs produce: Fig. 10's
misalignment, fake/poll/trigger counts and throughput plus the digest
of its rendered report (which covers the ASCII timeline), and every
value of Fig. 11's misalignment series.  A change that moves any of
them changed either the simulation or how the timeline is derived.

Regenerate a pin only for an intended behaviour change, and say so.
"""

import hashlib

import pytest

from repro import telemetry
from repro.experiments import fig10_microscope, fig11_misalignment

FIG10_REPORT_SHA256 = (
    "835abe83896261502286b0f42776fb2515966a74100601214c677c000969ef23")

FIG11_SERIES = {
    20.0: [12.087936369205238, 9.829323315861188, 1.1293065266722806,
           0.5646532633363677, 0.4400815942894951, 0.36854137897671535,
           0.29425743706588037, 0.31182488910781103],
    40.0: [17.071823826204252, 13.22964315139859, 2.5461417495787373,
           2.6143704821481606, 1.1153159121677163, 1.133638973989946,
           0.4568327394172229, 0.8820098808027979],
    60.0: [20.896095177009386, 16.19040410058119, 6.994605673990009,
           6.926376941420358, 0.30444421744914507, 0.3649986369373437,
           0.3122054363739153, 0.3216845742717851],
    80.0: [24.12010506123346, 18.68644104183545, 8.076674937506823,
           8.008446204936945, 0.3044442174495998, 0.3649986369382532,
           0.31220543637437004, 0.3216845742708756],
}


def test_fig10_microscope_pinned():
    result = fig10_microscope.run()
    assert result.initial_misalignment_us == 45.10653958853112
    assert result.settled_misalignment_us == 2.636870237009134
    assert result.fake_transmissions == 0
    assert result.fake_entries_scheduled == 72
    assert result.poll_transmissions == 144
    assert result.trigger_detections == 421
    assert result.aggregate_mbps == 34.46784
    assert len(result.timeline.events) == 1832
    report = fig10_microscope.report(result)
    assert hashlib.sha256(report.encode()).hexdigest() == \
        FIG10_REPORT_SHA256, report


def test_fig11_misalignment_pinned():
    assert fig11_misalignment.run().series == FIG11_SERIES


def test_truncated_trace_is_refused():
    """The figures read the earliest slots, which are the first
    records a full ring evicts: a partial timeline must not be read."""
    with pytest.raises(ValueError, match="evicted"):
        fig11_misalignment.run_variance(
            20.0, telemetry.TraceRecorder(capacity=256), seed=2,
            horizon_us=40_000.0)
    assert not telemetry.enabled()
