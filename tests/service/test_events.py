"""Typed controller events and their JSON wire form."""

import pytest

from repro.service import (Associate, Disassociate, QueueUpdate, RssDelta,
                           event_from_json, event_to_json)


class TestJsonRoundTrip:
    def test_all_kinds_round_trip(self):
        events = [
            Associate(t_us=1.0, client=3, ap=0,
                      rss_to={0: -40.0, 2: -71.5}, rss_from={0: -41.0}),
            Disassociate(t_us=2.0, client=3),
            RssDelta(t_us=3.5, node=5, rss_to={1: -60.0},
                     rss_from={1: -62.0}),
            QueueUpdate(t_us=4.0, src=0, dst=1, backlog=3.0),
        ]
        for event in events:
            assert event_from_json(event_to_json(event)) == event

    def test_wire_form_is_plain_json(self):
        import json
        raw = event_to_json(RssDelta(t_us=1.0, node=2,
                                     rss_to={0: -50.0}, rss_from={}))
        parsed = json.loads(json.dumps(raw))
        assert parsed["kind"] == "rss_delta"
        assert event_from_json(parsed) == RssDelta(
            t_us=1.0, node=2, rss_to={0: -50.0}, rss_from={})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), "-50", True, None])
    def test_rss_entry_must_be_a_finite_number(self, value):
        """A NaN entry fails every SINR comparison, keeping its link
        out of every slot without a word; strings and bools are not
        numbers.  The error names the event kind and the field."""
        with pytest.raises(ValueError) as err:
            event_from_json({"kind": "rss_delta", "t_us": 0.0, "node": 1,
                             "rss_from": {"0": value}})
        assert str(err.value).startswith("rss_delta event: rss_from[")
        assert "\n" not in str(err.value)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_json({"kind": "teleport", "t_us": 0.0})

    def test_kind_strings(self):
        assert Associate.KIND == "associate"
        assert Disassociate.KIND == "disassociate"
        assert RssDelta.KIND == "rss_delta"
        assert QueueUpdate.KIND == "queue_update"
