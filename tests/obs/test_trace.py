"""Event trace unit tests."""

import json

import pytest

from repro.obs import EventTrace


class TestRingBuffer:
    def test_emit_and_iterate(self):
        trace = EventTrace(capacity=8)
        trace.emit("btb", pc=0x100, hit=True)
        events = list(trace)
        assert events == [{"seq": 0, "kind": "btb", "pc": 0x100,
                           "hit": True}]

    def test_record_index_stamped_when_set(self):
        trace = EventTrace()
        trace.record_index = 42
        trace.emit("sbb", pc=1, hit=False, which=None)
        assert trace.events("sbb")[0]["record"] == 42

    def test_capacity_keeps_most_recent(self):
        trace = EventTrace(capacity=3)
        for index in range(10):
            trace.emit("btb", pc=index, hit=False)
        assert trace.emitted == 10
        assert trace.dropped == 7
        assert [event["pc"] for event in trace] == [7, 8, 9]

    def test_events_filters_by_kind(self):
        trace = EventTrace()
        trace.emit("btb", pc=1, hit=True)
        trace.emit("resteer", pc=1, stage="decode", cause="btb_alias",
                   latency=12.0)
        assert len(trace.events("resteer")) == 1
        assert len(trace.events()) == 2

    def test_clear(self):
        trace = EventTrace()
        trace.emit("btb", pc=1, hit=True)
        trace.clear()
        assert len(trace) == 0
        assert trace.emitted == 0

    def test_clear_resets_record_index(self):
        # Regression: clear() used to leave the previous run's final
        # record index behind, so a cleared trace reused on another
        # simulator stamped its first events with a stale record.
        trace = EventTrace()
        trace.record_index = 99
        trace.emit("btb", pc=1, hit=True)
        trace.clear()
        assert trace.record_index is None
        trace.emit("btb", pc=2, hit=False)
        assert "record" not in trace.events("btb")[0]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)


class TestJsonl:
    def test_dump_is_self_describing(self, tmp_path):
        trace = EventTrace(capacity=2)
        for index in range(5):
            trace.emit("btb", pc=index, hit=bool(index % 2))
        path = trace.to_jsonl(tmp_path / "trace.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        header, *events = lines
        assert header["kind"] == "trace_header"
        assert header["emitted"] == 5
        assert header["dropped"] == 3
        assert len(events) == 2
        assert all(event["kind"] == "btb" for event in events)
