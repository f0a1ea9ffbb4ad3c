"""Timeline recorder + Chrome trace-event export round-trips."""

import json

import pytest

from repro.frontend.bpu import RESTEER_CAUSES
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.obs import EventTrace, TimelineRecorder, chrome_from_jsonl
from repro.obs.timeline import (
    EVENT_TRACE_PID,
    PIPELINE_PID,
    TRACKS,
    chrome_from_trace_events,
)


@pytest.fixture(scope="module")
def traced_sim(micro_program, micro_trace):
    """One Skia micro run with the timeline enabled via the config flag.

    A small BTB forces misses, SBB activity and resteers so every event
    family appears.
    """
    config = FrontEndConfig(skia=SkiaConfig(),
                            record_timeline=True).with_btb_entries(256)
    simulator = FrontEndSimulator(micro_program, config)
    simulator.run(micro_trace, warmup=2_000)
    return simulator


@pytest.fixture(scope="module")
def chrome_payload(traced_sim, tmp_path_factory):
    path = traced_sim.timeline.to_chrome(
        tmp_path_factory.mktemp("timeline") / "timeline.json")
    return json.loads(path.read_text(encoding="utf-8"))


class TestRecorder:
    def test_config_flag_attaches_recorder(self, traced_sim):
        assert isinstance(traced_sim.timeline, TimelineRecorder)

    def test_ring_buffer_bounds_and_counts(self):
        recorder = TimelineRecorder(capacity=4)
        for i in range(10):
            recorder.span("iag", "x", float(i), 1.0)
        assert len(recorder) == 4
        assert recorder.emitted == 10
        assert recorder.dropped == 6

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            TimelineRecorder(capacity=0)

    def test_clear(self):
        recorder = TimelineRecorder()
        recorder.instant("iag", "x", 1.0)
        recorder.clear()
        assert len(recorder) == 0 and recorder.emitted == 0


class TestChromeExport:
    def test_valid_json_with_trace_events(self, chrome_payload):
        events = chrome_payload["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert event["ph"] in ("X", "M", "i")

    def test_process_and_thread_metadata(self, chrome_payload):
        metadata = [e for e in chrome_payload["traceEvents"]
                    if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata
                 if e["name"] == "thread_name"}
        assert {"iag", "fetch", "decode", "retire"} <= names
        process = [e for e in metadata if e["name"] == "process_name"]
        assert process and process[0]["pid"] == PIPELINE_PID

    def test_at_least_four_tracks_populated(self, chrome_payload):
        tids = {e["tid"] for e in chrome_payload["traceEvents"]
                if e["ph"] in ("X", "i")}
        # IAG, fetch, decode, retire always; SBD tracks with Skia on.
        assert len(tids) >= 4
        assert {TRACKS["iag"], TRACKS["fetch"], TRACKS["decode"]} <= tids
        assert tids & {TRACKS["sbd.head"], TRACKS["sbd.tail"]}

    def test_timestamps_monotonic(self, chrome_payload):
        ts = [e["ts"] for e in chrome_payload["traceEvents"] if "ts" in e]
        assert ts == sorted(ts)

    def test_spans_carry_durations(self, chrome_payload):
        spans = [e for e in chrome_payload["traceEvents"]
                 if e["ph"] == "X"]
        assert spans
        assert all(e["dur"] >= 0 for e in spans)

    def test_resteer_instants_attributed_by_cause(self, chrome_payload):
        resteers = [e for e in chrome_payload["traceEvents"]
                    if e["ph"] == "i" and e["name"].startswith("resteer:")]
        assert resteers
        for event in resteers:
            cause = event["name"].split(":", 1)[1]
            assert cause in RESTEER_CAUSES
            assert event["args"]["stage"] in ("decode", "exec")
            assert event["args"]["latency"] > 0

    def test_btb_miss_and_sbb_instants_present(self, chrome_payload):
        instants = {e["name"] for e in chrome_payload["traceEvents"]
                    if e["ph"] == "i"}
        assert "btb_miss" in instants

    def test_timeline_agrees_with_resteer_stats(self, traced_sim):
        resteers = sum(
            1 for phase, _, name, *_ in traced_sim.timeline
            if phase == "i" and name.startswith("resteer:"))
        stats = traced_sim.stats
        # Timeline covers warm-up too, so it bounds the counters.
        assert resteers >= stats.decode_resteers + stats.exec_resteers


class TestJsonlConversion:
    def test_round_trip_from_event_trace(self, tmp_path):
        trace = EventTrace(capacity=64)
        trace.emit("btb", pc=0x1000, hit=False)
        trace.emit("sbb", pc=0x1000, hit=True, which="u")
        trace.emit("sbd", side="head", pc=0x1040, branches=2,
                   discarded=False, valid_paths=1)
        trace.emit("resteer", pc=0x1080, stage="decode",
                   cause="undetected_branch", latency=7)
        jsonl = trace.to_jsonl(tmp_path / "events.jsonl")
        out = chrome_from_jsonl(jsonl, tmp_path / "events-chrome.json")
        payload = json.loads(out.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 4
        assert all(e["pid"] == EVENT_TRACE_PID for e in instants)
        ts = [e["ts"] for e in instants]
        assert ts == sorted(ts)
        names = {e["name"] for e in instants}
        assert {"miss", "hit:u", "head", "undetected_branch"} <= names

    def test_truncated_dump_warns(self, tmp_path):
        # A capacity-1 ring keeps one event of many; the converted
        # timeline silently missing data would read as "nothing
        # happened", so the dropped count in the header must surface.
        from repro.obs import DroppedEventsWarning

        trace = EventTrace(capacity=1)
        for index in range(4):
            trace.emit("btb", pc=index, hit=False)
        jsonl = trace.to_jsonl(tmp_path / "truncated.jsonl")
        with pytest.warns(DroppedEventsWarning, match="3 dropped"):
            chrome_from_jsonl(jsonl, tmp_path / "truncated-chrome.json")

    def test_complete_dump_does_not_warn(self, tmp_path):
        import warnings

        trace = EventTrace(capacity=8)
        trace.emit("btb", pc=1, hit=True)
        jsonl = trace.to_jsonl(tmp_path / "complete.jsonl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chrome_from_jsonl(jsonl, tmp_path / "complete-chrome.json")

    def test_header_skipped_and_tracks_stable(self):
        events = [
            {"kind": "trace_header", "capacity": 8, "emitted": 2,
             "dropped": 0},
            {"kind": "btb", "seq": 0, "pc": 1, "hit": True},
            {"kind": "btb", "seq": 1, "pc": 2, "hit": False},
        ]
        chrome = chrome_from_trace_events(events)
        instants = [e for e in chrome if e["ph"] == "i"]
        assert len(instants) == 2
        assert len({e["tid"] for e in instants}) == 1

    def test_unknown_kind_gets_its_own_track(self):
        chrome = chrome_from_trace_events(
            [{"kind": "custom", "seq": 0, "x": 1}])
        instants = [e for e in chrome if e["ph"] == "i"]
        assert instants[0]["name"] == "custom"
        thread_names = {e["args"]["name"] for e in chrome
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "custom" in thread_names
