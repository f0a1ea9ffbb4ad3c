"""Progress reporting: ETA arithmetic, ledger heartbeats, TTY awareness.

Everything runs on a synthetic monotonic clock -- no sleeping, no
timing sensitivity.  Stragglers are judged once, when a run ends
(:func:`repro.obs.ledger.flag_stragglers`, tested in
``tests/obs/test_ledger.py``).
"""

from __future__ import annotations

import io

import pytest

from repro.harness.progress import (ProgressReporter, _format_eta,
                                    progress_enabled)
from repro.obs.ledger import RunLedger, read_manifest


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TtyStream(io.StringIO):
    def isatty(self) -> bool:  # noqa: A003 - mirrors TextIO
        return True


def make_reporter(total=10, stream=None, **kwargs):
    clock = FakeClock()
    stream = stream if stream is not None else io.StringIO()
    reporter = ProgressReporter(total, stream=stream, clock=clock,
                                **kwargs)
    return reporter, clock, stream


class TestEtaMath:
    def test_format_eta(self):
        assert _format_eta(12) == "12s"
        assert _format_eta(200) == "3m20s"
        assert _format_eta(3720) == "1h02m"
        assert _format_eta(-5) == "0s"

    def test_rate_and_eta_from_synthetic_clock(self):
        reporter, clock, _ = make_reporter(total=10)
        clock.advance(8.0)
        reporter.update(4)
        assert reporter.rate == pytest.approx(0.5)
        assert reporter.eta_seconds == pytest.approx(12.0)

    def test_eta_unknown_before_first_completion(self):
        reporter, clock, _ = make_reporter(total=10)
        clock.advance(5.0)
        assert reporter.rate == 0.0
        assert reporter.eta_seconds is None

    def test_render_line(self):
        reporter, clock, _ = make_reporter(total=10)
        clock.advance(8.0)
        reporter.update(4)
        assert reporter.render() == "4/10 cells  0.5/s  ETA 12s"


class TestStragglers:
    def test_heartbeat_forwards_to_ledger(self, tmp_path):
        ledger = RunLedger.create("t", root=tmp_path)
        reporter, _, _ = make_reporter(total=4, ledger=ledger)
        reporter.completed = 2
        reporter.heartbeat(cell="c1")
        ledger.close()
        beats = [r for r in read_manifest(ledger.manifest_path)
                 if r["kind"] == "heartbeat"]
        assert beats and beats[0]["completed"] == 2
        assert beats[0]["total"] == 4


class TestRendering:
    def test_tty_rewrites_one_line(self):
        reporter, clock, stream = make_reporter(total=4,
                                                stream=TtyStream())
        reporter.update(1)
        clock.advance(5.0)
        reporter.update(1)
        reporter.finish()
        output = stream.getvalue()
        assert "\r\x1b[K" in output
        assert output.endswith("\n")

    def test_non_tty_prints_plain_lines(self):
        reporter, clock, stream = make_reporter(total=4)
        reporter.update(1)
        clock.advance(5.0)
        reporter.update(1)
        output = stream.getvalue()
        assert "\r" not in output
        assert all(line for line in output.strip().splitlines())

    def test_interval_rate_limits_emission(self):
        reporter, clock, stream = make_reporter(total=100, interval=2.0)
        reporter.update(1)          # first emission
        reporter.update(1)          # same instant: suppressed
        clock.advance(0.5)
        reporter.update(1)          # still inside interval
        clock.advance(2.0)
        reporter.update(1)          # interval passed
        assert len(stream.getvalue().strip().splitlines()) == 2

    def test_finish_forces_final_line(self):
        reporter, clock, stream = make_reporter(total=2, interval=60.0)
        reporter.update(2)
        reporter.finish()
        lines = stream.getvalue().strip().splitlines()
        assert lines[-1].startswith("2/2 cells")


class TestEnablement:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_PROGRESS", raising=False)
        assert progress_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_suppressed_by_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_PROGRESS", value)
        assert not progress_enabled()
