import pytest

from graphbao import report as report_mod
from graphbao.report import Report


class StoppedClock:
    """Stands in for the time module: perf_counter reads `now`."""

    def __init__(self):
        self.now = 100.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    stopped = StoppedClock()
    monkeypatch.setattr(report_mod, "time", stopped)
    return stopped


def test_items_time_the_gap_since_the_previous_item(clock):
    report = Report("r")
    clock.now += 2.5
    report.add("first", True)
    clock.now += 0.25
    report.add("second", False, {"why": "x"})
    report.add("third", True)
    assert [item.seconds for item in report.items] == [2.5, 0.25, 0.0]


def test_add_after_extend_skips_the_extended_reports_time(clock):
    outer = Report("outer")
    clock.now += 1.0
    inner = Report("inner")
    clock.now += 3.0
    inner.add("inner item", True)
    outer.extend(inner)
    clock.now += 0.5
    outer.add("outer item", True)
    assert [(item.name, item.seconds) for item in outer.items] == [
        ("inner item", 3.0), ("outer item", 0.5)]

