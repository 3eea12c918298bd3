"""Check reports shared by the suite runners and the CLI.

Each item times itself: `Report.add` stamps it with the seconds since the
previous item of the same report was added, or since the report was made
if it is the first.  `Report.extend` takes over another report's items with
their own times and restarts the clock, so the next item added does not
count the extended report's work a second time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class CheckItem:
    name: str
    status: str                 # "pass" | "fail"
    detail: dict | None = None
    seconds: float = 0.0

    def to_dict(self, strip_timing: bool = False) -> dict:
        out: dict = {"name": self.name, "status": self.status}
        if self.detail is not None:
            out["detail"] = self.detail
        if not strip_timing:
            out["seconds"] = round(self.seconds, 6)
        return out


@dataclass
class Report:
    title: str
    config: dict = field(default_factory=dict)
    items: list[CheckItem] = field(default_factory=list)
    mark: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mark = time.perf_counter()

    @property
    def ok(self) -> bool:
        return all(item.status == "pass" for item in self.items)

    def add(self, name: str, passed: bool, detail: dict | None = None) -> CheckItem:
        now = time.perf_counter()
        item = CheckItem(name, "pass" if passed else "fail", detail, now - self.mark)
        self.mark = now
        self.items.append(item)
        return item

    def extend(self, other: "Report") -> None:
        self.items.extend(other.items)
        self.mark = time.perf_counter()

    def first_failure(self) -> CheckItem | None:
        for item in self.items:
            if item.status != "pass":
                return item
        return None

    def to_dict(self, strip_timing: bool = False) -> dict:
        return {
            "title": self.title,
            "config": self.config,
            "ok": self.ok,
            "items": [i.to_dict(strip_timing) for i in self.items],
        }

    def to_json(self, strip_timing: bool = False) -> str:
        return json.dumps(self.to_dict(strip_timing), indent=2, sort_keys=True)
