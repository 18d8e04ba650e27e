"""Structured pass/fail/note reports shared by the validators and the check suite.

An Entry is a named tuple, and a Report a one-field named tuple around its
list of entries; both compare and print by their fields.
"""

import json
from collections import namedtuple

PASS = "pass"
FAIL = "fail"
NOTE = "note"


Entry = namedtuple("Entry", "check status details", defaults=("",))
Entry.__doc__ = """One report line: which check ran, how it ended ("pass", "fail"
or "note"), and the evidence: str for prose, dict for machine-readable
payloads."""


class Report(namedtuple("Report", "entries")):
    __slots__ = ()

    def __new__(cls, entries: list[Entry] | None = None):
        return super().__new__(cls, [] if entries is None else entries)

    def add(self, check: str, status: str, details: object = "") -> None:
        if status not in (PASS, FAIL, NOTE):
            raise ValueError(f"unknown status {status!r}")
        self.entries.append(Entry(check, status, details))

    def extend(self, other: "Report") -> None:
        self.entries.extend(other.entries)

    @property
    def failures(self) -> list[Entry]:
        return [e for e in self.entries if e.status == FAIL]

    @property
    def ok(self) -> bool:
        """True when no entry failed. Notes do not count against validity."""
        return not self.failures

    def statuses(self) -> dict[str, str]:
        """check name -> worst status seen for it (fail > note > pass)."""
        order = {PASS: 0, NOTE: 1, FAIL: 2}
        out: dict[str, str] = {}
        for e in self.entries:
            if e.check not in out or order[e.status] > order[out[e.check]]:
                out[e.check] = e.status
        return out

    def to_json(self) -> str:
        rows = [{"check": e.check, "status": e.status, "details": e.details}
                for e in self.entries]
        return json.dumps(rows, indent=2)
