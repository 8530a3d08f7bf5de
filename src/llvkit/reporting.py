"""The one record type: what a check returns and a report prints."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Record:
    """One verified statement: its name, its anchor (the mathematical
    claim), its data and its verdict, ``pass``, ``fail`` or ``skip``.

    A check whose report lists witnesses starts its data with an empty
    ``failures`` list and calls ``fail``; a sampled check fills its own
    ``violations`` and sets the verdict itself.
    """

    name: str
    anchor: str
    data: dict = field(default_factory=dict)
    verdict: str = "pass"

    @property
    def ok(self):
        return self.verdict != "fail"

    @property
    def failures(self):
        return self.data["failures"]

    def fail(self, detail):
        self.verdict = "fail"
        self.data["failures"].append(detail)

    def skip(self, reason):
        self.verdict = "skip"
        self.data = {"reason": reason}
        return self
