"""The result record shared by every verifier.

A check is a name, the number of cases it examined and one witness string
per failing case; it passes when it has no witnesses.  The relation
checker, the orthonormality and intertwining checks, the crystal axioms
and the command-line suites all report in this one form.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    checked: int = 0
    witnesses: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_dict(self) -> dict:
        """JSON form for the suite reports, with at most 20 witnesses."""
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "checked": self.checked,
            "witnesses": self.witnesses[:20],
        }
