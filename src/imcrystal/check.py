"""The result record shared by every verifier, and the runner that fills it.

A check is a name, the number of cases it examined and one witness string
per failure; it passes when it has no witnesses.  Verifiers do not keep
these books themselves: each declares its cases and a function that
returns the failure text of one case, or None when the case passes, and
`Check.run` counts the cases and collects the texts.  `Check.fold` makes
one result of several.  The relation checker, the orthonormality and
intertwining checks, the crystal axioms and the command-line suites all
report in this one form.  `closed_range` reads the integer range of a
probe and rejects an inverted one, so no verifier passes on zero cases.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

Case = TypeVar("Case")


class Check:
    __slots__ = ("name", "checked", "witnesses")

    def __init__(self, name: str):
        self.name, self.checked, self.witnesses = name, 0, []

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def run(
        self, cases: Iterable[Case], fail: Callable[[Case], str | Iterable[str] | None]
    ) -> Check:
        """Examine the cases in order, counting each one.  `fail(case)` is
        None for a passing case, else its failure text, or the texts of a
        case that can fail in several ways.  Returns this check, so a
        later run adds to it."""
        for case in cases:
            self.checked += 1
            text = fail(case)
            if isinstance(text, str):
                self.witnesses.append(text)
            elif text is not None:
                self.witnesses.extend(text)
        return self

    @classmethod
    def fold(cls, name: str, results: Iterable[Check], tag: bool = False) -> Check:
        """One result with the cases and witnesses of `results`, in order;
        with `tag`, each witness names the result it came from."""
        out = cls(name)
        for r in results:
            out.checked += r.checked
            out.witnesses.extend(f"{r.name}: {w}" if tag else w for w in r.witnesses)
        return out

    def to_dict(self) -> dict:
        """JSON form for the suite reports, with at most 20 witnesses."""
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "checked": self.checked,
            "witnesses": self.witnesses[:20],
        }


def closed_range(bounds: tuple[int, int]) -> range:
    """The integers a..b of bounds (a, b), both ends included; ValueError
    when a > b, as the range is empty."""
    lo, hi = bounds
    if lo > hi:
        raise ValueError(f"empty range {lo}:{hi}: need a <= b")
    return range(lo, hi + 1)
