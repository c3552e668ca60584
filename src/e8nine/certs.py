"""Exact-valued check certificates shared by the verification operations."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    description: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class CheckFailure(Exception):
    """A certificate check failed; the message names the violated invariant."""

    def __init__(self, stage: str, check: Check):
        self.stage = stage
        self.check = check
        super().__init__(
            "%s: %s (expected %r, got %r)"
            % (stage, check.description, check.expected, check.actual)
        )


class Certificate:
    """A list of (description, expected, actual) checks for one stage.

    `check` records each check and raises CheckFailure at the first failure.
    Expected and actual values are exact integers or exact structure hashes,
    never floats. wall_time_ms is informational only and is excluded from
    serialized artifacts so runs stay byte-reproducible. A plain class, as
    the stage wrapper assigns wall_time_ms after the stage returns.
    """

    def __init__(self, stage: str):
        self.stage = stage
        self.checks: list[Check] = []
        self.wall_time_ms = 0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, description: str, expected: object, actual: object) -> None:
        c = Check(description=description, expected=expected, actual=actual)
        self.checks.append(c)
        if not c.ok:
            raise CheckFailure(self.stage, c)
