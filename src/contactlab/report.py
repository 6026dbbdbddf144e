"""Structured verification reports: named checks with pass/fail and witnesses."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str | None = None

    def as_dict(self):
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


class CheckList:
    """The reading shared by reports and validated structures: the
    ``checks`` field of their dataclass, a tuple of `Check` entries."""

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failure_summary(self, sep):
        """The failures as ``name<sep>witness``, joined with "; "."""
        return "; ".join(f"{c.name}{sep}{c.witness}" for c in self.failures)


@dataclass(frozen=True)
class DualityReport(CheckList):
    """Outcome of a verification run.

    Failure entries always carry a concrete witness string.
    """

    subject: str
    checks: tuple[Check, ...] = ()
    elapsed_ms: float | None = field(default=None, compare=False)

    def as_dict(self, include_elapsed=False):
        out = {"subject": self.subject, "checks": [c.as_dict() for c in self.checks]}
        if include_elapsed and self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out


class ReportBuilder:
    """Accumulates checks, then freezes into a DualityReport with the
    elapsed wall time since construction."""

    def __init__(self, subject):
        self.subject = subject
        self._checks = []
        self._started = time.perf_counter()

    def add(self, name, passed, witness=None):
        if passed:
            witness = None
        elif witness is None:
            witness = "no witness recorded"
        self._checks.append(Check(name, bool(passed), witness))
        return passed

    def done(self):
        elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        return DualityReport(self.subject, tuple(self._checks), elapsed_ms)
