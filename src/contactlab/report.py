"""Structured verification reports: named checks with pass/fail and witnesses.

A check is one tuple, ``(name, passed, witness)``.  A passing check
carries no witness, and nothing on the passing path builds one: every
caller passes its witness text in the form ``None if ok else ...``, so
the text is formatted only when the check fails, and a pass is the one
tuple of its name (`verdict`): results kept in bulk share their passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple


class Check(NamedTuple):
    """One named verdict; ``witness`` names why it failed, None on a pass.
    A tuple, so it compares equal to the plain tuple of its fields."""

    name: str
    passed: bool
    witness: str | None = None

    def as_dict(self):
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


_PASSED = {}
_PASSED_BOUND = 256


def verdict(name, passed, witness=None):
    """The check ``name`` with its outcome; a pass drops ``witness`` and is
    shared, up to a bound on the names, against a caller making them up."""
    if not passed:
        return Check(name, False, "no witness recorded" if witness is None else witness)
    check = _PASSED.get(name)
    if check is None:
        check = Check(name, True)
        if len(_PASSED) < _PASSED_BOUND:
            _PASSED[name] = check
    return check


class CheckList:
    """The reading shared by reports and validated structures: the
    ``checks`` field of their dataclass, a tuple of `Check` entries.  A
    list with no check is not ok: a structure built without its checks
    has not been validated."""

    @property
    def ok(self):
        return bool(self.checks) and all(c.passed for c in self.checks)

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

    def as_dict(self):
        return {"subject": self.subject, "checks": [c.as_dict() for c in self.checks]}


class ReportBuilder:
    """Accumulates checks, then freezes into a DualityReport with the
    elapsed wall time since construction."""

    def __init__(self, subject):
        self.subject = subject
        self._checks = []
        self._started = time.perf_counter()

    def add(self, name, passed, witness=None):
        """Record the check (`verdict`); return ``passed``."""
        self._checks.append(verdict(name, passed, witness))
        return passed

    @property
    def checks(self):
        """The checks recorded so far, for a caller that keeps them
        without a report."""
        return tuple(self._checks)

    def done(self):
        elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        return DualityReport(self.subject, self.checks, elapsed_ms)
