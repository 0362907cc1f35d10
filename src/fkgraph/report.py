"""Verification reports: failures are collected, not thrown."""

from __future__ import annotations

from typing import NamedTuple


class Report(NamedTuple):
    name: str
    checks: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures
