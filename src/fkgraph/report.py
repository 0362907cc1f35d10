"""Verification reports: failures are collected, not thrown."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Report:
    name: str
    checks: int
    failures: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures
