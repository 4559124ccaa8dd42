"""Shared result object for the exhaustive and sampled verification drivers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    name: str
    params: dict
    checks: int = 0
    failures: list = field(default_factory=list)
    seed: int | str | None = None
    details: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add_failure(self, **info):
        self.failures.append(info)

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.failures)} counterexamples)"
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"{self.name} [{ps}]: {self.checks} checks, {status}"
        if self.seed is not None:
            line += f", seed={self.seed}"
        return line

    def to_json_obj(self) -> dict:
        """The report for `json.dumps`, which writes keys as strings and
        tuples as lists itself."""
        obj = {
            "name": self.name,
            "params": self.params,
            "checks": self.checks,
            "ok": self.ok,
            "failures": self.failures,
            "seed": self.seed,
        }
        if self.details:
            obj["details"] = self.details
        return obj
