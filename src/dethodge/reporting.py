"""Shared result object for the exhaustive and sampled verification drivers.

`VerificationReport` is the one mutable value type of the package: a
``matrixspace._Record`` that allows assignment and is unhashable, as a
non-frozen dataclass would be."""

from __future__ import annotations

from .matrixspace import _Record


class VerificationReport(_Record):
    __slots__ = __match_args__ = ("name", "params", "checks", "failures", "seed", "details")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, name: str, params: dict, checks: int = 0, failures=None, seed=None, details=None
    ):
        self.name = name
        self.params = params
        self.checks = checks
        self.failures = [] if failures is None else failures
        self.seed = seed
        self.details = [] if details is None else details

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
