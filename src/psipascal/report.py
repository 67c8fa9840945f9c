"""Pass/fail reports of the identity checks, and the one comparison that makes them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .scalars import scalar_to_string


@dataclass(frozen=True)
class Counterexample:
    """First failing location of a check, with both side values rendered canonically."""

    location: tuple[int, ...]
    lhs: str
    rhs: str
    detail: Optional[str] = None

    def to_json_obj(self) -> dict:
        return {
            "location": list(self.location),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "detail": self.detail,
        }

    def __str__(self):
        where = "(" + ", ".join(str(i) for i in self.location) + ")"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"at {where}: lhs={self.lhs} rhs={self.rhs}{extra}"


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check.

    ``params`` echoes the resolved parameters as canonical strings, so a
    report can be replayed exactly.  ``elapsed`` is measured wall time and is
    deliberately left out of the serialized form to keep reports byte-stable.
    """

    identity: str
    params: dict[str, str]
    passed: bool
    counterexample: Optional[Counterexample] = None
    elapsed: float = field(default=0.0, compare=False)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "status": self.status,
            "counterexample": self.counterexample.to_json_obj() if self.counterexample else None,
        }

    def one_line(self) -> str:
        parts = [f"{self.status.upper()} {self.identity}"]
        if self.params:
            parts.append(" ".join(f"{k}={v}" for k, v in self.params.items()))
        if self.counterexample is not None:
            parts.append(str(self.counterexample))
        return "  ".join(parts)


def passing(identity: str, params: dict[str, str]) -> IdentityReport:
    return IdentityReport(identity, params, True, None)


def failing(
    identity: str,
    params: dict[str, str],
    location: tuple[int, ...],
    lhs: str,
    rhs: str,
    detail: Optional[str] = None,
) -> IdentityReport:
    return IdentityReport(identity, params, False, Counterexample(location, lhs, rhs, detail))


def first_difference(identity: str, params: dict[str, str], pairs) -> IdentityReport:
    """The one comparison of every identity check.

    ``pairs`` yields ``(location, lhs, rhs, detail)`` in the check's fixed
    order and is read lazily, so a side is computed only once every earlier
    pair has agreed.  The first pair whose exact sides differ is the
    counterexample, both sides rendered canonically; if none differs the
    check passes.
    """
    for location, lhs, rhs, detail in pairs:
        if lhs != rhs:
            return failing(identity, params, location, scalar_to_string(lhs), scalar_to_string(rhs), detail)
    return passing(identity, params)
