"""Check reports: every verifier returns findings with concrete witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field


class InvariantError(Exception):
    """A construction met input that breaks a law it relies on.

    Raised instead of returning a wrong object; run the checkers of the
    input (check_algebra, check_bimodule, ...) for the witnesses.
    """


@dataclass(frozen=True)
class Finding:
    """One violated law, with the basis indices that witness it."""
    law: str
    witness: tuple
    detail: str = ""

    def __str__(self):
        w = ",".join(str(x) for x in self.witness)
        s = "%s at (%s)" % (self.law, w)
        if self.detail:
            s += ": " + self.detail
        return s


@dataclass
class CheckReport:
    subject: str
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, law: str, witness: tuple, detail: str = ""):
        self.findings.append(Finding(law, tuple(witness), detail))

    def extend(self, other: "CheckReport"):
        self.findings.extend(other.findings)

    def __str__(self):
        if self.ok:
            return "%s: ok" % self.subject
        lines = ["%s: %d violation(s)" % (self.subject, len(self.findings))]
        lines += ["  " + str(f) for f in self.findings]
        return "\n".join(lines)
