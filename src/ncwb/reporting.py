"""Check reports: every verifier returns findings with concrete witnesses.

The errors that end a command are here too, and format_rational, the one
text of a rational value in findings and documents: it refuses a value of
more digits than str() converts as an output error, not a traceback.
"""

from __future__ import annotations

import sys
from fractions import Fraction


class WorkspaceError(Exception):
    """Malformed input: bad JSON, bad shapes, dangling references; or a
    document that cannot be written."""


def too_many_digits(where: str) -> WorkspaceError:
    """The refusal of an integer of more digits than Python converts
    between int and str (4300 by default), in input or output."""
    return WorkspaceError("%s: an integer of more than %d digits"
                          % (where, sys.get_int_max_str_digits()))


def with_article(kind: str) -> str:
    """kind after its indefinite article: "a bimodule", "an algebra"."""
    return ("an " if kind[0] in "aeiou" else "a ") + kind


def format_rational(x) -> str:
    try:
        return str(Fraction(x))
    except ValueError:
        raise too_many_digits("output")


class InvariantError(Exception):
    """A construction met input that breaks a law it relies on.

    Raised instead of returning a wrong object; run the checkers of the
    input (check_algebra, check_bimodule, ...) for the witnesses.
    """


class Finding:
    """One violated law, with the basis indices that witness it."""

    def __init__(self, law: str, witness: tuple, detail: str = ""):
        self.law, self.witness, self.detail = law, witness, detail

    def __eq__(self, other):
        return isinstance(other, Finding) and vars(self) == vars(other)

    def __hash__(self):
        return hash((self.law, self.witness, self.detail))

    def __repr__(self):
        return "Finding(%r, %r, %r)" % (self.law, self.witness, self.detail)

    def __str__(self):
        w = ",".join(str(x) for x in self.witness)
        s = "%s at (%s)" % (self.law, w)
        if self.detail:
            s += ": " + self.detail
        return s


class CheckReport:
    def __init__(self, subject: str):
        self.subject = subject
        self.findings = []

    def __eq__(self, other):
        return isinstance(other, CheckReport) and vars(self) == vars(other)

    def __repr__(self):
        return "CheckReport(%r, %r)" % (self.subject, self.findings)

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
