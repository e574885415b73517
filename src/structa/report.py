"""Law reports: the uniform result type of every checking operation.

A report is a list of named checks. A failed check carries the
lexicographically least witness found. Reports render deterministically
(sorted by law id, then witness) in both text and JSON form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class Check(NamedTuple):
    law: str
    statement: str
    passed: bool
    witness: tuple | None = None


def _witness_key(w):
    return tuple(str(x) for x in w) if w else ()


def _check_key(c):
    return (c.law, _witness_key(c.witness))


@dataclass
class LawReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    def add(self, law, statement, passed, witness=None):
        """Record a check. A passed check has no witness; a failed one
        without a witness gets the empty one."""
        if passed:
            witness = None
        elif witness is None:
            witness = ()
        self.checks.append(Check(law, statement, bool(passed), witness))

    def merge(self, other: "LawReport"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return sorted((c for c in self.checks if not c.passed), key=_check_key)

    def __getitem__(self, law: str) -> Check:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    def require(self):
        """Raise if any check failed; convenient for constructions."""
        bad = self.failures
        if bad:
            from .errors import BadStructure

            c = bad[0]
            raise BadStructure(
                "%s: %s failed (%s)" % (self.suite, c.law, c.statement),
                witness=c.witness,
            )
        return self

    def sorted_checks(self) -> list[Check]:
        return sorted(self.checks, key=_check_key)

    def counts(self):
        ok = sum(1 for c in self.checks if c.passed)
        return ok, len(self.checks) - ok

    def to_json(self):
        ok, bad = self.counts()
        return {
            "suite": self.suite,
            "checks": [
                {
                    "law": c.law,
                    "statement": c.statement,
                    "passed": c.passed,
                    **({} if c.witness is None else {"witness": [str(x) for x in c.witness]}),
                }
                for c in self.sorted_checks()
            ],
            "summary": {"passed": ok, "failed": bad},
        }

    def render_text(self) -> str:
        lines = ["suite: %s" % self.suite]
        width = max((len(c.law) for c in self.checks), default=0)
        for c in self.sorted_checks():
            mark = "PASS" if c.passed else "FAIL"
            line = "  %s  %-*s  %s" % (mark, width, c.law, c.statement)
            if c.witness is not None:
                line += "  witness=%s" % (tuple(str(x) for x in c.witness),)
            lines.append(line)
        ok, bad = self.counts()
        lines.append("  %d passed, %d failed" % (ok, bad))
        return "\n".join(lines)
