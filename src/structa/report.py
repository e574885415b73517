"""Law reports: the uniform result type of every checking operation.

A report is a list of named checks. A failed check carries the
lexicographically least witness found. Reports render deterministically
(sorted by law id, then witness) in both text and JSON form.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BadStructure

# a law id, its statement, the verdict, and the witness of a failure
Check = namedtuple("Check", ("law", "statement", "passed", "witness"), defaults=(None,))


def _witness_key(w):
    return tuple(str(x) for x in w) if w else ()


def _check_key(c):
    return (c.law, _witness_key(c.witness))


class LawReport:
    """A suite name and its checks in the order they were added. Each
    report owns its ``checks`` list, a new one unless one is given.
    Reports with the same name and checks are equal; being mutable, a
    report is unhashable."""

    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: list[Check] | None = None):
        self.suite = suite
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.checks) == (other.suite, other.checks)

    def __repr__(self):
        return "LawReport(suite=%r, checks=%r)" % (self.suite, self.checks)

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
