"""Acceptance gate: the fourteen criteria, one pass/fail line each.

Every criterion is realized as a named suite (structa.suites); this
module runs each suite, prints a single line with its verdict, and
fails the test on any failed check, or on a report that differs from
its golden file (tests/golden/make.py writes those).
"""

import sys
from pathlib import Path

import pytest

from structa.suites import SUITES

GOLDEN = Path(__file__).parent / "golden"

CRITERIA = [
    (1, "functions"),
    (2, "categories"),
    (3, "interchange"),
    (4, "yoneda"),
    (5, "integers"),
    (6, "rationals"),
    (7, "lattices"),
    (8, "zorn"),
    (9, "groups"),
    (10, "actions"),
    (11, "filters"),
    (12, "sigma"),
    (13, "topology"),
    (14, "cli"),
]


@pytest.mark.parametrize(
    "number,name", CRITERIA, ids=["%02d-%s" % (n, s) for n, s in CRITERIA]
)
def test_acceptance_criterion(number, name, capsys):
    report = SUITES[name]()
    ok, bad = report.counts()
    verdict = "PASS" if report.passed else "FAIL"
    with capsys.disabled():
        print(
            "\nACCEPTANCE CRITERION %2d (%s): %s  [%d checks, %d failed]"
            % (number, name, verdict, ok + bad, bad),
            file=sys.stderr,
        )
    assert report.passed, report.render_text()
    golden = (GOLDEN / ("suite-%s.txt" % name)).read_text(encoding="utf-8")
    assert report.render_text() + "\n" == golden


def test_all_criteria_covered():
    assert [name for _, name in CRITERIA] == list(SUITES)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", ["interchange", "topology"])
def test_sampled_suites_print_the_seed_0_golden_file(name, seed):
    # their sampled grids and closure tables change with the seed, but
    # every sample passes, so the report is that of seed 0; this pins the
    # sampling loops at seed 7 as well
    golden = (GOLDEN / ("suite-%s.txt" % name)).read_text(encoding="utf-8")
    assert SUITES[name](seed=seed).render_text() + "\n" == golden
