"""Verdicts do not depend on interpreter flags.

The library states no ``assert``: every check it makes is an explicit
test that ``python -O`` keeps. Oracles: the AST of each module, and the
plain interpreter's output for the same command.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import structa
from structa.suites import SUITES

PACKAGE = Path(structa.__file__).parent
ENV = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

GOLDEN = Path(__file__).parent / "golden"

# runs `structa check` on every fixture in one interpreter and prints,
# per fixture, the exit code, stdout and stderr; paths are relative to
# the fixtures directory, so the output is the same in every checkout
CHECK_EACH = """
import contextlib, io, os, sys
from structa import cli
from structa.suites import fixtures_dir
root = fixtures_dir()
os.chdir(root)
for path in sorted(root.glob("*.json")) + sorted(root.glob("bad/*.json")):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path.relative_to(root))])
    sys.stdout.write("## %s %d\\n%s--\\n%s" % (path.name, code, out.getvalue(), err.getvalue()))
"""

# the same for `structa derive`: each of the six ops on every fixture, and
# `quotient` on each group fixture with its whole carrier and with its
# first element as the subgroup
DERIVE_EACH = """
import contextlib, io, os, sys
from structa import cli
from structa.docs import DERIVE_OPS, parse
from structa.errors import StructaError
from structa.suites import fixtures_dir
root = fixtures_dir()
os.chdir(root)
for path in sorted(root.glob("*.json")) + sorted(root.glob("bad/*.json")):
    name = str(path.relative_to(root))
    runs = [[op, name] for op in sorted(DERIVE_OPS)]
    try:
        doc = parse(name)
    except StructaError:
        doc = None
    if doc is not None and doc.kind == "group":
        runs += [["quotient", name, *doc["carrier"]], ["quotient", name, doc["carrier"][0]]]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["derive", *argv])
        sys.stdout.write("## %s %d\\n%s--\\n%s" % (" ".join(argv), code, out.getvalue(), err.getvalue()))
"""


def run(flags, args):
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True, text=True, env=ENV, timeout=300,
    )


def test_library_has_no_assert_statements():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_output_is_the_same_under_optimize(name):
    plain, opt = (run(flags, ["-m", "structa.cli", "suite", name]) for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert (opt.returncode, opt.stdout) == (plain.returncode, plain.stdout)


@pytest.mark.parametrize("args, golden", [([], "formats.txt"), (["--json"], "formats.json")])
def test_formats_output_is_the_same_under_optimize(args, golden):
    plain, opt = (run(flags, ["-m", "structa.cli", "formats", *args]) for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout == (GOLDEN / golden).read_text(encoding="utf-8")
    assert (opt.returncode, opt.stdout) == (plain.returncode, plain.stdout)


def test_check_output_on_every_fixture_is_the_same_under_optimize():
    plain, opt = (run(flags, ["-c", CHECK_EACH]) for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout.count("## ") == len(list(PACKAGE.glob("fixtures/**/*.json")))
    assert plain.stdout == (GOLDEN / "check-each.txt").read_text(encoding="utf-8")
    assert (opt.returncode, opt.stdout) == (plain.returncode, plain.stdout)


def test_derive_output_on_every_fixture_is_the_same_under_optimize():
    plain, opt = (run(flags, ["-c", DERIVE_EACH]) for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout == (GOLDEN / "derive-each.txt").read_text(encoding="utf-8")
    assert (opt.returncode, opt.stdout) == (plain.returncode, plain.stdout)
