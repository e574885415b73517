"""Write the golden files the tests compare output with.

    PYTHONPATH=src python tests/golden/make.py

They hold the `structa check` and `structa derive` output for every
fixture (the CHECK_EACH and DERIVE_EACH scripts of tests/test_optimize.py,
run by the plain interpreter), each suite's seed-0 report, and `structa
formats` in text and JSON. Rerun this
only for a change meant to alter output, and review the diff it makes.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from structa import cli  # noqa: E402
from structa.suites import SUITES  # noqa: E402
from test_optimize import CHECK_EACH, DERIVE_EACH  # noqa: E402


def write(name, text):
    (HERE / name).write_text(text, encoding="utf-8")


def formats(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["formats", *args])
    return out.getvalue()


def each(script):
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout


write("check-each.txt", each(CHECK_EACH))
write("derive-each.txt", each(DERIVE_EACH))
write("formats.txt", formats([]))
write("formats.json", formats(["--json"]))
for name, suite in SUITES.items():
    write("suite-%s.txt" % name, suite().render_text() + "\n")
