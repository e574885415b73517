"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs every workload scaled down, untraced and traced, and checks that
every metric named in BENCHMARK.json is printed with its unit, that the
seed's verdicts are all correct, that a deliberately wrong expected
verdict shows up as a failure, and that the benchmark refuses to run
where there are no structa sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

SCALE = 0.1


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class SelfTest(unittest.TestCase):
    def test_declared_workloads_are_the_benchmarks(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)

    def test_every_workload_prints_every_metric(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            want = declared(section)
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = run.run(ROOT, workload, seed=7, seconds=0, trace=trace, scale=SCALE)
                    res = out["result"]
                    self.assertEqual(out["errors"], [])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_wrong_expected_verdict_counts_as_failure(self):
        def tamper(p):
            victim = next(u for u in p.expect.values()
                          if isinstance(u, gen.Unit) and u.expect == gen.PASS)
            victim.expect = gen.LAW_FAILED

        out = run.run(ROOT, "doc-check", seed=7, seconds=0, trace=False, scale=SCALE, tamper=tamper)
        res = out["result"]
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertTrue(any("expected 1" in e for e in out["errors"]))

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "%s/run.py" % HERE.name, "--workload", "doc-check",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
