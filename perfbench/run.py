"""Cold-process benchmark of structa.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every timed pass starts fresh
interpreters (perfbench/worker.py), because the lru_caches in group,
numbers, settools and top make warm reruns read falsely fast; interpreters
run one at a time. Inputs come from the seed, are written to files under
.perfbench/ and removed at the end. Every verdict is checked against an
answer fixed by how the input was built (perfbench/gen.py), never against
structa's own output, and each unit's stdout must be byte-identical in
every pass of a run.

Workloads:
  gate-substrate  the 12 acceptance suites outside numbers, one process each
  gate-numbers    the integers and rationals suites, and `structa check` on
                  rational-window documents at and below the 40/6 guard
  doc-check       a corpus of about 200 documents of all 16 kinds, checked
                  one by one through cli.main in one process
  doc-derive      about 200 inputs for all six derive operations, each
                  output rendered and parsed again

--trace 0 repeats whole passes for --seconds (at least two) and prints the
end-to-end metrics, with every time scaled by the speed the workers sampled
while it was taken (see worker.py). --trace 1 makes one untraced pass, one pass with spans
and one under cProfile, and prints the per-layer metrics; spans and
profiles are written to .perfbench/trace-<workload>-<seed>.json.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKER = HERE / "worker.py"
PROBES_PER_PASS = 3
# no pass starts that would end after this many seconds, so that a run ends
# well within three minutes even on a slow machine
HARD_STOP_S = 120

SUBSTRATE_SUITES = [
    "functions", "categories", "interchange", "yoneda", "lattices", "zorn",
    "groups", "actions", "filters", "sigma", "topology", "cli",
]
NUMBER_SUITES = ["integers", "rationals"]
ALL_SUITES = SUBSTRATE_SUITES[:4] + NUMBER_SUITES + SUBSTRATE_SUITES[4:]
# suites timed at --jobs 1 and --jobs 2 (jobs2_ratio) on gate-substrate
JOBS_SUITES = ["functions", "lattices", "zorn", "topology"]
# the suites a scaled-down gate workload keeps (the self-test uses them)
QUICK_SUITES = ["categories", "actions"]
MODULES = [
    "core", "order", "category", "group", "numbers", "settools", "top",
    "docs", "report", "suites", "cli",
]
IMPORTED = MODULES + ["errors", "structa"]
CACHE_METRICS = {
    "group.enumerate_groups": "group.enumerate_groups_hit_ratio",
    "numbers.build_discrete": "numbers.build_discrete_hit_ratio",
    "settools.filters": "settools.filters_hit_ratio",
    "top.topologies": "top.topologies_hit_ratio",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{"%s.self_s" % m: "s" for m in MODULES + ["other"]},
    "core.finset_new": "count",
    "core.finmap_new": "count",
    "core.check_symbol_calls": "count",
    "numbers.int_mul_calls": "count",
    "numbers.int_add_direct_calls": "count",
    "docs.parse_s": "s",
    "docs.build_s": "s",
    "docs.check_s": "s",
    "docs.derive_s": "s",
    "docs.render_s": "s",
    "report.render_s": "s",
    "cli.overhead_s": "s",
    "cli.import_s": "s",
    **{"import.%s_s" % m: "s" for m in IMPORTED},
    **{"suites.%s_s" % s: "s" for s in ALL_SUITES},
    **{name: "ratio" for name in CACHE_METRICS.values()},
    "jobs2_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "profile.overhead_ratio": "ratio",
}


class Failure(Exception):
    """The benchmark cannot run here (no structa sources, a worker died)."""


# ---------------------------------------------------------------------------
# workloads: batches of units, one fresh interpreter per batch


class Plan:
    """What one pass runs, and what each unit must produce."""

    def __init__(self):
        self.batches = []  # list of unit lists, one interpreter each
        self.expect = {}  # unit id -> gen.Unit or the suite name
        # (batch at --jobs 1, batch at --jobs 2); None at --jobs 1 means the
        # plain pass already ran those units that way
        self.jobs_batches = []


def suite_unit(name, seed, jobs=1):
    return {"id": name, "suite": name, "seed": seed, "jobs": jobs}


def doc_units(units, paths, jobs=None):
    out = []
    for u, path in zip(units, paths):
        if u.op is None:
            argv = ["check", path]
        else:
            argv = ["derive", u.op, path, *u.args]
        if jobs is not None:
            argv[1:1] = ["--jobs", str(jobs)]
        out.append({"id": u.name, "argv": argv, "roundtrip": u.op is not None})
    return out


def plan(workload: str, seed: int, workdir: Path, scale: float = 1.0) -> Plan:
    """The batches of one pass. ``scale`` < 1 shrinks the documents and
    keeps only QUICK_SUITES of the gates."""
    p = Plan()
    if workload in ("gate-substrate", "gate-numbers"):
        names = SUBSTRATE_SUITES if workload == "gate-substrate" else NUMBER_SUITES
        jobs_names = JOBS_SUITES if workload == "gate-substrate" else []
        if scale < 1:
            names = [n for n in names if n in QUICK_SUITES]
            jobs_names = names
        for name in names:
            p.batches.append([suite_unit(name, seed)])
            p.expect[name] = name
        for name in jobs_names:
            p.jobs_batches.append((None, [suite_unit(name, seed, 2)]))
        if workload == "gate-substrate":
            return p
        units = gen.rational_windows(seed, scale)
    elif workload == "doc-check":
        units = gen.check_corpus(seed, scale)
    elif workload == "doc-derive":
        units = gen.derive_inputs(seed, scale)
    else:
        raise Failure("unknown workload %r; known: %s" % (workload, WORKLOADS))
    paths = gen.write_units(units, workdir)
    p.batches.append(doc_units(units, paths))
    p.expect.update((u.name, u) for u in units)
    if workload == "doc-derive":
        p.jobs_batches.append((None, doc_units(units, paths, jobs=2)))
    else:
        # one multi-file `structa check --jobs N` over the passing documents;
        # both runs share an id, so their stdout must be byte-identical
        good = [path for u, path in zip(units, paths) if u.expect == gen.PASS]
        p.jobs_batches.append(tuple(
            [{"id": "check-all", "argv": ["check", "--jobs", str(j), *good]}] for j in (1, 2)
        ))
        p.expect["check-all"] = gen.Unit("check-all", "corpus", "", gen.PASS)
    return p


WORKLOADS = ["gate-substrate", "gate-numbers", "doc-check", "doc-derive"]


# ---------------------------------------------------------------------------
# running workers


def run_worker(root: Path, units, mode="plain", flags=(), speed=False):
    """Run one fresh interpreter; returns (result dict, setup seconds, wall
    seconds, stderr text). Outputs come back only where a check reads
    them: suite reports and derived documents. With ``speed`` the worker
    samples the machine's speed (see worker.py), and the result carries
    speed factors."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # bytecode caches are written once, by the unmeasured first worker, as
    # an installed package has them; set-up then times imports, not compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    keep = any("suite" in u or u.get("roundtrip") for u in units)
    job = json.dumps({"units": units, "keep_output": keep, "speed": speed})
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *flags, str(WORKER), mode],
        input=job, capture_output=True, text=True, env=env, cwd=root,
    )
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        raise Failure("worker exited %s: %s" % (proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - t0, wall, proc.stderr


def run_pass(root: Path, p: Plan, mode="plain", speed=False):
    """One pass over every batch; returns (wall seconds, worker results,
    setup seconds of each worker)."""
    t0 = time.monotonic()
    results, setups = [], []
    for batch in p.batches:
        result, setup, _, _ = run_worker(root, batch, mode, speed=speed)
        results.append(result)
        setups.append(setup)
    return time.monotonic() - t0, results, setups


# ---------------------------------------------------------------------------
# checking outputs


def suite_output_ok(text: str) -> bool:
    """The report printed by a suite shows only passing checks, and its
    summary line counts them."""
    lines = text.rstrip("\n").splitlines()
    checks = [ln for ln in lines[2:-1] if ln.startswith("  PASS") or ln.startswith("  FAIL")]
    fails = [ln for ln in checks if ln.startswith("  FAIL")]
    return (
        len(lines) >= 3
        and not fails
        and len(checks) == len(lines) - 3
        and lines[-1] == "  %d passed, 0 failed" % len(checks)
    )


def unit_errors(row, expect) -> list:
    """What is wrong with one unit's result, as short strings."""
    if row["traceback"]:
        return ["traceback: %s" % row["traceback"].strip().splitlines()[-1]]
    if isinstance(expect, str):  # a suite
        if row["code"] != 0 or not suite_output_ok(row["out"]):
            return ["suite %s did not pass" % expect]
        return []
    if row["code"] != expect.expect:
        return ["exit %s, expected %s" % (row["code"], expect.expect)]
    if expect.op is not None and row["code"] == gen.PASS:
        if not row["roundtrip"]:
            return ["derived document does not round-trip"]
        if not expect.oracle(json.loads(row["out"])):
            return ["derived document differs from the independent answer"]
    return []


class Ledger:
    """Counts unit executions and errors, and checks that every unit's
    stdout digest is the same in every pass."""

    def __init__(self, p: Plan):
        self.expect = p.expect
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, results):
        for result in results:
            for row in result["units"]:
                self.attempted += 1
                problems = unit_errors(row, self.expect[row["id"]])
                first = self.digests.setdefault(row["id"], row["sha"])
                if first != row["sha"]:
                    problems.append("stdout differs between passes")
                self.errors.extend("%s: %s" % (row["id"], e) for e in problems)
                self.failed += bool(problems)


# ---------------------------------------------------------------------------
# metrics


def quantile(values, q):
    """The q-th percentile (1..99) of values, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probes(root: Path, count: int) -> list:
    """Set-up seconds of fresh interpreters that import structa and stop,
    scaled by the speed sampled right after the imports."""
    out = []
    for _ in range(count):
        result, setup, _, _ = run_worker(root, [], speed=True)
        out.append(setup * result["setup_speed"])
    return out


def end_to_end(root: Path, p: Plan, seconds: float, ledger: Ledger):
    """Whole passes until the next one would end after ``seconds`` (at
    least two), with set-up probes before each pass so that set-up is
    sampled across the whole run. Every time is scaled by the speed the
    workers sampled while it was taken: the host's cores switch between a
    fast and a slow state (about 1.5x apart) every second or so, and the
    share of slow time drifts over minutes, so raw times of the same code
    spread by up to a third from run to run."""
    setups, walls, raw_walls, rss, per_unit = [], [], [], [], {}
    started = time.monotonic()
    while True:
        setups += setup_probes(root, PROBES_PER_PASS)
        wall, results, worker_setups = run_pass(root, p, speed=True)
        ledger.record(results)
        raw_walls.append(wall)
        # a pass's speed is its workers' factors, weighted by their run time
        busy = [r["busy_s"] for r in results]
        walls.append(wall * sum(b * r["speed"] for b, r in zip(busy, results)) / sum(busy))
        setups += [t * r["setup_speed"] for t, r in zip(worker_setups, results)]
        for result in results:
            for row in result["units"]:
                per_unit.setdefault(row["id"], []).append(row["t"] * row["speed"])
            rss.append(result["rss_kb"])
        next_end = time.monotonic() - started + wall
        if len(walls) >= 2 and (next_end > seconds or next_end > HARD_STOP_S):
            break
    # a unit's time to verdict is its median over the passes; the
    # percentiles range over the units
    verdicts = [statistics.median(ts) for ts in per_unit.values()]
    runs = sum(len(ts) for ts in per_unit.values())
    busy = sum(sum(ts) for ts in per_unit.values())
    samples = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(walls), len(walls)),
        "verdicts_per_s": (runs / busy, runs),
        "verdict_p50_ms": (1000 * quantile(verdicts, 50), len(verdicts)),
        "verdict_p95_ms": (1000 * quantile(verdicts, 95), len(verdicts)),
        "peak_rss_mb": (max(rss) / 1024, len(rss)),
    }
    return samples, {
        "passes": len(walls),
        "units_per_pass": len(verdicts),
        "unscaled_wall_s": round(statistics.median(raw_walls), 4),
    }


def span_totals(rows):
    """Total seconds per span name, and the self seconds of cli.main
    (its duration minus the spans directly inside it)."""
    total, inner = {}, {}
    for name, start, end, parent, _unit in rows:
        total[name] = total.get(name, 0.0) + (end - start)
        if parent >= 0:
            inner[parent] = inner.get(parent, 0.0) + (end - start)
    overhead = sum(
        (end - start) - inner.get(i, 0.0)
        for i, (name, start, end, _p, _u) in enumerate(rows)
        if name == "cli.main"
    )
    return total, overhead


def import_times(root: Path) -> dict:
    """Self import seconds per structa module: the median over a few
    interpreters started with -X importtime."""
    runs = []
    for _ in range(3):
        _, _, _, stderr = run_worker(root, [], flags=("-X", "importtime"))
        row = {}
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if not fields[0].isdigit():
                continue
            name = fields[2]
            if name == "structa" or name.startswith("structa."):
                row[name.split(".")[-1]] = int(fields[0]) / 1e6
        runs.append(row)
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in IMPORTED}


def per_layer(root: Path, p: Plan, ledger: Ledger, trace_path: Path):
    imports = import_times(root)
    plain_wall, results, _ = run_pass(root, p)
    ledger.record(results)
    spans_wall, span_results, _ = run_pass(root, p, mode="spans")
    ledger.record(span_results)
    prof_wall, prof_results, _ = run_pass(root, p, mode="profile")
    ledger.record(prof_results)

    # parent indices are per worker; offset them into one list
    rows, offset = [], 0
    for result in span_results:
        rows += [[n, s, e, par + offset if par >= 0 else -1, u] for n, s, e, par, u in result["spans"]]
        offset += len(result["spans"])
    totals, overhead = span_totals(rows)
    self_s, counts = {}, {}
    for result in prof_results:
        for mod, t in result["self_s"].items():
            self_s[mod] = self_s.get(mod, 0.0) + t
        for name, n in result["counts"].items():
            counts[name] = counts.get(name, 0) + n
    hits = {}
    for result in span_results:
        for name, (h, m) in result["caches"].items():
            old = hits.get(name, (0, 0))
            hits[name] = (old[0] + h, old[1] + m)

    plain_t = {row["id"]: row["t"] for result in results for row in result["units"]}
    busy = []
    for one, two in p.jobs_batches:
        r2 = run_worker(root, two)[0]
        if one is None:
            t1 = sum(plain_t[row["id"]] for row in r2["units"])
        else:
            r1 = run_worker(root, one)[0]
            ledger.record([r1])
            t1 = sum(row["t"] for row in r1["units"])
        ledger.record([r2])
        busy.append((t1, sum(row["t"] for row in r2["units"])))

    values = {"%s.self_s" % m: self_s.get(m, 0.0) for m in MODULES + ["other"]}
    values.update(counts)
    values.update({
        "docs.parse_s": totals.get("docs.parse", 0.0),
        "docs.build_s": totals.get("docs.build", 0.0),
        "docs.check_s": totals.get("docs.check", 0.0),
        "docs.derive_s": totals.get("docs.derive", 0.0),
        "docs.render_s": totals.get("docs.render", 0.0),
        "report.render_s": totals.get("report.render", 0.0),
        "cli.overhead_s": overhead,
        "cli.import_s": sum(imports.values()),
    })
    values.update({"import.%s_s" % m: imports[m] for m in IMPORTED})
    values.update({"suites.%s_s" % s: totals.get("suites.%s" % s, 0.0) for s in ALL_SUITES})
    for name, metric in CACHE_METRICS.items():
        h, m = hits.get(name, (0, 0))
        values[metric] = h / (h + m) if h + m else 0.0
    values["jobs2_ratio"] = sum(a for a, _ in busy) / sum(b for _, b in busy)
    values["trace.overhead_ratio"] = spans_wall / plain_wall
    values["profile.overhead_ratio"] = prof_wall / plain_wall

    trace_path.write_text(json.dumps({
        "span_columns": ["name", "start", "end", "parent", "unit"],
        "spans": rows,
        "profile_self_s": self_s,
        "profile_counts": counts,
        "import_s": imports,
        "cache_hits_misses": hits,
        "jobs_busy_s": busy,
        "walls_s": {"plain": plain_wall, "spans": spans_wall, "profile": prof_wall},
    }, indent=1) + "\n")
    return {name: (v, 1) for name, v in values.items()}, {"trace": str(trace_path)}


# ---------------------------------------------------------------------------
# entry point


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, tamper=None) -> dict:
    """Run one workload and return the result object. ``scale`` shrinks the
    inputs and ``tamper(plan)`` may alter expectations; both are for the
    self-test."""
    if not (root / "src" / "structa" / "__init__.py").is_file():
        raise Failure("no structa sources under %s" % (root / "src"))
    out_dir = root / ".perfbench"
    workdir = out_dir / ("inputs-%s-%d-%d" % (workload, seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        p = plan(workload, seed, workdir, scale)
        if tamper:
            tamper(p)
        ledger = Ledger(p)
        run_worker(root, [])  # unmeasured: writes the bytecode caches
        if trace:
            trace_path = out_dir / ("trace-%s-%d.json" % (workload, seed))
            samples, info = per_layer(root, p, ledger, trace_path)
            units = PER_LAYER
        else:
            samples, info = end_to_end(root, p, seconds, ledger)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "info": info,
        "errors": ledger.errors,
        "samples": samples,
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": samples[name][0], "unit": unit} for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        out = run(Path.cwd(), ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    res = out["result"]
    print("workload %s, seed %d: %s" % (ns.workload, ns.seed, out["info"]))
    for name, (value, n) in out["samples"].items():
        print("  %-36s %14.6g %-6s (n=%d)" % (name, value, res["metrics"][name]["unit"], n))
    print("  error_rate %d/%d" % (res["failed"], res["attempted"]))
    for err in out["errors"][:20]:
        print("  ERROR %s" % err)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
