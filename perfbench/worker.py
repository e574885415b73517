"""One fresh interpreter of the benchmark.

    python3 worker.py plain|spans|profile   < job.json

Imports every structa module first, so that the parent can time set-up
from process start to the end of these imports. Then it reads a job (JSON)
from stdin, runs its units one after another through structa's public
entry points, and prints one JSON result line to stdout.

Modes:

- ``plain``: units only; this is what the end-to-end metrics time. With
  ``"speed": true`` in the job, a timer signal also times a fixed piece
  of pure-Python work (``reference``) every 20 ms, and each unit gets a
  speed factor: the mean of ``REFERENCE_S / t`` over the samples taken
  during the unit and within 30 ms of it. The parent multiplies times by
  these factors, so that they read as on a machine of constant speed.
- ``spans``: also records spans around the calls into each layer. The
  wrappers live here and are installed on structa's module attributes, so
  the library itself is unchanged. Spans stay in memory until the job ends.
- ``profile``: runs the imports and the units under cProfile and reports
  self time per structa module, with the self time of builtins charged to
  the structa module that called them, plus exact call counts of a few
  functions.

Units are ``{"id", "suite", "seed", "jobs"}`` (``suites.run_suite`` and
``LawReport.render_text``, as ``structa suite`` prints it) or
``{"id", "argv", "roundtrip"}`` (``cli.main(argv)`` with stdout captured;
with ``roundtrip`` the output document is parsed and rendered again).
"""

import sys
import time

MODE = sys.argv[1] if len(sys.argv) > 1 else "plain"
if MODE == "profile":
    import cProfile

    PROFILER = cProfile.Profile()
    PROFILER.enable()
else:
    PROFILER = None

import structa  # noqa: E402
import structa.category  # noqa: E402
import structa.cli  # noqa: E402
import structa.core  # noqa: E402
import structa.docs  # noqa: E402
import structa.errors  # noqa: E402
import structa.group  # noqa: E402
import structa.numbers  # noqa: E402
import structa.order  # noqa: E402
import structa.report  # noqa: E402
import structa.settools  # noqa: E402
import structa.suites  # noqa: E402
import structa.top  # noqa: E402

READY = time.monotonic()

import bisect  # noqa: E402  (imports after READY are the benchmark's own)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

PACKAGE_DIR = os.path.dirname(structa.__file__)
# the round trip renders through the unwrapped function, inside its own span
PLAIN_RENDER = structa.docs.render
CACHES = {
    "group.enumerate_groups": structa.group.enumerate_groups,
    "numbers.build_discrete": structa.numbers.build_discrete,
    "settools.filters": structa.settools._enumerate_filters_cached,
    "top.topologies": structa.top._enumerate_topologies_cached,
}
COUNTED = {
    "core.finset_new": structa.core.FinSet.__init__,
    "core.finmap_new": structa.core.FinMap.__init__,
    "core.check_symbol_calls": structa.core.check_symbol,
    "numbers.int_mul_calls": structa.numbers.int_mul,
    "numbers.int_add_direct_calls": structa.numbers.int_add_direct,
}


class Spans:
    """Spans as [name, start, end, parent index, unit id], in memory."""

    def __init__(self):
        self.rows = []
        self.stack = []
        self.unit = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.rows.append([name, time.perf_counter(), None, parent, self.unit])
        self.stack.append(len(self.rows) - 1)
        try:
            yield
        finally:
            self.rows[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed


def install_spans(spans):
    """Wrap the layer entry points. cli.main and the suites look them up
    as module attributes at call time, so the wrappers see those calls
    too. Before each law check, the document is also built on its own
    (docs.to_structure) in a span, since run_check builds it inside."""
    docs, report = structa.docs, structa.report
    run_check = docs.run_check

    def check(doc, *args, **kwargs):
        with spans.span("docs.build"):
            try:
                docs.to_structure(doc)
            except structa.errors.StructaError:
                pass
        with spans.span("docs.check"):
            return run_check(doc, *args, **kwargs)

    structa.cli.main = spans.wrap("cli.main", structa.cli.main)
    docs.parse = spans.wrap("docs.parse", docs.parse)
    docs.run_check = check
    docs.run_derive = spans.wrap("docs.derive", docs.run_derive)
    docs.render = spans.wrap("docs.render", docs.render)
    report.LawReport.render_text = spans.wrap("report.render", report.LawReport.render_text)


def maybe(spans, name):
    return spans.span(name) if spans else contextlib.nullcontext()


def run_unit(unit, spans):
    """(exit code, stdout text, stderr text, round-trip ok or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if "suite" in unit:
            with maybe(spans, "suites.%s" % unit["suite"]):
                rep = structa.suites.run_suite(unit["suite"], seed=unit["seed"], jobs=unit["jobs"])
            print("== %s\n%s" % (unit["suite"], rep.render_text()))
            code = 0 if rep.passed else 1
        else:
            code = structa.cli.main(unit["argv"])
    text = out.getvalue()
    roundtrip = None
    if unit.get("roundtrip") and code == 0:
        with maybe(spans, "docs.parse"):
            doc = structa.docs.parse_text(text)
        with maybe(spans, "docs.render"):
            again = PLAIN_RENDER(doc)
        roundtrip = again == text
    return code, text, err.getvalue(), roundtrip


def profile_table(prof):
    """Self seconds per structa module ("other" for the rest) and the
    exact call counts of the functions in COUNTED."""
    stats = pstats.Stats(prof).stats

    def owner(key):
        path = key[0]
        if os.path.dirname(path) == PACKAGE_DIR:
            return os.path.splitext(os.path.basename(path))[0]
        return None

    self_s = {}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if key[0] == "~":  # a builtin: charge it to whoever called it
            for caller, edge in callers.items():
                mod = owner(caller) or "other"
                self_s[mod] = self_s.get(mod, 0.0) + edge[2]
        else:
            mod = owner(key) or "other"
            self_s[mod] = self_s.get(mod, 0.0) + tt
    counts = {}
    for name, fn in COUNTED.items():
        code = fn.__code__
        row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        counts[name] = row[1] if row else 0
    return self_s, counts


def peak_rss_kb():
    """The peak resident set of this program image. Unlike ru_maxrss it
    does not include the parent's memory, which a child inherits through
    fork and keeps across exec."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


# reference() takes about this long, sampled while structa runs, on the host
# where the baseline was measured (its median there; nine samples in ten fall between
# 0.17 and 0.34 ms, as the host's speed changes). Speed factors are
# relative to it.
REFERENCE_S = 250e-6
SAMPLE_EVERY_S = 0.02
NEAR_S = 0.03


def reference():
    """A fixed piece of pure-Python work, independent of structa."""
    table = {}
    for i in range(64):
        for j in range(16):
            table[(i, j)] = (i * j) % 61
    return len(frozenset(table.values()))


class SpeedSampler:
    """Times reference() on a timer signal: (start, seconds) pairs."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        for _ in range(5):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self.sample()

    def factor(self, start, end):
        """Mean of REFERENCE_S / t over the samples from NEAR_S before
        ``start`` to NEAR_S after ``end``; where a signal came late and
        none fall there, over the last sample before and the first after."""
        starts = [t for t, _ in self.samples]
        lo = bisect.bisect_left(starts, start - NEAR_S)
        hi = bisect.bisect_right(starts, end + NEAR_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(starts), hi + 1)
        near = self.samples[lo:hi]
        return sum(REFERENCE_S / t for _, t in near) / len(near)


def main():
    job = json.load(sys.stdin)
    spans = Spans() if MODE == "spans" else None
    if spans:
        install_spans(spans)
    sampler = SpeedSampler() if job.get("speed") else None
    if sampler:
        sampler.start()
    results = []
    started = time.perf_counter()
    for unit in job["units"]:
        if spans:
            spans.unit = unit["id"]
        t0 = time.perf_counter()
        tb = None
        try:
            code, text, err, roundtrip = run_unit(unit, spans)
        except Exception:  # a traceback is a result to report, not a crash
            code, text, err, roundtrip = None, "", "", None
            tb = traceback.format_exc()
        row = {
            "id": unit["id"],
            "code": code,
            "t": time.perf_counter() - t0,
            "t0": t0,
            "sha": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "roundtrip": roundtrip,
            "traceback": tb,
            "stderr": err[-300:],
        }
        if job["keep_output"]:
            row["out"] = text
        results.append(row)
    busy = time.perf_counter() - started
    if sampler:
        sampler.stop()
    if PROFILER:
        PROFILER.disable()
    result = {
        "ready": READY,
        "busy_s": busy,
        "rss_kb": peak_rss_kb(),
        "units": results,
        "caches": {name: fn.cache_info()[:2] for name, fn in CACHES.items()},
    }
    if sampler:
        for row in results:
            row["speed"] = sampler.factor(row["t0"], row["t0"] + row["t"])
        first = sampler.samples[0][0]
        result["setup_speed"] = sampler.factor(first, first)
        result["speed"] = sum(REFERENCE_S / t for _, t in sampler.samples) / len(sampler.samples)
    if spans:
        result["spans"] = spans.rows
    if PROFILER:
        result["self_s"], result["counts"] = profile_table(PROFILER)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
