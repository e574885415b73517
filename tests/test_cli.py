"""Command-line surface tests.

Oracles: the exit-code contract, byte comparison across worker counts,
and JSON well-formedness of machine reports.
"""

import contextlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structa import cli
from structa.suites import fixtures_dir

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SPEC = Path(cli.__file__).with_name("format.md")


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(fixtures_dir() / name)


class TestExitCodes:
    def test_pass_is_zero(self):
        code, out, _ = run_cli(["check", fx("group_z4.json")])
        assert code == 0
        assert "0 failed" in out

    def test_law_failure_is_one(self):
        code, out, _ = run_cli(["check", fx("category_neg_assoc_1.json")])
        assert code == 1
        assert "FAIL" in out

    def test_parse_error_is_two(self):
        code, _, err = run_cli(["check", fx("bad/parse_error.json")])
        assert code == 2
        assert "line" in err

    def test_schema_error_is_two(self):
        code, _, err = run_cli(["check", fx("bad/missing_cell.json")])
        assert code == 2
        assert "missing the cell" in err

    def test_usage_error_is_two(self):
        code, _, _ = run_cli(["check"])
        assert code == 2

    def test_unknown_suite_is_two(self):
        code, _, err = run_cli(["suite", "nonesuch"])
        assert code == 2
        assert "unknown suite" in err

    def test_unknown_derive_op_is_two(self):
        code, _, err = run_cli(["derive", "frobnicate", fx("group_z2.json")])
        assert code == 2

    def test_derive_failure_is_one(self):
        # quotient by a non-normal subgroup is a structural failure
        code, _, err = run_cli(
            [
                "derive",
                "quotient",
                fx("group_s3.json"),
                "(1>1,2>2,3>3)",
                "(1>2,2>1,3>3)",
            ]
        )
        assert code == 1
        assert "normal" in err

    @pytest.mark.parametrize("arg", ["a b", ""], ids=["space", "empty"])
    def test_bad_quotient_argument_is_two(self, arg):
        code, out, err = run_cli(["derive", "quotient", fx("group_z4.json"), arg])
        assert (code, out) == (2, "")
        assert err == (
            "error: quotient argument: symbol must be a nonempty token "
            "without whitespace: %r\n" % arg
        )

    def test_bad_symbol_is_two(self):
        code, out, err = run_cli(["check", '{"kind": "set", "elements": ["a b"]}'])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_duplicate_key_is_two(self):
        doc = '{"kind": "set", "elements": ["a"], "kind": "set"}'
        code, _, err = run_cli(["check", doc])
        assert code == 2
        assert "duplicate keys" in err

    def test_missing_file_is_two(self, tmp_path):
        code, out, err = run_cli(["check", str(tmp_path / "absent.json")])
        assert (code, out) == (2, "")
        assert "cannot read" in err and err.count("\n") == 1

    def test_non_utf8_file_is_two(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe{\"kind\": \"set\"}")
        code, out, err = run_cli(["check", str(path)])
        assert (code, out) == (2, "")
        assert "not UTF-8" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100000,  # nested past the interpreter's recursion limit
            '{"kind": "rational-window", "window": %s, "den": 1}' % ("9" * 5000),
        ],
        ids=["deep-nesting", "5000-digit-integer"],
    )
    def test_unreadable_json_is_two(self, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["check", str(path)])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_below_one_is_usage_error(self, jobs):
        code, out, err = run_cli(["check", "--jobs", jobs, fx("group_z2.json")])
        assert (code, out) == (2, "")
        assert "--jobs" in err

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_max_size_below_one_is_usage_error(self, size):
        code, out, err = run_cli(["check", "--max-size", size, fx("group_z2.json")])
        assert (code, out) == (2, "")
        assert "--max-size" in err

    def test_guard_exceeded_is_two_and_names_bound(self, tmp_path):
        doc = '{"kind": "rational-window", "window": 50, "den": 2}'
        tmp = tmp_path / "big_window.json"
        tmp.write_text(doc + "\n", encoding="utf-8")
        code, _, err = run_cli(["check", str(tmp)])
        assert code == 2
        assert "size bound" in err
        code, _, _ = run_cli(["check", "--max-size", "60", str(tmp)])
        assert code == 0

    # Z2 = {e, a} acting on {x, y} by bijections that break (ab)x = a(bx):
    # the act-hom failure is a FAIL line with its first pair, not the
    # subgroup error of a nucleus that is no subgroup
    @pytest.mark.parametrize("e_acts, a_acts", [("swap", "id"), ("swap", "swap")])
    def test_action_that_is_no_homomorphism_fails_act_hom(self, tmp_path, e_acts, a_acts):
        maps = {"swap": {"x": "y", "y": "x"}, "id": {"x": "x", "y": "y"}}
        doc = {
            "kind": "action",
            "carrier": ["x", "y"],
            "group": {"kind": "group", "carrier": ["a", "e"], "table": [
                ["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["a", "a", "e"]]},
            "act": [[g, x, maps[m][x]] for g, m in (("e", e_acts), ("a", a_acts)) for x in "xy"],
        }
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(["check", str(path)])
        assert (code, err) == (1, "")
        fails = [line.split() for line in out.splitlines() if line.startswith("  FAIL")]
        assert fails == [["FAIL", "act-hom", "(ab)", "acts", "as", "a", "then", "b", "composed",
                          "witness=('a',", "'a')"]]
        assert "act-nul-subgroup" not in out
        assert out.endswith("  8 passed, 1 failed\n")


# every fixture, and each with a few bytes spliced in
FIXTURE_BYTES = [p.read_bytes() for p in sorted(fixtures_dir().glob("**/*.json"))]
PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def spliced_fixtures(draw):
    data = draw(st.sampled_from(FIXTURE_BYTES))
    i = draw(st.integers(0, len(data)))
    j = draw(st.integers(i, min(len(data), i + 8)))
    return data[:i] + draw(st.binary(max_size=8)) + data[j:]


class TestArbitraryBytes:
    @PROPERTY
    @given(st.one_of(st.binary(max_size=64), spliced_fixtures()))
    def test_check_keeps_the_exit_code_contract(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("bytes") / "doc.json"
        path.write_bytes(data)
        code, _, err = run_cli(["check", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.count("\n") == 1


class TestDeterminism:
    FILES = [str(p) for p in sorted(fixtures_dir().glob("*.json"))]

    def test_check_jobs_byte_identical(self):
        c1, t1, _ = run_cli(["check", "--jobs", "1", *self.FILES])
        c8, t8, _ = run_cli(["check", "--jobs", "8", *self.FILES])
        assert (c1, t1) == (c8, t8)
        # the corpus contains failing fixtures on purpose
        assert c1 == 1

    def test_repeated_runs_identical(self):
        args = ["check", *self.FILES[:6]]
        assert run_cli(args) == run_cli(args)

    def test_suite_jobs_byte_identical(self):
        a = run_cli(["suite", "sigma", "--jobs", "1"])
        b = run_cli(["suite", "sigma", "--jobs", "8"])
        assert a == b
        assert a[0] == 0


def parseable_fixtures():
    """The fixture paths, relative to the fixtures directory, whose bytes
    parse as JSON."""
    root = fixtures_dir()
    out = []
    for path in sorted(root.glob("*.json")) + sorted(root.glob("bad/*.json")):
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        out.append(str(path.relative_to(root)))
    return out


def shuffled(value, rng, key=None):
    """A copy of a document in which every array the format reads as a set
    is in a new order: symbol sets, relation and table rows, arrows and
    subset families, and the elements of each member subset. The entries
    of a row keep their places, since a row is a tuple."""
    if isinstance(value, dict):
        return {k: shuffled(v, rng, k) for k, v in value.items()}
    if not isinstance(value, list):
        return value
    out = list(value)
    if key in ("members", "opens"):
        out = [rng.sample(m, len(m)) for m in out]
    rng.shuffle(out)
    return out


class TestOrderInvariance:
    """README promises the least witness in canonical order, so the report
    of ``check`` cannot depend on the order in which a document lists a
    set."""

    @pytest.mark.parametrize("name", parseable_fixtures())
    def test_check_ignores_the_order_of_every_set(self, name, tmp_path, monkeypatch):
        source = json.loads((fixtures_dir() / name).read_text(encoding="utf-8"))
        monkeypatch.chdir(fixtures_dir())
        expected = run_cli(["check", name])
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).parent.mkdir(exist_ok=True)
        for seed in range(3):
            doc = shuffled(source, random.Random(seed))
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
            assert run_cli(["check", name]) == expected, seed


def symbols_of(value, key=None):
    """Every symbol of a document: the strings of its arrays."""
    if isinstance(value, dict):
        return set().union(*(symbols_of(v, k) for k, v in value.items()))
    if isinstance(value, list):
        return set().union(*(symbols_of(x) for x in value))
    return {value} if isinstance(value, str) and key != "kind" else set()


def relabelled(value, names, key=None):
    """A copy of a document with each symbol renamed through ``names``."""
    if isinstance(value, dict):
        return {k: relabelled(v, names, k) for k, v in value.items()}
    if isinstance(value, list):
        return [relabelled(x, names) for x in value]
    return names[value] if isinstance(value, str) and key != "kind" else value


def renamed_witness(entry, names):
    """A witness entry of a ``check --json`` report after the renaming: a
    symbol, or a set written as one string ``{x,y}``."""
    if entry in names:
        return names[entry]
    if entry.startswith("{") and entry.endswith("}") and len(entry) > 2:
        return "{%s}" % ",".join(names[x] for x in entry[1:-1].split(","))
    return entry


def renamed_message(text, names):
    """An error line after the renaming; its symbols stand between spaces,
    parentheses, commas and quotes."""
    return re.sub(r"[^\s(),'\[\]]+", lambda m: names.get(m.group(), m.group()), text)


class TestRelabelling:
    """Rename every symbol of a document by a map that keeps their sort
    order. The least witness in canonical order is then the renamed least
    witness, so ``check --json`` reports the same checks with renamed
    witnesses, the same error line up to the renaming, and the same exit
    code. The ``bad/`` fixtures take the ordered fallback of the
    validators, so their first error is pinned too. Under any bijection,
    the exit code and the verdict of each law stay the same."""

    @pytest.mark.parametrize("name", parseable_fixtures())
    def test_check_follows_an_order_preserving_renaming(self, name, tmp_path, monkeypatch):
        source = json.loads((fixtures_dir() / name).read_text(encoding="utf-8"))
        # "s000" < "s001" < ... in the symbols' own order; sorted() is that order
        names = {x: "s%03d" % i for i, x in enumerate(sorted(symbols_of(source)))}
        monkeypatch.chdir(fixtures_dir())
        code, out, err = run_cli(["check", "--json", name])
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(json.dumps(relabelled(source, names)), encoding="utf-8")
        code2, out2, err2 = run_cli(["check", "--json", name])
        assert (code2, err2) == (code, renamed_message(err, names))
        if code == 2:
            assert out == out2 == ""
            return
        expected = json.loads(out)
        for check in expected["checks"]:
            if "witness" in check:
                check["witness"] = [renamed_witness(x, names) for x in check["witness"]]
        assert json.loads(out2) == expected

    @pytest.mark.parametrize("name", parseable_fixtures())
    def test_verdicts_follow_any_renaming(self, name, tmp_path, monkeypatch):
        # a bijection that does not keep the sort order may change which
        # witness is least, but not which laws hold
        source = json.loads((fixtures_dir() / name).read_text(encoding="utf-8"))
        symbols = sorted(symbols_of(source))
        monkeypatch.chdir(fixtures_dir())
        code, out, _ = run_cli(["check", "--json", name])
        verdicts = [(c["law"], c["passed"]) for c in json.loads(out)["checks"]] if out else []
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).parent.mkdir(exist_ok=True)
        for seed in range(3):
            targets = ["s%03d" % i for i in range(len(symbols))]
            random.Random(seed).shuffle(targets)
            renamed = relabelled(source, dict(zip(symbols, targets)))
            (tmp_path / name).write_text(json.dumps(renamed), encoding="utf-8")
            code2, out2, _ = run_cli(["check", "--json", name])
            got = [(c["law"], c["passed"]) for c in json.loads(out2)["checks"]] if out2 else []
            assert (code2, got) == (code, verdicts), seed


class TestFailedPremises:
    """A document whose underlying structure fails its axioms gets those
    rows and no further law: the early returns of ``check``."""

    BROKEN = json.loads((fixtures_dir() / "group_broken.json").read_text(encoding="utf-8"))

    def check(self, tmp_path, monkeypatch, doc):
        monkeypatch.chdir(tmp_path)
        Path("doc.json").write_text(json.dumps(doc), encoding="utf-8")
        return run_cli(["check", "doc.json"])

    def test_a_topology_that_fails_its_axioms(self, tmp_path, monkeypatch):
        doc = {"kind": "topology", "carrier": ["a", "b"], "opens": [[], ["a"], ["b"]]}
        assert self.check(tmp_path, monkeypatch, doc) == (1, (
            "== doc.json\n"
            "suite: topology\n"
            "  FAIL  top-axioms  opens contain endpoints, unions, intersections"
            "  witness=('the empty set and the carrier must be open',)\n"
            "  0 passed, 1 failed\n"
        ), "")

    def test_a_hom_whose_source_table_fails(self, tmp_path, monkeypatch):
        # the target, a group on one point, passes every group row
        one = {"kind": "group", "carrier": ["u"], "table": [["u", "u", "u"]]}
        doc = {"kind": "hom", "src": self.BROKEN, "tgt": one,
               "map": [[x, "u"] for x in self.BROKEN["carrier"]]}
        assert self.check(tmp_path, monkeypatch, doc) == (1, (
            "== doc.json\n"
            "suite: hom\n"
            "  PASS  grp-assoc             (ab)c = a(bc)\n"
            "  FAIL  grp-assoc             (ab)c = a(bc)  witness=('a', 'a', 'b')\n"
            "  PASS  grp-cancel            ab = ac implies b = c, ba = ca implies b = c\n"
            "  PASS  grp-closed            products stay in the carrier\n"
            "  PASS  grp-closed            products stay in the carrier\n"
            "  PASS  grp-inv-invol         (a⁻¹)⁻¹ = a\n"
            "  PASS  grp-inverse           every element has a two-sided inverse\n"
            "  PASS  grp-total             the table covers every pair\n"
            "  PASS  grp-total             the table covers every pair\n"
            "  PASS  grp-unique-solutions  ax = b and ya = b have unique solutions\n"
            "  PASS  grp-unit              a two-sided unit exists\n"
            "  PASS  grp-unit              a two-sided unit exists\n"
            "  11 passed, 1 failed\n"
        ), "")

    def test_an_action_whose_group_table_fails(self, tmp_path, monkeypatch):
        doc = {"kind": "action", "group": self.BROKEN, "carrier": ["p"],
               "act": [[g, "p", "p"] for g in self.BROKEN["carrier"]]}
        assert self.check(tmp_path, monkeypatch, doc) == (1, (
            "== doc.json\n"
            "suite: action\n"
            "  FAIL  grp-assoc   (ab)c = a(bc)  witness=('a', 'a', 'b')\n"
            "  PASS  grp-closed  products stay in the carrier\n"
            "  PASS  grp-total   the table covers every pair\n"
            "  PASS  grp-unit    a two-sided unit exists\n"
            "  3 passed, 1 failed\n"
        ), "")


# one-object documents that pass `check`, each spoiled below in one place
CATEGORY = {"kind": "category", "objects": ["a"], "arrows": [["1a", "a", "a"]],
            "identity": [["a", "1a"]], "comp": [["1a", "1a", "1a"]]}
CLOSURE = {"kind": "closure", "carrier": ["a"], "table": [[[], []], [["a"], ["a"]]]}
WINDOW = {"kind": "rational-window", "window": 2, "den": 1}
FUNCTOR = {"kind": "functor", "src": CATEGORY, "tgt": CATEGORY,
           "on_obj": [["a", "a"]], "on_arr": [["1a", "1a"]]}

SCHEMA_ERRORS = {
    "arrow-named-twice": ({**CATEGORY, "arrows": [["1a", "a", "a"], ["1a", "a", "a"]]},
                          "arrows declares duplicate names ['1a']"),
    "comp-cell-twice": ({**CATEGORY, "comp": [["1a", "1a", "1a"], ["1a", "1a", "1a"]]},
                        "comp defines the cell (1a, 1a) twice"),
    "table-not-array": ({**CLOSURE, "table": {}},
                        "table must be an array of [subset, subset] pairs"),
    "row-not-pair": ({**CLOSURE, "table": [[[], []], [["a"]]]},
                     "table entries must be [subset, subset] pairs"),
    "cell-twice": ({**CLOSURE, "table": [[[], []], [["a"], ["a"]], [["a"], ["a"]]]},
                   "table defines the cell {a} twice"),
    "missing-cell": ({**CLOSURE, "table": [[[], []]]},
                     "table is not total: missing the cell {a}"),
    "window-0": ({**WINDOW, "window": 0}, "window must be a positive integer"),
    "window-true": ({**WINDOW, "window": True}, "window must be a positive integer"),
    "window-string": ({**WINDOW, "window": "3"}, "window must be a positive integer"),
    "window-float": ({**WINDOW, "window": 3.0}, "window must be a positive integer"),
    "src-not-object": ({**FUNCTOR, "src": []}, "src must be a nested 'category' document"),
    "src-wrong-kind": ({**FUNCTOR, "src": CLOSURE}, "src must have kind 'category'"),
}


class TestSchemaErrors:
    def test_the_unspoiled_documents_pass(self):
        for doc in (CATEGORY, CLOSURE, WINDOW, FUNCTOR):
            assert run_cli(["check", json.dumps(doc)])[0] == 0, doc["kind"]

    @pytest.mark.parametrize("case", sorted(SCHEMA_ERRORS))
    def test_a_spoiled_document_is_one_error_line(self, case):
        doc, message = SCHEMA_ERRORS[case]
        assert run_cli(["check", json.dumps(doc)]) == (2, "", "error: %s\n" % message)


class TestSeveralFiles:
    def test_bad_file_does_not_hide_good_reports(self):
        good, bad = fx("group_z4.json"), fx("bad/missing_cell.json")
        alone = run_cli(["check", good])
        for jobs in ("1", "2"):
            code, out, err = run_cli(["check", "--jobs", jobs, good, bad])
            assert code == 2
            assert out == alone[1]
            assert err == (
                "error: %s: table is not total: missing the cell (a, a)\n" % bad
            )

    def test_each_bad_file_gets_one_named_line_in_order(self):
        files = [fx("bad/parse_error.json"), fx("category_neg_assoc_1.json"),
                 fx("bad/missing_cell.json"), fx("group_z2.json")]
        code, out, err = run_cli(["check", "--jobs", "3", *files])
        assert code == 2
        assert [line.split(": ")[1] for line in err.splitlines()] == [files[0], files[2]]
        assert err.startswith("parse error: ")
        assert out.index(files[1]) < out.index(files[3])

    def test_law_failure_with_good_files_is_one(self):
        code, _, err = run_cli(["check", fx("group_z2.json"), fx("category_neg_assoc_1.json")])
        assert (code, err) == (1, "")

    def test_literal_document_keeps_its_line(self):
        doc = '{"kind": "set", "elements": ["a b"]}'
        code, _, err = run_cli(["check", fx("group_z2.json"), doc])
        assert code == 2
        assert err == (
            "error: elements: symbol must be a nonempty token without whitespace: 'a b'\n"
        )


def real_env(**env):
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8", **env}


def run_real(args, **env):
    """The command line in a fresh interpreter, with a real stdout."""
    return subprocess.run([sys.executable, "-m", "structa.cli", *args],
                          capture_output=True, env=real_env(**env), timeout=300)


class TestRealStreams:
    LONE_SURROGATE = (
        '{"kind":"category","objects":["\\ud800"],"arrows":[["i","\\ud800","\\ud800"]],'
        '"identity":[["\\ud800","i"]],"comp":[["i","i","i"]]}'
    )

    def test_lone_surrogate_symbol_is_a_schema_error(self):
        proc = run_real(["derive", "opposite", self.LONE_SURROGATE])
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        assert b"UTF-8" in proc.stderr

    def test_derive_writes_non_ascii_symbols(self):
        doc = self.LONE_SURROGATE.replace("\\ud800", "\u00e9")
        proc = run_real(["derive", "opposite", doc])
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert '"\u00e9"'.encode("utf-8") in proc.stdout

    def test_output_is_utf8_whatever_the_locale(self):
        doc = self.LONE_SURROGATE.replace("\\ud800", "\u00e9")
        utf8 = run_real(["derive", "opposite", doc])
        ascii_ = run_real(["derive", "opposite", doc], PYTHONIOENCODING="ascii")
        assert (ascii_.returncode, ascii_.stdout, ascii_.stderr) == (0, utf8.stdout, b"")

    def test_failing_witness_is_written_whatever_the_locale(self):
        doc = json.dumps({"kind": "poset", "carrier": ["a", "\u00e9"],
                          "le": [["a", "a"], ["a", "\u00e9"], ["\u00e9", "a"], ["\u00e9", "\u00e9"]]})
        proc = run_real(["check", doc], PYTHONIOENCODING="ascii")
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert "FAIL  antisym".encode("utf-8") in proc.stdout
        assert "'\u00e9'".encode("utf-8") in proc.stdout

    # opens {t0,t1} and {t0,t2} meet in {t0}, which is not open; the
    # closure sends {a,b} to {a,b,c}, so {a} ∪ {b} is not closed; the
    # relation of all nine pairs is not antisymmetric, least at (a, b)
    HASH_DOCS = [
        '{"kind": "topology", "carrier": ["t0", "t1", "t2"], '
        '"opens": [["t0", "t2"], ["t0", "t1", "t2"], ["t0", "t1"], []]}',
        json.dumps({"kind": "closure", "carrier": ["a", "b", "c"], "table": [
            [s, ["a", "b", "c"] if s == ["a", "b"] else s]
            for s in ([], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"],
                      ["a", "b", "c"])
        ]}),
        '{"kind":"poset","carrier":["a","b","c"],"le":[["a","b"],["b","a"],["a","a"],'
        '["b","b"],["c","c"],["b","c"],["c","b"],["a","c"],["c","a"]]}',
    ]

    def test_witnesses_do_not_depend_on_the_hash_seed(self):
        args = ["check", *self.HASH_DOCS,
                *(str(p) for p in sorted(fixtures_dir().glob("**/*.json")))]
        runs = {seed: run_real(args, PYTHONHASHSEED=str(seed)) for seed in range(6)}
        first = runs[0]
        assert first.returncode == 2
        assert b"witness=('{t0,t1}', '{t0,t2}')" in first.stdout
        assert b"witness=('{a}', '{b}')" in first.stdout
        assert "imply x = y  witness=('a', 'b')".encode("utf-8") in first.stdout
        for seed, proc in runs.items():
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                first.returncode, first.stdout, first.stderr), seed

    def test_benchmark_corpora_do_not_depend_on_the_hash_seed(self, tmp_path, monkeypatch):
        # the two doc-check corpora of the benchmark, written by its own generator
        spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # dataclasses look the module up
        spec.loader.exec_module(gen)
        files = []
        for seed in (0, 1):
            for i, unit in enumerate(gen.check_corpus(seed)):
                path = tmp_path / ("%d-%03d-%s.json" % (seed, i, unit.name))
                path.write_text(unit.text, encoding="utf-8")
                files.append(str(path))
        assert len(files) == 410
        # the six runs write to files, not pipes, so none blocks on a full pipe
        outs = [(tmp_path / ("%d.out" % seed), tmp_path / ("%d.err" % seed)) for seed in range(6)]
        procs = []
        for seed, (out, err) in enumerate(outs):
            with open(out, "wb") as o, open(err, "wb") as e:
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "structa.cli", "check", *files], stdout=o, stderr=e,
                    env=real_env(PYTHONHASHSEED=str(seed))))
        runs = [(p.wait(timeout=300), out.read_bytes(), err.read_bytes())
                for p, (out, err) in zip(procs, outs)]
        assert runs[0][1].count(b"\n== ") > 300
        for seed, run in enumerate(runs):
            assert run == runs[0], seed


def alpha_only(alpha, tau):
    """The components of a wrong horizontal composite, (α∘τ)_x = α_{Gx}:
    not composable where α_{Gx} ∘ J τ_x would be. It stands in for
    ``category._hcompose_components``, which both ``interchange_check``
    and the suite's formula check read."""
    return {x: alpha.component[tau.G.on_obj[x]] for x in tau.F.src.objects}


class TestUnitErrors:
    def fail_lines(self, out):
        return [line.split()[:2] for line in out.splitlines() if "FAIL" in line]

    def test_error_inside_a_unit_is_a_fail_line(self, monkeypatch):
        from structa import category

        monkeypatch.setattr(category, "_hcompose_components", alpha_only)
        code, out, err = run_cli(["suite", "interchange"])
        assert (code, err) == (1, "")
        # the fourth unit, interchange[1,1,1], has one object and raises nothing
        assert self.fail_lines(out) == [["FAIL", "ic-volume"]] + [["FAIL", "unit-error"]] * 3
        for i in (1, 2, 3):
            assert "witness=('%d', 'arrows are not composable')" % i in out

    def test_volume_sees_a_wrong_formula_on_a_non_thin_category(self, monkeypatch):
        from structa import category

        components = category._hcompose_components

        def wrong_on_one_object(alpha, tau):
            # only where the wrong formula raises nothing, so every unit samples its grids
            one = len(tau.F.src.objects) == 1
            return (alpha_only if one else components)(alpha, tau)

        monkeypatch.setattr(category, "_hcompose_components", wrong_on_one_object)
        code, out, err = run_cli(["suite", "interchange"])
        assert (code, err) == (1, "")
        assert self.fail_lines(out) == [["FAIL", "ic-volume"]]


class TestJsonOutput:
    def test_check_json_is_machine_readable(self):
        code, out, _ = run_cli(["check", "--json", fx("group_z4.json")])
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0
        assert payload["target"].endswith("group_z4.json")
        laws = [c["law"] for c in payload["checks"]]
        assert laws == sorted(laws)

    def test_witness_only_on_failure(self):
        _, out, _ = run_cli(["check", "--json", fx("category_neg_assoc_2.json")])
        payload = json.loads(out)
        for c in payload["checks"]:
            assert ("witness" in c) == (not c["passed"])


class TestDerive:
    def test_derive_to_stdout_round_trips(self):
        from structa.docs import parse_text, render

        code, out, _ = run_cli(["derive", "opposite", fx("category_z3.json")])
        assert code == 0
        assert render(parse_text(out)) == out

    def test_derive_to_file(self, tmp_path):
        target = tmp_path / "quotient.json"
        code, out, _ = run_cli(
            [
                "derive",
                "quotient",
                fx("group_z4.json"),
                "g0",
                "g2",
                "-o",
                str(target),
            ]
        )
        assert code == 0 and out == ""
        from structa.docs import parse_text

        doc = parse_text(target.read_text(encoding="utf-8"))
        assert doc.kind == "group"
        assert len(doc["carrier"]) == 2

    def test_symbol_named_kind_round_trips(self, tmp_path):
        from structa.docs import parse_text, render

        # the identity pairs table has a key named "kind"
        text = render(parse_text(json.dumps({
            "kind": "category",
            "objects": ["kind", "x"],
            "arrows": [["1k", "kind", "kind"], ["1x", "x", "x"], ["f", "kind", "x"]],
            "identity": [["kind", "1k"], ["x", "1x"]],
            "comp": [["1k", "1k", "1k"], ["1x", "1x", "1x"], ["f", "1k", "f"],
                     ["1x", "f", "f"]],
        })))
        assert render(parse_text(text)) == text
        doc = tmp_path / "kind.json"
        doc.write_text(text, encoding="utf-8")
        assert run_cli(["check", str(doc)])[0] == 0
        code, out, _ = run_cli(["derive", "opposite", str(doc)])
        assert code == 0
        assert render(parse_text(out)) == out
        assert '"kind",' in out
        opposite = tmp_path / "opposite.json"
        opposite.write_text(out, encoding="utf-8")
        assert run_cli(["check", str(opposite)])[0] == 0

    def test_unwritable_output_is_two(self, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        code, out, err = run_cli(
            ["derive", "opposite", fx("category_z3.json"), "-o", str(target)]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert not target.parent.exists()


class TestFormats:
    def test_formats_prints_schema_and_catalogue(self):
        code, out, _ = run_cli(["formats"])
        assert code == 0
        assert out == (GOLDEN / "formats.txt").read_text(encoding="utf-8")
        assert "rational-window" in out
        assert "Law catalogue" in out
        # spot-check a few law ids from different modules
        for law in ("grp-assoc", "cat-assoc", "img-adjoint", "uf-maximal"):
            assert law in out

    def test_formats_matches_shipped_docs(self):
        # the schema is printed from the one copy shipped in the package
        out = run_cli(["formats"])[1]
        assert out.startswith(SPEC.read_text(encoding="utf-8") + "\nLaw catalogue")

    def test_catalogue_holds_the_document_laws(self):
        # every law that `check` prints on a shipped fixture; the files in
        # bad/ print an error line and no report
        laws = json.loads(run_cli(["formats", "--json"])[1])["laws"]
        checked = 0
        for path in sorted(fixtures_dir().glob("**/*.json")):
            code, out, _ = run_cli(["check", "--json", str(path)])
            if code == 2:
                assert path.parent.name == "bad"
                continue
            for c in json.loads(out)["checks"]:
                assert c["law"] in laws, (path.name, c["law"])
                checked += 1
        assert checked > 200

    def test_formats_json(self):
        code, out, _ = run_cli(["formats", "--json"])
        assert out == (GOLDEN / "formats.json").read_text(encoding="utf-8")
        payload = json.loads(out)
        assert payload["schema"] == SPEC.read_text(encoding="utf-8")
        assert payload["laws"]["grp-unit"]


class TestSeeds:
    def test_seed_flag_and_env_agree(self, monkeypatch):
        a = run_cli(["suite", "interchange", "--seed", "7"])
        monkeypatch.setenv("STRUCTA_SEED", "7")
        b = run_cli(["suite", "interchange"])
        assert a == b
        assert a[0] == 0

    def test_non_integer_env_seed_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("STRUCTA_SEED", "abc")
        code, out, err = run_cli(["suite", "sigma"])
        assert (code, out) == (2, "")
        assert err.startswith("error: STRUCTA_SEED") and err.count("\n") == 1


class TestOneParser:
    """main parses with one parser built at import; no call leaves state
    in it for the next. Oracle: a fresh interpreter running the command."""

    def fresh(self, args):
        proc = run_real(args)
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")

    def test_check_json_then_check(self):
        path = fx("group_z4.json")
        assert run_cli(["check", "--json", path]) == self.fresh(["check", "--json", path])
        assert run_cli(["check", path]) == self.fresh(["check", path])

    def test_seed_flag_then_env(self, monkeypatch):
        import structa.suites

        seeds = []
        run_suite = structa.suites.run_suite

        def recording(name, seed=0):
            seeds.append(seed)
            return run_suite(name, seed=seed)

        monkeypatch.setattr(structa.suites, "run_suite", recording)
        assert run_cli(["suite", "cli", "--seed", "3"])[0] == 0
        monkeypatch.setenv("STRUCTA_SEED", "5")
        assert run_cli(["suite", "cli"])[0] == 0
        monkeypatch.delenv("STRUCTA_SEED")
        assert run_cli(["suite", "cli"])[0] == 0
        assert seeds == [3, 5, 0]

    def test_usage_error_then_a_valid_call(self):
        path = fx("category_z3.json")
        code, out, err = run_cli(["derive", "opposite"])
        assert (code, out) == (2, "") and "required" in err
        assert run_cli(["derive", "opposite", path]) == self.fresh(["derive", "opposite", path])

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_twice_is_the_same(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        first = run_cli(argv)
        assert first[0] == 0 and first[1].startswith("usage: structa")
        assert run_cli(argv) == first


class TestFlagsWhereRead:
    """Each subcommand takes only the flags it reads (plus --jobs)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "sigma", "--max-size", "3"],
            ["derive", "opposite", "category_z3.json", "--seed", "1"],
            ["derive", "opposite", "category_z3.json", "--json"],
            ["derive", "opposite", "category_z3.json", "--max-size", "3"],
            ["check", "group_z4.json", "--seed", "1"],
            ["formats", "--seed", "1"],
            ["formats", "--max-size", "3"],
        ],
    )
    def test_unread_flag_is_a_usage_error(self, argv):
        argv = [fx(a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "--jobs", "2", "opposite", "category_z3.json"],
            ["check", "--jobs", "2", "--max-size", "5", "--json", "group_z4.json"],
            ["suite", "sigma", "--jobs", "2", "--seed", "1", "--json"],
            ["formats", "--jobs", "2", "--json"],
        ],
    )
    def test_read_flags_and_jobs_are_accepted(self, argv):
        argv = [fx(a) if a.endswith(".json") else a for a in argv]
        code, _, err = run_cli(argv)
        assert code == 0, err


def test_a_failed_check_without_a_witness_renders_the_empty_one():
    from structa.report import LawReport

    r = LawReport("s")
    r.add("grp-unit", False)
    r.add("refl", True, ("dropped",))
    assert [c.witness for c in r.checks] == [(), None]
    assert "FAIL  grp-unit  a two-sided unit exists  witness=()" in r.render_text()
    assert [c.get("witness") for c in r.to_json()["checks"]] == [[], None]
