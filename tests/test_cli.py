"""Command-line surface tests.

Oracles: the exit-code contract, byte comparison across worker counts,
and JSON well-formedness of machine reports.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structa import cli
from structa.suites import fixtures_dir


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

    def test_guard_exceeded_is_two_and_names_bound(self, tmp_path):
        doc = '{"kind": "rational-window", "window": 50, "den": 2}'
        tmp = tmp_path / "big_window.json"
        tmp.write_text(doc + "\n", encoding="utf-8")
        code, _, err = run_cli(["check", str(tmp)])
        assert code == 2
        assert "size bound" in err
        code, _, _ = run_cli(["check", "--max-size", "60", str(tmp)])
        assert code == 0


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


def run_real(args, **env):
    """The command line in a fresh interpreter, with a real stdout."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONIOENCODING": "utf-8", **env}
    return subprocess.run([sys.executable, "-m", "structa.cli", *args],
                          capture_output=True, env=env, timeout=300)


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
    # closure sends {a,b} to {a,b,c}, so {a} ∪ {b} is not closed
    HASH_DOCS = [
        '{"kind": "topology", "carrier": ["t0", "t1", "t2"], '
        '"opens": [["t0", "t2"], ["t0", "t1", "t2"], ["t0", "t1"], []]}',
        json.dumps({"kind": "closure", "carrier": ["a", "b", "c"], "table": [
            [s, ["a", "b", "c"] if s == ["a", "b"] else s]
            for s in ([], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"],
                      ["a", "b", "c"])
        ]}),
    ]

    def test_witnesses_do_not_depend_on_the_hash_seed(self):
        args = ["check", *self.HASH_DOCS,
                *(str(p) for p in sorted(fixtures_dir().glob("**/*.json")))]
        runs = {seed: run_real(args, PYTHONHASHSEED=str(seed)) for seed in range(6)}
        first = runs[0]
        assert first.returncode == 2
        assert b"witness=('{t0,t1}', '{t0,t2}')" in first.stdout
        assert b"witness=('{a}', '{b}')" in first.stdout
        for seed, proc in runs.items():
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                first.returncode, first.stdout, first.stderr), seed


class TestUnitErrors:
    def test_error_inside_a_unit_is_a_fail_line(self, monkeypatch):
        from structa import category
        from structa.category import NatTransData, compose_functors

        def alpha_only(alpha, tau):
            # (α∘τ)_x = α_{Gx}: not composable where α_{Gx} ∘ J τ_x would be
            return NatTransData(
                compose_functors(alpha.F, tau.F), compose_functors(alpha.G, tau.G),
                {x: alpha.component[tau.G.on_obj[x]] for x in tau.F.src.objects},
            )

        monkeypatch.setattr(category, "hcompose", alpha_only)
        code, out, err = run_cli(["suite", "interchange"])
        assert (code, err) == (1, "")
        lines = [line.split()[:2] for line in out.splitlines() if "FAIL" in line]
        assert lines == [["FAIL", "ic-volume"]] + [["FAIL", "unit-error"]] * 3
        assert "witness=('arrows are not composable',)" in out


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
        assert "rational-window" in out
        assert "Law catalogue" in out
        # spot-check a few law ids from different modules
        for law in ("grp-assoc", "cat-assoc", "img-adjoint", "uf-maximal"):
            assert law in out

    def test_formats_matches_shipped_docs(self):
        root = Path(__file__).resolve().parents[1]
        assert (root / "docs" / "format.md").read_text(encoding="utf-8") == cli.FORMAT_SPEC

    def test_catalogue_holds_the_document_laws(self):
        laws = json.loads(run_cli(["formats", "--json"])[1])["laws"]
        for law in ("set-elements", "set-subset-count", "hom-mult", "hom-unit"):
            assert law in laws

    def test_formats_json(self):
        code, out, _ = run_cli(["formats", "--json"])
        payload = json.loads(out)
        assert payload["schema"] == cli.FORMAT_SPEC
        assert payload["laws"]["grp-unit"]


class TestSeeds:
    def test_seed_flag_and_env_agree(self, monkeypatch):
        a = run_cli(["suite", "interchange", "--seed", "7"])
        monkeypatch.setenv("STRUCTA_SEED", "7")
        b = run_cli(["suite", "interchange"])
        assert a == b
        assert a[0] == 0


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
