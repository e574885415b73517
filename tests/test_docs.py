"""Document layer tests.

Oracles: the module-level law suites each kind dispatches to, direct
structural comparison for derive outputs, and the render∘parse fixpoint
over the shipped corpus.
"""

import json

import pytest

from structa.core import FinMap, FinSet, finset
from structa.docs import (
    StructureDoc,
    doc_category,
    doc_group,
    doc_poset,
    parse,
    parse_text,
    render,
    run_check,
    run_derive,
    to_structure,
)
from structa.errors import NotNormal, ParseError, SchemaError, TooLarge
from structa.suites import fixtures_dir

CORPUS = sorted(fixtures_dir().glob("*.json"))


def corpus(name):
    return str(fixtures_dir() / (name + ".json"))


class TestParse:
    def test_minimal_set(self):
        doc = parse_text('{"kind": "set", "elements": ["a", "b"]}')
        assert doc.kind == "set"
        assert to_structure(doc) == finset("a", "b")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse_text('{"kind": "set",\n  "elements": ["a",]}')
        assert e.value.line == 2
        assert e.value.column is not None

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            parse_text('["kind", "set"]')

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            parse_text('{"kind": "widget"}')

    def test_missing_cell_named(self):
        with pytest.raises(SchemaError, match=r"missing the cell \(a, a\)"):
            parse_text(
                json.dumps(
                    {
                        "kind": "group",
                        "carrier": ["a", "e"],
                        "table": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"]],
                    }
                )
            )

    def test_undeclared_symbol_named(self):
        with pytest.raises(SchemaError, match="undeclared symbol 'z'"):
            parse_text(
                json.dumps(
                    {
                        "kind": "poset",
                        "carrier": ["a"],
                        "le": [["a", "z"]],
                    }
                )
            )

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"kind": "map", "dom": ["a"], "cod": ["b"], "map": [["a", "z"]]}, "map"),
            ({"kind": "map", "dom": ["a"], "cod": ["b"], "map": [["z", "b"]]}, "map"),
            (
                {"kind": "group", "carrier": ["e"], "table": [["e", "e", "z"]]},
                "table",
            ),
            ({"kind": "family", "carrier": ["a"], "members": [["a", "z"]]}, "members"),
            (
                {
                    "kind": "category",
                    "objects": ["x"],
                    "arrows": [["1x", "x", "z"]],
                    "identity": [["x", "1x"]],
                    "comp": [["1x", "1x", "1x"]],
                },
                "arrows",
            ),
            (
                {
                    "kind": "category",
                    "objects": ["x"],
                    "arrows": [["1x", "x", "x"]],
                    "identity": [["x", "1x"]],
                    "comp": [["1x", "1x", "z"]],
                },
                "comp",
            ),
            (
                {
                    "kind": "category",
                    "objects": ["x"],
                    "arrows": [["1x", "x", "x"]],
                    "identity": [["x", "z"]],
                    "comp": [["1x", "1x", "1x"]],
                },
                "identity",
            ),
        ],
    )
    def test_undeclared_symbol_message(self, doc, where):
        with pytest.raises(SchemaError) as err:
            parse_text(json.dumps(doc))
        assert str(err.value) == "undeclared symbol 'z' in %s" % where

    def test_duplicate_elements_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_text('{"kind": "set", "elements": ["a", "a"]}')

    def test_duplicate_elements_message(self):
        doc = '{"kind": "set", "elements": ["c", "b", "a", "c", "b", "c", "d"]}'
        with pytest.raises(SchemaError) as err:
            parse_text(doc)
        assert str(err.value) == "elements has duplicate entries ['b', 'c']"

    def test_wrong_key_set(self):
        with pytest.raises(SchemaError, match="wants keys"):
            parse_text('{"kind": "set", "items": ["a"]}')

    def test_bad_symbol_is_schema_error(self):
        for bad in ('["a b"]', '[""]', '["a\\tb"]'):
            with pytest.raises(SchemaError, match="without whitespace"):
                parse_text('{"kind": "set", "elements": %s}' % bad)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SchemaError, match=r"duplicate keys \['kind'\]"):
            parse_text('{"kind": "set", "elements": ["a"], "kind": "set"}')
        # nested documents are objects too
        g = '{"kind": "group", "carrier": ["e"], "table": [["e", "e", "e"]]}'
        g2 = g[:-1] + ', "carrier": ["e"]}'
        with pytest.raises(SchemaError, match="duplicate keys"):
            parse_text('{"kind": "hom", "src": %s, "tgt": %s, "map": [["e", "e"]]}' % (g, g2))
        assert parse_text('{"kind": "hom", "src": %s, "tgt": %s, "map": [["e", "e"]]}' % (g, g))

    def test_unreadable_source_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse(str(tmp_path / "absent.json"))
        latin = tmp_path / "latin1.json"
        latin.write_bytes(b'{"kind": "set", "elements": ["\xe9"]}')
        with pytest.raises(ParseError, match="not UTF-8"):
            parse(str(latin))

    def test_nattrans_wants_parallel_functors(self):
        f = json.loads(
            (fixtures_dir() / "functor_id_chain2.json").read_text()
        )
        g = json.loads((fixtures_dir() / "functor_mod2.json").read_text())
        with pytest.raises(SchemaError, match="parallel"):
            parse_text(
                json.dumps(
                    {"kind": "nattrans", "f": f, "g": g, "component": []}
                )
            )

    def test_closure_table_must_cover_power_set(self):
        with pytest.raises(SchemaError, match="missing the cell"):
            parse_text(
                json.dumps(
                    {
                        "kind": "closure",
                        "carrier": ["a"],
                        "table": [[[], []]],
                    }
                )
            )

    def test_parse_accepts_literal_text_and_paths(self):
        from_path = parse(corpus("set_abc"))
        from_text = parse((fixtures_dir() / "set_abc.json").read_text())
        assert from_path == from_text


class TestRoundTrip:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_corpus_fixpoint(self, path):
        text = path.read_text(encoding="utf-8")
        assert render(parse_text(text)) == text

    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 30

    def test_canonicalization_is_idempotent(self):
        messy = '{"elements": ["c", "b", "a"], "kind": "set"}'
        doc = parse_text(messy)
        assert render(doc) == render(parse_text(render(doc)))
        assert doc["elements"] == ("a", "b", "c")


class TestCheck:
    PASSING = [
        p
        for p in CORPUS
        if not p.stem.startswith(("category_neg_assoc", "group_broken"))
    ]

    @pytest.mark.parametrize("path", PASSING, ids=lambda p: p.stem)
    def test_positive_corpus_passes(self, path):
        rep = run_check(parse_text(path.read_text()))
        assert rep.passed, rep.render_text()

    def test_negative_fixtures_fail_associativity(self):
        for i in range(1, 6):
            rep = run_check(parse(corpus("category_neg_assoc_%d" % i)))
            check = rep["cat-assoc"]
            assert not check.passed
            assert check.witness is not None

    def test_broken_group_fails(self):
        rep = run_check(parse(corpus("group_broken")))
        assert not rep.passed

    def test_guard_reports_bound(self):
        doc = parse_text(
            json.dumps({"kind": "rational-window", "window": 50, "den": 2})
        )
        with pytest.raises(TooLarge, match="size bound"):
            run_check(doc)
        # a raised guard admits the document
        assert run_check(doc, max_size=60).passed


class TestDerive:
    def test_quotient_s3_by_rotations(self):
        doc = parse(corpus("group_s3"))
        from structa.group import cyclic_subgroup, symmetric_group_3

        S3, _ = symmetric_group_3()
        gen = next(
            g for g in S3.carrier if g != S3.unit and S3.op[(g, g)] != S3.unit
        )
        members = sorted(cyclic_subgroup(S3, gen).members.elements)
        out = run_derive(doc, "quotient", members)
        assert out.kind == "group"
        assert len(out["carrier"]) == 2
        assert run_check(out).passed

    def test_quotient_rejects_non_normal(self):
        doc = parse(corpus("group_s3"))
        from structa.group import cyclic_subgroup, symmetric_group_3

        S3, _ = symmetric_group_3()
        gen = next(
            g for g in S3.carrier if g != S3.unit and S3.op[(g, g)] == S3.unit
        )
        members = sorted(cyclic_subgroup(S3, gen).members.elements)
        with pytest.raises(NotNormal):
            run_derive(doc, "quotient", members)

    def test_opposite_is_an_involution(self):
        doc = parse(corpus("category_chain2"))
        assert run_derive(run_derive(doc, "opposite"), "opposite") == doc

    def test_generated_filter(self):
        out = run_derive(parse(corpus("filterbase_nested")), "filter")
        assert out.kind == "family"
        members = [FinSet(m) for m in out["members"]]
        # upward closure of {a}: every superset of {a}
        assert all("a" in m for m in members)
        assert len(members) == 4

    def test_topology_from_base(self):
        out = run_derive(parse(corpus("base_two_member")), "topology")
        assert out.kind == "topology"
        opens = {FinSet(m) for m in out["opens"]}
        assert opens == {
            FinSet(),
            finset("b"),
            finset("a", "b"),
            finset("b", "c"),
            finset("a", "b", "c"),
        }
        assert run_check(out).passed

    def test_closure_from_topology(self):
        out = run_derive(parse(corpus("topology_sierpinski")), "closure")
        assert out.kind == "closure"
        table = {FinSet(k): FinSet(v) for k, v in out["table"]}
        assert table[finset("b")] == finset("a", "b")
        assert table[finset("a")] == finset("a")

    def test_cayley_image(self):
        out = run_derive(parse(corpus("group_z4")), "cayley")
        assert out.kind == "hom"
        assert run_check(out).passed
        h = to_structure(out)
        assert len(h.tgt.carrier) == 4
        assert h.map.image() == h.tgt.carrier

    def test_unknown_op(self):
        with pytest.raises(SchemaError, match="unknown derive op"):
            run_derive(parse(corpus("group_z2")), "frobnicate")

    def test_kind_mismatch(self):
        with pytest.raises(SchemaError, match="wants a 'group'"):
            run_derive(parse(corpus("set_abc")), "quotient", ["a"])


class TestStructures:
    def test_builders_round_to_docs(self):
        from structa.category import from_poset
        from structa.group import cyclic_group
        from structa.order import diamond_poset

        P = diamond_poset()
        assert to_structure(doc_poset(P)) == P
        G = cyclic_group(3)
        assert to_structure(doc_group(G)) == G
        C = from_poset(P)
        assert to_structure(doc_category(C)) == C

    def test_map_doc(self):
        f = FinMap(finset("a", "b"), finset("c"), {"a": "c", "b": "c"})
        doc = parse_text(
            json.dumps(
                {
                    "kind": "map",
                    "dom": ["a", "b"],
                    "cod": ["c"],
                    "map": [["a", "c"], ["b", "c"]],
                }
            )
        )
        assert to_structure(doc) == f

    def test_doc_equality_is_structural(self):
        a = parse_text('{"kind": "set", "elements": ["b", "a"]}')
        b = parse_text('{"kind": "set", "elements": ["a", "b"]}')
        assert a == b
        assert isinstance(a, StructureDoc)
