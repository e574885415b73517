"""Document layer tests.

Oracles: the module-level law suites each kind dispatches to, direct
structural comparison for derive outputs, and the render∘parse fixpoint
over the shipped corpus, over generated documents of every kind and
over the derive outputs of both.
"""

import ast
import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structa import docs
from structa.core import FinMap, FinSet, check_symbol, finset
from structa.docs import (
    DERIVE_OPS,
    KINDS,
    StructureDoc,
    _subset_list,
    _total_pairs,
    _total_table,
    _tuple_list,
    doc_hom,
    doc_category,
    doc_group,
    parse,
    parse_text,
    render,
    run_check,
    run_derive,
    to_structure,
)
from structa.errors import NotAGroup, NotNormal, ParseError, SchemaError, StructaError, TooLarge
from structa.group import cayley, cyclic_group
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
        # a kind that is not a string, even an unhashable one, is a schema error
        for kind in ('"widget"', "[]", "{}", "null"):
            with pytest.raises(SchemaError, match="unknown kind"):
                parse_text('{"kind": %s}' % kind)

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
        assert doc["elements"] == ["a", "b", "c"]


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

    @staticmethod
    def points(n):
        return ["p%d" % i for i in range(n)]

    # one document per guarded kind, one past its default bound
    GUARDED = {
        "family": (lambda pts: {"members": [pts[:1]]}, 4),
        "filterbase": (lambda pts: {"members": [pts[:1]]}, 5),
        "closure": (lambda pts: {"table": [
            [list(S), list(S)] for k in range(len(pts) + 1)
            for S in itertools.combinations(pts, k)
        ]}, 4),
        "topology": (lambda pts: {"opens": [[], pts]}, 5),
        "base": (lambda pts: {"members": [[p] for p in pts]}, 5),
    }

    @pytest.mark.parametrize("kind", sorted(GUARDED))
    def test_each_kind_has_its_own_guard(self, kind):
        keys, bound = self.GUARDED[kind]
        pts = self.points(bound + 1)
        doc = parse_text(json.dumps({"kind": kind, "carrier": pts, **keys(pts)}))
        with pytest.raises(TooLarge) as e:
            run_check(doc)
        assert str(e.value) == (
            "%s document exceeds the size bound (%d > %d); raise --max-size"
            % (kind, bound + 1, bound)
        )
        assert e.value.witness == (bound + 1, bound)
        with pytest.raises(TooLarge):
            run_check(doc, max_size=bound)
        assert run_check(doc, max_size=bound + 1).passed

    @pytest.mark.parametrize("window, den, size, bound", [(41, 7, 41, 40), (1, 7, 7, 6)])
    def test_rational_window_guards_window_then_den(self, window, den, size, bound):
        doc = parse_text(json.dumps({"kind": "rational-window", "window": window, "den": den}))
        with pytest.raises(TooLarge) as e:
            run_check(doc)
        assert e.value.witness == (size, bound)
        assert run_check(doc, max_size=size).passed

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_max_size_below_one_is_refused(self, max_size):
        # before, 0 kept the default guard and -1 became the bound
        doc = parse_text(json.dumps({"kind": "rational-window", "window": 50, "den": 2}))
        with pytest.raises(ValueError, match="at least 1"):
            run_check(doc, max_size=max_size)
        small = parse_text(json.dumps({"kind": "set", "elements": self.points(2)}))
        with pytest.raises(ValueError, match="at least 1"):
            run_check(small, max_size=max_size)

    def test_set_check_ignores_the_guard(self):
        doc = parse_text(json.dumps({"kind": "set", "elements": self.points(11)}))
        assert run_check(doc).passed
        assert run_check(doc, max_size=1).passed


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

    def test_filter_of_an_empty_family_fails(self):
        doc = parse_text('{"kind": "filterbase", "carrier": ["a"], "members": []}')
        with pytest.raises(StructaError, match="not a filter base"):
            run_derive(doc, "filter")

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
        payload = {"kind": "poset", "carrier": list(P.carrier), "le": sorted(map(list, P.pairs))}
        assert to_structure(parse_text(json.dumps(payload))) == P
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

    def test_every_fixture_builds_to_its_kind_type(self):
        from structa.category import FinCat, FunctorData, NatTransData
        from structa.group import FinGroup, GroupAction, GroupHom
        from structa.order import Poset
        from structa.settools import Family
        from structa.top import ClosureOp, Topology

        # semilattice and rational-window have no library type
        types = {
            "set": FinSet, "map": FinMap, "poset": Poset, "semilattice": tuple,
            "category": FinCat, "functor": FunctorData, "nattrans": NatTransData,
            "group": FinGroup, "hom": GroupHom, "action": GroupAction,
            "family": Family, "filterbase": Family, "closure": ClosureOp,
            "topology": Topology, "base": Family, "rational-window": tuple,
        }
        assert tuple(types) == KINDS
        built = set()
        for path in CORPUS:
            doc = parse(str(path))
            if path.name == "group_broken.json":
                with pytest.raises(NotAGroup):
                    to_structure(doc)
                continue
            assert type(to_structure(doc)) is types[doc.kind], path.name
            built.add(doc.kind)
        assert sorted(built) == sorted(KINDS)


def spec_kinds() -> dict:
    """The "Kinds and their keys" block of format.md: each kind, in the
    order listed, with the keys its entry names."""
    text = (fixtures_dir().parent / "format.md").read_text(encoding="utf-8")
    block = text.split("Kinds and their keys:\n\n", 1)[1].split("\n\n", 1)[0]
    kinds = {}
    for line in block.splitlines():
        if not line.startswith("   "):
            kind, line = line.split(None, 1)
            kinds[kind] = set()
        kinds[kind] |= set(re.findall(r"([a-z_]+): ", line))
    return kinds


def demanded_keys(kind) -> set:
    """The key set ``parse`` names when a document of the kind has none."""
    with pytest.raises(SchemaError) as e:
        parse_text(json.dumps({"kind": kind}))
    return set(ast.literal_eval(str(e.value).split("wants keys ", 1)[1].split(";")[0]))


def test_the_format_spec_lists_every_kind_with_its_keys():
    kinds = spec_kinds()
    assert tuple(kinds) == KINDS
    assert {k: demanded_keys(k) for k in KINDS} == kinds


# ---------------------------------------------------------------------------
# generated documents
#
# Symbols include the document keys, "kind" first among them: a symbol
# spelled like a key must stay a symbol through parse and render.

SYMBOLS = ["kind", "map", "carrier", "src", "a", "b", "é", "10"]
PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def symbols(min_size=0, max_size=3):
    return st.lists(st.sampled_from(SYMBOLS), min_size=min_size, max_size=max_size,
                    unique=True)


@st.composite
def total(draw, keys, values):
    """One row [*key, value] per key, with values drawn from ``values``."""
    return [list(k) + [draw(st.sampled_from(values))] for k in keys]


@st.composite
def subset_lists(draw, carrier):
    member = st.lists(st.sampled_from(carrier), unique=True) if carrier else st.just([])
    return draw(st.lists(member, max_size=4, unique_by=frozenset))


@st.composite
def op_tables(draw, kind, min_size=0):
    carrier = draw(symbols(min_size))
    table = draw(total(itertools.product(carrier, carrier), carrier))
    return {"kind": kind, "carrier": carrier, "table": table}


@st.composite
def categories(draw):
    objects = draw(symbols(1))
    names = draw(symbols(1))
    arrows = [[n, draw(st.sampled_from(objects)), draw(st.sampled_from(objects))]
              for n in names]
    cells = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          unique=True))
    return {
        "kind": "category",
        "objects": objects,
        "arrows": arrows,
        "identity": draw(total([[x] for x in objects], names)),
        "comp": draw(total(cells, names)),
    }


@st.composite
def functors(draw, src=None, tgt=None):
    src = src or draw(categories())
    tgt = tgt or draw(categories())
    tgt_arrows = [n for n, _, _ in tgt["arrows"]]
    return {
        "kind": "functor",
        "src": src,
        "tgt": tgt,
        "on_obj": draw(total([[x] for x in src["objects"]], tgt["objects"])),
        "on_arr": draw(total([[n] for n, _, _ in src["arrows"]], tgt_arrows)),
    }


@st.composite
def payloads(draw):
    """A schema-valid document payload of any kind; its laws may fail."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "set":
        return {"kind": kind, "elements": draw(symbols())}
    if kind == "map":
        dom, cod = draw(symbols()), draw(symbols(1))
        return {"kind": kind, "dom": dom, "cod": cod,
                "map": draw(total([[x] for x in dom], cod))}
    if kind == "hom":
        src, tgt = draw(op_tables("group")), draw(op_tables("group", 1))
        return {"kind": kind, "src": src, "tgt": tgt,
                "map": draw(total([[x] for x in src["carrier"]], tgt["carrier"]))}
    if kind == "poset":
        carrier = draw(symbols(1))
        pair = st.lists(st.sampled_from(carrier), min_size=2, max_size=2)
        return {"kind": kind, "carrier": carrier, "le": draw(st.lists(pair, max_size=6))}
    if kind in ("semilattice", "group"):
        return draw(op_tables(kind))
    if kind == "category":
        return draw(categories())
    if kind == "functor":
        return draw(functors())
    if kind == "nattrans":
        src, tgt = draw(categories()), draw(categories())
        tgt_arrows = [n for n, _, _ in tgt["arrows"]]
        return {
            "kind": kind,
            "f": draw(functors(src, tgt)),
            "g": draw(functors(src, tgt)),
            "component": draw(total([[x] for x in src["objects"]], tgt_arrows)),
        }
    if kind == "action":
        group = draw(op_tables("group", 1))
        points = draw(symbols(1))
        act = draw(total(itertools.product(group["carrier"], points), points))
        return {"kind": kind, "group": group, "carrier": points, "act": act}
    if kind == "closure":
        carrier = draw(symbols())
        cells = [[list(c)] for n in range(len(carrier) + 1)
                 for c in itertools.combinations(carrier, n)]
        values = [draw(st.lists(st.sampled_from(carrier), unique=True)) if carrier else []
                  for _ in cells]
        return {"kind": kind, "carrier": carrier,
                "table": [k + [v] for k, v in zip(cells, values)]}
    if kind == "rational-window":
        return {"kind": kind, "window": draw(st.integers(1, 10**30)),
                "den": draw(st.integers(1, 10**30))}
    carrier = draw(symbols())
    key = "opens" if kind == "topology" else "members"
    return {"kind": kind, "carrier": carrier, key: draw(subset_lists(carrier))}


def relabel(payload, names):
    """The payload with each symbol renamed through ``names``."""
    if isinstance(payload, dict):
        return {k: v if k == "kind" else relabel(v, names) for k, v in payload.items()}
    if isinstance(payload, list):
        return [relabel(x, names) for x in payload]
    return names[payload] if isinstance(payload, str) else payload


def symbols_of(payload):
    if isinstance(payload, dict):
        return set().union(*(symbols_of(v) for k, v in payload.items() if k != "kind"))
    if isinstance(payload, list):
        return set().union(*(symbols_of(x) for x in payload))
    return {payload} if isinstance(payload, str) else set()


@st.composite
def relabelled_corpus(draw):
    """A shipped document, its laws intact, renamed into SYMBOLS first."""
    payload = json.loads(draw(st.sampled_from(CORPUS)).read_text(encoding="utf-8"))
    old = sorted(symbols_of(payload))
    new = draw(st.permutations(SYMBOLS)) + ["s%d" % i for i in range(len(old))]
    return relabel(payload, dict(zip(old, new)))


def assert_fixpoint(doc):
    text = render(doc)
    again = parse_text(text)
    assert again == doc
    assert render(again) == text


def derived(doc):
    """Each derive output the document admits; quotients take the whole
    group, which is always normal."""
    for op, (kind, _) in sorted(DERIVE_OPS.items()):
        if doc.kind == kind:
            try:
                yield run_derive(doc, op, doc["carrier"] if op == "quotient" else ())
            except StructaError:  # the input's laws fail, or a size guard
                pass


class TestGeneratedRoundTrip:
    @PROPERTY
    @given(payloads())
    def test_render_parse_fixpoint(self, payload):
        doc = parse_text(json.dumps(payload))
        assert doc.kind == payload["kind"]
        assert_fixpoint(doc)
        for out in derived(doc):
            assert_fixpoint(out)

    @PROPERTY
    @given(relabelled_corpus())
    def test_relabelled_corpus_round_trips_and_derives(self, payload):
        doc = parse_text(json.dumps(payload))
        assert_fixpoint(doc)
        for out in derived(doc):
            assert_fixpoint(out)


# ---------------------------------------------------------------------------
# render against json.dumps
#
# render writes its text in one pass; the oracle is the json module with
# the options the canonical form names.


def dumped(doc):
    return json.dumps(doc.payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def assert_renders_as_json(doc):
    assert render(doc) == dumped(doc)
    for out in derived(doc):
        assert render(out) == dumped(out)


class TestRenderIsJsonDumps:
    @PROPERTY
    @given(payloads())
    def test_generated_payloads(self, payload):
        assert_renders_as_json(parse_text(json.dumps(payload)))

    @PROPERTY
    @given(relabelled_corpus())
    def test_relabelled_corpus(self, payload):
        assert_renders_as_json(parse_text(json.dumps(payload)))

    @pytest.mark.parametrize(
        "symbol", ['"', "\\", "\x00", "\x01", "\x7f", "é", "a\"b", "\\u0041", "💡"]
    )
    def test_escaping_symbols(self, symbol):
        doc = parse_text(json.dumps({"kind": "set", "elements": [symbol, "z"]}))
        assert_renders_as_json(doc)
        assert parse_text(render(doc)) == doc

    def test_escaped_text_by_hand(self):
        doc = parse_text(json.dumps({"kind": "set", "elements": ['q"', "b\\", "c\x00", "é"]}))
        assert render(doc) == (
            '{\n  "elements": [\n    "b\\\\",\n    "c\\u0000",\n'
            '    "q\\"",\n    "é"\n  ],\n  "kind": "set"\n}\n'
        )

    def test_empty_arrays(self):
        for payload in (
            {"kind": "set", "elements": []},
            {"kind": "family", "carrier": [], "members": [[]]},
            {"kind": "topology", "carrier": ["a"], "opens": []},
            {"kind": "poset", "carrier": ["a"], "le": []},
            {"kind": "group", "carrier": [], "table": []},
        ):
            assert_renders_as_json(parse_text(json.dumps(payload)))
        doc = parse_text('{"kind": "family", "carrier": [], "members": [[]]}')
        assert render(doc) == (
            '{\n  "carrier": [],\n  "kind": "family",\n  "members": [\n    []\n  ]\n}\n'
        )

    def test_integer_fields(self):
        for window, den in ((1, 1), (40, 6), (10**30, 7)):
            doc = parse_text(json.dumps(
                {"kind": "rational-window", "window": window, "den": den}))
            assert_renders_as_json(doc)
        assert render(doc) == (
            '{\n  "den": 7,\n  "kind": "rational-window",\n  "window": %d\n}\n' % 10**30
        )

    @pytest.mark.parametrize(
        "name", ["hom_sign_s3_z2", "functor_mod2", "nattrans_lift", "action_regular_z3"]
    )
    def test_nested_documents(self, name):
        assert_renders_as_json(parse(corpus(name)))

    def test_nested_document_by_hand(self):
        doc = doc_hom(cayley(cyclic_group(1)))
        assert_renders_as_json(doc)
        group = '{\n    "carrier": [\n      "%s"\n    ],\n    "kind": "group",\n' \
                '    "table": [\n      [\n        "%s",\n        "%s",\n        "%s"\n' \
                '      ]\n    ]\n  }'
        e, p = doc["src"]["carrier"][0], doc["tgt"]["carrier"][0]
        assert render(doc) == (
            '{\n  "kind": "hom",\n  "map": [\n    [\n      "%s",\n      "%s"\n    ]\n  ],\n'
            '  "src": %s,\n  "tgt": %s\n}\n' % (e, p, group % (e, e, e, e), group % (p, p, p, p))
        )


def json_values(depth):
    """Arbitrary JSON data nested at most ``depth`` deep, not a document:
    arrays mix strings, integers, empty arrays, objects and rows of such
    entries, so that the row path of ``render`` meets every entry it must
    hand on."""
    text = st.sampled_from(TEXTS)
    leaf = st.one_of(text, st.integers(-10**20, 10**20), st.booleans(), st.none(),
                     st.just([]), st.just({}))
    if depth == 0:
        return leaf
    inner = json_values(depth - 1)
    return st.one_of(
        leaf,
        st.lists(inner, max_size=4),
        st.lists(st.lists(inner, max_size=3), max_size=3),  # rows
        st.dictionaries(text, inner, max_size=3),
    )


TEXTS = ["", "a", "b c", "kind", '"', "\\", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800", "💡"]


class TestRenderOfAnyJson:
    @PROPERTY
    @given(st.dictionaries(st.sampled_from(TEXTS), json_values(2), max_size=4))
    def test_render_is_json_dumps(self, payload):
        expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert render(StructureDoc(payload)) == expected

    def test_rows_with_nested_entries_by_hand(self):
        payload = {"r": [["a", 1, [], ["b", {"k": "v"}]], [], "c", [None, "d"]]}
        expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert render(StructureDoc(payload)) == expected


# ---------------------------------------------------------------------------
# the symbol memo of _tuple_list and _subset_list
#
# Oracle: the lists as written before the memo, checking every entry.


def tuple_list_reference(v, n, where):
    if not isinstance(v, list):
        raise SchemaError("%s must be an array of %d-tuples" % (where, n))
    out = []
    for row in v:
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError("%s entries must be arrays of length %d" % (where, n))
        out.append([check_entry(x, where) for x in row])
    return out


def subset_list_reference(v, carrier, where):
    if not isinstance(v, list):
        raise SchemaError("%s must be an array of subsets" % where)
    out = []
    for sub in v:
        if not isinstance(sub, list):
            raise SchemaError("%s members must be arrays of strings" % where)
        members = [check_entry(x, where) for x in sub]
        for x in members:
            if x not in carrier:
                raise SchemaError("undeclared symbol %r in %s" % (x, where))
        if len(set(members)) != len(members):
            raise SchemaError("%s member lists elements twice" % where)
        out.append(sorted(members))
    canon = sorted(out)
    for i in range(1, len(canon)):
        if canon[i] == canon[i - 1]:
            raise SchemaError("%s lists the subset %s twice" % (where, canon[i]))
    return canon


def check_entry(x, where):
    if not isinstance(x, str):
        raise SchemaError("%s must be a string, got %r" % (where, x))
    try:
        return check_symbol(x)
    except ValueError as e:
        raise SchemaError("%s: %s" % (where, e))


def outcome(fn, *args):
    try:
        return fn(*args)
    except SchemaError as e:
        return "SchemaError: %s" % e


ENTRIES = ["a", "b", "é", "a b", "", "\ud800", 1, None, ["a"], {"a": "b"}]


class TestSymbolMemo:
    @pytest.mark.parametrize(
        "rows",
        [
            [["a", "b"], ["a b", "a"]],  # a bad symbol on its first occurrence
            [["a", "b"], ["b", "a"], ["a", "a b"], ["a b", "a"]],  # and again
            [["a", "a b"], ["a", "a"]],  # inside the first row
            [["a", "b"], ["a", 1]],  # a non-string entry
            [["a", "b"], ["a", ["a"]]],  # an unhashable one
            [["a", "b"], ["b", "a"], ["a"]],  # a malformed row after good rows
            [["a", "b"], ["b", "a"], "ab"],
            [["a", "b"], ["a", "\ud800"]],
        ],
    )
    def test_errors_and_precedence_are_unchanged(self, rows):
        expected = outcome(tuple_list_reference, rows, 2, "map")
        assert expected.startswith("SchemaError")
        assert outcome(_tuple_list, rows, 2, "map") == expected

    def test_a_bad_symbol_is_refused_on_its_first_occurrence(self):
        with pytest.raises(SchemaError, match=r"^table: symbol must be .*'a b'$"):
            _tuple_list([["a", "a", "a"], ["a", "a b", "a"]], 3, "table")
        with pytest.raises(SchemaError, match=r"^members: symbol must be .*'a b'$"):
            _subset_list([["a"], ["a b"]], ["a"], "members")

    @PROPERTY
    @given(st.lists(st.one_of(st.lists(st.sampled_from(ENTRIES), max_size=3),
                              st.sampled_from(ENTRIES)), max_size=6))
    def test_both_lists_match_the_unmemoized_check(self, rows):
        for n in (2, 3):
            assert outcome(_tuple_list, rows, n, "t") == outcome(tuple_list_reference, rows, n, "t")
        carrier = ["a", "b", "é"]
        assert (outcome(_subset_list, rows, carrier, "m")
                == outcome(subset_list_reference, rows, carrier, "m"))

    def test_rows_are_copies(self):
        rows = [["a", "b"], ["b", "a"]]
        out = _tuple_list(rows, 2, "map")
        assert out == rows and all(o is not r for o, r in zip(out, rows))


# ---------------------------------------------------------------------------
# the table certificates of _total_table and _total_pairs
#
# Oracle: the ordered scans as written before the certificate. A
# certificate may only decide the passing case; every other table must
# get the scan's rows or the scan's first error.


def total_table_reference(rows, left, right, values, where):
    left_set, right_set, value_set = set(left), set(right), set(values)
    seen = {}
    for a, b, v in rows:
        for x, declared in ((a, left_set), (b, right_set), (v, value_set)):
            if x not in declared:
                raise SchemaError("undeclared symbol %r in %s" % (x, where))
        if (a, b) in seen:
            raise SchemaError("%s defines the cell (%s, %s) twice" % (where, a, b))
        seen[(a, b)] = v
    for a in left:
        for b in right:
            if (a, b) not in seen:
                raise SchemaError("%s is not total: missing the cell (%s, %s)" % (where, a, b))
    return sorted([a, b, v] for (a, b), v in seen.items())


def total_pairs_reference(rows, keys, values, where):
    key_set, value_set = set(keys), set(values)
    seen = {}
    for k, v in rows:
        for x, declared in ((k, key_set), (v, value_set)):
            if x not in declared:
                raise SchemaError("undeclared symbol %r in %s" % (x, where))
        if k in seen:
            raise SchemaError("%s assigns %r twice" % (where, k))
        seen[k] = v
    for k in keys:
        if k not in seen:
            raise SchemaError("%s is not total: no value for %r" % (where, k))
    return sorted([k, v] for k, v in seen.items())


def copies(rows):
    return [list(r) for r in rows]


def assert_table_like_reference(rows, left, right, values):
    expected = outcome(total_table_reference, copies(rows), left, right, values, "t")
    assert outcome(_total_table, copies(rows), left, right, values, "t") == expected
    return expected


def assert_pairs_like_reference(rows, keys, values):
    expected = outcome(total_pairs_reference, copies(rows), keys, values, "m")
    assert outcome(_total_pairs, copies(rows), keys, values, "m") == expected
    return expected


Z3 = ["a", "b", "c"]
Z3_TABLE = [[x, y, Z3[(i + j) % 3]] for i, x in enumerate(Z3) for j, y in enumerate(Z3)]


@st.composite
def near_total_tables(draw):
    """(left, right, rows): a total table on left x right in a shuffled
    order, then up to two edits, each of which drops a row, repeats one or
    puts another symbol, maybe an undeclared one, into one entry."""
    side = st.lists(st.sampled_from(Z3), max_size=3, unique=True)
    left, right = draw(side), draw(side)
    rows = draw(st.permutations(
        [[a, b, draw(st.sampled_from(Z3))] for a in left for b in right]))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "put"]))
        if edit == "drop":
            del rows[i]
        elif edit == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        else:
            rows[i][draw(st.integers(0, 2))] = draw(st.sampled_from(Z3 + ["z"]))
    return left, right, rows


class TestTableCertificate:
    def test_a_total_table_passes_sorted(self):
        assert assert_table_like_reference(Z3_TABLE[::-1], Z3, Z3, Z3) == Z3_TABLE
        assert assert_pairs_like_reference([["b", "a"], ["a", "c"]], ["a", "b"], Z3) == [
            ["a", "c"], ["b", "a"]]

    def test_one_cell_repeated_and_one_missing(self):
        # as many rows as cells, so the count alone cannot tell
        rows = copies(Z3_TABLE)
        rows[4] = ["a", "a", "b"]
        assert assert_table_like_reference(rows, Z3, Z3, Z3) == (
            "SchemaError: t defines the cell (a, a) twice")
        rows = copies(Z3_TABLE)
        rows[8] = ["c", "b", "a"]
        assert assert_table_like_reference(rows, Z3, Z3, Z3) == (
            "SchemaError: t defines the cell (c, b) twice")
        assert assert_pairs_like_reference([["a", "a"], ["a", "b"]], ["a", "b"], Z3) == (
            "SchemaError: m assigns 'a' twice")

    def test_an_undeclared_value(self):
        rows = copies(Z3_TABLE)
        rows[5][2] = "z"
        assert assert_table_like_reference(rows, Z3, Z3, Z3) == (
            "SchemaError: undeclared symbol 'z' in t")
        assert assert_pairs_like_reference([["a", "z"], ["b", "a"]], ["a", "b"], Z3) == (
            "SchemaError: undeclared symbol 'z' in m")

    def test_an_undeclared_row_symbol(self):
        for col in (0, 1):
            rows = copies(Z3_TABLE)
            rows[7][col] = "z"
            assert assert_table_like_reference(rows, Z3, Z3, Z3) == (
                "SchemaError: undeclared symbol 'z' in t")
        assert assert_pairs_like_reference([["a", "a"], ["z", "a"]], ["a", "b"], Z3) == (
            "SchemaError: undeclared symbol 'z' in m")

    def test_the_first_error_wins_over_a_later_one(self):
        rows = copies(Z3_TABLE)
        rows[2] = ["a", "b", "b"]  # the cell (a, b) twice, (a, c) missing
        rows[6][2] = "z"  # and later an undeclared value
        assert assert_table_like_reference(rows, Z3, Z3, Z3) == (
            "SchemaError: t defines the cell (a, b) twice")

    @pytest.mark.parametrize("path", sorted(fixtures_dir().glob("bad/*.json")),
                             ids=lambda p: p.name)
    def test_every_bad_fixture(self, path, monkeypatch):
        def parsed():
            try:
                return parse(str(path))
            except StructaError as e:
                return "%s: %s" % (type(e).__name__, e)

        expected_bad = parsed()
        assert isinstance(expected_bad, str)
        monkeypatch.setattr(docs, "_total_table", total_table_reference)
        monkeypatch.setattr(docs, "_total_pairs", total_pairs_reference)
        assert parsed() == expected_bad

    @PROPERTY
    @given(near_total_tables())
    def test_tables_match_the_ordered_scan(self, table):
        left, right, rows = table
        assert_table_like_reference(rows, left, right, Z3)
        assert_pairs_like_reference([r[::2] for r in rows], left, Z3)
