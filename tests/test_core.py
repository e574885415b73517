import copy
import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structa
from structa.core import (
    FinMap,
    FinSet,
    Partition,
    _greedy_generators,
    _index_table,
    all_maps,
    associativity_witness,
    check_symbol,
    classify,
    compose,
    decompose,
    fiber,
    fiber_partition,
    fiber_union_check,
    finset,
    fold,
    generated,
    image_calculus,
    inverse,
    select,
    two_sided_unit,
)
from structa.errors import (
    BadStructure,
    CarrierMismatch,
    CompositionMismatch,
    EmptyFold,
    EmptyMember,
    NotBijective,
)
from structa.order import Poset

ABC = finset("a", "b", "c")
XYZ = finset("x", "y", "z")


def brute_compose(g, f):
    # independent pointwise oracle
    return {x: g.assign[f.assign[x]] for x in f.dom}


class TestFinSet:
    def test_canonical_order(self):
        s = FinSet(["c", "a", "b", "a"])
        assert s.elements == ("a", "b", "c")

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            FinSet(["a b"])
        with pytest.raises(ValueError):
            FinSet([""])

    def test_set_ops(self):
        assert ABC.inter(finset("b", "c", "d")) == finset("b", "c")
        assert ABC.diff(finset("a")) == finset("b", "c")
        assert finset("a").union(finset("b")) == finset("a", "b")
        assert list(finset("a", "b").subsets()) == [
            finset(),
            finset("a"),
            finset("b"),
            finset("a", "b"),
        ]

    def test_subsets_order_three_points(self):
        # by size, then in combination order; not the mask order of range(2**n)
        assert list(finset("a", "b", "c").subsets()) == [
            finset(),
            finset("a"),
            finset("b"),
            finset("c"),
            finset("a", "b"),
            finset("a", "c"),
            finset("b", "c"),
            finset("a", "b", "c"),
        ]


class TestFinMap:
    def test_totality_enforced(self):
        with pytest.raises(CarrierMismatch):
            FinMap(ABC, XYZ, {"a": "x", "b": "y"})
        with pytest.raises(CarrierMismatch):
            FinMap(ABC, XYZ, {"a": "x", "b": "y", "c": "w"})

    @pytest.mark.parametrize("bad", ["w", 1, None, ("x",), ["x"], {"x": 1}, {"x"}])
    def test_value_outside_codomain_names_it(self, bad):
        # unhashable values too: the error is CarrierMismatch, never TypeError
        with pytest.raises(CarrierMismatch) as err:
            FinMap(ABC, XYZ, {"a": "x", "b": bad, "c": "z"})
        assert str(err.value) == "value outside the codomain"
        assert err.value.witness == ("b", bad)

    def test_extensional_equality(self):
        f = FinMap(ABC, XYZ, {"a": "x", "b": "y", "c": "z"})
        g = FinMap(ABC, XYZ, {"c": "z", "a": "x", "b": "y"})
        assert f == g
        h = FinMap(ABC, finset("x", "y", "z", "w"), f.assign)
        assert f != h  # same assignment, different codomain


class TestCompose:
    def test_identity_unit(self):
        f = FinMap(ABC, XYZ, {"a": "x", "b": "y", "c": "z"})
        assert compose(f, FinMap.identity(ABC)) == f
        assert compose(FinMap.identity(XYZ), f) == f

    def test_constant_through_point(self):
        one = finset("1")
        f = FinMap(finset("a", "b"), one, {"a": "1", "b": "1"})
        g = FinMap(one, finset("z"), {"1": "z"})
        assert compose(g, f) == FinMap.constant(finset("a", "b"), finset("z"), "z")

    def test_strict_mismatch(self):
        f = FinMap(ABC, XYZ, {"a": "x", "b": "y", "c": "z"})
        with pytest.raises(CompositionMismatch):
            compose(f, f)

    def test_random_against_pointwise_oracle(self):
        rng = random.Random(7)
        carrier = finset("p", "q", "r", "s", "t")
        for _ in range(50):
            f = FinMap(carrier, carrier, {x: rng.choice(carrier.elements) for x in carrier})
            g = FinMap(carrier, carrier, {x: rng.choice(carrier.elements) for x in carrier})
            assert compose(g, f).assign == brute_compose(g, f)

    def test_associativity(self):
        carrier = finset("a", "b", "c")
        maps = list(all_maps(carrier, carrier))
        for f, g, h in itertools.islice(itertools.product(maps, repeat=3), 500):
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)


class TestClassify:
    def test_identity(self):
        c = classify(FinMap.identity(ABC))
        assert c == {"monic": True, "onto": True, "bijective": True}

    def test_constant_onto_point(self):
        f = FinMap.constant(finset("a", "b"), finset("z"), "z")
        assert classify(f) == {"monic": False, "onto": True, "bijective": False}

    def test_all_27_against_fiber_oracle(self):
        for f in all_maps(ABC, XYZ):
            fibers = [sum(1 for x in f.dom if f.assign[x] == z) for z in f.cod]
            c = classify(f)
            assert c["monic"] == all(n <= 1 for n in fibers)
            assert c["onto"] == all(n >= 1 for n in fibers)
            assert c["bijective"] == (c["monic"] and c["onto"])


class TestInverses:
    def test_swap_self_inverse(self):
        swap = FinMap(finset("a", "b"), finset("a", "b"), {"a": "b", "b": "a"})
        assert inverse(swap) == swap

    def test_error_cases(self):
        collapse = FinMap.constant(finset("a", "b"), finset("z"), "z")
        with pytest.raises(NotBijective):
            inverse(collapse)
        nonsurj = FinMap(finset("a"), finset("x", "y"), {"a": "x"})
        with pytest.raises(NotBijective):
            inverse(nonsurj)

    def test_exhaustive_bijective_iff_inverse(self):
        # carriers up to size 4
        for n in range(1, 5):
            carrier = FinSet("e%d" % i for i in range(n))
            for f in all_maps(carrier, carrier):
                if classify(f)["bijective"]:
                    g = inverse(f)
                    assert compose(g, f) == FinMap.identity(carrier)
                    assert compose(f, g) == FinMap.identity(carrier)
                else:
                    with pytest.raises(NotBijective):
                        inverse(f)


class TestImageCalculus:
    def test_monic_roundtrip(self):
        f = FinMap(finset("a", "b"), XYZ, {"a": "x", "b": "y"})
        for A in f.dom.subsets():
            assert f.preimage(f.image(A)) == A

    def test_collapse_strict_growth(self):
        f = FinMap(finset("a", "b"), finset("z"), {"a": "z", "b": "z"})
        A = finset("a")
        assert f.preimage(f.image(A)) == finset("a", "b")
        assert image_calculus(f, A, finset("z")).passed

    def test_exhaustive_small_carriers(self):
        dom = finset("a", "b")
        cod = finset("x", "y", "z")
        for f in all_maps(dom, cod):
            for A in dom.subsets():
                for B in cod.subsets():
                    fam_dom = [finset("a"), finset("a", "b")]
                    fam_cod = [B, cod.diff(B)]
                    rep = image_calculus(f, A, B, families=[fam_dom, fam_cod])
                    assert rep.passed, rep.render_text()


class TestFibers:
    def test_identity_singletons(self):
        f = FinMap.identity(ABC)
        assert all(len(fiber(f, z)) == 1 for z in ABC)

    def test_constant_single_block(self):
        f = FinMap.constant(ABC, finset("z"), "z")
        part = fiber_partition(f)
        assert part.blocks == (ABC,)

    def test_fiber_outside_cod(self):
        with pytest.raises(CarrierMismatch):
            fiber(FinMap.identity(ABC), "w")

    def test_prop_fib_all_monic_small(self):
        for f in all_maps(finset("a", "b"), XYZ):
            if not classify(f)["monic"]:
                continue
            for A in f.dom.subsets():
                for B in f.cod.subsets():
                    assert fiber_union_check(f, A, B).passed


class TestPartition:
    def test_empty_block_names_its_index(self):
        with pytest.raises(BadStructure) as e:
            Partition(finset("a", "b"), (finset("a", "b"), finset()))
        assert e.value.witness == (1,)

    def test_bad_cover_names_the_first_missing_or_repeated_element(self):
        with pytest.raises(BadStructure) as e:
            Partition(finset("a", "b", "c"), (finset("a"), finset("c")))
        assert e.value.witness == ("b",)
        with pytest.raises(BadStructure) as e:
            Partition(finset("a", "b", "c"), (finset("a", "b", "c"), finset("b")))
        assert e.value.witness == ("b",)


class TestDecompose:
    def test_bijection_trivial_blocks(self):
        swap = FinMap(finset("a", "b"), finset("a", "b"), {"a": "b", "b": "a"})
        p, bij, incl = decompose(swap)
        assert all(len(b) == 1 for b in fiber_partition(swap).blocks)
        assert incl == FinMap.identity(finset("a", "b"))

    def test_constant_single_arrow(self):
        f = FinMap.constant(ABC, finset("y", "z"), "z")
        p, bij, incl = decompose(f)
        assert len(bij.dom) == 1
        assert compose(incl, compose(bij, p)) == f

    def test_exhaustive_recomposition(self):
        for n in range(1, 5):
            dom = FinSet("d%d" % i for i in range(n))
            cod = FinSet("c%d" % i for i in range(3))
            for f in all_maps(dom, cod):
                p, bij, incl = decompose(f)
                assert classify(bij)["bijective"]
                assert compose(incl, compose(bij, p)) == f


class TestFold:
    MAX3 = {
        (a, b): max(a, b) for a in ("1", "2", "3") for b in ("1", "2", "3")
    }

    def test_singleton(self):
        assert fold(self.MAX3, ["2"]) == ("2", ("2",))

    def test_max_chain(self):
        total, partials = fold(self.MAX3, ["1", "3", "2"])
        assert total == "3"
        assert partials == ("1", "3", "3")

    def test_power_as_repeated_multiply(self):
        # Z3 as strings 0,1,2 under addition; folding [1,1,1] is 1+1+1
        add = {(str(a), str(b)): str((a + b) % 3) for a in range(3) for b in range(3)}
        total, _ = fold(add, ["1", "1", "1"])
        assert total == "0"

    def test_empty_errors(self):
        with pytest.raises(EmptyFold):
            fold(self.MAX3, [])

    def test_concat_associativity(self):
        rng = random.Random(3)
        for _ in range(100):
            s = [rng.choice("123") for _ in range(rng.randint(1, 4))]
            t = [rng.choice("123") for _ in range(rng.randint(1, 4))]
            whole, _ = fold(self.MAX3, s + t)
            left, _ = fold(self.MAX3, s)
            right, _ = fold(self.MAX3, t)
            assert whole == self.MAX3[(left, right)]


class TestSelect:
    def test_singletons_forced(self):
        fam = [finset("a"), finset("b")]
        sel = select(fam)
        assert sel.assign == {"{a}": "a", "{b}": "b"}

    def test_lexicographic_rule(self):
        sel = select([finset("a", "b"), finset("b", "c")])
        assert sel.assign == {"{a,b}": "a", "{b,c}": "b"}

    def test_empty_member(self):
        with pytest.raises(EmptyMember):
            select([finset()])

    def test_reproduces_right_inverse(self):
        # one point of each fiber of an onto map is a right inverse of it
        f = FinMap(ABC, finset("x", "y"), {"a": "x", "b": "x", "c": "y"})
        sel = select([fiber(f, z) for z in f.cod])
        r = FinMap(f.cod, f.dom, {z: sel.assign[fiber(f, z).name()] for z in f.cod})
        assert r.assign == {"x": "a", "y": "c"}
        assert compose(f, r) == FinMap.identity(f.cod)


# ---------------------------------------------------------------------------
# Derived sets are built unchecked from validated members (FinSet._ordered).
# Each must equal what the validating constructor, or the old definition,
# gives on the same inputs: the same element tuple, equality and hash.

# mixed case, digits and non-ASCII, so the canonical order is not alphabetical
ALPHABET = ["a", "b", "c", "d", "B", "Z", "10", "9", "é", "{a,b}"]
PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

symbol_sets = st.sets(st.sampled_from(ALPHABET)).map(FinSet)


def same_set(got, want):
    assert got.elements == want.elements
    assert got == want and hash(got) == hash(want)


@st.composite
def maps(draw):
    dom = draw(symbol_sets)
    cod = draw(symbol_sets.filter(lambda c: len(c) > 0 or len(dom) == 0))
    values = draw(st.lists(st.sampled_from(cod.elements or ("?",)),
                           min_size=len(dom), max_size=len(dom)))
    return FinMap(dom, cod, dict(zip(dom.elements, values)))


@st.composite
def posets(draw):
    # the reflexive-transitive closure of pairs that go up a random ranking
    carrier = draw(symbol_sets)
    ranked = draw(st.permutations(carrier.elements))
    up = draw(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))))
    le = {(x, x) for x in ranked}
    le |= {(ranked[i], ranked[j]) for i, j in up if i < j < len(ranked)}
    while True:
        more = {(x, z) for x, y in le for y2, z in le if y == y2} - le
        if not more:
            return Poset(carrier, le)
        le |= more


class TestDerivedSets:
    @PROPERTY
    @given(symbol_sets, symbol_sets)
    def test_set_algebra_matches_validating_path(self, A, B):
        same_set(A.inter(B), FinSet(x for x in A.elements if x in B.elements))
        same_set(A.diff(B), FinSet(x for x in A.elements if x not in B.elements))
        same_set(A.union(B), FinSet(A.elements + B.elements))
        same_set(A.union(list(B)), FinSet(A.elements + B.elements))
        assert (A <= B) == all(x in B.elements for x in A.elements)

    @PROPERTY
    @given(symbol_sets)
    def test_subsets_match_validating_path(self, A):
        subs = list(A.subsets())
        want = [FinSet(c) for r in range(len(A) + 1)
                for c in itertools.combinations(A.elements, r)]
        assert len(subs) == 2 ** len(A)
        for got, w in zip(subs, want):
            same_set(got, w)

    @PROPERTY
    @given(maps(), st.data())
    def test_image_preimage_match_validating_path(self, f, data):
        A = FinSet(data.draw(st.sets(st.sampled_from(f.dom.elements or ("?",)))) & set(f.dom))
        B = FinSet(data.draw(st.sets(st.sampled_from(f.cod.elements or ("?",)))) & set(f.cod))
        same_set(f.image(A), FinSet(f.assign[x] for x in A.elements))
        same_set(f.image(), FinSet(f.assign.values()))
        same_set(f.preimage(B), FinSet(x for x in f.dom.elements if f.assign[x] in B.elements))

    @PROPERTY
    @given(maps())
    def test_classify_matches_fiber_definition(self, f):
        fibers = {z: f.preimage(finset(z)) for z in f.cod}
        monic = all(len(b) <= 1 for b in fibers.values())
        onto = all(len(b) >= 1 for b in fibers.values())
        assert classify(f) == {"monic": monic, "onto": onto, "bijective": monic and onto}
        for z in f.cod:
            same_set(fiber(f, z), FinSet(x for x in f.dom.elements if f.assign[x] == z))

    @PROPERTY
    @given(posets(), st.data())
    def test_bounds_match_validating_path(self, P, data):
        A = FinSet(data.draw(st.sets(st.sampled_from(P.carrier.elements or ("?",))))
                   & set(P.carrier))
        same_set(P.upper_bounds(A),
                 FinSet(u for u in P.carrier if all(P.le(a, u) for a in A)))
        same_set(P.lower_bounds(A),
                 FinSet(l for l in P.carrier if all(P.le(l, a) for a in A)))


class TestPublicValidation:
    BAD = ["", "a b", "a\tb", "\u2003", 7, None, ("a",)]

    def test_finset_rejects_bad_symbols(self):
        for bad in self.BAD:
            with pytest.raises(ValueError, match="without whitespace"):
                FinSet(["ok", bad])

    def test_finset_rejects_bad_symbols_under_optimize(self):
        code = (
            "from structa.core import FinSet\n"
            "for bad in %r:\n"
            "    try:\n"
            "        FinSet(['ok', bad])\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit('accepted %%r' %% (bad,))\n" % (self.BAD,)
        )
        env = dict(os.environ, PYTHONPATH=str(Path(structa.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_check_symbol_agrees_with_isspace_on_every_code_point(self):
        # whitespace splits a symbol; a lone surrogate cannot be written
        disagree = []
        for cp in range(0x110000):
            ch = chr(cp)
            try:
                check_symbol("a" + ch + "b")
                accepted = True
            except ValueError:
                accepted = False
            if accepted != (not ch.isspace() and not 0xD800 <= cp <= 0xDFFF):
                disagree.append(cp)
        assert disagree == []


# ---------------------------------------------------------------------------
# Witness searches over pair-keyed tables. Each returns the first witness
# in the order of the carrier it is given; the references collect every
# witness and take the first. Most tables obey the law, and one cell may
# then be planted with an arbitrary value; the rest are random.

# position-indexed operations on a carrier of n points: each is
# associative; cyclic and max have the unit at position 0. Walking the
# positions in order, left-zero and max need every point as a generator.
LAWFUL_TABLES = {
    "cyclic": lambda i, j, n: (i + j) % n,
    "max": lambda i, j, n: max(i, j),
    "left-zero": lambda i, j, n: i,
    "constant": lambda i, j, n: 0,
}

# S3 as the permutations of three points, composed: a group that does not
# commute, on six points
S3_POINTS = list(itertools.permutations(range(3)))
S3_PRODUCT = [[S3_POINTS.index(tuple(p[q[k]] for k in range(3))) for q in S3_POINTS]
              for p in S3_POINTS]

NAMES = ["x%d" % i for i in range(8)]


def by_positions(xs, cell):
    # the pair-keyed table on xs whose product at positions (i, j) is cell(i, j)
    return {(a, b): xs[cell(i, j)] for i, a in enumerate(xs) for j, b in enumerate(xs)}


@st.composite
def planted_tables(draw):
    # a lawful table with one cell planted or not, or a random closed magma
    kind = draw(st.sampled_from(sorted(LAWFUL_TABLES) + ["magma", "s3"]))
    n = 6 if kind == "s3" else draw(st.integers(1, 8))
    xs = tuple(draw(st.permutations(NAMES[:n])))
    if kind == "magma":
        cells = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
        return xs, by_positions(xs, lambda i, j: cells[i * n + j])
    if kind == "s3":
        op = by_positions(xs, lambda i, j: S3_PRODUCT[i][j])
    else:
        op = by_positions(xs, lambda i, j: LAWFUL_TABLES[kind](i, j, n))
    if draw(st.booleans()):
        op[(draw(st.sampled_from(xs)), draw(st.sampled_from(xs)))] = draw(st.sampled_from(xs))
    return xs, op


def first_non_associative(op, xs):
    bad = [t for t in itertools.product(xs, repeat=3)
           if op[(op[(t[0], t[1])], t[2])] != op[(t[0], op[(t[1], t[2])])]]
    return bad[0] if bad else None


def first_unit(op, xs):
    left = {e for e in xs if all(op[(e, a)] == a for a in xs)}
    right = {e for e in xs if all(op[(a, e)] == a for a in xs)}
    units = [e for e in xs if e in left & right]
    return units[0] if units else None


class TestTableWitnesses:
    @PROPERTY
    @given(planted_tables())
    def test_associativity_witness_is_the_first(self, case):
        xs, op = case
        assert associativity_witness(op, xs) == first_non_associative(op, xs)

    @PROPERTY
    @given(planted_tables())
    def test_two_sided_unit_is_the_first(self, case):
        xs, op = case
        assert two_sided_unit(op, xs) == first_unit(op, xs)

    def test_lawful_tables_pass_and_s3_does_not_commute(self):
        for n in range(1, 9):
            xs = NAMES[:n]
            for law in LAWFUL_TABLES.values():
                op = by_positions(xs, lambda i, j: law(i, j, n))
                assert associativity_witness(op, xs) is None
        xs = NAMES[:6]
        op = by_positions(xs, lambda i, j: S3_PRODUCT[i][j])
        assert associativity_witness(op, xs) is None
        assert any(op[(a, b)] != op[(b, a)] for a in xs for b in xs)

    def test_a_failure_at_the_last_generator_falls_back(self):
        # the greedy generators are a, b and c; (xa)y = x(ay) and
        # (xb)y = x(by) hold for all x and y, and only c breaks the law
        xs = ("a", "b", "c")
        op = table_of(xs, "aac bbc ccb")
        assert [xs[g] for g in _greedy_generators(_index_table(op, xs))] == ["a", "b", "c"]
        assert associativity_witness(op, xs) == first_non_associative(op, xs) == ("a", "c", "c")

    def test_a_failing_generator_gives_the_scan_witness(self):
        # a alone generates; its first failure is at x = b, but the
        # first failing triple in the order of xs is (a, b, b)
        xs = ("a", "b", "c")
        op = table_of(xs, "bca cab aac")
        assert [xs[g] for g in _greedy_generators(_index_table(op, xs))] == ["a"]
        assert op[(op[("b", "a")], "b")] != op[("b", op[("a", "b")])]
        assert associativity_witness(op, xs) == first_non_associative(op, xs) == ("a", "b", "b")

    def test_open_or_partial_tables_get_the_scan(self):
        # a missing cell, or a value outside xs, is an undefined product,
        # and a triple counts only when ab, bc, (ab)c and a(bc) are defined
        xs = ("a", "b")
        escape = table_of(xs, "ab bz")
        assert _index_table(escape, xs) == [[0, 1], [1, None]]
        assert associativity_witness(escape, xs) is None
        # the scan meets (a, a, a) before the cell that leaves the carrier
        op = table_of(xs, "ba bz")
        assert associativity_witness(op, xs) == ("a", "a", "a")
        partial = table_of(xs, "ab ba")
        del partial[("b", "b")]
        assert _index_table(partial, xs) == [[0, 1], [1, None]]
        assert associativity_witness(partial, xs) is None
        # aa is undefined, so every triple before (b, a, b) meets it, and
        # (b, a, b) is the first with all four products defined
        skip = table_of(xs, "zb aa")
        assert associativity_witness(skip, xs) == ("b", "a", "b")
        assert associativity_witness({}, ()) is None

    def test_an_undefined_cell_never_reaches_the_generators(self, monkeypatch):
        seen = []
        greedy = _greedy_generators
        monkeypatch.setattr(
            "structa.core._greedy_generators", lambda T: seen.append(T) or greedy(T))
        xs = NAMES[:6]
        s3 = by_positions(xs, lambda i, j: S3_PRODUCT[i][j])
        assert associativity_witness(s3, xs) is None
        assert len(seen) == 1
        # the category a → b: each pair that does not compose has no cell
        chain = {("1a", "1a"): "1a", ("1b", "1b"): "1b", ("f", "1a"): "f", ("1b", "f"): "f"}
        escape = table_of(("a", "b"), "ab bz")
        del s3[(xs[1], xs[2])]
        for op, names in ((chain, ("1a", "1b", "f")), (escape, ("a", "b")), (s3, xs)):
            assert associativity_witness(op, names) is None
        assert len(seen) == 1


def table_of(xs, rows):
    # "ab ba": row x lists x·y for y in the order of xs
    return {(x, y): v for x, row in zip(xs, rows.split()) for y, v in zip(xs, row)}


class TestGreedyGenerators:
    @PROPERTY
    @given(planted_tables())
    def test_picks_generate_and_none_is_redundant(self, case):
        xs, op = case
        product = lambda a, b: op[(a, b)]
        picks = [xs[g] for g in _greedy_generators(_index_table(op, xs))]
        assert generated(picks, binary=[product]) == set(xs)
        for k, x in enumerate(picks):
            assert x not in generated(picks[:k], binary=[product])
        assert picks == [x for x in xs if x in picks]

    def test_left_zero_and_max_pick_every_element(self):
        xs = tuple(NAMES)
        for law in (LAWFUL_TABLES["left-zero"], LAWFUL_TABLES["max"]):
            op = by_positions(xs, lambda i, j: law(i, j, 8))
            assert _greedy_generators(_index_table(op, xs)) == list(range(8))

    def test_groups_need_few_generators(self):
        xs = NAMES[:6]
        op = by_positions(xs, lambda i, j: S3_PRODUCT[i][j])
        # the unit comes first and generates nothing else
        assert len(_greedy_generators(_index_table(op, xs))) == 3
        cyclic = by_positions(xs, lambda i, j: (i + j) % 6)
        assert _greedy_generators(_index_table(cyclic, xs)) == [0, 1]


# ---------------------------------------------------------------------------
# generated: the worklist closure against the naive loop that applies every
# operation to every member until a round adds nothing.


def naive_closure(seed, unary=(), binary=()):
    out = set(seed)
    while True:
        new = out | {f(x) for f in unary for x in out}
        new |= {op(x, y) for op in binary for x in out for y in out}
        if new == out:
            return out
        out = new


def _symmetric_group(n):
    from structa.group import bijection_group

    return bijection_group(FinSet(str(i) for i in range(1, n + 1)))[0]


SYMMETRIC = {3: _symmetric_group(3), 4: _symmetric_group(4)}


def product_of(G):
    return lambda x, y: G.op[(x, y)]


@st.composite
def symmetric_seeds(draw):
    G = SYMMETRIC[draw(st.sampled_from([3, 4]))]
    return G, draw(st.lists(st.sampled_from(G.carrier.elements), max_size=3))


@st.composite
def magmas(draw):
    # a random table over 0..n-1, as a rule not commutative, with a
    # unary map, and a seed
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    unary = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    seed = draw(st.sets(st.integers(0, n - 1), max_size=3))
    return (lambda x, y: cells[x * n + y]), unary.__getitem__, seed


class TestGenerated:
    @PROPERTY
    @given(symmetric_seeds())
    def test_matches_the_naive_closure_in_symmetric_groups(self, case):
        G, seed = case
        product = product_of(G)
        assert generated(seed, binary=[product]) == naive_closure(seed, binary=[product])

    @PROPERTY
    @given(magmas())
    def test_matches_the_naive_closure_on_random_tables(self, case):
        op, f, seed = case
        assert generated(seed, binary=[op]) == naive_closure(seed, binary=[op])
        assert generated(seed, [f]) == naive_closure(seed, [f])
        assert generated(seed, [f], [op]) == naive_closure(seed, [f], [op])

    def test_s3_from_two_transpositions(self):
        G = SYMMETRIC[3]
        product = product_of(G)
        swaps = [p for p in G.carrier if G.op[(p, p)] == G.unit and p != G.unit]
        assert generated(swaps[:2], binary=[product]) == set(G.carrier)
        assert generated(swaps[:1], binary=[product]) == {swaps[0], G.unit}

    def test_empty_seed_and_no_operations(self):
        assert generated([]) == set()
        assert generated([1, 2]) == {1, 2}
        assert generated([], [lambda x: x + 1], [max]) == set()


# ---------------------------------------------------------------------------
# copy and pickle: the immutable classes rebuild through their constructors


def immutable_values():
    """One value of each ``Frozen`` class, the value types with their lazy
    caches built (``bits``, ``point_masks``, the poset's up-set masks),
    then the records."""
    from structa.category import from_poset, product_cat
    from structa.group import cyclic_group
    from structa.numbers import Rat
    from structa.order import chain_poset
    from structa.top import discrete_closure

    ab = finset("a", "b")
    ab.bits()
    f = FinMap(ab, finset("x", "y"), {"a": "y", "b": "y"})
    f.point_masks()
    P = chain_poset(["a", "b", "c"])
    P.is_chain(["a", "c"])
    C2 = from_poset(chain_poset(["a", "b"]))
    return [ab, f, P, cyclic_group(3), discrete_closure(ab), product_cat(C2, C2), Rat(-1, 2),
            *record_values()]


def record_values():
    """One value of each record class, each built by the library where it
    builds one."""
    from structa.category import from_poset, hom_functors, identity_functor, identity_nat
    from structa.docs import parse_text
    from structa.group import cyclic_group, cyclic_subgroup, hom_check, regular_action
    from structa.numbers import Rat, build_discrete, rat_canon
    from structa.order import TotalChain, chain_poset, lattice_from_poset
    from structa.settools import Family
    from structa.top import check_topology

    ab = finset("a", "b")
    P = chain_poset(["a", "b", "c"])
    C2 = from_poset(chain_poset(["a", "b"]))
    Z3 = cyclic_group(3)
    return [
        Partition(ab, (finset("a"), finset("b"))),
        TotalChain(P, ("a", "c")),
        lattice_from_poset(P),
        build_discrete(1),
        rat_canon(Rat(2, -4)),
        Family(ab, [finset("a"), ab]),
        check_topology(ab, Family(ab, [finset(), ab])),
        cyclic_subgroup(Z3, "g1"),
        hom_check(Z3, Z3, FinMap.identity(Z3.carrier)),
        regular_action(cyclic_group(2)),
        identity_functor(C2),
        hom_functors(C2, "a")[0],
        identity_nat(identity_functor(C2)),
        parse_text('{"kind": "set", "elements": ["a", "b"]}'),
    ]


RECORD_CLASSES = [
    "Partition", "TotalChain", "LatticeTables", "IntWindow", "RatClass", "Family", "Topology",
    "Subgroup", "GroupHom", "GroupAction", "FunctorData", "SetRepr", "NatTransData",
    "StructureDoc",
]
# the records with a dict field, unhashable as their frozen dataclasses were
UNHASHABLE = {"LatticeTables", "GroupAction", "FunctorData", "SetRepr", "NatTransData",
              "StructureDoc"}


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("value", immutable_values(), ids=lambda v: type(v).__name__)
def test_copy_and_pickle_round_trips(value, how):
    private = [name for name in type(value).__slots__ if name.startswith("_")]
    assert all(hasattr(value, name) for name in private)
    out = ROUND_TRIPS[how](value)
    assert type(out) is type(value)
    assert out == value
    if type(value).__name__ in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(out)
    else:
        assert hash(out) == hash(value)
    assert all(getattr(out, name) == getattr(value, name)
               for name in type(value).__slots__ if not name.startswith("_"))
    if isinstance(value, Partition):
        # the block index is built by the constructor, not on first use
        assert private == ["_index"]
        assert out._index == value._index and out._index is not value._index
    else:
        # the lazy caches are rebuilt on use, not carried
        assert not any(hasattr(out, name) for name in private)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(out, type(value).__slots__[0], None)
    for name in type(value)._fields:
        with pytest.raises(AttributeError, match="^%s is immutable$" % type(value).__name__):
            delattr(out, name)
        assert getattr(out, name) == getattr(value, name)


def test_record_values_cover_every_record_class():
    from structa.core import Frozen

    values = record_values()
    assert [type(v).__name__ for v in values] == RECORD_CLASSES
    assert all(isinstance(v, Frozen) and type(v).__slots__[:len(type(v)._fields)] == type(v)._fields
               for v in values)
    assert all(not hasattr(v, "__dict__") for v in values)


def dataclass_twin(value):
    """The same field values in a frozen dataclass of the same name."""
    cls = type(value)
    twin = dataclasses.make_dataclass(cls.__qualname__, list(cls._fields), frozen=True)
    return twin(*(getattr(value, f) for f in cls._fields))


def second_values():
    """A second value of some record classes, unequal to the first."""
    from structa.group import cyclic_group, cyclic_subgroup
    from structa.numbers import Rat, rat_canon
    from structa.settools import Family

    ab = finset("a", "b")
    return [Partition(ab, (ab,)), rat_canon(Rat(1, 3)), Family(ab, [ab]),
            cyclic_subgroup(cyclic_group(3), "g0")]


def test_records_have_the_dataclass_repr_equality_and_hash():
    values = record_values() + second_values()
    twins = [dataclass_twin(v) for v in values]
    for v, t in zip(values, twins):
        assert repr(v) == repr(t)
        if type(v).__name__ in UNHASHABLE:
            for x in (v, t):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(x)
        else:
            assert hash(v) == hash(t)
    for v, t in zip(values, twins):
        for w, u in zip(values, twins):
            assert (v == w) == (t == u) == (v is w)
            assert (v != w) == (t != u)


def test_records_equal_no_tuple_and_no_record_of_another_class():
    from structa.core import Frozen

    for v in record_values():
        fields = tuple(getattr(v, f) for f in type(v)._fields)
        assert v != fields and v.__eq__(fields) is NotImplemented
        # a class with the same fields and values is still another class
        other = type("Other", (Frozen,), {"__slots__": type(v)._fields, "_fields": type(v)._fields})
        assert v != other(*fields) and v.__eq__(other(*fields)) is NotImplemented
        assert v != dataclass_twin(v)


def test_record_constructor_takes_its_fields_in_order():
    from structa.group import GroupHom, cyclic_group

    Z2 = cyclic_group(2)
    f = FinMap.identity(Z2.carrier)
    h = GroupHom(Z2, Z2, f)
    assert (h.src, h.tgt, h.map) == (Z2, Z2, f)
    for args in [(Z2, Z2), (Z2, Z2, f, f)]:
        with pytest.raises(TypeError, match="GroupHom takes 3 arguments, got %d" % len(args)):
            GroupHom(*args)
    with pytest.raises(AttributeError, match="^GroupHom is immutable$"):
        h.map = f
    with pytest.raises(AttributeError):
        h.extra = 1


def test_partition_checks_its_blocks_in_the_constructor():
    ab = finset("a", "b")
    with pytest.raises(BadStructure, match="disjoint and cover") as e:
        Partition(ab, (finset("a"),))
    assert e.value.witness == ("b",)
    with pytest.raises(BadStructure, match="nonempty"):
        Partition(ab, (finset(), ab))
    with pytest.raises(CarrierMismatch):
        Partition(ab, (finset("a", "c"),))
    p = Partition(ab, (finset("a"), finset("b")))
    assert p.block_of("b") == finset("b")


def test_law_reports_never_share_a_checks_list():
    from structa.report import LawReport

    r, s = LawReport("r"), LawReport("s")
    assert r.checks is not s.checks
    r.add("law", "statement", True)
    assert s.checks == [] and len(r.checks) == 1
    given_checks = []
    assert LawReport("t", given_checks).checks is given_checks
    assert LawReport("r", list(r.checks)) == r != LawReport("s", list(r.checks))
    assert repr(s) == "LawReport(suite='s', checks=[])"
    with pytest.raises(TypeError, match="unhashable"):
        hash(s)
