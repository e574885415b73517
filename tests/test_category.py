"""Category module tests.

Oracles: monotone-map counts for poset-category functors, group
homomorphism counts for one-object categories, pointwise-order counting
for natural transformations into thin categories, modular-arithmetic
permutations for Cayley, brute-force square enumeration for arrow
categories, exhaustive inverse search for invertible arrows, and the
pairwise comparison for observational arrow equality.
"""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structa import category, cli, docs, group, suites
from structa.category import (
    FinCat,
    FunctorData,
    NatTransData,
    SetRepr,
    _composite,
    _hcompose_components,
    arrow_category,
    arrow_equality_classes,
    bridge_category,
    bridge_check,
    check_category,
    check_functor,
    check_nat,
    check_set_functor,
    compose_functors,
    discrete,
    enumerate_functors,
    enumerate_nat_trans,
    from_group,
    from_poset,
    functor_category,
    hom_functors,
    hom_set,
    identity_functor,
    identity_nat,
    interchange_check,
    opposite_cat,
    product_cat,
    vcompose,
    yoneda,
    yoneda_embedding,
)
from structa.core import (
    FinMap,
    FinSet,
    all_maps,
    associativity_witness,
    classify,
    compose,
    finset,
    inverse,
)
from structa.errors import (
    BadStructure,
    CarrierMismatch,
    CompositionMismatch,
    EndpointError,
    Mismatch,
)
from structa.group import cyclic_group, enumerate_groups, enumerate_homs, symmetric_group_3
from structa.order import (
    Poset,
    chain_poset,
    diamond_poset,
    enumerate_posets,
    powerset_poset,
)
from structa.report import LawReport


def chain_cat(labels):
    return from_poset(chain_poset(labels))


def monotone_maps(P, Q):
    """Every map of carriers P → Q that preserves the order."""
    for f in all_maps(P.carrier, Q.carrier):
        if all(Q.le(f(x), f(y)) for (x, y) in P.pairs):
            yield f


def arrow_classify(C, f) -> dict:
    """Invertibility and cancellability flags of the arrow f, by
    exhaustive search of its hom sets."""
    if f not in C.src:
        raise CarrierMismatch("unknown arrow", witness=(f,))
    a, b = C.src[f], C.tgt[f]
    left_inv = [l for l in C.hom(b, a) if C.comp.get((l, f)) == C.identity[a]]
    right_inv = [r for r in C.hom(b, a) if C.comp.get((f, r)) == C.identity[b]]
    two_sided = [g for g in left_inv if g in right_inv]
    left_canc = all(
        C.comp[(f, g)] != C.comp[(f, h)]
        for x in C.objects
        for g, h in itertools.combinations(C.hom(x, a), 2)
    )
    right_canc = all(
        C.comp[(g, f)] != C.comp[(h, f)]
        for y in C.objects
        for g, h in itertools.combinations(C.hom(b, y), 2)
    )
    return {
        "iso": bool(two_sided),
        "left_cancellable": left_canc,
        "right_cancellable": right_canc,
        "left_invertible": bool(left_inv),
        "right_invertible": bool(right_inv),
    }


def assert_isomorphism(F):
    """F is a functor that is bijective on objects and on arrows, so its
    inverse is a functor too: the two categories are isomorphic."""
    assert check_functor(F).passed
    assert sorted(F.on_obj.values()) == sorted(F.tgt.objects)
    assert sorted(F.on_arr.values()) == sorted(F.tgt.arrow_names)


def product_pairs(C1, C2):
    """(objects, arrows) of ``product_cat(C1, C2)``: each name mapped to
    its pair of components."""
    objs = {"(%s,%s)" % (x, y): (x, y) for x in C1.objects for y in C2.objects}
    arrs = {"(%s,%s)" % (f, g): (f, g) for f in C1.arrow_names for g in C2.arrow_names}
    return objs, arrs


def common_range_product(F, G):
    """F × G : C1 × C2 → D × D for functors F, G into a common D, a
    functor on a product whose target is a category."""
    src = product_cat(F.src, G.src)
    pairs, arrs = product_pairs(F.src, G.src)
    return FunctorData(
        src,
        product_cat(F.tgt, G.tgt),
        {n: "(%s,%s)" % (F.on_obj[pairs[n][0]], G.on_obj[pairs[n][1]]) for n in src.objects},
        {n: "(%s,%s)" % (F.on_arr[arrs[n][0]], G.on_arr[arrs[n][1]]) for n in src.arrow_names},
    )


def hom_bifunctor(C):
    """Hom on C^op × C, from the one hom formula ``category._hom``:
    (a, b) ↦ {a→b}, (f, g) ↦ Hom(f, g) = (g ∘ − ∘ f). In C^op × C,
    (h, i)∘(f, g) is (f∘h, i∘g), so its functor laws are the bifunctor
    laws. Unchecked, so that a test can plant a defect in it."""
    Cop = opposite_cat(C)
    objs, arrs = product_pairs(Cop, C)
    return SetRepr(
        product_cat(Cop, C),
        {n: hom_set(C, *objs[n]) for n in objs},
        {n: category._hom(C, *arrs[n]) for n in arrs},
    )


def dagger(C, f):
    """f†: L_c → L_a for f: a→c, with components Hom(f, 1_x) = (−∘f):
    the slice of the Hom bifunctor at f, and the arrow that the Yoneda
    embedding assigns to f. Unchecked."""
    a, c = C.ends(f)
    return NatTransData(
        hom_functors(C, c)[0],
        hom_functors(C, a)[0],
        {x: category._hom(C, f, C.identity[x]) for x in C.objects},
    )


C2 = chain_cat(["a", "b"])
C3 = chain_cat(["a", "b", "c"])
Z2 = from_group(cyclic_group(2))
Z3 = from_group(cyclic_group(3))


def two_object_groupoid():
    arrows = [("1a", "a", "a"), ("1b", "b", "b"), ("u", "a", "b"), ("v", "b", "a")]
    comp = {
        ("1a", "1a"): "1a",
        ("1b", "1b"): "1b",
        ("u", "1a"): "u",
        ("1b", "u"): "u",
        ("v", "1b"): "v",
        ("1a", "v"): "v",
        ("v", "u"): "1a",
        ("u", "v"): "1b",
    }
    C = FinCat(finset("a", "b"), arrows, {"a": "1a", "b": "1b"}, comp)
    assert check_category(C).passed
    return C


def poset_functor(P, Q, assign):
    """The functor induced by a monotone object map between posets."""
    CP, CQ = from_poset(P), from_poset(Q)
    on_arr = {}
    for n in CP.arrow_names:
        x, y = CP.src[n], CP.tgt[n]
        on_arr[n] = "(%s<=%s)" % (assign[x], assign[y])
    F = FunctorData(CP, CQ, dict(assign), on_arr)
    check_functor(F).require()
    return F


class TestCheckCategory:
    def test_one_object_identity(self):
        C = discrete(finset("x"))
        assert check_category(C).passed

    def test_diamond(self):
        assert check_category(from_poset(diamond_poset())).passed

    def test_broken_associativity_witnessed(self):
        G = cyclic_group(4)
        comp = {(g, f): G.op[(g, f)] for g in G.carrier for f in G.carrier}
        comp[("g1", "g1")] = "g1"
        C = FinCat(
            finset("pt"),
            [(x, "pt", "pt") for x in G.carrier],
            {"pt": "g0"},
            comp,
        )
        rep = check_category(C)
        assert not rep["cat-assoc"].passed
        assert len(rep["cat-assoc"].witness) == 3

    def test_missing_composition_cell(self):
        C = FinCat(
            finset("x"),
            [("1x", "x", "x"), ("f", "x", "x")],
            {"x": "1x"},
            {("1x", "1x"): "1x", ("f", "1x"): "f", ("1x", "f"): "f"},
        )
        rep = check_category(C)
        assert not rep["cat-comp-total"].passed

    def test_left_zero_semigroup_fails_only_the_unit_law(self):
        # a left-zero semigroup: associative but without a unit
        carrier = ["s", "t"]
        comp = {(g, f): g for g in carrier for f in carrier}
        C = FinCat(finset("x"), [(a, "x", "x") for a in carrier], {}, comp)
        rep = check_category(C)
        assert [c.law for c in rep.failures] == ["cat-unit"]
        assert rep["cat-assoc"].passed

    def test_observational_warning_on_unitless_parallel_arrows(self):
        C = FinCat(
            finset("x", "y"), [("f", "x", "y"), ("g", "x", "y")], {}, {}
        )
        classes = arrow_equality_classes(C)
        assert classes == (("f", "g"),)
        rep = check_category(C)
        assert rep["cat-discernible"].passed
        assert rep["cat-discernible"].statement.startswith("warning")

    def test_shipped_categories_are_discernible(self):
        for C in (C2, C3, Z2, Z3, discrete(finset("a", "b"))):
            assert all(len(cl) == 1 for cl in arrow_equality_classes(C))

    def test_cells_for_non_composable_pairs_are_scanned(self):
        # f: a→b with f∘f = 1b and f∘1b = 1a tabulated although neither pair
        # composes; cat-comp-total fails, and cat-assoc reads those cells
        # as products: (f∘f)∘f = 1b∘f = f but f∘(f∘f) = f∘1b = 1a
        comp = {**C2.comp, ("(a<=b)", "(a<=b)"): "(b<=b)", ("(a<=b)", "(b<=b)"): "(a<=a)"}
        C = FinCat(C2.objects, C2.arrows, C2.identity, comp)
        rep = check_category(C)
        assert not rep["cat-comp-total"].passed
        assert rep["cat-assoc"].witness == ("(a<=b)", "(a<=b)", "(a<=b)")
        assert category_scan(C.comp, C.arrow_names, composable_in(C)) is None


# ---------------------------------------------------------------------------
# cat-assoc reads core.associativity_witness. The reference is the scan that
# check_category ran before: the first (h, g, f) in name order whose pairs
# compose and whose two sides are tabulated and differ. For a table whose
# cells are the composable pairs, the kernel gives the same witness.

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

POSET_CATS = [
    from_poset(P) for n in range(4) for P in enumerate_posets(finset(*"abc"[:n]))
]
GROUP_CATS = [from_group(G) for n in range(1, 5) for G in enumerate_groups(n)]


def composable_in(C):
    return lambda g, f: C.tgt[f] == C.src[g]


def category_scan(comp, names, composable):
    return next(
        (
            (h, g, f)
            for h in names
            for g in names
            for f in names
            if composable(g, f)
            and composable(h, g)
            and (h, comp.get((g, f))) in comp
            and (comp.get((h, g)), f) in comp
            and comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]
        ),
        None,
    )


@st.composite
def partial_tables(draw):
    # a poset or group category with one cell replaced, or a random table
    # whose cells are missing, leave the names, or stay among them. A cell
    # that leaves the names is undefined, so the reference scans the table
    # without it.
    kind = draw(st.sampled_from(["poset", "group", "random"]))
    if kind == "random":
        names = tuple("pqrst"[: draw(st.integers(0, 5))])
        comp = {}
        for key in itertools.product(names, repeat=2):
            v = draw(st.sampled_from((None, "z") + names))
            if v is not None:
                comp[key] = v
        defined = {k: v for k, v in comp.items() if v in names}
        return None, comp, names, defined, lambda g, f: (g, f) in defined
    C = draw(st.sampled_from(POSET_CATS if kind == "poset" else GROUP_CATS))
    comp = dict(C.comp)
    if comp:
        comp[draw(st.sampled_from(sorted(comp)))] = draw(st.sampled_from(C.arrow_names))
    C = FinCat(C.objects, C.arrows, C.identity, comp)
    return C, C.comp, C.arrow_names, C.comp, composable_in(C)


def pairwise_classes(C):
    """The observational classes by comparing each arrow with the first
    member of every class so far, as ``arrow_equality_classes`` did
    before it grouped arrows by signature."""

    def same(f, g):
        if C.src[f] != C.src[g] or C.tgt[f] != C.tgt[g]:
            return False
        for h in C.arrows_into(C.src[f]):
            if C.comp.get((f, h)) != C.comp.get((g, h)):
                return False
        for i in C.arrows_from(C.tgt[f]):
            if C.comp.get((i, f)) != C.comp.get((i, g)):
                return False
        return True

    classes = []
    for n in C.arrow_names:
        for cl in classes:
            if same(cl[0], n):
                cl.append(n)
                break
        else:
            classes.append([n])
    return tuple(tuple(cl) for cl in classes)


@st.composite
def observational_cases(draw):
    # a poset or group category, or a random one-object table whose arrow
    # d copies the row and the column of an arrow a, so that d and a fall
    # into one class; None when nothing is planted
    kind = draw(st.sampled_from(["poset", "group", "random"]))
    if kind != "random":
        return draw(st.sampled_from(POSET_CATS if kind == "poset" else GROUP_CATS)), None
    names = tuple("pqrst"[: draw(st.integers(1, 5))])
    comp = {k: draw(st.sampled_from(names)) for k in itertools.product(names, repeat=2)}
    planted = None
    if len(names) > 1 and draw(st.booleans()):
        a, d = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        for x in names:
            if x != d:
                comp[(x, d)] = comp[(x, a)]
        for y in names:
            comp[(d, y)] = comp[(a, y)]
        planted = (a, d)
    C = FinCat(finset("x"), [(n, "x", "x") for n in names], {"x": names[0]}, comp)
    return C, planted


class TestObservationalEquality:
    @PROPERTY
    @given(observational_cases())
    def test_signature_classes_match_the_pairwise_comparison(self, case):
        C, planted = case
        classes = arrow_equality_classes(C)
        assert classes == pairwise_classes(C)
        if planted is not None:
            a, d = planted
            assert any(a in cl and d in cl for cl in classes)


class TestOneAssociativityKernel:
    @PROPERTY
    @given(partial_tables())
    def test_partial_tables_match_the_category_scan(self, case):
        C, comp, names, defined, composable = case
        expected = category_scan(defined, names, composable)
        assert associativity_witness(comp, names) == expected
        if C is not None:
            rep = check_category(C)
            assert rep["cat-assoc"].passed == (expected is None)
            assert rep["cat-assoc"].witness == expected


# cat-comp-total and cat-endpoints read each composable pair and each
# table key once; the reference is the sorted scan over all m² pairs of
# arrow names that check_category ran before.


def comp_scan(C):
    """(cat-comp-total witness, cat-endpoints witness) by the sorted scans
    over all composable pairs."""
    names = C.arrow_names
    composable = {(g, f) for g in names for f in names if C.tgt[f] == C.src[g]}
    missing = sorted(p for p in composable if p not in C.comp)
    extra = sorted(p for p in C.comp if p not in composable)
    total = (missing + extra)[0] if (missing or extra) else None
    ends = next(
        (
            (g, f)
            for (g, f) in sorted(composable & set(C.comp))
            if C.src[C.comp[(g, f)]] != C.src[f] or C.tgt[C.comp[(g, f)]] != C.tgt[g]
        ),
        None,
    )
    return total, ends


@st.composite
def comp_tables(draw):
    # a poset or group category, or arrows with random ends among two
    # objects and a random value on each composable pair; then a few cells
    # dropped, added on any pair, or given any arrow as value
    kind = draw(st.sampled_from(["poset", "group", "random"]))
    if kind == "random":
        objects = finset("x", "y")
        names = "pqrs"[: draw(st.integers(0, 4))]
        arrows = [(n, draw(st.sampled_from("xy")), draw(st.sampled_from("xy"))) for n in names]
        ends = {n: (s, t) for n, s, t in arrows}
        comp = {(g, f): draw(st.sampled_from(names)) for g in names for f in names
                if ends[f][1] == ends[g][0]}
        C = FinCat(objects, arrows, {}, comp)
    else:
        C = draw(st.sampled_from(POSET_CATS if kind == "poset" else GROUP_CATS))
    names = C.arrow_names
    comp = dict(C.comp)
    if not names:
        return C
    name = st.sampled_from(names)
    for key in draw(st.lists(st.tuples(name, name), max_size=2)):
        comp.pop(key, None)
    for key, value in draw(st.lists(st.tuples(st.tuples(name, name), name), max_size=2)):
        comp[key] = value
    return FinCat(C.objects, C.arrows, C.identity, comp)


class TestCompositionTableScan:
    @PROPERTY
    @given(comp_tables())
    def test_witnesses_match_the_pair_scans(self, C):
        total, ends = comp_scan(C)
        rep = check_category(C)
        assert (rep["cat-comp-total"].passed, rep["cat-comp-total"].witness) == (
            total is None, total)
        assert (rep["cat-endpoints"].passed, rep["cat-endpoints"].witness) == (
            ends is None, ends)


class TestConstructors:
    def test_chain_two_has_three_arrows(self):
        assert len(C2.arrows) == 3

    def test_z2_one_object_two_invertible_arrows(self):
        assert len(Z2.objects) == 1
        assert len(Z2.arrows) == 2
        assert all(arrow_classify(Z2, f)["iso"] for f in Z2.arrow_names)

    def test_discrete_identities_only(self):
        D = discrete(finset("a", "b"))
        assert len(D.arrows) == 2
        assert set(D.identity.values()) == set(D.arrow_names)

    def test_from_monoid_table(self):
        # the two-element meet monoid {1, 0} with 1 as unit
        table = {
            ("one", "one"): "one",
            ("one", "zero"): "zero",
            ("zero", "one"): "zero",
            ("zero", "zero"): "zero",
        }
        C = from_group(table, finset("one", "zero"))
        assert check_category(C).passed

    def test_unitless_table_rejected(self):
        table = {(g, f): g for g in ("s", "t") for f in ("s", "t")}
        with pytest.raises(BadStructure):
            from_group(table, finset("s", "t"))


class TestArrowClassify:
    def test_identity_all_flags(self):
        for C in (C2, Z3):
            for x in C.objects:
                flags = arrow_classify(C, C.identity[x])
                assert all(flags.values())

    def test_poset_arrow_cancellable_not_invertible(self):
        f = "(a<=b)"
        flags = arrow_classify(C2, f)
        # thin homs make every arrow monic and epic but the chain has
        # no arrow back
        assert flags["left_cancellable"] and flags["right_cancellable"]
        assert not flags["left_invertible"] and not flags["right_invertible"]
        assert not flags["iso"]

    def test_group_arrows_all_iso(self):
        assert all(arrow_classify(Z3, f)["iso"] for f in Z3.arrow_names)

    def test_unknown_arrow(self):
        with pytest.raises(CarrierMismatch):
            arrow_classify(C2, "nope")


class TestFunctors:
    def test_functor_counts_match_monotone_maps(self):
        # independent oracle: poset-category functors are exactly the
        # monotone maps
        for P, Q in [
            (chain_poset(["a", "b"]), chain_poset(["a", "b"])),
            (chain_poset(["a", "b"]), chain_poset(["a", "b", "c"])),
            (diamond_poset(), chain_poset(["a", "b"])),
        ]:
            expected = len(list(monotone_maps(P, Q)))
            got = len(enumerate_functors(from_poset(P), from_poset(Q)))
            assert got == expected

    def test_functor_counts_match_group_homs(self):
        for m, n in [(2, 2), (4, 2), (2, 3), (3, 3)]:
            G, H = cyclic_group(m), cyclic_group(n)
            expected = len(list(enumerate_homs(G, H)))
            got = len(enumerate_functors(from_group(G), from_group(H)))
            assert got == expected

    def test_composition_is_functorial(self):
        F = poset_functor(
            chain_poset(["a", "b"]), chain_poset(["a", "b", "c"]), {"a": "a", "b": "c"}
        )
        G = poset_functor(
            chain_poset(["a", "b", "c"]), chain_poset(["a", "b"]), {"a": "a", "b": "a", "c": "b"}
        )
        GF = compose_functors(G, F)
        assert check_functor(GF).passed
        assert GF.on_obj == {"a": "a", "b": "b"}

    def test_compose_mismatch(self):
        with pytest.raises(Mismatch):
            compose_functors(identity_functor(C2), identity_functor(C3))


class TestOpposite:
    def test_discrete_self_opposite(self):
        D = discrete(finset("a", "b"))
        assert opposite_cat(D) == D

    def test_chain_opposite_is_reversed_chain(self):
        reversed_chain = from_poset(chain_poset(["b", "a"]))
        flip = {n: "(%s<=%s)" % (C2.tgt[n], C2.src[n]) for n in C2.arrow_names}
        F = FunctorData(opposite_cat(C2), reversed_chain, {x: x for x in C2.objects}, flip)
        assert_isomorphism(F)

    def test_op_is_involution(self):
        for C in (C2, C3, Z3, from_poset(diamond_poset())):
            assert opposite_cat(opposite_cat(C)) == C

    def test_op_universe(self):
        # the opposite of a category is a category, and a functor read
        # between the opposites, with the same components, is a functor
        Z4 = from_group(cyclic_group(4))
        for C in (C2, C3, Z2, Z3, Z4):
            assert check_category(opposite_cat(C)).passed, C
        mod2 = FunctorData(
            Z4, Z2, {"pt": "pt"}, {"g%d" % i: "g%d" % (i % 2) for i in range(4)}
        )
        for F in (identity_functor(C2), mod2, identity_functor(Z4)):
            op = FunctorData(opposite_cat(F.src), opposite_cat(F.tgt), F.on_obj, F.on_arr)
            assert check_functor(op).passed, F


class TestVariance:
    """A contravariant functor C → D is checked as a functor C → D^op."""

    def test_reversal_is_contravariant_and_converts(self):
        P = chain_poset(["a", "b", "c"])
        CP = from_poset(P)
        rev = {"a": "c", "b": "b", "c": "a"}
        on_arr = {
            n: "(%s<=%s)" % (rev[CP.tgt[n]], rev[CP.src[n]]) for n in CP.arrow_names
        }
        F = FunctorData(CP, CP, rev, on_arr)
        assert not check_functor(F).passed
        # the same data, read as a covariant functor into the opposite
        G = FunctorData(CP, opposite_cat(CP), rev, on_arr)
        assert check_functor(G).passed
        # and back: into the opposite of the opposite, it is F again
        assert FunctorData(CP, opposite_cat(G.tgt), rev, on_arr) == F

    def test_complement_on_powerset(self):
        base = finset("x", "y")
        P = powerset_poset(base)
        CP = from_poset(P)
        comp_of = {s: FinSet(e for e in base if e not in s) for s in base.subsets()}
        rev = {s.name(): comp_of[s].name() for s in base.subsets()}
        on_arr = {
            n: "(%s<=%s)" % (rev[CP.tgt[n]], rev[CP.src[n]]) for n in CP.arrow_names
        }
        assert check_functor(FunctorData(CP, opposite_cat(CP), rev, on_arr)).passed
        assert not check_functor(FunctorData(CP, CP, rev, on_arr)).passed

    def test_neither_variance_rejected(self):
        on_arr = {n: C2.identity["a"] for n in C2.arrow_names}
        on_obj = {"a": "a", "b": "b"}
        assert not check_functor(FunctorData(C2, C2, on_obj, on_arr)).passed
        assert not check_functor(FunctorData(C2, opposite_cat(C2), on_obj, on_arr)).passed


class TestProduct:
    def test_arrow_count_multiplies(self):
        P = product_cat(C2, C3)
        assert len(P.arrows) == len(C2.arrows) * len(C3.arrows)
        assert len(P.objects) == len(C2.objects) * len(C3.objects)

    def test_square_product_is_product_order(self):
        pairs = []
        labels = []
        for x in ("a", "b"):
            for y in ("a", "b"):
                labels.append("%s%s" % (x, y))
        for p in labels:
            for q in labels:
                if p[0] <= q[0] and p[1] <= q[1]:
                    pairs.append((p, q))
        prodP = Poset(FinSet(labels), pairs)
        P = product_cat(C2, C2)
        obj = {n: x + y for n, (x, y) in product_pairs(C2, C2)[0].items()}
        arr = {
            n: "(%s<=%s)" % (obj[P.src[n]], obj[P.tgt[n]]) for n in P.arrow_names
        }
        assert_isomorphism(FunctorData(P, from_poset(prodP), obj, arr))

    def test_product_with_point_is_isomorphic(self):
        pt = discrete(finset("x"))
        P = product_cat(C2, pt)
        objs, arrs = product_pairs(C2, pt)
        obj = {n: x for n, (x, _) in objs.items()}
        arr = {n: f for n, (f, _) in arrs.items()}
        assert_isomorphism(FunctorData(P, C2, obj, arr))

    def test_opposite_of_product(self):
        P = product_cat(C2, Z2)
        assert opposite_cat(P) == product_cat(opposite_cat(C2), opposite_cat(Z2))


class TestBifunctor:
    def test_hom_bifunctor_passes(self):
        for C in (C2, C3, Z2):
            assert check_set_functor(hom_bifunctor(C)).passed

    def test_common_range_product_as_bifunctor(self):
        Cop = opposite_cat(C2)
        F = enumerate_functors(Cop, C2)[0]
        G = identity_functor(C2)
        crp = common_range_product(F, G)
        assert check_functor(crp).passed

    def test_each_arrow_factors_through_its_slices(self):
        # (f, g) = (f, 1_d)∘(1_a, g) = (1_c, g)∘(f, 1_b) for f: a→c, g: b→d
        def check(B, A1, A2, compose_in_target):
            one1, one2 = A1.identity, A2.identity
            for n, (f, g) in product_pairs(A1, A2)[1].items():
                (a, c), (b, d) = A1.ends(f), A2.ends(g)
                first = compose_in_target(
                    B.on_arr["(%s,%s)" % (f, one2[d])], B.on_arr["(%s,%s)" % (one1[a], g)]
                )
                second = compose_in_target(
                    B.on_arr["(%s,%s)" % (one1[c], g)], B.on_arr["(%s,%s)" % (f, one2[b])]
                )
                assert first == B.on_arr[n] == second, n

        for _, C in hom_corpus():
            check(hom_bifunctor(C), opposite_cat(C), C, compose)
        G = identity_functor(C2)
        for F in enumerate_functors(opposite_cat(C2), C2):
            crp = common_range_product(F, G)
            check(crp, F.src, G.src, crp.tgt.compose)


class TestBridges:
    def test_identity_transformation_natural(self):
        for F in enumerate_functors(C2, C3):
            n = identity_nat(F)
            assert check_nat(n).passed

    def test_pointwise_order_gives_natural_bridge(self):
        # on a chain, f ≤ g pointwise makes a ↦ (fa ≤ ga) natural
        P = chain_poset(["a", "b", "c"])
        f = {"a": "a", "b": "a", "c": "b"}
        g = {"a": "a", "b": "b", "c": "c"}
        F, G = poset_functor(P, P, f), poset_functor(P, P, g)
        tau = {x: "(%s<=%s)" % (f[x], g[x]) for x in C3.objects}
        flags = bridge_check(tau, F, G)
        assert flags["is_bridge"] and flags["is_natural"]

    def test_noncentral_component_not_natural(self):
        S3, _ = symmetric_group_3()
        C = from_group(S3)
        F = identity_functor(C)
        noncentral = next(
            x
            for x in S3.carrier
            if any(S3.op[(x, y)] != S3.op[(y, x)] for y in S3.carrier)
        )
        flags = bridge_check({"pt": noncentral}, F, F)
        assert flags["is_bridge"] and not flags["is_natural"]

    def test_component_not_an_arrow(self):
        F = identity_functor(C2)
        with pytest.raises(EndpointError):
            bridge_check({"a": "nope", "b": C2.identity["b"]}, F, F)

    def test_bridge_category(self):
        P = chain_poset(["a", "b", "c"])
        f = {"a": "a", "b": "a", "c": "b"}
        g = {"a": "a", "b": "b", "c": "c"}
        F, G = poset_functor(P, P, f), poset_functor(P, P, g)
        tau = {x: "(%s<=%s)" % (f[x], g[x]) for x in C3.objects}
        cat = bridge_category(tau, F, G)
        assert check_category(cat).passed
        T = FunctorData(F.src, cat, tau, {f: "t(%s)" % f for f in F.src.arrow_names})
        assert check_functor(T).passed

    def test_bridge_category_collision_rejected(self):
        D2 = discrete(finset("p", "q"))
        pt = discrete(finset("x"))
        F = FunctorData(D2, pt, {"p": "x", "q": "x"}, {n: "id(x)" for n in D2.arrow_names})
        tau = {"p": "id(x)", "q": "id(x)"}
        # both components collapse onto one object; the images of the
        # two source identities become parallel arrows with no defined
        # composite, so the construction refuses
        with pytest.raises(BadStructure):
            bridge_category(tau, F, F)


class TestVerticalComposition:
    def test_unit_laws(self):
        FC = functor_category(C2, C2)
        nats = FC.meta["nats"]
        for name in FC.arrow_names:
            tau = nats[name]
            assert vcompose(identity_nat(tau.G), tau) == tau
            assert vcompose(tau, identity_nat(tau.F)) == tau

    def test_functor_category_counts(self):
        FC = functor_category(C2, C2)
        assert len(FC.objects) == 3
        # thin-target oracle: exactly one transformation per pointwise-
        # ordered pair of monotone maps
        P = chain_poset(["a", "b"])
        maps = list(monotone_maps(P, P))
        expected = sum(
            1
            for f in maps
            for g in maps
            if all(P.le(f(x), g(x)) for x in P.carrier)
        )
        assert len(FC.arrows) == expected == 6
        assert check_category(FC).passed

    def test_associativity_on_all_triples(self):
        FC = functor_category(C2, C2)
        nats = list(FC.meta["nats"].values())
        for t1 in nats:
            for t2 in nats:
                if t2.F != t1.G:
                    continue
                for t3 in nats:
                    if t3.F != t2.G:
                        continue
                    assert vcompose(t3, vcompose(t2, t1)) == vcompose(
                        vcompose(t3, t2), t1
                    )

    def test_mismatch(self):
        FC = functor_category(C2, C2)
        nats = FC.meta["nats"]
        tau = nats["t1"]
        bad = next(n for n in nats.values() if n.F != tau.G)
        with pytest.raises(Mismatch):
            vcompose(bad, tau)


class TestHorizontalComposition:
    def grids(self, C, D, E):
        CD = functor_category(C, D)
        DE = functor_category(D, E)
        vert_cd = [
            (CD.meta["nats"][s], CD.meta["nats"][t])
            for s in CD.arrow_names
            for t in CD.arrow_names
            if CD.meta["nats"][s].F == CD.meta["nats"][t].G
        ]
        vert_de = [
            (DE.meta["nats"][s], DE.meta["nats"][t])
            for s in DE.arrow_names
            for t in DE.arrow_names
            if DE.meta["nats"][s].F == DE.meta["nats"][t].G
        ]
        return vert_cd, vert_de

    @pytest.mark.parametrize(
        "C, D, E",
        [(C2, C2, C3), (C2, C3, C2), (Z2, Z2, Z2), (Z2, Z3, Z3)],
        ids=["C2-C2-C3", "C2-C3-C2", "Z2-Z2-Z2", "Z2-Z3-Z3"],
    )
    def test_component_helper_is_hcompose_without_functors(self, C, D, E):
        # with the composite functors J∘F and K∘G, the components are a
        # natural transformation, the horizontal composite α∘τ
        nats_cd = functor_category(C, D).meta["nats"].values()
        nats_de = functor_category(D, E).meta["nats"].values()
        for alpha in nats_de:
            for tau in nats_cd:
                comp = _hcompose_components(alpha, tau)
                out = NatTransData(
                    compose_functors(alpha.F, tau.F), compose_functors(alpha.G, tau.G), comp)
                assert check_nat(out).passed
                # the formula α_{Gx} ∘ J τ_x, written out
                J = alpha.F
                assert comp == {
                    x: J.tgt.compose(alpha.component[tau.G.on_obj[x]], J.on_arr[tau.component[x]])
                    for x in tau.F.src.objects
                }

    def test_hcompose_with_identity(self):
        FC = functor_category(C2, C2)
        one = identity_nat(identity_functor(C2))
        for tau in FC.meta["nats"].values():
            assert _hcompose_components(tau, one) == tau.component

    def test_interchange_fuzz(self):
        rng = random.Random(5)
        total = 0
        for (C, D, E) in [(C2, C2, C2), (C2, C2, C3), (C2, C3, C2)]:
            vert_cd, vert_de = self.grids(C, D, E)
            for _ in range(400):
                sigma, tau = rng.choice(vert_cd)
                beta, alpha = rng.choice(vert_de)
                rep = interchange_check(alpha, beta, sigma, tau)
                assert rep.passed, rep.render_text()
                total += 1
        assert total >= 1000

    @pytest.mark.parametrize(
        "C, D, E",
        [(Z2, Z2, Z2), (Z2, Z3, Z3), (Z3, Z3, Z3), (Z3, Z2, Z2)],
        ids=["Z2-Z2-Z2", "Z2-Z3-Z3", "Z3-Z3-Z3", "Z3-Z2-Z2"],
    )
    def test_formulas_agree_on_non_thin_categories(self, C, D, E):
        # one-object categories have distinct parallel arrows, so dropping
        # either factor of a formula changes a component
        from structa.suites import _hcompose_formulas_agree

        vert_cd, vert_de = self.grids(C, D, E)
        assert any(
            tau.component[x] != D.identity[tau.F.on_obj[x]]
            for _, tau in vert_cd
            for x in C.objects
        )
        for sigma, tau in vert_cd:
            for beta, alpha in vert_de:
                for a, t in (
                    (vcompose(beta, alpha), vcompose(sigma, tau)),
                    (beta, sigma),
                    (alpha, tau),
                ):
                    assert _hcompose_formulas_agree(a, t)



class TestInterchangeSuiteCounts:
    """``suite interchange`` evaluates each distinct grid once and counts
    it once per draw. A fake ``interchange_check`` fails every grid whose
    σ is the σ of the last vertical pair of its Cat(C, D); the failure
    count each ``ic-grid-*`` row prints must equal the samples with that
    σ, counted by replaying the unit's draws in a plain loop."""

    def replayed_counts(self, seed, chosen):
        C2 = from_poset(chain_poset(["c0", "c1"]))
        C3 = from_poset(chain_poset(["c0", "c1", "c2"]))
        Z2 = from_group(cyclic_group(2))
        counts = {}
        for i, (C, D, E) in enumerate([(C2, C2, C2), (C2, C2, C3), (C2, C3, C2), (Z2, Z2, Z2)]):
            vert_cd, vert_de = TestHorizontalComposition().grids(C, D, E)
            chosen.append(vert_cd[-1][0])
            rng = random.Random(seed * 1000 + i)
            bad, distinct = 0, set()
            for _ in range(400):
                vertical, horizontal = rng.choice(vert_cd), rng.choice(vert_de)
                if vertical[0] == chosen[-1]:
                    bad += 1
                    distinct.add((id(vertical), id(horizontal)))
            # some failing grid is drawn twice, so a count per distinct
            # grid would print another number
            assert 0 < len(distinct) < bad < 400
            counts["ic-grid-%d%d%d" % tuple(len(X.objects) for X in (C, D, E))] = bad
        return counts

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_failing_grid_counts_once_per_sample(self, seed, monkeypatch):
        chosen = []
        want = self.replayed_counts(seed, chosen)
        real = category.interchange_check

        def failing_on_chosen(alpha, beta, sigma, tau):
            if sigma in chosen:
                out = LawReport("interchange")
                out.add("ic-interchange", False)
                return out
            return real(alpha, beta, sigma, tau)

        monkeypatch.setattr(category, "interchange_check", failing_on_chosen)
        rep = suites.suite_interchange(seed)
        got = {c.law: c.witness for c in rep.checks if c.law.startswith("ic-grid-")}
        assert got == {law: (k,) for law, k in want.items()}


class TestHom:
    def test_discrete_hom_sets(self):
        D = discrete(finset("a", "b"))
        assert hom_set(D, "a", "a") == finset("id(a)")
        assert hom_set(D, "a", "b") == FinSet()

    def test_group_hom_set(self):
        L, R = hom_functors(Z2, "pt")
        assert len(L.on_obj["pt"]) == 2
        assert check_set_functor(L).passed and check_set_functor(R).passed

    def test_chain_hom_sizes(self):
        P = chain_poset(["a", "b", "c"])
        for x in C3.objects:
            for y in C3.objects:
                assert len(hom_set(C3, x, y)) == (1 if P.le(x, y) else 0)


class TestSliceAssemble:
    """f†, the slice of the Hom bifunctor at f, is natural, and the
    identity transformation at an identity arrow."""

    def test_slice_at_identity_is_identity(self):
        nt = dagger(C3, C3.identity["b"])
        assert all(
            m == FinMap.identity(m.dom) for m in nt.component.values()
        )

    def test_slice_natural(self):
        for f in C3.arrow_names:
            assert check_nat(dagger(C3, f)).passed


class TestYoneda:
    def test_nat_count_is_hom_count(self):
        for C in (C2, C3, Z3):
            for a in C.objects:
                La, _ = hom_functors(C, a)
                out = yoneda(C, a, La, La)
                assert len(out["by_name"]) == len(hom_set(C, a, a))

    def test_chain_bottom(self):
        La, _ = hom_functors(C3, "a")
        out = yoneda(C3, "a", La, La)
        assert len(out["by_name"]) == 1

    def test_group_case(self):
        Le, _ = hom_functors(Z3, "pt")
        out = yoneda(Z3, "pt", Le, Le)
        assert len(out["by_name"]) == 3
        assert sorted(out["phi"].assign.values()) == ["g0", "g1", "g2"]

    def test_bijection_over_universe(self):
        # |Nat(L_a, F)| = |F a| for every object and every hom functor
        for C in (C3, Z2):
            functors = {x: hom_functors(C, x)[0] for x in C.objects}
            for a in C.objects:
                for F in functors.values():
                    out = yoneda(C, a, functors[a], F)
                    assert len(out["by_name"]) == len(F.on_obj[a])
                    # φ is a bijection both ways
                    inv = inverse(out["phi"])
                    assert all(
                        out["phi"](inv(x)) == x for x in F.on_obj[a]
                    )

    def test_contravariant_hom_functor_is_refused(self):
        # R_a is a functor on C3^op, and C3^op is not C3
        La, Ra = hom_functors(C3, "a")
        with pytest.raises(Mismatch):
            yoneda(C3, "a", La, Ra)

    def test_contravariant_hom_functor_lives_on_the_opposite(self):
        for C in (C2, C3, Z3):
            for x in C.objects:
                assert hom_functors(C, x)[1].src == opposite_cat(C)


def cayley(G):
    """Cayley's theorem through the hom functor of the one-object
    category: L_pt sends each element to its left translation, and those
    translations form an isomorphic transformation group. The reference
    for ``group.cayley``, which ``derive cayley`` runs."""
    C = from_group(G)
    L, _ = hom_functors(C, next(iter(C.objects)))
    return group._permutation_image(G, {g: L.on_arr[g] for g in G.carrier})


class TestEmbeddingAndCayley:
    def test_discrete_embedding(self):
        assert yoneda_embedding(discrete(finset("a", "b"))).passed

    def test_chain_and_group_embeddings(self):
        assert yoneda_embedding(C3).passed
        assert yoneda_embedding(Z3).passed

    def test_cayley_z3(self):
        G = cyclic_group(3)
        h = cayley(G)
        # oracle: left translations are the modular-shift permutations
        perms = set()
        for i in range(3):
            assign = {"g%d" % j: "g%d" % ((i + j) % 3) for j in range(3)}
            perms.add(tuple(sorted(assign.items())))
        got = set()
        for name in h.tgt.carrier:
            g = next(x for x in G.carrier if h.map(x) == name)
            got.add(
                tuple(
                    sorted(
                        {"g%d" % j: G.op[(g, "g%d" % j)] for j in range(3)}.items()
                    )
                )
            )
        assert got == perms
        assert h.tgt.order() == 3

    def test_cayley_matches_group_module(self):
        for n in (2, 3, 4):
            G = cyclic_group(n)
            assert cayley(G) == group.cayley(G)

    def test_cayley_table_transfers(self):
        S3, _ = symmetric_group_3()
        h = cayley(S3)
        for a in S3.carrier:
            for b in S3.carrier:
                assert h.map(S3.op[(a, b)]) == h.tgt.op[(h.map(a), h.map(b))]


class TestRepresentations:
    """A representation of F is an object x with a natural isomorphism
    L_x → F; for F = L_a, f† links the representations (a, 1) and
    (b, f†) for an isomorphism f: a→b."""

    def test_self_comparison_is_identity(self):
        La, _ = hom_functors(Z3, "pt")
        assert dagger(Z3, Z3.identity["pt"]) == identity_nat(La)

    def test_groupoid_connecting_iso(self):
        C = two_object_groupoid()
        gamma = dagger(C, "u")  # L_b -> L_a, a natural iso
        assert check_nat(gamma).passed
        assert all(classify(m)["bijective"] for m in gamma.component.values())
        assert arrow_classify(C, "u")["iso"]

    def test_non_representation_rejected(self):
        Le, _ = hom_functors(Z3, "pt")
        # a constant component is not bijective on a 3-element hom set,
        # and not natural: g ∘ g0 = g is not g0 for g ≠ g0
        hom = Le.on_obj["pt"]
        comps = {"pt": FinMap(hom, hom, dict.fromkeys(hom, "g0"))}
        assert not classify(comps["pt"])["bijective"]
        assert not check_nat(NatTransData(Le, Le, comps)).passed


class TestArrowCategory:
    def test_discrete_identity_objects(self):
        D = discrete(finset("a", "b"))
        F = identity_functor(D)
        cat = arrow_category(F, F)
        assert len(cat.objects) == 2
        assert set(cat.identity) == set(cat.objects)

    def test_chain_two_objects_and_squares(self):
        F = identity_functor(C2)
        cat = arrow_category(F, F)
        assert len(cat.objects) == 3
        # brute-force square oracle
        squares = 0
        for a in C2.objects:
            for b in C2.objects:
                for h in C2.hom(a, b):
                    for u in C2.arrows_from(a):
                        for v in C2.arrows_from(b):
                            lhs = C2.comp[(v, h)]
                            for h2 in C2.hom(C2.tgt[u], C2.tgt[v]):
                                if C2.comp[(h2, u)] == lhs:
                                    squares += 1
        assert len(cat.arrows) == squares

    def test_mixed_sources(self):
        F = identity_functor(C2)
        G = FunctorData(C2, C2, {x: "b" for x in C2.objects}, {n: "(b<=b)" for n in C2.arrow_names})
        cat = arrow_category(F, G)
        assert check_category(cat).passed

    def test_common_range_required(self):
        with pytest.raises(Mismatch):
            arrow_category(identity_functor(C2), identity_functor(C3))


# Theorems about the library's constructions, checked over a catalogue of
# categories (the constructions compute one definition each; these are
# the reference checks).


def catalogue():
    from structa.suites import _seed_categories, _yoneda_corpus

    return [C for _, C in _seed_categories() + _yoneda_corpus()] + [two_object_groupoid()]


def small_catalogue():
    return [C for C in catalogue() if len(C.arrow_names) <= 6]


class TestConstructionTheorems:
    def test_yoneda_corpus_categories_pass_the_laws(self):
        from structa.suites import _yoneda_corpus

        for name, C in _yoneda_corpus():
            assert check_category(C).passed, name

    def test_invertible_arrows_cancel_and_have_one_inverse(self):
        for C in catalogue():
            for f in C.arrow_names:
                a, b = C.src[f], C.tgt[f]
                flags = arrow_classify(C, f)
                left = {g for g in C.hom(b, a) if C.comp[(g, f)] == C.identity[a]}
                right = {g for g in C.hom(b, a) if C.comp[(f, g)] == C.identity[b]}
                assert not flags["left_invertible"] or flags["left_cancellable"]
                assert not flags["right_invertible"] or flags["right_cancellable"]
                if flags["iso"]:
                    assert len(left) == 1 and left == right

    def test_isomorphism_of_objects_is_an_equivalence(self):
        for C in catalogue():
            iso = {
                (a, b)
                for a in C.objects
                for b in C.objects
                if any(arrow_classify(C, f)["iso"] for f in C.hom(a, b))
            }
            assert all((a, a) in iso for a in C.objects)
            assert all((b, a) in iso for (a, b) in iso)
            assert all((a, c) in iso for (a, b) in iso for (b2, c) in iso if b == b2)

    def test_functors_preserve_isomorphisms(self):
        cats = small_catalogue()
        for C in cats:
            isos = [n for n in C.arrow_names if arrow_classify(C, n)["iso"]]
            for D in cats:
                for F in enumerate_functors(C, D):
                    assert all(arrow_classify(D, F.on_arr[n])["iso"] for n in isos)

    def test_bridges_into_thin_categories_are_natural(self):
        D = from_poset(diamond_poset())
        for C in (C2, C3, from_poset(diamond_poset())):
            functors = enumerate_functors(C, D)
            for F in functors:
                for G in functors:
                    objs = sorted(C.objects)
                    choices = [D.hom(F.on_obj[x], G.on_obj[x]) for x in objs]
                    for values in itertools.product(*choices):
                        flags = bridge_check(dict(zip(objs, values)), F, G)
                        assert flags["is_bridge"] and flags["is_natural"]

    def test_vertical_and_horizontal_composites_are_natural(self):
        grids = TestHorizontalComposition().grids
        for (C, D, E) in [(C2, C2, C2), (C2, C2, C3), (C2, C3, C2)]:
            vert_cd, vert_de = grids(C, D, E)
            for sigma, tau in vert_cd:
                assert check_nat(vcompose(sigma, tau)).passed
            for beta, alpha in vert_de:
                assert check_nat(vcompose(beta, alpha)).passed
            nats_cd = functor_category(C, D).meta["nats"].values()
            nats_de = functor_category(D, E).meta["nats"].values()
            for alpha in nats_de:
                for tau in nats_cd:
                    comp = _hcompose_components(alpha, tau)
                    out = NatTransData(
                        compose_functors(alpha.F, tau.F), compose_functors(alpha.G, tau.G), comp)
                    assert check_nat(out).passed
                    # the second defining formula: K τ_x ∘ α_{Fx}
                    K = alpha.G
                    assert all(
                        comp[x]
                        == K.tgt.compose(K.on_arr[tau.component[x]], alpha.component[tau.F.on_obj[x]])
                        for x in tau.F.src.objects
                    )

    def test_hom_bifunctor_restricts_to_the_hom_functors(self):
        # Hom(1_x, g) is L_x(g) and Hom(f, 1_y) is R_y(f)
        for C in (C2, C3):
            Cop = opposite_cat(C)
            Rfam = {x: hom_functors(C, x)[0] for x in C.objects}
            Lfam = {}
            for y in C.objects:
                _, Lfam[y] = hom_functors(C, y)
            out = hom_bifunctor(C)
            for x in Cop.objects:
                assert all(
                    out.on_arr["(%s,%s)" % (Cop.identity[x], g)] == Rfam[x].on_arr[g]
                    for g in C.arrow_names
                )
            for y in C.objects:
                assert all(
                    out.on_arr["(%s,%s)" % (f, C.identity[y])] == Lfam[y].on_arr[f]
                    for f in Cop.arrow_names
                )

    def test_yoneda_inverse_round_trips(self):
        from structa.suites import _yoneda_round_trip

        for C in (C3, Z2, Z3, two_object_groupoid()):
            L = {x: hom_functors(C, x)[0] for x in C.objects}
            for a in C.objects:
                for F in L.values():
                    assert _yoneda_round_trip(C, a, F, yoneda(C, a, L[a], F))

    def test_yoneda_round_trip_rejects_a_wrong_phi(self):
        from structa.suites import _yoneda_round_trip

        F, _ = hom_functors(Z3, "pt")
        res = yoneda(Z3, "pt", F, F)
        phi = res["phi"]
        shift = {"g0": "g1", "g1": "g2", "g2": "g0"}
        wrong = FinMap(phi.dom, phi.cod, {n: shift[phi(n)] for n in phi.dom})
        assert not _yoneda_round_trip(Z3, "pt", F, {**res, "phi": wrong})

    def test_cayley_embeddings_are_bijective(self):
        from structa.core import classify
        from structa.group import enumerate_groups

        for n in range(1, 7):
            for G in enumerate_groups(n):
                assert classify(cayley(G).map)["bijective"]

    def test_representations_are_linked_by_exactly_one_isomorphism(self):
        C = two_object_groupoid()
        La, _ = hom_functors(C, "a")
        reps = [("a", identity_nat(La)), ("b", dagger(C, "u"))]
        for x, beta in reps:
            for y, gamma in reps:
                links = [
                    f
                    for f in C.hom(x, y)
                    if {c: compose(beta.component[c], dagger(C, f).component[c]) for c in C.objects}
                    == dict(gamma.component)
                ]
                assert len(links) == 1
                assert arrow_classify(C, links[0])["iso"]


# ---------------------------------------------------------------------------
# one functor scan for both variances and both targets


def small_seeds():
    from structa.suites import _seed_categories

    return [(name, C) for name, C in _seed_categories() if len(C.objects) <= 3]


def plant_bad_arrow(F):
    """F with the image of its first arrow moved to another target arrow."""
    n = F.src.arrow_names[0]
    other = next(m for m in F.tgt.arrow_names if m != F.on_arr[n])
    return FunctorData(F.src, F.tgt, F.on_obj, {**F.on_arr, n: other})


def reference_functor_laws(F) -> dict:
    """The endpoint, unit and composition laws of F, a total
    ``FunctorData``, by plain loops in canonical order: each law maps to
    its failing cases, least first."""
    C, D, on_obj, on_arr = F.src, F.tgt, F.on_obj, F.on_arr
    ends, unit, comp = [], [], []
    for n in sorted(C.arrow_names):
        m = on_arr[n]
        if (D.src[m], D.tgt[m]) != (on_obj[C.src[n]], on_obj[C.tgt[n]]):
            ends.append((n,))
    for x in sorted(C.objects):
        if on_arr[C.identity[x]] != D.identity[on_obj[x]]:
            unit.append((x,))
    for g, f in sorted(C.comp):
        if D.comp.get((on_arr[g], on_arr[f])) != on_arr[C.comp[(g, f)]]:
            comp.append((g, f))
    return {"fun-endpoints": ends, "fun-unit": unit, "fun-comp": comp}


class TestVarianceDuality:
    """A contravariant functor C → D is a functor C → D^op: the functor
    scan into D^op reports, law by law, the verdict and least witness of
    a reference scan."""

    def agree(self, F):
        got = check_functor(F)
        assert got["fun-objects"].passed and got["fun-arrows"].passed, F
        for law, bad in reference_functor_laws(F).items():
            want = (False, bad[0]) if bad else (True, None)
            assert (got[law].passed, got[law].witness) == want, (law, F)

    def test_seed_functors_and_planted_defects(self):
        seeds = small_seeds()
        checked = planted = 0
        for _, C in seeds:
            for _, D in seeds:
                for F in enumerate_functors(C, opposite_cat(D)):
                    self.agree(F)
                    checked += 1
                    if len(D.arrow_names) > 1:
                        bad = plant_bad_arrow(F)
                        assert not check_functor(bad).passed
                        self.agree(bad)
                        planted += 1
        assert checked > 1200 and planted > 1000

    def test_value_outside_the_target_fails_totality(self):
        on_obj, on_arr = {"a": "a", "b": "b"}, {n: "zzz" for n in C2.arrow_names}
        for D in (C2, opposite_cat(C2)):
            r = check_functor(FunctorData(C2, D, on_obj, on_arr))
            assert [c.law for c in r.failures] == ["fun-arrows"]
            assert r["fun-arrows"].witness == (C2.arrow_names[0],)
        r = check_functor(FunctorData(C2, C2, {"b": "b"}, on_arr))
        assert {c.law: c.witness for c in r.failures} == {
            "fun-objects": ("a",), "fun-arrows": (C2.arrow_names[0],)}

    def test_totality_witness_names_a_missing_object(self):
        L, _ = hom_functors(C2, "b")
        S = SetRepr(C2, {"b": L.on_obj["b"]}, L.on_arr)
        assert check_set_functor(S)["sr-total"].witness == ("a",)

    def test_set_functor_pair_that_does_not_compose_is_a_failure(self):
        L, _ = hom_functors(C2, "a")
        S = SetRepr(C2, L.on_obj, {**L.on_arr, "(a<=b)": FinMap.identity(finset("p", "q"))})
        r = check_set_functor(S)
        assert {"sr-endpoints", "sr-comp"} <= {c.law for c in r.failures}
        assert r["sr-comp"].witness == ("(a<=b)", "(a<=a)")

    def test_set_functor_value_that_is_not_a_map_fails_totality(self):
        L, _ = hom_functors(C2, "a")
        S = SetRepr(C2, L.on_obj, {**L.on_arr, "(b<=b)": "zzz"})
        assert check_set_functor(S)["sr-total"].witness == ("(b<=b)",)


def test_bifunctor_images_that_do_not_compose_are_failures():
    B = hom_bifunctor(C2)
    foreign = FinMap.identity(finset("p", "q"))
    for k in B.on_arr:
        r = check_set_functor(SetRepr(B.src, B.on_obj, {**B.on_arr, k: foreign}))
        assert "sr-endpoints" in {c.law for c in r.failures}, k
        assert not r["sr-comp"].passed, k


def reference_nat_trans(F, G):
    """Every choice of components from the target's hom sets, in
    ``itertools.product`` order, kept when it is natural."""
    objs = sorted(F.src.objects)
    choices = [F.tgt.hom(F.on_obj[x], G.on_obj[x]) for x in objs]
    out = []
    for values in itertools.product(*choices):
        comp = dict(zip(objs, values))
        if bridge_check(comp, F, G)["is_natural"]:
            out.append(NatTransData(F, G, comp))
    return out


class TestNatTransSearch:
    def test_functor_category_pairs_match_the_product_reference(self):
        funs = list(functor_category(C2, C3).meta["functors"].values())
        for F in funs:
            for G in funs:
                assert enumerate_nat_trans(F, G) == reference_nat_trans(F, G)

    def test_group_functor_pairs_match_the_product_reference(self):
        # S3 is not abelian, so most bridges between these functors are
        # not natural and the search must cut them
        G2, (S3, _) = cyclic_group(2), symmetric_group_3()
        funs = enumerate_functors(from_group(G2), from_group(S3))
        found = 0
        for F in funs:
            for G in funs:
                got = enumerate_nat_trans(F, G)
                assert got == reference_nat_trans(F, G)
                found += len(got)
        assert 0 < found < len(funs) ** 2 * 6


# ---------------------------------------------------------------------------
# one Hom formula, and each hom functor built once per check


def reference_hom(C, f, g):
    """Hom(f, g) for f: a→c and g: b→d, composed through
    ``FinCat.compose``: h ↦ g∘(h∘f) from Hom(c, b) to Hom(a, d)."""
    (a, c), (b, d) = C.ends(f), C.ends(g)
    dom = hom_set(C, c, b)
    return FinMap(dom, hom_set(C, a, d), {h: C.compose(g, C.compose(h, f)) for h in dom})


def hom_corpus():
    from structa.suites import _yoneda_corpus

    return _yoneda_corpus() + small_seeds()


class TestOneHomFormula:
    def test_hom_functors_are_slices_of_hom(self):
        for name, C in hom_corpus():
            for x in C.objects:
                L, R = hom_functors(C, x)
                one = C.identity[x]
                for f in C.arrow_names:
                    assert L.on_arr[f] == reference_hom(C, one, f), (name, x, f)
                    assert R.on_arr[f] == reference_hom(C, f, one), (name, x, f)

    def test_hom_bifunctor_and_dagger_are_hom(self):
        for name, C in hom_corpus():
            arrs = product_pairs(opposite_cat(C), C)[1]
            for n, m in hom_bifunctor(C).on_arr.items():
                f, g = arrs[n]
                assert m == reference_hom(C, f, g), (name, f, g)
            for f in C.arrow_names:
                want = {x: reference_hom(C, f, C.identity[x]) for x in C.objects}
                assert dagger(C, f).component == want, (name, f)

    def test_cayley_translations_are_the_regular_action(self):
        from structa.group import enumerate_groups, regular_action

        for n in range(1, 7):
            for G in enumerate_groups(n):
                L, _ = hom_functors(from_group(G), "pt")
                act = regular_action(G).act
                assert all(L.on_arr[g] == act[g] for g in G.carrier)

    def test_cayley_rejects_colliding_permutation_names(self, monkeypatch):
        from structa.errors import NotBijective

        monkeypatch.setattr(group, "_perm_name", lambda assign: "(same)")
        with pytest.raises(NotBijective) as err:
            cayley(cyclic_group(3))
        assert err.value.witness == ("g0", "g1")


class TestHomFunctorsBuiltOnce:
    @pytest.fixture
    def checks(self, monkeypatch):
        """The set-functor checks made while the test runs."""
        made = []
        real = category.check_set_functor

        def counted(S):
            made.append(S)
            return real(S)

        monkeypatch.setattr(category, "check_set_functor", counted)
        return made

    def test_suite_yoneda(self, checks):
        from structa.suites import run_suite

        assert run_suite("yoneda").passed
        assert len(checks) <= 150

    def test_embedding_of_the_3_chain(self, checks):
        assert yoneda_embedding(C3).passed
        assert len(checks) == 3


# the parent's first failing law: L_x of the first object x breaks sr-comp
NEG_ASSOC_WITNESSES = {
    1: ("g1", "g1"),
    2: ("g1", "g1"),
    3: ("g1", "g1"),
    4: ("a", "a"),
    5: ("(1>1,2>3,3>2)", "(1>2,2>1,3>3)"),
}


@pytest.mark.parametrize("i", sorted(NEG_ASSOC_WITNESSES))
def test_embedding_of_a_non_associative_table_raises(i):
    import json

    from structa.suites import fixtures_dir

    doc = json.loads((fixtures_dir() / ("category_neg_assoc_%d.json" % i)).read_text())
    C = FinCat(
        doc["objects"],
        [tuple(a) for a in doc["arrows"]],
        dict(doc["identity"]),
        {(g, f): v for g, f, v in doc["comp"]},
    )
    with pytest.raises(BadStructure) as err:
        yoneda_embedding(C)
    assert str(err.value).startswith("set-functor: sr-comp failed")
    assert err.value.witness == NEG_ASSOC_WITNESSES[i]


# ---------------------------------------------------------------------------
# FinCat indexes its arrows once; the reference is the scan over every arrow
# that arrow_names, arrows_from, arrows_into and hom made on each call


def reference_indexes(C):
    """arrow_names, and arrows_from, arrows_into and hom at every object
    and pair of objects, each by a scan of all arrows in name order."""
    names = tuple(n for n, _, _ in C.arrows)
    return (
        names,
        {x: tuple(n for n in names if C.src[n] == x) for x in C.objects},
        {x: tuple(n for n in names if C.tgt[n] == x) for x in C.objects},
        {
            (a, b): tuple(n for n in names if C.src[n] == a and C.tgt[n] == b)
            for a in C.objects
            for b in C.objects
        },
    )


def indexes(C):
    return (
        C.arrow_names,
        {x: C.arrows_from(x) for x in C.objects},
        {x: C.arrows_into(x) for x in C.objects},
        {(a, b): C.hom(a, b) for a in C.objects for b in C.objects},
    )


def fixture_categories():
    """(id, category) for every category a fixture builds: category
    documents, and the source and target of functor and natural
    transformation documents."""
    out = []
    for path in sorted(suites.fixtures_dir().glob("*.json")):
        doc = docs.parse(str(path))
        if doc.kind not in ("category", "functor", "nattrans"):
            continue
        built = docs._KINDS[doc.kind].build(doc)
        if doc.kind == "category":
            out.append((path.name, built))
        elif doc.kind == "functor":
            out += [(path.name + ":src", built.src), (path.name + ":tgt", built.tgt)]
        elif doc.kind == "nattrans":
            out += [(path.name + ":F.src", built.F.src), (path.name + ":F.tgt", built.F.tgt),
                    (path.name + ":G.src", built.G.src), (path.name + ":G.tgt", built.G.tgt)]
    return out


def suite_categories():
    return [("seed:" + name, C) for name, C in suites._seed_categories()] + [
        ("yoneda:" + name, C) for name, C in suites._yoneda_corpus()
    ]


# built inside the tests, so that a broken index fails a test, not collection
INDEX_CORPORA = {
    "fixtures": fixture_categories,
    "suites": suite_categories,
    "opposites": lambda: [("op:" + name, opposite_cat(C)) for name, C in suite_categories()],
}


class TestArrowIndexes:
    def test_the_fixture_corpus_covers_every_kind(self):
        ids = [name for name, _ in fixture_categories()]
        assert "category_chain2.json" in ids
        assert "functor_mod2.json:tgt" in ids
        assert "nattrans_lift.json:G.src" in ids

    @pytest.mark.parametrize("corpus", sorted(INDEX_CORPORA))
    def test_indexes_match_the_scans(self, corpus):
        for name, C in INDEX_CORPORA[corpus]():
            want = reference_indexes(C)
            for out in (C, copy.copy(C), pickle.loads(pickle.dumps(C))):
                assert indexes(out) == want, name
                assert out.arrows_from("nope") == out.arrows_into("nope") == (), name
                assert out.hom("nope", C.objects.elements[0]) == (), name

    def test_indexes_are_not_fields(self):
        assert FinCat._fields == ("objects", "arrows", "identity", "comp", "meta")
        C = chain_cat(["a", "b", "c"])
        twin = copy.copy(C)
        for slot in ("arrow_names", "_from", "_into", "_hom"):
            object.__setattr__(twin, slot, ())
        assert twin == C
        assert hash(twin) == hash(C)
        assert repr(twin) == repr(C)

    def test_documents_build_what_the_validating_constructor_builds(self):
        for name, C in fixture_categories():
            again = FinCat(C.objects, C.arrows, C.identity, C.comp)
            assert C == again, name
            assert indexes(C) == indexes(again), name

    def test_checking_documents_checks_no_arrow_name_again(self, monkeypatch, capsys):
        # the category payload's validation has checked every arrow name
        calls = []
        check_symbol = category.check_symbol
        monkeypatch.setattr(category, "check_symbol", lambda s: calls.append(s) or check_symbol(s))
        for path in sorted(suites.fixtures_dir().glob("**/*.json")):
            cli.main(["check", str(path)])
        capsys.readouterr()
        assert calls == []

    def test_compose_of_two_non_arrows_is_not_composable(self):
        C = chain_cat(["a", "b"])
        with pytest.raises(CompositionMismatch, match="^arrows are not composable$"):
            C.compose("nope", "nada")
        assert _composite(C, "nope", "nada") is None
