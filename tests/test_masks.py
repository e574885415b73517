"""Mask kernel tests.

The subset laws of core, top and settools run on bit masks over a
carrier's element index. Oracles: the tuple definitions they replaced,
kept here as references, on random carriers, maps, families and closure
tables (including tables that are no closure operator, so that failing
laws and their first witnesses are compared too). Mutation tests make
the mask image and preimage drop one bit and require the laws to fail.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structa.core import (
    FinMap,
    FinSet,
    _family_masks,
    all_maps,
    fiber_union_check,
    finset,
    image_calculus,
    mask_of,
    set_of,
    subset_masks,
    union_of,
)
from structa.errors import CarrierMismatch, EmptyMemberInBase
from structa.report import LawReport
from structa.settools import (
    Family,
    closure_witness,
    enumerate_filters,
    filter_base_witness,
    generate_filter,
    inter_of,
    is_filter,
)
from structa.top import ClosureOp, _closure_laws, closure_check, closure_laws

# mixed case, digits and non-ASCII, so the canonical order is not alphabetical
ALPHABET = ["a", "b", "c", "d", "B", "Z", "10", "9", "é", "{a,b}"]
PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)

carriers = st.sets(st.sampled_from(ALPHABET), max_size=5).map(FinSet)
small_carriers = st.sets(st.sampled_from(ALPHABET), max_size=3).map(FinSet)


def subsets_of(carrier):
    return st.sets(st.sampled_from(carrier.elements or ("?",))).map(
        lambda xs: FinSet(set(xs) & set(carrier.elements)))


@st.composite
def maps(draw, max_size=4):
    dom = draw(st.sets(st.sampled_from(ALPHABET), max_size=max_size).map(FinSet))
    cod = draw(st.sets(st.sampled_from(ALPHABET), min_size=0 if not dom else 1,
                       max_size=max_size).map(FinSet))
    values = draw(st.lists(st.sampled_from(cod.elements or ("?",)),
                           min_size=len(dom), max_size=len(dom)))
    return FinMap(dom, cod, dict(zip(dom.elements, values)))


# ---------------------------------------------------------------------------
# tuple references: the definitions the mask kernel replaced


def sub_ref(a, b):
    return set(b.elements).issuperset(a.elements)


def image_ref(f, subset=None):
    if subset is None:
        subset = f.dom
    elif not sub_ref(subset, f.dom):
        raise CarrierMismatch("image argument not a subset of the domain")
    return FinSet._ordered(tuple(sorted({f.assign[x] for x in subset})))


def preimage_ref(f, subset):
    if not sub_ref(subset, f.cod):
        raise CarrierMismatch("preimage argument not a subset of the codomain")
    hit = set(subset.elements)
    return FinSet._ordered(tuple([x for x in f.dom.elements if f.assign[x] in hit]))


def classify_ref(f):
    hit = len(set(f.assign.values()))
    monic = hit == len(f.dom)
    onto = hit == len(f.cod)
    return {"monic": monic, "onto": onto, "bijective": monic and onto}


def fiber_ref(f, z):
    if z not in f.cod.elements:
        raise CarrierMismatch("fiber point outside the codomain", witness=(z,))
    return FinSet._ordered(tuple(x for x in f.dom.elements if f.assign[x] == z))


def image_calculus_ref(f, A, B, families=()):
    if not sub_ref(A, f.dom):
        raise CarrierMismatch("A must be a subset of the domain")
    if not sub_ref(B, f.cod):
        raise CarrierMismatch("B must be a subset of the codomain")
    r = LawReport("image-calculus")
    c = classify_ref(f)
    fA = image_ref(f, A)
    r.add("img-adjoint", sub_ref(fA, B) == sub_ref(A, preimage_ref(f, B)), (tuple(A), tuple(B)))
    r.add("img-unit", sub_ref(A, preimage_ref(f, fA)), (tuple(A),))
    if c["monic"]:
        r.add("img-unit-monic", preimage_ref(f, fA) == A, (tuple(A),))
    r.add("img-counit", sub_ref(image_ref(f, preimage_ref(f, B)), B), (tuple(B),))
    if c["onto"]:
        r.add("img-counit-onto", image_ref(f, preimage_ref(f, B)) == B, (tuple(B),))
    restricted = FinMap(A, f.cod, {x: f.assign[x] for x in A})
    r.add("img-restrict", preimage_ref(restricted, B) == A.inter(preimage_ref(f, B)),
          (tuple(A), tuple(B)))
    for fam in families:
        members = list(fam)
        over_dom = all(sub_ref(m, f.dom) for m in members)
        over_cod = all(sub_ref(m, f.cod) for m in members)
        if not (over_dom or over_cod):
            raise CarrierMismatch("family members must share a carrier of f")
        if over_dom:
            union = union_of(members)
            inter = f.dom
            for m in members:
                inter = inter.inter(m)
            im_union = union_of(image_ref(f, m) for m in members)
            im_inter = f.cod
            for m in members:
                im_inter = im_inter.inter(image_ref(f, m))
            r.add("img-union", image_ref(f, union) == im_union)
            if members:
                r.add("img-inter", sub_ref(image_ref(f, inter), im_inter))
                if c["monic"]:
                    r.add("img-inter-monic", image_ref(f, inter) == im_inter)
        if over_cod:
            union = union_of(members)
            inter = f.cod
            for m in members:
                inter = inter.inter(m)
            pre_union = union_of(preimage_ref(f, m) for m in members)
            pre_inter = f.dom
            for m in members:
                pre_inter = pre_inter.inter(preimage_ref(f, m))
            r.add("pre-union", preimage_ref(f, union) == pre_union)
            if members:
                r.add("pre-inter", preimage_ref(f, inter) == pre_inter)
            if len(members) >= 2:
                m0, m1 = members[0], members[1]
                r.add("pre-diff", preimage_ref(f, m0.diff(m1))
                      == preimage_ref(f, m0).diff(preimage_ref(f, m1)))
    return r


def fiber_union_check_ref(f, A, B):
    r = LawReport("fiber-union")
    fibers_of_B = union_of(fiber_ref(f, z) for z in B)
    lhs = image_ref(f, A) == B
    rhs = A == fibers_of_B
    if classify_ref(f)["monic"] and sub_ref(B, image_ref(f)):
        r.add("fib-prop", lhs == rhs, (tuple(A), tuple(B)))
    else:
        r.add("fib-prop-onedir", (not lhs) or sub_ref(A, fibers_of_B), (tuple(A), tuple(B)))
    return r


def canonical(fam):
    return sorted(fam.members, key=lambda s: (len(s), s.elements))


def closure_witness_ref(fam, op):
    ms = canonical(fam)
    return next(((a.name(), b.name()) for i, a in enumerate(ms) for b in ms[i + 1:]
                 if op(a, b) not in fam.members), None)


def closure_laws_ref(op):
    r = LawReport("closure-laws")
    subs = list(op.carrier.subsets())
    r.add("clx-empty", op(FinSet()) == FinSet())
    bad = next(((A.name(),) for A in subs if not sub_ref(A, op(A))), None)
    r.add("clx-extensive", bad is None, bad)
    bad = next(((A.name(), B.name()) for A in subs for B in subs
                if sub_ref(A, B) and not sub_ref(op(A), op(B))), None)
    r.add("clx-monotone", bad is None, bad)
    bad = next(((A.name(),) for A in subs if op(op(A)) != op(A)), None)
    r.add("clx-idempotent", bad is None, bad)
    closed = Family(op.carrier, [A for A in op.table if op.table[A] == A])
    bad = closure_witness_ref(closed, FinSet.union)
    r.add("clx-closed-union", bad is None, bad)
    inter_ok = closure_witness_ref(closed, FinSet.inter) is None
    r.add("clx-closed-inter", inter_ok)
    return r


def closure_check_ref(op):
    r = LawReport("closure-strict", list(closure_laws_ref(op).checks))
    subs = list(op.carrier.subsets())
    bad = next(((A.name(), B.name()) for A in subs for B in subs
                if op(A.union(B)) != op(A).union(op(B))), None)
    r.add("cls-additive", bad is None, bad)
    bad = next(((x,) for x in op.carrier if op(finset(x)) != finset(x)), None)
    r.add("cls-points", bad is None, bad)
    return r


def filter_base_witness_ref(fam):
    ms = canonical(fam)
    return next(((f.name(), g.name()) for f in ms for g in ms
                 if not any(sub_ref(h, f.inter(g)) for h in ms)), None)


def is_filter_ref(fam):
    ms = fam.members
    if not ms or any(len(s) == 0 for s in ms):
        return False
    upward = all(t in ms for s in ms for t in fam.carrier.subsets() if sub_ref(s, t))
    return closure_witness_ref(fam, FinSet.inter) is None and upward


def upward_ref(fam):
    return {t for s in fam.members for t in fam.carrier.subsets() if sub_ref(s, t)}


def filters_by_mask_scan(carrier):
    """The filters on the carrier by a scan of every family: a family is a
    mask over ``carrier.subsets()``, bit i for the i-th subset, and the
    even masks (no empty member) are taken in ascending order, kept when
    up-closed and closed under intersection."""
    subs = list(carrier.subsets())
    masks = subset_masks(carrier)
    pos = {m: i for i, m in enumerate(masks)}
    ups = [sum(1 << j for j, t in enumerate(masks) if not s & ~t) for s in masks]
    filters = []
    for fmask in range(2, 2 ** len(subs), 2):
        members = [i for i in range(len(subs)) if fmask >> i & 1]
        if any(ups[i] & ~fmask for i in members):
            continue
        if all(fmask >> pos[masks[i] & masks[j]] & 1 for i in members for j in members):
            filters.append(Family(carrier, [subs[i] for i in members]))
    return filters


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type, message and witness it raised."""
    try:
        return fn(*args, **kwargs)
    except CarrierMismatch as e:
        return ("raised", type(e), str(e), e.witness)


# ---------------------------------------------------------------------------


class TestIndexAndHelpers:
    def test_subset_masks_order_on_three_points(self):
        # the order of subsets(), by size and then combination, not range(2**n)
        assert subset_masks(finset("a", "b", "c")) == [0, 1, 2, 4, 3, 5, 6, 7]

    @PROPERTY
    @given(carriers)
    def test_index_is_canonical(self, C):
        assert list(C.bits().items()) == [(x, 1 << i) for i, x in enumerate(C.elements)]
        assert C.bits() is C.bits()

    @PROPERTY
    @given(carriers)
    def test_subset_masks_follow_subsets(self, C):
        subs = list(C.subsets())
        masks = subset_masks(C)
        assert [mask_of(C, s) for s in subs] == masks
        assert [set_of(C, m) for m in masks] == subs
        assert sorted(masks) == list(range(2 ** len(C)))

    @PROPERTY
    @given(carriers, st.data())
    def test_mask_round_trip(self, C, data):
        S = data.draw(subsets_of(C))
        m = mask_of(C, S)
        assert set_of(C, m).elements == S.elements
        assert m == sum(C.bits()[x] for x in S.elements)
        T = FinSet(data.draw(st.sets(st.sampled_from(ALPHABET))))
        assert (mask_of(C, T) is None) == (not sub_ref(T, C))

    @PROPERTY
    @given(carriers, carriers)
    def test_le_matches_tuple_scan(self, A, B):
        assert (A <= B) == all(x in B.elements for x in A.elements)
        assert (A <= list(B)) == all(x in B.elements for x in A.elements)

    @PROPERTY
    @given(carriers, st.sampled_from(ALPHABET + [1, None, ("a",), ["a"], {"a": 1}]))
    def test_contains_matches_tuple_scan(self, C, x):
        assert (x in C) == (x in C.elements)


class TestMapKernel:
    @PROPERTY
    @given(maps(), st.data())
    def test_image_preimage_match_tuple_definitions(self, f, data):
        A = data.draw(subsets_of(f.dom))
        assert f.image(A).elements == image_ref(f, A).elements
        assert f.image().elements == image_ref(f).elements
        X = FinSet(data.draw(st.sets(st.sampled_from(ALPHABET))))
        assert outcome(f.image, X) == outcome(image_ref, f, X)

    @PROPERTY
    @given(maps())
    def test_point_masks(self, f):
        assert f.point_masks() == tuple(f.cod.bits()[f.assign[x]] for x in f.dom.elements)
        for m in range(2 ** len(f.dom)):
            assert f.image_mask(m) == mask_of(f.cod, image_ref(f, set_of(f.dom, m)))
        for m in range(2 ** len(f.cod)):
            assert f.preimage_mask(m) == mask_of(f.dom, preimage_ref(f, set_of(f.cod, m)))


def kernel_checks(C, laws):
    """The closure kernel's (law, witness) pairs as (law, passed, witness)
    triples, each mask named as ``closure_check`` names it."""
    out = []
    for law, bad in laws:
        if bad is not None:
            if law == "cls-points":
                bad = tuple(set_of(C, m).elements[0] for m in bad)
            else:
                bad = tuple(set_of(C, m).name() for m in bad)
        out.append((law, bad is None, bad))
    return out


def report_checks(rep):
    return [(c.law, c.passed, c.witness) for c in rep.checks]


class TestSuiteFastPaths:
    def test_image_tables_match_the_mask_methods(self):
        from structa.suites import _image_tables

        for m in range(4):
            for n in range(4):
                dom = FinSet("a%d" % i for i in range(m))
                cod = FinSet("b%d" % i for i in range(n))
                for f in all_maps(dom, cod):
                    images, preimages = _image_tables(f)
                    assert images == [f.image_mask(a) for a in range(2 ** m)], f
                    assert preimages == [f.preimage_mask(b) for b in range(2 ** n)], f

    @pytest.mark.parametrize("seed", [0, 7])
    def test_closure_kernel_on_every_table_tp_strict_three_samples(self, seed):
        # the sampling loop of suite topology's tp-strict-three, with each
        # table also built as the ClosureOp the loop no longer builds
        import random

        from structa.suites import _strict_passes

        C = finset("a", "b", "c")
        subs = subset_masks(C)
        rng = random.Random(seed + 13)
        sampled = 0
        for _ in range(2000):
            cl = list(range(len(subs)))
            A = rng.choice(subs)
            B = rng.choice(subs)
            cl[A] = B
            if A == B:
                continue
            op = ClosureOp(C, {set_of(C, m): set_of(C, cl[m]) for m in subs})
            rep = closure_check(op)
            assert kernel_checks(C, _closure_laws(subs, cl, strict=True)) == report_checks(rep)
            assert _strict_passes(subs, cl) == rep.passed
            sampled += 1
        assert sampled > 1500

    @PROPERTY
    @given(small_carriers, st.data())
    def test_closure_kernel_on_a_planted_cell(self, C, data):
        # a lawful closure, the meet of the enclosing members of a family
        # that holds the carrier, with one cell replaced
        subs = list(C.subsets())
        fam = data.draw(st.lists(st.sampled_from(subs), max_size=4)) + [C]
        table = {A: inter_of((D for D in fam if A <= D), C) for A in subs}
        table[data.draw(st.sampled_from(subs))] = data.draw(st.sampled_from(subs))
        op = ClosureOp(C, table)
        masks = subset_masks(C)
        cl = [0] * len(masks)
        for A, B in table.items():
            cl[mask_of(C, A)] = mask_of(C, B)
        for strict, wrapper, reference in (
            (False, closure_laws, closure_laws_ref),
            (True, closure_check, closure_check_ref),
        ):
            found = kernel_checks(C, _closure_laws(masks, cl, strict))
            assert found == report_checks(wrapper(op))
            assert found == report_checks(reference(op))


class TestLawReportsMatchTupleDefinitions:
    @PROPERTY
    @given(maps(max_size=3), st.data())
    def test_image_calculus(self, f, data):
        A = data.draw(subsets_of(f.dom))
        B = data.draw(subsets_of(f.cod))
        pool = list(f.dom.subsets()) + list(f.cod.subsets())
        # some families mix carriers, and some members lie in neither
        stray = [FinSet(data.draw(st.sets(st.sampled_from(ALPHABET), max_size=2)))]
        families = data.draw(st.lists(
            st.lists(st.sampled_from(pool + stray), max_size=4), max_size=3))
        got = outcome(image_calculus, f, A, B, families=families)
        assert got == outcome(image_calculus_ref, f, A, B, families=families)
        X = FinSet(data.draw(st.sets(st.sampled_from(ALPHABET), max_size=3)))
        assert outcome(image_calculus, f, X, B) == outcome(image_calculus_ref, f, X, B)
        assert outcome(image_calculus, f, A, X) == outcome(image_calculus_ref, f, A, X)

    def test_image_calculus_exhaustive_two_points(self):
        dom, cod = finset("a", "b"), finset("x", "y")
        subsA, subsB = list(dom.subsets()), list(cod.subsets())
        for values in itertools.product(cod.elements, repeat=2):
            f = FinMap(dom, cod, dict(zip(dom.elements, values)))
            for A, B in itertools.product(subsA, subsB):
                fams = ([A], [B], subsA, subsB[::-1], [])
                assert image_calculus(f, A, B, fams) == image_calculus_ref(f, A, B, fams)

    def test_family_masks_keep_the_carrier_rule(self):
        dom, cod = finset("a", "b"), finset("x", "y", "z")
        # [∅] and [] are families over both carriers
        assert _family_masks(dom, cod, [FinSet()]) == ([0], [0])
        assert _family_masks(dom, cod, []) == ([], [])
        assert _family_masks(dom, cod, [finset("b"), dom]) == ([2, 3], None)
        assert _family_masks(dom, cod, iter([finset("z"), FinSet()])) == (None, [4, 0])
        with pytest.raises(CarrierMismatch, match="share a carrier"):
            _family_masks(dom, cod, [finset("a"), finset("x")])

    @PROPERTY
    @given(maps(max_size=3), st.data())
    def test_fiber_union_check(self, f, data):
        A = data.draw(subsets_of(f.dom))
        B = data.draw(subsets_of(f.cod))
        assert fiber_union_check(f, A, B) == fiber_union_check_ref(f, A, B)
        X = FinSet(data.draw(st.sets(st.sampled_from(ALPHABET), max_size=3)))
        assert outcome(fiber_union_check, f, X, B) == outcome(fiber_union_check_ref, f, X, B)
        assert outcome(fiber_union_check, f, A, X) == outcome(fiber_union_check_ref, f, A, X)

    @PROPERTY
    @given(small_carriers, st.data())
    def test_closure_reports(self, C, data):
        subs = list(C.subsets())
        # an arbitrary table, or the identity with a few cells replaced
        if data.draw(st.booleans()):
            values = data.draw(st.lists(st.sampled_from(subs), min_size=len(subs),
                                        max_size=len(subs)))
            table = dict(zip(subs, values))
        else:
            table = {A: A for A in subs}
            for A in data.draw(st.lists(st.sampled_from(subs), max_size=2)):
                table[A] = data.draw(st.sampled_from(subs))
        op = ClosureOp(C, table)
        assert closure_laws(op) == closure_laws_ref(op)
        assert closure_check(op) == closure_check_ref(op)

    @PROPERTY
    @given(carriers, st.data())
    def test_family_witnesses(self, C, data):
        subs = list(C.subsets())
        fam = Family(C, data.draw(st.lists(st.sampled_from(subs), max_size=8)))
        for op in (FinSet.union, FinSet.inter):
            assert closure_witness(fam, op) == closure_witness_ref(fam, op)
        assert filter_base_witness(fam) == filter_base_witness_ref(fam)
        assert is_filter(fam) == is_filter_ref(fam)
        try:
            assert generate_filter(fam).members == frozenset(upward_ref(fam))
        except EmptyMemberInBase:
            assert not fam.members or FinSet() in fam.members or filter_base_witness_ref(fam)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_filter_enumeration(self, n):
        C = FinSet(ALPHABET[:n])
        expected = filters_by_mask_scan(C)
        if n <= 3:
            families = [Family(C, members) for k in range(2 ** 2 ** n)
                        for members in [[s for i, s in enumerate(C.subsets()) if k >> i & 1]]]
            assert expected == [F for F in families if is_filter_ref(F)]
        assert enumerate_filters(C) == expected

    @pytest.mark.parametrize("members", [[], [()], [("a",)], [("a",), ("b",)],
                                         [("a", "b"), ("b", "c")], [("a",), ()]])
    def test_generate_filter_decides_the_base(self, members):
        C = finset("a", "b", "c")
        fam = Family(C, [FinSet(m) for m in members])
        base = bool(fam.members) and FinSet() not in fam.members and \
            filter_base_witness_ref(fam) is None
        try:
            generated = generate_filter(fam)
        except EmptyMemberInBase:
            generated = None
        assert generated == (Family(C, upward_ref(fam)) if base else None)


# ---------------------------------------------------------------------------
# Mutations: each makes the mask image or preimage drop one bit, and the
# image/preimage laws must catch it on some map between two-point carriers.


def _all_reports():
    dom, cod = finset("a", "b"), finset("x", "y")
    for values in itertools.product(cod.elements, repeat=2):
        f = FinMap(dom, cod, dict(zip(dom.elements, values)))
        for A, B in itertools.product(dom.subsets(), cod.subsets()):
            yield image_calculus(f, A, B, families=([A], [B]))
            yield fiber_union_check(f, A, B)


def _drop_bit(method, bit):
    def mutant(self, m):
        return method(self, m) & ~bit
    return mutant


@pytest.mark.parametrize("name", ["image_mask", "preimage_mask"])
@pytest.mark.parametrize("bit", [1, 2])
def test_dropping_a_bit_fails_the_laws(monkeypatch, name, bit):
    assert all(rep.passed for rep in _all_reports())
    monkeypatch.setattr(FinMap, name, _drop_bit(getattr(FinMap, name), bit))
    assert not all(rep.passed for rep in _all_reports())


def test_a_wrong_image_is_a_failed_unit_not_a_traceback(monkeypatch):
    # fiber partitions built from the wrong images no longer cover the
    # domain; each unit that meets one reports a unit-error and the rest run
    from structa.suites import run_suite

    monkeypatch.setattr(FinMap, "image_mask", _drop_bit(FinMap.image_mask, 2))
    r = run_suite("functions")
    assert [c.law for c in r.failures if c.law == "unit-error"]
    assert "FAIL  unit-error" in r.render_text()


# ``run_suite("functions")`` with the preimage dropping bit 1, as the
# report-per-instance scan rendered it: the suite's failure path names
# the same first failure, with its witness, in every unit
FUNCTIONS_WITHOUT_PREIMAGE_BIT_1 = """\
suite: suite-functions
  PASS  fn-laws-0-0  image/preimage laws, fibers, and decompose-recompose hold on every map (42 checks)
  PASS  fn-laws-0-1  image/preimage laws, fibers, and decompose-recompose hold on every map (76 checks)
  PASS  fn-laws-0-2  image/preimage laws, fibers, and decompose-recompose hold on every map (198 checks)
  PASS  fn-laws-0-3  image/preimage laws, fibers, and decompose-recompose hold on every map (634 checks)
  PASS  fn-laws-1-0  image/preimage laws, fibers, and decompose-recompose hold on every map (0 checks)
  FAIL  fn-laws-1-1  image/preimage laws, fibers, and decompose-recompose hold on every map (137 checks)  witness=("('img', 'img-counit-onto', (('b0',),))",)
  FAIL  fn-laws-1-2  image/preimage laws, fibers, and decompose-recompose hold on every map (538 checks)  witness=("('img', 'img-unit', (('a0',),))",)
  FAIL  fn-laws-1-3  image/preimage laws, fibers, and decompose-recompose hold on every map (2247 checks)  witness=("('img', 'img-unit', (('a0',),))",)
  PASS  fn-laws-2-0  image/preimage laws, fibers, and decompose-recompose hold on every map (0 checks)
  FAIL  fn-laws-2-1  image/preimage laws, fibers, and decompose-recompose hold on every map (242 checks)  witness=("('img', 'img-unit', (('a0',),))",)
  FAIL  fn-laws-2-2  image/preimage laws, fibers, and decompose-recompose hold on every map (1762 checks)  witness=("('img', 'img-unit', (('a0',),))",)
  FAIL  fn-laws-2-3  image/preimage laws, fibers, and decompose-recompose hold on every map (8748 checks)  witness=("('img', 'img-unit', (('a0',),))",)
  PASS  fn-laws-3-0  image/preimage laws, fibers, and decompose-recompose hold on every map (0 checks)
  FAIL  fn-laws-3-1  image/preimage laws, fibers, and decompose-recompose hold on every map (4253 checks)  witness=("('img', 'img-unit', (('a0',),))",)
  FAIL  fn-laws-3-2  image/preimage laws, fibers, and decompose-recompose hold on every map (34856 checks)  witness=("('img', 'img-unit', (('a0',),))",)
  FAIL  fn-laws-3-3  image/preimage laws, fibers, and decompose-recompose hold on every map (134409 checks)  witness=("('img', 'img-unit', (('a0',),))",)
  PASS  fn-volume    the exhaustive scan performed at least 100000 individual checks
  8 passed, 9 failed"""


def test_a_wrong_preimage_keeps_the_suite_failure_text(monkeypatch):
    from structa.suites import run_suite

    monkeypatch.setattr(FinMap, "preimage_mask", _drop_bit(FinMap.preimage_mask, 1))
    assert run_suite("functions").render_text() == FUNCTIONS_WITHOUT_PREIMAGE_BIT_1
