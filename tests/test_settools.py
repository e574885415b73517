"""Settools tests.

Oracles: elementwise set computation with Python sets, brute-force
enumeration of families on carriers of up to four points, and partition
counting for sigma-algebras.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structa.core import FinMap, FinSet, classify, compose, finset
from structa.errors import (
    CarrierMismatch,
    EmptyMemberInBase,
    TooLarge,
)
from structa import settools
from structa.settools import (
    Family,
    closure_witness,
    enumerate_filters,
    filter_base_witness,
    generate_filter,
    inter_of,
    is_filter,
    is_sigma_algebra,
    is_ultrafilter,
    point_filter,
    principal_filter,
    sigma_by_partitions,
    sigma_generate,
    ultrafilter_suite,
    union_of,
)


def family(carrier, *members):
    """The family over ``carrier`` of the subsets listed as symbol lists."""
    return Family(carrier, [FinSet(m) for m in members])


def collapse_map():
    dom = finset("a", "b", "c")
    cod = finset("x", "y")
    return FinMap(dom, cod, {"a": "x", "b": "x", "c": "y"})


def is_filter_base(fam):
    """A nonempty family of nonempty members in which each pair's
    intersection holds a member: the reference for the families that
    ``generate_filter`` accepts, which ``check`` of a filterbase document
    reads."""
    ms = fam.members
    if not ms or any(len(s) == 0 for s in ms):
        return False
    return filter_base_witness(fam) is None


def all_families(carrier):
    subs = list(carrier.subsets())
    for k in range(len(subs) + 1):
        for combo in itertools.combinations(subs, k):
            yield Family(carrier, combo)


def all_maps_between(dom, cod):
    for values in itertools.product(cod.elements, repeat=len(dom)):
        yield FinMap(dom, cod, dict(zip(dom.elements, values)))


def power_table(f):
    """The arrow function of the power functor P: each subset of the
    domain, by name, to the name of its image."""
    return {a.name(): f.image(a).name() for a in f.dom.subsets()}


def preimage(f, B):
    """The points of ``f.dom`` that f sends into B."""
    return FinSet(x for x in f.dom if f(x) in B)


def backward(f, B):
    """The subsets of the domain whose image is exactly B."""
    return {X for X in f.dom.subsets() if f.image(X) == B}


def forward(f, A):
    """The subsets of the image whose preimage is exactly A."""
    return {Y for Y in f.image().subsets() if preimage(f, Y) == A}


def assert_power_functor_theorems(f, g=None):
    """P sends the identity to the identity and g∘f to Pg∘Pf, maps each
    subset to its elementwise image and preserves inclusion. Over the
    domain, P(A∩B) = PA ∩ PB, PA ∪ PB ⊆ P(A∪B), and A is the union of
    PA."""
    pf = power_table(f)
    assert power_table(FinMap.identity(f.dom)) == {a: a for a in pf}
    if g is not None:
        pg = power_table(g)
        assert power_table(compose(g, f)) == {a: pg[b] for a, b in pf.items()}
    subsets = list(f.dom.subsets())
    assert all(pf[a.name()] == FinSet(f(x) for x in a).name() for a in subsets)
    assert all(f.image(a) <= f.image(b) for a in subsets for b in subsets if a <= b)
    for a, b in itertools.product(subsets, repeat=2):
        pa, pb = set(a.subsets()), set(b.subsets())
        assert set(a.inter(b).subsets()) == pa & pb
        assert pa | pb <= set(a.union(b).subsets())
    assert all(union_of(a.subsets()) == a for a in subsets)


def assert_family_image_theorems(f, X, Y):
    """The fiber lemmas and image-family equivalences along f, for a
    family X over its domain and Y over its codomain."""
    flags = classify(f)
    im = f.image()
    direct = {B for B in f.cod.subsets() if preimage(f, B) in X.members}
    inverse = {A for A in f.dom.subsets() if f.image(A) in Y.members}
    for B in im.subsets():
        # the fiber of B under P unions to f⁻¹B, and B is in the direct
        # family image iff that union is in X; for onto f, B ranges over
        # every subset of the codomain
        assert union_of(backward(f, B)) == preimage(f, B)
        assert (B in direct) == (union_of(backward(f, B)) in X.members)
    for A in f.dom.subsets():
        assert forward(f, A) <= {f.image(A)}
        if flags["monic"]:
            assert forward(f, A) == {f.image(A)}
            assert (A in inverse) == (inter_of(forward(f, A), f.cod) in Y.members)
    # on the inverse side "Range f" is the image, and members are nonempty
    if flags["monic"] and all(len(B) > 0 and B <= im for B in Y.members):
        for A in f.dom.subsets():
            assert (A in inverse) == any(A == union_of(backward(f, B)) for B in Y.members)


class TestPowerFunctor:
    def test_identity_law(self):
        f = FinMap.identity(finset("a", "b", "c"))
        assert power_table(f) == {a.name(): a.name() for a in f.dom.subsets()}
        assert_power_functor_theorems(f)

    def test_collapse_table_matches_oracle(self):
        f = collapse_map()
        pf = power_table(f)
        for a in f.dom.subsets():
            expect = FinSet(f(x) for x in a)
            assert pf[a.name()] == expect.name()
        assert len(pf) == 8

    def test_composition_law(self):
        f = collapse_map()
        g = FinMap(f.cod, finset("u"), {"x": "u", "y": "u"})
        assert_power_functor_theorems(f, g)

    def test_strict_join_inclusion_witness(self):
        carrier = finset("a", "b")
        A, B = finset("a"), finset("b")
        pa = {x.name() for x in A.subsets()}
        pb = {x.name() for x in B.subsets()}
        pun = {x.name() for x in A.union(B).subsets()}
        assert pa | pb < pun
        assert "{a,b}" in pun - (pa | pb)

    def test_report_over_random_maps(self):
        rng = random.Random(2)
        dom = finset("a", "b", "c")
        cod = finset("x", "y", "z")
        for _ in range(10):
            f = FinMap(
                dom, cod, {x: rng.choice(cod.elements) for x in dom}
            )
            g = FinMap(cod, dom, {y: rng.choice(dom.elements) for y in cod})
            assert_power_functor_theorems(f, g)


class TestFamilyImages:
    def test_bijective_direct_images_agree(self):
        dom = finset("a", "b")
        f = FinMap(dom, finset("x", "y"), {"a": "x", "b": "y"})
        X = Family(dom, [finset("a")])
        direct = Family(f.cod, [f.image(A) for A in X.members])
        family_direct = Family(f.cod, [B for B in f.cod.subsets() if preimage(f, B) in X.members])
        assert direct.members == family_direct.members == {finset("x")}

    def test_backward_of_point_is_power_fiber(self):
        f = collapse_map()
        B = finset("y")
        back = backward(f, B)
        pf = power_table(f)
        oracle = {
            A for A in f.dom.subsets() if pf[A.name()] == B.name()
        }
        assert back == oracle
        assert back == {finset("c")}

    def test_forward_monic(self):
        dom = finset("a", "b")
        f = FinMap(dom, finset("x", "y", "z"), {"a": "x", "b": "y"})
        for A in dom.subsets():
            assert forward(f, A) == {f.image(A)}

    def test_laws_exhaustive_small(self):
        dom = finset("a", "b")
        cod = finset("x", "y")
        fams_dom = list(all_families(dom))
        fams_cod = list(all_families(cod))
        rng = random.Random(9)
        for f in all_maps_between(dom, cod):
            for _ in range(12):
                X = rng.choice(fams_dom)
                Y = rng.choice(fams_cod)
                assert_family_image_theorems(f, X, Y)

    def test_laws_three_point_sample(self):
        dom = finset("a", "b", "c")
        cod = finset("x", "y")
        rng = random.Random(13)
        fams_dom = list(all_families(dom))
        fams_cod = list(all_families(cod))
        for f in all_maps_between(dom, cod):
            assert_family_image_theorems(f, rng.choice(fams_dom), rng.choice(fams_cod))

    def test_carrier_mismatch(self):
        # the direct image of a family lives over the codomain, not the domain
        f = collapse_map()
        X = Family(f.dom, [finset("a"), finset("c")])
        with pytest.raises(CarrierMismatch):
            Family(f.dom, [f.image(A) for A in X.members])


def assert_increasing_nest(chain):
    """An increasing nest and its disjointification share a union, and
    the disjointification is pairwise disjoint."""
    disjoint = [chain[0]] + [chain[i + 1].diff(chain[i]) for i in range(len(chain) - 1)]
    assert union_of(chain) == union_of(disjoint)
    assert all(not a.inter(b) for a, b in itertools.combinations(disjoint, 2))


def assert_decreasing_nest(chain):
    """The top of a decreasing nest is the union of the telescoping
    differences and the last term."""
    pieces = [chain[i].diff(chain[i + 1]) for i in range(len(chain) - 1)]
    assert chain[0] == union_of(pieces).union(chain[-1])


def assert_set_identities(A, B, C, X, carrier):
    """Difference, distribution, De Morgan and decomposition identities
    over ``carrier``, and the nest identities of A ⊆ A∪B ⊆ A∪B∪C read
    upwards and downwards."""
    comp = lambda s: s.complement_in(carrier)
    assert A.diff(B).diff(C) == A.diff(B.union(C))
    assert A.diff(B) == A.inter(comp(B))
    assert A.inter(B.union(C)) == A.inter(B).union(A.inter(C))
    assert A.union(B.inter(C)) == A.union(B).inter(A.union(C))
    assert comp(union_of(X)) == inter_of((comp(s) for s in X), carrier)
    if len(X) > 0:
        assert comp(inter_of(X, carrier)) == union_of(comp(s) for s in X)
    assert A == A.inter(B).union(A.diff(B)) and not A.inter(B).inter(A.diff(B))
    assert A.union(B) == A.diff(B).union(A.inter(B)).union(B.diff(A))
    nest = [A, A.union(B), A.union(B).union(C)]
    assert_increasing_nest(nest)
    assert_decreasing_nest(nest[::-1])


class TestSetLaws:
    def test_trivial_equal_sets(self):
        carrier = finset("a", "b", "c")
        A = finset("a", "b")
        assert_set_identities(A, A, A, Family(carrier, [A]), carrier)
        assert not A.diff(A)

    def test_random_triples(self):
        carrier = finset("a", "b", "c", "d", "e")
        subs = list(carrier.subsets())
        rng = random.Random(21)
        for _ in range(1000):
            A, B, C = rng.choice(subs), rng.choice(subs), rng.choice(subs)
            X = Family(carrier, rng.sample(subs, rng.randint(0, 4)))
            assert_set_identities(A, B, C, X, carrier)

    def test_four_step_decreasing_nest(self):
        chain = [
            finset("a", "b", "c", "d"),
            finset("a", "b", "c"),
            finset("a", "b"),
            finset("a"),
        ]
        assert_decreasing_nest(chain)
        # oracle: telescoping pieces are the dropped singletons
        pieces = [chain[i].diff(chain[i + 1]) for i in range(3)]
        assert pieces == [finset("d"), finset("c"), finset("b")]


class TestSigma:
    def test_empty_generates_trivial(self):
        carrier = finset("a", "b", "c")
        out = sigma_generate(carrier, Family(carrier, []))
        assert out.members == {FinSet(), carrier}

    def test_single_generator(self):
        carrier = finset("a", "b", "c")
        out = sigma_generate(carrier, family(carrier, ["a"]))
        assert out.members == {
            FinSet(),
            finset("a"),
            finset("b", "c"),
            carrier,
        }

    def test_all_generators_on_three_points(self):
        carrier = finset("a", "b", "c")
        for B in all_families(carrier):
            out = sigma_generate(carrier, B)
            assert is_sigma_algebra(out)
            assert B.members <= out.members
            # minimality against brute-forced sigma-algebras
            for other in all_families(carrier):
                if is_sigma_algebra(other) and B.members <= other.members:
                    assert out.members <= other.members

    def test_four_point_instance(self):
        carrier = finset("a", "b", "c", "d")
        out = sigma_generate(carrier, family(carrier, ["a", "b"]))
        assert len(out.members) == 4

    def test_guard(self):
        carrier = finset("a", "b", "c", "d", "e")
        with pytest.raises(TooLarge):
            sigma_generate(carrier, Family(carrier, []))

    def test_sigma_algebra_count_matches_bell_numbers(self):
        # sigma-algebras on n points correspond to partitions
        for carrier, bell in [
            (finset("a"), 1),
            (finset("a", "b"), 2),
            (finset("a", "b", "c"), 5),
        ]:
            count = sum(
                1 for fam in all_families(carrier) if is_sigma_algebra(fam)
            )
            assert count == bell


class TestFilters:
    def test_trivial_filter(self):
        carrier = finset("a", "b", "c")
        fam = Family(carrier, [carrier])
        assert is_filter_base(fam) and is_filter(fam)
        assert generate_filter(fam).members == {carrier}

    def test_point_filter_from_base(self):
        carrier = finset("a", "b", "c")
        base = family(carrier, ["a"], ["a", "b"])
        gen = generate_filter(base)
        assert gen.members == {
            finset("a"),
            finset("a", "b"),
            finset("a", "c"),
            carrier,
        }
        assert gen == point_filter(carrier, "a")

    def test_empty_member_rejected(self):
        carrier = finset("a", "b")
        with pytest.raises(EmptyMemberInBase):
            generate_filter(Family(carrier, [FinSet(), carrier]))

    def test_witnesses_do_not_depend_on_the_hash_seed(self):
        # {a,b} and {a,c} meet in {a}, which holds no member; {y} and {z}
        # both miss the image {x} of the constant map
        code = (
            "from structa.core import FinSet, finset\n"
            "from structa.settools import Family, generate_filter\n"
            "members = [['a', 'b'], ['c', 'd'], ['a', 'c'], ['b', 'd']]\n"
            "base = Family(finset('a', 'b', 'c', 'd'), [FinSet(m) for m in members])\n"
            "try:\n"
            "    generate_filter(base)\n"
            "except Exception as e:\n"
            "    print(e.witness)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        for seed in range(6):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, timeout=60)
            assert (proc.stdout, proc.stderr) == ("('{a,b}', '{a,c}')\n", ""), seed

    def test_filter_count_two_points(self):
        carrier = finset("a", "b")
        assert len(enumerate_filters(carrier)) == 3

    def test_filter_enumeration_matches_principal_catalogue(self):
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c"),
                        finset("a", "b", "c", "d")):
            filters = enumerate_filters(carrier)
            principals = {
                principal_filter(carrier, S).members
                for S in carrier.subsets()
                if len(S) > 0
            }
            assert {F.members for F in filters} == principals

    def test_union_of_principal_filters(self):
        carrier = finset("a", "b", "c")
        for F in enumerate_filters(carrier):
            assert is_filter(F)
            union = set()
            for S in F:
                union |= principal_filter(carrier, S).members
            assert union == F.members

    def test_minimality_of_generated_filter(self):
        # on every base over ≤3 points the generated filter is the least
        # filter that holds the base
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c")):
            filters = enumerate_filters(carrier)
            for b in (fam for fam in all_families(carrier) if is_filter_base(fam)):
                gen = generate_filter(b)
                for F in filters:
                    if b.members <= F.members:
                        assert gen.members <= F.members


def refines(a, b):
    """Base ``b`` refines base ``a``: each member of ``a`` holds a member of ``b``."""
    return all(any(c <= s for c in b.members) for s in a.members)


class TestRefinement:
    def test_laws_up_to_three_points(self):
        # refinement of bases is the inclusion order of the generated filters:
        # a finer base generates a larger filter, mutual refinement means the
        # same filter, and on filters refinement is plain inclusion
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c")):
            bases = [fam for fam in all_families(carrier) if is_filter_base(fam)]
            for a in bases:
                for b in bases:
                    assert refines(a, b) == (
                        generate_filter(a).members <= generate_filter(b).members
                    )
            for F in enumerate_filters(carrier):
                for G in enumerate_filters(carrier):
                    assert refines(F, G) == (F.members <= G.members)

    def test_equivalent_bases(self):
        carrier = finset("a", "b", "c")
        b1 = family(carrier, ["a"], ["a", "b"])
        b2 = family(carrier, ["a"], ["a", "c"])
        assert generate_filter(b1) == generate_filter(b2)


class TestUltrafilters:
    def test_single_point(self):
        carrier = finset("a")
        filters = enumerate_filters(carrier)
        assert len(filters) == 1
        assert is_ultrafilter(filters[0])

    def test_three_point_suite(self):
        rep = ultrafilter_suite(finset("a", "b", "c"))
        assert rep.passed, rep.render_text()

    def test_four_point_suite(self):
        rep = ultrafilter_suite(finset("a", "b", "c", "d"))
        assert rep.passed, rep.render_text()

    def test_five_point_suite(self):
        rep = ultrafilter_suite(finset("a", "b", "c", "d", "e"))
        assert rep.passed, rep.render_text()

    def test_non_maximal_witness(self):
        carrier = finset("a", "b")
        trivial = Family(carrier, [carrier])
        assert is_filter(trivial) and not is_ultrafilter(trivial)
        A = finset("a")
        assert A not in trivial.members
        assert A.complement_in(carrier) not in trivial.members

    def test_guard(self):
        with pytest.raises(TooLarge):
            ultrafilter_suite(finset("a", "b", "c", "d", "e", "f"))

    def test_principal_representation_brute_force(self):
        # the reduction used at five points: every filter has a minimum
        # member and equals that member's principal filter
        for carrier in (finset("a", "b"), finset("a", "b", "c")):
            for F in enumerate_filters(carrier):
                bottom = None
                for s in F:
                    bottom = s if bottom is None else bottom.inter(s)
                assert bottom in F.members
                assert F.members == principal_filter(carrier, bottom).members


class TestSigmaReference:
    """``sigma_generate`` (closure iteration) against the partition
    intersection in ``sigma_by_partitions``."""

    def test_closure_matches_partitions_up_to_three_points(self):
        for carrier in (finset(), finset("a"), finset("a", "b"), finset("a", "b", "c")):
            for B in all_families(carrier):
                assert sigma_generate(carrier, B) == sigma_by_partitions(carrier, B)

    def test_closure_matches_partitions_on_four_points(self):
        carrier = finset("a", "b", "c", "d")
        rng = random.Random(4)
        subs = list(carrier.subsets())
        for _ in range(40):
            B = Family(carrier, rng.sample(subs, rng.randint(0, 4)))
            assert sigma_generate(carrier, B) == sigma_by_partitions(carrier, B)

    def test_suite_law_fails_when_closure_drops_a_member(self, monkeypatch):
        from structa.suites import run_suite

        real = settools.sigma_generate

        def drop_one(carrier, B, guard=4):
            out = real(carrier, B, guard)
            return Family(carrier, sorted(out, key=lambda s: s.elements)[1:])

        monkeypatch.setattr(settools, "sigma_generate", drop_one)
        rep = run_suite("sigma")
        assert not rep["sg-all-families"].passed


class TestFilterTheorems:
    def test_principal_unit_fails_when_the_meet_is_wrong(self, monkeypatch):
        # with the carrier as every filter's meet, only the filter {carrier}
        # is its principal filter, and that is every filter on one point
        from structa.suites import run_suite

        monkeypatch.setattr(settools, "inter_of", lambda fam, carrier: carrier)
        marks = {line.split()[1]: line.split()[0]
                 for line in run_suite("filters").render_text().splitlines()[1:-1]}
        assert {law: marks[law] for law in marks if law.startswith("fl-")} == {
            "fl-principal-1": "PASS",
            **{"fl-principal-%d" % n: "FAIL" for n in (2, 3, 4)},
            **{"fl-minimal-%d" % n: "PASS" for n in (1, 2, 3, 4)},
        }

    def test_generate_filter_accepts_exactly_the_filter_bases(self):
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c")):
            for fam in all_families(carrier):
                try:
                    generate_filter(fam)
                except EmptyMemberInBase:
                    accepted = False
                else:
                    accepted = True
                assert accepted == is_filter_base(fam), fam

    def test_generated_filters_are_filters(self):
        # and generating a filter is extensive and idempotent
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c")):
            for fam in all_families(carrier):
                if is_filter_base(fam):
                    gen = generate_filter(fam)
                    assert is_filter(gen)
                    assert fam.members <= gen.members
                    assert generate_filter(gen) == gen

    def test_generated_filter_is_the_upward_scan(self):
        # the sets that hold some base member, on every base over ≤3 points
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c")):
            for fam in all_families(carrier):
                if is_filter_base(fam):
                    scan = {S for S in carrier.subsets() if any(B <= S for B in fam.members)}
                    assert generate_filter(fam).members == scan

    def test_is_filter_matches_the_definition(self):
        for carrier in (finset(), finset("a"), finset("a", "b"), finset("a", "b", "c")):
            subs = list(carrier.subsets())
            for fam in all_families(carrier):
                ms = fam.members
                want = (
                    len(ms) > 0
                    and FinSet() not in ms
                    and all(T in ms for S in ms for T in subs if S <= T)
                    and all(S.inter(T) in ms for S in ms for T in ms)
                )
                assert is_filter(fam) == want, sorted(S.elements for S in ms)

    def test_filter_ops_decomposition(self):
        # the filter a base generates is the union of the principal
        # filters of its members, and a filter generates itself
        for carrier in (finset("a", "b"), finset("a", "b", "c")):
            for fam in all_families(carrier):
                if not is_filter_base(fam):
                    continue
                gen = generate_filter(fam)
                union = set()
                for S in gen:
                    union |= principal_filter(carrier, S).members
                assert union == gen.members
                assert is_filter_base(gen)  # downward directed
                if is_filter(fam):
                    assert gen.members == fam.members


# ---------------------------------------------------------------------------
# Witness searches over families, against references that collect every
# witness in canonical member order and take the first. The families obey
# the law, then one subset is planted: added if absent, removed if present.

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def lawful_families(carrier):
    """Families closed under ∪ and ∩ that are also filter bases when
    non-empty: the principal up-sets and the nested chains."""
    subs = list(carrier.subsets())
    yield from ([t for t in subs if s <= t] for s in subs)
    for order in itertools.permutations(carrier.elements):
        yield [FinSet(order[:k]) for k in range(len(order) + 1)]
        yield [FinSet(order[:k]) for k in range(1, len(order) + 1)]


@st.composite
def planted_families(draw):
    # "é" and "10" sort around the letters, so the canonical order is not alphabetical
    carrier = FinSet(draw(st.lists(st.sampled_from(["a", "b", "10", "é"]), min_size=1, unique=True)))
    members = set(draw(st.sampled_from(list(lawful_families(carrier)))))
    members ^= {draw(st.sampled_from(list(carrier.subsets())))}
    return Family(carrier, members)


def canonical(fam):
    return sorted(fam.members, key=lambda s: (len(s), s.elements))


def first_unclosed(fam, op):
    bad = [(a.name(), b.name()) for a, b in itertools.product(canonical(fam), repeat=2)
           if op(a, b) not in fam.members]
    return bad[0] if bad else None


def first_unmet(fam):
    # no member lies inside f ∩ g: no subset of f ∩ g is a member
    bad = [(f.name(), g.name()) for f, g in itertools.product(canonical(fam), repeat=2)
           if not set(f.inter(g).subsets()) & fam.members]
    return bad[0] if bad else None


class TestWitnessSearches:
    @PROPERTY
    @given(planted_families(), st.sampled_from([FinSet.union, FinSet.inter]))
    def test_closure_witness_is_the_first(self, fam, op):
        assert closure_witness(fam, op) == first_unclosed(fam, op)

    @PROPERTY
    @given(planted_families())
    def test_filter_base_witness_is_the_first(self, fam):
        assert filter_base_witness(fam) == first_unmet(fam)
        base = bool(fam.members) and FinSet() not in fam.members and first_unmet(fam) is None
        assert is_filter_base(fam) == base
