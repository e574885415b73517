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

from structa.core import FinMap, FinSet, finset
from structa.errors import (
    CarrierMismatch,
    Degenerate,
    EmptyMemberInBase,
    MeetingConditionFailed,
    TooLarge,
)
from structa import settools
from structa.order import Poset
from structa.settools import (
    Family,
    closure_witness,
    elementary_filter,
    enumerate_filters,
    f_backward,
    f_forward,
    family,
    family_image_laws,
    family_images,
    filter_base_witness,
    filter_ops,
    filter_transport,
    frechet_base,
    generate_filter,
    cofinite_base,
    is_filter,
    is_filter_base,
    is_sigma_algebra,
    is_ultrafilter,
    nest_identities,
    point_filter,
    power_functor_check,
    power_map,
    principal_filter,
    refinement,
    refinement_laws,
    set_law_suite,
    sigma_by_partitions,
    sigma_generate,
    ultrafilter_suite,
    union_of,
)


def collapse_map():
    dom = finset("a", "b", "c")
    cod = finset("x", "y")
    return FinMap(dom, cod, {"a": "x", "b": "x", "c": "y"})


def all_families(carrier):
    subs = list(carrier.subsets())
    for k in range(len(subs) + 1):
        for combo in itertools.combinations(subs, k):
            yield Family(carrier, combo)


def all_maps_between(dom, cod):
    for values in itertools.product(cod.elements, repeat=len(dom)):
        yield FinMap(dom, cod, dict(zip(dom.elements, values)))


class TestPowerFunctor:
    def test_identity_law(self):
        f = FinMap.identity(finset("a", "b", "c"))
        rep = power_functor_check(f)
        assert rep.passed, rep.render_text()

    def test_collapse_table_matches_oracle(self):
        f = collapse_map()
        pf = power_map(f)
        for a in f.dom.subsets():
            expect = FinSet(f(x) for x in a)
            assert pf(a.name()) == expect.name()
        assert len(pf.dom) == 8

    def test_composition_law(self):
        f = collapse_map()
        g = FinMap(f.cod, finset("u"), {"x": "u", "y": "u"})
        rep = power_functor_check(f, g)
        assert rep.passed, rep.render_text()

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
            assert power_functor_check(f).passed


class TestFamilyImages:
    def test_bijective_direct_images_agree(self):
        dom = finset("a", "b")
        f = FinMap(dom, finset("x", "y"), {"a": "x", "b": "y"})
        X = Family(dom, [finset("a")])
        Y = Family(f.cod, [finset("x")])
        out = family_images(f, X, Y)
        assert out["direct"].members == out["family_direct"].members.intersection(
            out["direct"].members
        )
        assert out["direct"].members <= out["family_direct"].members

    def test_backward_of_point_is_power_fiber(self):
        f = collapse_map()
        B = finset("y")
        back = f_backward(f, B)
        pf = power_map(f)
        oracle = {
            A for A in f.dom.subsets() if pf(A.name()) == B.name()
        }
        assert back == oracle
        assert back == {finset("c")}

    def test_forward_monic(self):
        dom = finset("a", "b")
        f = FinMap(dom, finset("x", "y", "z"), {"a": "x", "b": "y"})
        for A in dom.subsets():
            assert f_forward(f, A) == {f.image(A)}

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
                rep = family_image_laws(f, X, Y)
                assert rep.passed, rep.render_text()

    def test_laws_three_point_sample(self):
        dom = finset("a", "b", "c")
        cod = finset("x", "y")
        rng = random.Random(13)
        fams_dom = list(all_families(dom))
        fams_cod = list(all_families(cod))
        for f in all_maps_between(dom, cod):
            rep = family_image_laws(f, rng.choice(fams_dom), rng.choice(fams_cod))
            assert rep.passed, rep.render_text()

    def test_carrier_mismatch(self):
        f = collapse_map()
        with pytest.raises(CarrierMismatch):
            family_images(f, Family(f.cod, []), Family(f.cod, []))


class TestSetLaws:
    def test_trivial_equal_sets(self):
        carrier = finset("a", "b", "c")
        A = finset("a", "b")
        rep = set_law_suite(A, A, A, Family(carrier, [A]))
        assert rep.passed
        assert not A.diff(A)

    def test_random_triples(self):
        carrier = finset("a", "b", "c", "d", "e")
        subs = list(carrier.subsets())
        rng = random.Random(21)
        for _ in range(1000):
            A, B, C = rng.choice(subs), rng.choice(subs), rng.choice(subs)
            X = Family(carrier, rng.sample(subs, rng.randint(0, 4)))
            rep = set_law_suite(A, B, C, X)
            assert rep.passed, rep.render_text()

    def test_four_step_decreasing_nest(self):
        carrier = finset("a", "b", "c", "d")
        chain = [
            finset("a", "b", "c", "d"),
            finset("a", "b", "c"),
            finset("a", "b"),
            finset("a"),
        ]
        rep = nest_identities(chain, carrier)
        assert rep.passed, rep.render_text()
        # oracle: telescoping pieces are the dropped singletons
        pieces = [chain[i].diff(chain[i + 1]) for i in range(3)]
        assert union_of(pieces).union(chain[-1]) == chain[0]

    def test_non_nest_flagged(self):
        carrier = finset("a", "b")
        rep = nest_identities([finset("a"), finset("b")], carrier)
        assert not rep.passed


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
        out = filter_ops(carrier, fam)
        assert out["base"] and out["filter"]
        assert out["generated"].members == {carrier}

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
            "from structa.core import FinMap, finset\n"
            "from structa.settools import family, filter_transport, generate_filter\n"
            "base = family(finset('a', 'b', 'c', 'd'), ['a', 'b'], ['c', 'd'], ['a', 'c'], ['b', 'd'])\n"
            "xyz = finset('x', 'y', 'z')\n"
            "f = FinMap.constant(finset('a'), xyz, 'x')\n"
            "for run in (lambda: generate_filter(base),\n"
            "            lambda: filter_transport(f, family(xyz, ['z'], ['y'], ['x']), 'backward')):\n"
            "    try:\n"
            "        run()\n"
            "    except Exception as e:\n"
            "        print(e.witness)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        for seed in range(6):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, timeout=60)
            assert (proc.stdout, proc.stderr) == ("('{a,b}', '{a,c}')\n('{y}',)\n", ""), seed

    def test_filter_count_two_points(self):
        carrier = finset("a", "b")
        assert len(enumerate_filters(carrier)) == 3

    def test_filter_enumeration_matches_principal_catalogue(self):
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c")):
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
            out = filter_ops(carrier, F)
            assert out["filter"]
            assert out["principal_decomposition"] is not None

    def test_minimality_of_generated_filter(self):
        carrier = finset("a", "b", "c")
        filters = enumerate_filters(carrier)
        base = family(carrier, ["a", "b"], ["a"])
        gen = generate_filter(base)
        for F in filters:
            if base.members <= F.members:
                assert gen.members <= F.members


class TestRefinement:
    def test_reflexive(self):
        carrier = finset("a", "b")
        base = family(carrier, ["a"])
        assert refinement(base, base)["finer"]

    def test_subset_witness(self):
        carrier = finset("a", "b", "c")
        coarse = family(carrier, ["a", "b"])
        fine = family(carrier, ["a"])
        assert refinement(coarse, fine)["finer"]
        assert not refinement(fine, coarse)["finer"]

    def test_equivalent_bases(self):
        carrier = finset("a", "b", "c")
        b1 = family(carrier, ["a"], ["a", "b"])
        b2 = family(carrier, ["a"], ["a", "c"])
        assert refinement(b1, b2)["finer"] and refinement(b2, b1)["finer"]
        assert generate_filter(b1) == generate_filter(b2)

    def test_laws_up_to_three_points(self):
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c")):
            rep = refinement_laws(carrier)
            assert rep.passed, rep.render_text()


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


class TestTransport:
    def test_identity_transport(self):
        carrier = finset("a", "b")
        f = FinMap.identity(carrier)
        base = family(carrier, ["a"])
        assert filter_transport(f, base, "forward") == base
        assert filter_transport(f, base, "backward") == base

    def test_collapse_point_filter(self):
        f = collapse_map()
        F = point_filter(f.dom, "a")
        moved = filter_transport(f, F, "forward")
        assert generate_filter(moved) == point_filter(f.cod, "x")

    def test_backward_meeting_condition(self):
        dom = finset("a")
        f = FinMap(dom, finset("x", "y"), {"a": "x"})
        base = family(f.cod, ["y"])
        with pytest.raises(MeetingConditionFailed):
            filter_transport(f, base, "backward")

    def test_forward_base_stays_base(self):
        f = collapse_map()
        for F in enumerate_filters(f.dom):
            moved = filter_transport(f, F, "forward")
            assert is_filter_base(moved)


class TestDegenerateConstructors:
    def test_cofinite_degenerate(self):
        with pytest.raises(Degenerate):
            cofinite_base(finset("a", "b"))

    def test_frechet_degenerate_on_finite_directed(self):
        carrier = finset("a", "b", "c")
        pairs = {(x, y) for x in carrier for y in carrier if x <= y}
        chain = Poset(carrier, pairs)
        with pytest.raises(Degenerate):
            frechet_base(chain)

    def test_elementary_filter_degenerates_with_base(self):
        carrier = finset("a", "b")
        chain = Poset(carrier, {("a", "a"), ("b", "b"), ("a", "b")})
        net = FinMap(carrier, finset("x", "y"), {"a": "x", "b": "y"})
        with pytest.raises(Degenerate):
            elementary_filter(net, chain)


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
    def test_generated_filters_are_filters(self):
        for carrier in (finset("a"), finset("a", "b"), finset("a", "b", "c")):
            for fam in all_families(carrier):
                if is_filter_base(fam):
                    assert is_filter(generate_filter(fam))

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
        for carrier in (finset("a", "b"), finset("a", "b", "c")):
            for fam in all_families(carrier):
                out = filter_ops(carrier, fam)
                if not out["base"]:
                    continue
                gen = out["generated"]
                union = set()
                for p in out["principal_decomposition"].values():
                    union |= p.members
                assert union == gen.members
                assert is_filter_base(gen)  # downward directed
                if out["filter"]:
                    assert gen.members == fam.members

    def test_transport_keeps_bases(self):
        dom, cod = finset("a", "b", "c"), finset("x", "y")
        bases_dom = [B for B in all_families(dom) if is_filter_base(B)]
        bases_cod = [B for B in all_families(cod) if is_filter_base(B)]
        for f in all_maps_between(dom, cod):
            for B in bases_dom:
                assert is_filter_base(filter_transport(f, B, "forward"))
            for B in bases_cod:
                try:
                    out = filter_transport(f, B, "backward")
                except MeetingConditionFailed:
                    continue
                assert is_filter_base(out)


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
