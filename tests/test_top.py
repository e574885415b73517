"""Topology module tests.

Oracles: brute-force family enumeration on up to four points, the known
topology counts 1, 4, 29, 355, and direct evaluation of the Sierpinski
space.
"""

import itertools

import pytest

from structa.core import FinSet, finset
from structa.errors import (
    BadStructure,
    CarrierMismatch,
    NotClosedFamily,
    NotCovering,
    TooLarge,
)
from structa.settools import Family, inter_of, union_of
from structa.top import (
    ClosureOp,
    Topology,
    base_ops,
    check_topology,
    closure_check,
    closure_from_closed,
    closure_laws,
    discrete_closure,
    enumerate_topologies,
    neighborhood_laws,
    neighborhoods,
    open_duality,
    point_base_check,
)


def sierpinski():
    carrier = finset("a", "b")
    opens = Family(carrier, [FinSet(), finset("b"), carrier])
    return check_topology(carrier, opens)


def all_closure_tables(carrier):
    subs = list(carrier.subsets())
    for values in itertools.product(subs, repeat=len(subs)):
        yield ClosureOp(carrier, dict(zip(subs, values)))


def closure_with_closed_sets(carrier, fam):
    """A closure table whose fixed points are exactly the sets in fam."""
    table = {
        A: A if A in fam else (carrier if A != carrier else FinSet())
        for A in carrier.subsets()
    }
    return ClosureOp(carrier, table)


def closed_under_all_intersections(op):
    """Reference for clx-closed-inter: every non-empty combination."""
    closed = op.closed_sets()
    ms = list(closed)
    return all(
        inter_of(combo, op.carrier) in closed
        for k in range(1, len(ms) + 1)
        for combo in itertools.combinations(ms, k)
    )


class TestClosedIntersectionReference:
    def test_every_family_on_three_points(self):
        carrier = finset("a", "b", "c")
        subs = list(carrier.subsets())
        for k in range(len(subs) + 1):
            for fam in itertools.combinations(subs, k):
                op = closure_with_closed_sets(carrier, set(fam))
                assert op.closed_sets().members == frozenset(fam)
                got = closure_laws(op)["clx-closed-inter"].passed
                assert got == closed_under_all_intersections(op), fam

    def test_every_table_on_two_points(self):
        for op in all_closure_tables(finset("a", "b")):
            got = closure_laws(op)["clx-closed-inter"].passed
            assert got == closed_under_all_intersections(op)

    def test_discrete_four_points(self):
        op = discrete_closure(finset("a", "b", "c", "d"))
        assert closure_laws(op)["clx-closed-inter"].passed
        assert closed_under_all_intersections(op)


class TestStrictClosure:
    def test_identity_passes(self):
        op = discrete_closure(finset("a", "b", "c"))
        rep = closure_check(op)
        assert rep.passed, rep.render_text()

    def test_only_identity_passes_strict_axioms(self):
        for carrier in (finset("a"), finset("a", "b")):
            winners = [
                op for op in all_closure_tables(carrier) if closure_check(op).passed
            ]
            assert winners == [discrete_closure(carrier)]

    def test_three_point_strictness_by_argument_checks(self):
        # on three points the table space is too big to scan whole;
        # additivity and point fixing pin every value directly
        carrier = finset("a", "b", "c")
        op = discrete_closure(carrier)
        rep = closure_check(op)
        assert rep.passed
        # any non-identity value on a singleton breaks cls-points
        table = {A: A for A in carrier.subsets()}
        table[finset("a")] = finset("a", "b")
        bad = ClosureOp(carrier, table)
        assert not closure_check(bad)["cls-points"].passed

    def test_idempotence_violation_witnessed(self):
        carrier = finset("a", "b")
        table = {A: A for A in carrier.subsets()}
        table[finset("a")] = finset("a", "b")
        table[finset("a", "b")] = finset("a", "b")
        op = ClosureOp(carrier, table)
        rep = closure_check(op)
        assert not rep.passed
        assert not rep["cls-points"].passed

    def test_nonmonotone_witnessed(self):
        carrier = finset("a", "b")
        table = {
            FinSet(): FinSet(),
            finset("a"): finset("a", "b"),
            finset("b"): finset("b"),
            finset("a", "b"): finset("b"),
        }
        rep = closure_laws(ClosureOp(carrier, table))
        assert not rep["clx-monotone"].passed
        assert rep["clx-monotone"].witness is not None


class TestClosureFromClosed:
    def test_all_subsets_give_identity(self):
        carrier = finset("a", "b")
        C = Family(carrier, carrier.subsets())
        assert closure_from_closed(carrier, C) == discrete_closure(carrier)

    def test_sierpinski_closure(self):
        carrier = finset("a", "b")
        C = Family(carrier, [FinSet(), finset("b"), carrier])
        # closed sets {∅,{b},{a,b}} — wait: we feed closed sets directly
        C = Family(carrier, [FinSet(), finset("a"), carrier])
        op = closure_from_closed(carrier, C)
        assert op(finset("a")) == finset("a")
        assert op(finset("b")) == carrier

    def test_closed_sets_roundtrip_exhaustive(self):
        carrier = finset("a", "b", "c")
        for T in enumerate_topologies(carrier):
            closed = Family(
                carrier, [s.complement_in(carrier) for s in T.members]
            )
            op = closure_from_closed(carrier, closed)
            assert op.closed_sets().members == closed.members
            assert closure_laws(op).passed

    def test_not_intersection_closed_rejected(self):
        carrier = finset("a", "b", "c")
        C = Family(
            carrier,
            [FinSet(), finset("a", "b"), finset("b", "c"), carrier],
        )
        with pytest.raises(NotClosedFamily):
            closure_from_closed(carrier, C)

    def test_missing_carrier_rejected(self):
        carrier = finset("a", "b")
        with pytest.raises(NotClosedFamily):
            closure_from_closed(carrier, Family(carrier, [FinSet()]))


class TestTopology:
    def test_counts_match_known_values(self):
        assert len(enumerate_topologies(finset("a"))) == 1
        assert len(enumerate_topologies(finset("a", "b"))) == 4
        assert len(enumerate_topologies(finset("a", "b", "c"))) == 29
        assert len(enumerate_topologies(finset("a", "b", "c", "d"))) == 355

    def test_enumeration_guard(self):
        with pytest.raises(TooLarge):
            enumerate_topologies(finset("a", "b", "c", "d", "e"))

    def test_invalid_topology_rejected(self):
        carrier = finset("a", "b", "c")
        opens = Family(
            carrier, [FinSet(), finset("a"), finset("b"), carrier]
        )
        with pytest.raises(BadStructure):
            check_topology(carrier, opens)

    def test_open_duality_both_ways(self):
        for T in enumerate_topologies(finset("a", "b", "c")):
            topo = check_topology(finset("a", "b", "c"), T)
            closed = open_duality(topo)
            assert len(closed.members) == len(T.members)


class TestNeighborhoods:
    def test_discrete_everything_containing(self):
        carrier = finset("a", "b")
        T = check_topology(carrier, Family(carrier, carrier.subsets()))
        for x in carrier:
            nb = neighborhoods(T, x)
            assert nb.members == {N for N in carrier.subsets() if x in N}

    def test_sierpinski(self):
        T = sierpinski()
        nb_a = neighborhoods(T, "a")
        nb_b = neighborhoods(T, "b")
        assert nb_a.members == {finset("a", "b")}
        assert nb_b.members == {finset("b"), finset("a", "b")}

    def test_indiscrete(self):
        carrier = finset("a", "b", "c")
        T = check_topology(carrier, Family(carrier, [FinSet(), carrier]))
        for x in carrier:
            assert neighborhoods(T, x).members == {carrier}

    def test_laws_over_all_three_point_topologies(self):
        carrier = finset("a", "b", "c")
        for fam in enumerate_topologies(carrier):
            T = check_topology(carrier, fam)
            rep = neighborhood_laws(T)
            assert rep.passed, rep.render_text()

    def test_point_outside_carrier(self):
        with pytest.raises(CarrierMismatch):
            neighborhoods(sierpinski(), "z")

    def test_matches_the_definition_scan(self):
        # N is a neighborhood of x when N ⊇ V ∋ x for some open V
        for carrier in TestConstructionTheorems.CARRIERS:
            for fam in enumerate_topologies(carrier):
                T = check_topology(carrier, fam)
                for x in carrier:
                    scan = {N for N in carrier.subsets()
                            if any(x in V and V <= N for V in fam.members)}
                    assert neighborhoods(T, x).members == scan


class TestBases:
    def test_singleton_base_discrete(self):
        carrier = finset("a", "b", "c")
        B = Family(carrier, [finset(x) for x in carrier])
        out = base_ops(carrier, B)
        assert out["criterion"].passed
        assert out["topology"].opens.members == set(carrier.subsets())
        assert out["closure"] == discrete_closure(carrier)

    def test_two_member_base(self):
        carrier = finset("a", "b", "c")
        B = Family(carrier, [finset("a", "b"), finset("b", "c")])
        out = base_ops(carrier, B)
        assert out["topology"].opens.members == {
            FinSet(),
            finset("b"),
            finset("a", "b"),
            finset("b", "c"),
            carrier,
        }
        assert out["closure"](finset("a")) == finset("a")
        # {a,b} ∩ {b,c} = {b} is open but swallows no base member, so
        # the family is only a subbase
        assert not out["is_base"]
        assert out["criterion"].passed, out["criterion"].render_text()

    def test_subbase_counterexample_to_equivalence(self):
        # for a non-base the two closure constructions can disagree
        from structa.top import closure_from_closed

        carrier = finset("a", "b", "c")
        B = Family(carrier, [finset("a", "b"), finset("a", "c")])
        out = base_ops(carrier, B)
        assert not out["is_base"]
        closed = open_duality(out["topology"])
        from_closed = closure_from_closed(carrier, closed)
        A = finset("b", "c")
        assert out["closure"](A) == carrier
        assert from_closed(A) == A

    def test_uncovered_point_rejected(self):
        carrier = finset("a", "b")
        with pytest.raises(NotCovering):
            base_ops(carrier, Family(carrier, [finset("a")]))

    def test_equivalence_over_all_three_point_topologies(self):
        carrier = finset("a", "b", "c")
        for fam in enumerate_topologies(carrier):
            # a topology is a base of itself once the empty set is dropped
            B = Family(carrier, [s for s in fam.members if len(s) > 0])
            out = base_ops(carrier, B)
            assert out["topology"].opens.members == fam.members
            assert out["criterion"]["bs-closure-equivalence"].passed

    def test_equivalence_sampled_four_points(self):
        carrier = finset("a", "b", "c", "d")
        import random

        rng = random.Random(31)
        fams = enumerate_topologies(carrier)
        for fam in rng.sample(fams, 25):
            B = Family(carrier, [s for s in fam.members if len(s) > 0])
            out = base_ops(carrier, B)
            assert out["criterion"].passed, out["criterion"].render_text()

    def test_topology_is_the_least_one_holding_the_family(self):
        # every family over at most three points: a covering one generates
        # the intersection of the topologies that contain it
        for carrier in [finset()] + TestConstructionTheorems.CARRIERS:
            tops = enumerate_topologies(carrier)
            subs = list(carrier.subsets())
            for k in range(len(subs) + 1):
                for combo in itertools.combinations(subs, k):
                    B = Family(carrier, combo)
                    uncovered = [x for x in carrier if not any(x in U for U in combo)]
                    if uncovered:
                        with pytest.raises(NotCovering) as err:
                            base_ops(carrier, B)
                        assert err.value.witness == (uncovered[0],)
                        continue
                    least = set(carrier.subsets())
                    for T in tops:
                        if B.members <= T.members:
                            least &= T.members
                    assert base_ops(carrier, B)["topology"].opens.members == least

    def test_point_base_from_base(self):
        T = sierpinski()
        assert point_base_check(T, "b", Family(T.carrier, [finset("b")]))
        assert not point_base_check(
            T, "a", Family(T.carrier, [finset("b")])
        )


class TestConstructionTheorems:
    """Facts the constructions rely on, checked over every topology on up
    to three points (four for the closure construction)."""

    CARRIERS = [finset("a"), finset("a", "b"), finset("a", "b", "c")]

    def test_opens_are_closed_under_all_unions(self):
        for carrier in self.CARRIERS:
            for fam in enumerate_topologies(carrier):
                ms = check_topology(carrier, fam).opens.members
                ordered = sorted(ms, key=lambda s: s.elements)
                assert all(
                    union_of(combo) in ms
                    for k in range(len(ms) + 1)
                    for combo in itertools.combinations(ordered, k)
                )

    def test_open_duality_complements_both_ways(self):
        for carrier in self.CARRIERS:
            for fam in enumerate_topologies(carrier):
                T = check_topology(carrier, fam)
                closed = open_duality(T)
                assert all(
                    (s in T.opens.members) == (s.complement_in(carrier) in closed.members)
                    for s in carrier.subsets()
                )

    def test_closure_from_closed_sets_obeys_the_laws(self):
        for carrier in self.CARRIERS + [finset("a", "b", "c", "d")]:
            for fam in enumerate_topologies(carrier):
                closed = open_duality(check_topology(carrier, fam))
                op = closure_from_closed(carrier, closed)
                rep = closure_laws(op)
                assert rep.passed, rep.render_text()
                assert op.closed_sets().members == closed.members
