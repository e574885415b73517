import itertools
import types

import pytest

from structa import order
from structa.core import FinMap, FinSet, all_maps, finset
from structa.errors import (
    BadStructure,
    CarrierMismatch,
    NotALattice,
    NotMonotone,
    NotSemilattice,
    UnboundedChain,
)
from structa.order import (
    LatticeTables,
    Poset,
    antichain_poset,
    chain_poset,
    check_order,
    diamond_poset,
    enumerate_posets,
    extend_chain,
    functor_order,
    lattice_from_poset,
    lattice_laws,
    order_flags,
    order_from_semilattice,
    powerset_poset,
    semilattice_report,
    zorn_maximal,
)
from structa.suites import run_suite

CHAIN3 = chain_poset(["0", "1", "2"])
DIAMOND = diamond_poset()
PW2 = powerset_poset(finset("a", "b"))
# the subset that each element of PW2 names
SUBSET2 = {A.name(): A for A in finset("a", "b").subsets()}


def monotone_maps(P, Q):
    """Every map of carriers P → Q that preserves the order."""
    for f in all_maps(P.carrier, Q.carrier):
        if all(Q.le(f(x), f(y)) for (x, y) in P.pairs):
            yield f


def pairwise_directed(P, A) -> bool:
    """Every pair of members of A has an upper bound in A."""
    return all(any(P.le(x, z) and P.le(y, z) for z in A) for x in A for y in A)


def opposite(P):
    """P with its order reversed."""
    return Poset(P.carrier, {(y, x) for x, y in P.pairs})


def completeness_flags(P) -> dict:
    """The completeness taxonomy of P, each predicate by enumeration of
    the subsets of its carrier, read from ``Poset.sup`` and ``Poset.inf``."""
    subsets = list(P.carrier.subsets())
    nonempty = [A for A in subsets if len(A) > 0]
    has_sup = lambda A: P.sup(A) is not None
    return {
        "directed_complete": all(has_sup(A) for A in nonempty if pairwise_directed(P, A)),
        "naturally_complete": all(has_sup(A) for A in nonempty if reference_is_chain(P, A)),
        "bounded_complete": all(has_sup(A) for A in nonempty
                                if len(reference_upper_bounds(P, A)) > 0),
        "complete_lattice": all(has_sup(A) and P.inf(A) is not None for A in subsets),
    }


def natural_completeness_vs_fixed_points(P, include_empty_chain=False) -> tuple:
    """Two predicates whose equivalence is a tested conjecture: every chain
    has a sup, and every monotone endofunction has a least fixed point.

    With ``include_empty_chain`` the first predicate also demands sup ∅,
    i.e. a bottom; only then do the two provably coincide (an antichain
    with a cyclic monotone map separates the nonempty-chain reading)."""
    chains_ok = completeness_flags(P)["naturally_complete"]
    if include_empty_chain:
        chains_ok = chains_ok and reference_min(P, P.carrier) is not None
    fp_ok = True
    for f in monotone_maps(P, P):
        inv = FinSet(x for x in P.carrier if f(x) == x)
        if reference_min(P, inv) is None:
            fp_ok = False
            break
    return chains_ok, fp_ok


def printed_marks(rep) -> dict:
    """Law id -> "PASS" or "FAIL", as the report's text prints them."""
    return {line.split()[1]: line.split()[0] for line in rep.render_text().splitlines()[1:-1]}


class TestCheckOrder:
    def test_chain_is_natural(self):
        assert order_flags(CHAIN3.carrier, CHAIN3.pairs) == {
            "preorder": True,
            "partial": True,
            "natural": True,
        }

    def test_diamond_partial_not_natural(self):
        flags = order_flags(DIAMOND.carrier, DIAMOND.pairs)
        assert flags["partial"] and not flags["natural"]
        rep = check_order(DIAMOND.carrier, DIAMOND.pairs)
        assert rep["total"].witness == ("l", "r")

    def test_missing_transitivity_witness(self):
        carrier = finset("a", "b", "c")
        rel = {(x, x) for x in carrier} | {("a", "b"), ("b", "c")}
        rep = check_order(carrier, rel)
        assert not rep["trans"].passed
        assert rep["trans"].witness == ("a", "b", "c")


class TestEnumeratePosets:
    def test_counts_match_oeis(self):
        # labeled partial orders: 1, 3, 19, 219 for n = 1..4
        expected = {1: 1, 2: 3, 3: 19, 4: 219}
        for n, count in expected.items():
            carrier = FinSet("e%d" % i for i in range(n))
            assert sum(1 for _ in enumerate_posets(carrier)) == count

    def test_all_valid(self):
        carrier = finset("a", "b", "c")
        for P in enumerate_posets(carrier):
            assert order_flags(carrier, P.pairs)["partial"]

    def test_pruned_search_matches_the_filtered_reference(self):
        for n in range(6):
            carrier = FinSet("e%d" % i for i in range(n))
            assert list(enumerate_posets(carrier)) == list(reference_posets(carrier)), n

    def test_is_a_lazy_generator(self):
        # on 5 points it holds the 219 orders on 4 points as masks and
        # yields the 4,231 posets one at a time; a list of them all would
        # raise peak memory
        assert isinstance(enumerate_posets(finset("a", "b")), types.GeneratorType)

    def test_handed_over_masks_are_the_masks_of_the_pairs(self):
        for n in range(6):
            for P in enumerate_posets(FinSet("e%d" % i for i in range(n))):
                assert P._masks() == Poset._trusted(P.carrier, P.pairs)._masks()


def reference_posets(carrier):
    """Every labeled partial order on the carrier by the unpruned search:
    one of (incomparable, <, >) per pair, filtered for transitivity."""
    elems = carrier.elements
    pairs2 = list(itertools.combinations(elems, 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs2)):
        rel = {(x, x) for x in elems}
        for (x, y), c in zip(pairs2, choice):
            if c == 1:
                rel.add((x, y))
            elif c == 2:
                rel.add((y, x))
        if all((x, z) in rel for (x, y) in rel for z in elems if (y, z) in rel):
            yield Poset(carrier, rel)


class TestBounds:
    def test_singleton(self):
        A = finset("1")
        assert CHAIN3.sup(A) == CHAIN3.inf(A) == "1"

    def test_diamond_middle_pair(self):
        A = finset("l", "r")
        assert DIAMOND.sup(A) == "top" and DIAMOND.inf(A) == "bot"

    def test_antichain_no_sup(self):
        P = antichain_poset(["a", "b"])
        A = finset("a", "b")
        assert reference_upper_bounds(P, A) == finset() and P.sup(A) is None

    def test_empty_subset_conventions(self):
        assert CHAIN3.sup(finset()) == "0"
        assert CHAIN3.inf(finset()) == "2"
        # no min/max: absent rather than erroring
        P = antichain_poset(["a", "b"])
        assert P.sup(finset()) is None


# the pair-set scans that the mask forms of the bound methods replaced


def reference_upper_bounds(P, A):
    return FinSet(u for u in P.carrier if all((a, u) in P.pairs for a in A))


def reference_lower_bounds(P, A):
    return FinSet(v for v in P.carrier if all((v, a) in P.pairs for a in A))


def reference_max(P, A):
    return next((m for m in A if all((a, m) in P.pairs for a in A)), None)


def reference_min(P, A):
    return next((m for m in A if all((m, a) in P.pairs for a in A)), None)


def small_posets():
    for n in range(5):
        yield from enumerate_posets(FinSet("p%d" % i for i in range(n)))


class TestBoundsOnMasks:
    def test_match_the_pair_scans_on_every_poset_up_to_four_points(self):
        for P in small_posets():
            for A in P.carrier.subsets():
                upper = reference_upper_bounds(P, A)
                lower = reference_lower_bounds(P, A)
                assert P.sup(A) == reference_min(P, upper), (P, A)
                assert P.inf(A) == reference_max(P, lower), (P, A)

    def test_lattice_tables_match_the_pairwise_scans(self):
        for P in small_posets():
            xs = P.carrier.elements
            sups = {(x, y): reference_min(P, reference_upper_bounds(P, finset(x, y)))
                    for x in xs for y in xs}
            infs = {(x, y): reference_max(P, reference_lower_bounds(P, finset(x, y)))
                    for x in xs for y in xs}
            if None in sups.values() or None in infs.values():
                with pytest.raises(NotALattice):
                    lattice_from_poset(P)
                continue
            lt = lattice_from_poset(P)
            assert (lt.join, lt.meet) == (sups, infs), P

    def test_finite_sup_matches_the_union_scan(self):
        # on every lattice up to four points, and with each join cell replaced
        for P in small_posets():
            try:
                lt = lattice_from_poset(P)
            except NotALattice:
                continue
            xs = P.carrier.elements
            tables = [lt.join] + [
                {**lt.join, (x, y): z} for x in xs for y in xs for z in xs if z != lt.join[(x, y)]
            ]
            for join in tables:
                sups = {a: reference_min(P, reference_upper_bounds(P, a)) for a in P.carrier.subsets()}
                expected = all(
                    sups[a.union(b)] == join[(sa, sb)]
                    for a, sa in sups.items()
                    for b, sb in sups.items()
                    if sa is not None and sb is not None and sups[a.union(b)] is not None
                )
                rep = lattice_laws(LatticeTables(P, join, lt.meet))
                assert rep["lat-finite-sup"].passed == expected, (P, join)

    @pytest.mark.parametrize("method", ["sup", "inf"])
    def test_member_outside_the_carrier(self, method):
        P = chain_poset(["a", "b", "c"])
        with pytest.raises(CarrierMismatch) as e:
            getattr(P, method)(finset("a", "y", "z"))
        assert e.value.witness == ("y",)


class TestDirected:
    """A finite nonempty subset is directed exactly when it has a greatest
    element."""

    def test_chain_directed(self):
        assert pairwise_directed(CHAIN3, CHAIN3.carrier)
        assert reference_max(CHAIN3, CHAIN3.carrier) == "2"

    def test_powerset_directed(self):
        assert pairwise_directed(PW2, PW2.carrier)
        assert reference_max(PW2, PW2.carrier) == finset("a", "b").name()

    def test_antichain_not_directed(self):
        P = antichain_poset(["a", "b"])
        assert not pairwise_directed(P, P.carrier)
        assert reference_max(P, P.carrier) is None

    def test_pairwise_criterion_matches_finite_subsets(self):
        # reference: every nonempty finite subset has an upper bound in A
        for n in range(1, 5):
            for P in enumerate_posets(FinSet("p%d" % i for i in range(n))):
                for A in P.carrier.subsets():
                    if len(A) == 0:
                        continue
                    by_subsets = all(
                        any(all(P.le(s, z) for s in sub) for z in A)
                        for sub in A.subsets()
                        if len(sub) > 0
                    )
                    greatest = reference_max(P, A)
                    assert pairwise_directed(P, A) == by_subsets == (greatest is not None)


class TestChainsAndZorn:
    def test_zorn_maximal_unit_fails_when_the_top_is_not_maximal(self, monkeypatch):
        # the bottom of the greedy chain is maximal only on one point
        real = order._zorn_chain

        def bottom(P):
            chain, _ = real(P)
            return chain, chain.elements[0]

        monkeypatch.setattr(order, "_zorn_chain", bottom)
        marks = printed_marks(run_suite("zorn"))
        assert marks == {
            "zorn-maximal-1": "PASS",
            **{"zorn-maximal-%d" % n: "FAIL" for n in (2, 3, 4, 5)},
            **{"zorn-chain-%d" % n: "PASS" for n in (1, 2, 3, 4, 5)},
        }

    def test_maximal_chain_unchanged(self):
        c = extend_chain(CHAIN3, ["0", "1", "2"])
        assert c.elements == ("0", "1", "2")

    def test_diamond_extension_trace(self):
        c = extend_chain(DIAMOND, ["bot"])
        # greedy lexicographic candidate order picks "l" before "r"
        assert c.elements == ("bot", "l", "top")

    def test_zorn_on_empty_poset(self):
        empty = Poset(finset(), set())
        with pytest.raises(UnboundedChain):
            zorn_maximal(empty)

    def test_zorn_precondition_matches_the_chain_scan(self):
        # reference: the precondition as stated, scanned over every subset
        for n in range(5):
            for P in enumerate_posets(FinSet("p%d" % i for i in range(n))):
                unbounded = next(
                    (
                        tuple(sub)
                        for sub in P.carrier.subsets()
                        if reference_is_chain(P, sub) and len(reference_upper_bounds(P, sub)) == 0
                    ),
                    None,
                )
                try:
                    zorn_maximal(P)
                    raised = None
                except UnboundedChain as e:
                    raised = e.witness
                assert raised == unbounded, P

    def test_zorn_maximal_is_the_top_of_the_chain_helper(self):
        from structa.order import _zorn_chain

        for P in small_posets():
            if len(P.carrier) == 0:
                continue
            chain, top = _zorn_chain(P)
            assert chain == extend_chain(P, [])
            assert top == chain.elements[-1] == zorn_maximal(P), P

    def test_zorn_exhaustive_small(self):
        carrier = finset("a", "b", "c", "d")
        for P in enumerate_posets(carrier):
            m = zorn_maximal(P)
            assert all(not (P.le(m, y) and m != y) for y in P.carrier)

    def test_chain_methods_match_their_pair_definitions(self):
        for n in range(5):
            for P in enumerate_posets(FinSet("p%d" % i for i in range(n))):
                for sub in P.carrier.subsets():
                    c = list(sub)
                    if not reference_is_chain(P, c):
                        with pytest.raises(BadStructure):
                            extend_chain(P, c)
                        continue
                    assert extend_chain(P, c).elements == reference_extend_chain(P, c), (P, c)

    def test_member_outside_the_carrier(self):
        for chain in (["zz"], ["bot", "zz"]):
            with pytest.raises(CarrierMismatch) as e:
                extend_chain(DIAMOND, chain)
            assert e.value.witness == ("zz",)

    def test_extend_chain_is_maximal(self):
        for P in enumerate_posets(finset("a", "b", "c")):
            chain = extend_chain(P, [])
            members = set(chain.elements)
            for c in P.carrier:
                if c not in members:
                    assert not all(P.comparable(c, x) for x in members)


def reference_is_chain(P, c):
    return all((x, y) in P.pairs or (y, x) in P.pairs for x, y in itertools.combinations(c, 2))


def reference_sort_chain(P, c):
    """Repeatedly take the member below all the others that are left."""
    out, remaining = [], sorted(c)
    while remaining:
        m = next(x for x in remaining if all((x, y) in P.pairs for y in remaining))
        out.append(m)
        remaining.remove(m)
    return tuple(out)


def reference_extend_chain(P, c):
    """Add the first comparable candidate in carrier order, then rescan."""
    elems = set(c)
    changed = True
    while changed:
        changed = False
        for x in P.carrier:
            if x not in elems and reference_is_chain(P, list(elems) + [x]):
                elems.add(x)
                changed = True
                break
    return reference_sort_chain(P, elems)


class TestLattices:
    def test_lattice_laws_unit_fails_when_a_lattice_fails_its_laws(self, monkeypatch):
        # a fault planted in the lattices on four points fails only unit 4
        real = order.lattice_laws

        def broken(lt):
            rep = real(lt)
            if len(lt.poset.carrier) == 4:
                rep.add("lat-comm", False)
            return rep

        monkeypatch.setattr(order, "lattice_laws", broken)
        marks = printed_marks(run_suite("lattices"))
        assert {law: marks[law] for law in marks if law.startswith("lat-laws-")} == {
            "lat-laws-1": "PASS", "lat-laws-2": "PASS", "lat-laws-3": "PASS",
            "lat-laws-4": "FAIL",
        }

    def test_chain_join_is_max(self):
        lt = lattice_from_poset(CHAIN3)
        assert lt.join[("0", "2")] == "2"
        assert lt.meet[("0", "2")] == "0"

    def test_powerset_join_is_union(self):
        lt = lattice_from_poset(PW2)
        for m in PW2.carrier:
            for n in PW2.carrier:
                a, b = SUBSET2[m], SUBSET2[n]
                assert lt.join[(m, n)] == a.union(b).name()
                assert lt.meet[(m, n)] == a.inter(b).name()

    def test_antichain_not_lattice(self):
        with pytest.raises(NotALattice):
            lattice_from_poset(antichain_poset(["a", "b"]))

    def test_laws_on_diamond(self):
        assert lattice_laws(lattice_from_poset(DIAMOND)).passed

    @pytest.mark.parametrize(
        "P",
        [CHAIN3, PW2, chain_poset("012345"), powerset_poset(finset("a", "b", "c"))],
        ids=["chain3", "powerset2", "chain6", "powerset3"],
    )
    def test_laws_on_named_lattices(self, P):
        rep = lattice_laws(lattice_from_poset(P))
        assert rep.passed, rep.failures

    def test_finite_sup_is_evaluated_above_four_points(self):
        lt = lattice_from_poset(chain_poset("01234"))
        join = dict(lt.join)
        join[("1", "2")] = "3"
        rep = lattice_laws(LatticeTables(lt.poset, join, lt.meet))
        assert not rep["lat-finite-sup"].passed


class TestSemilattices:
    MAX3 = {(a, b): max(a, b) for a in "012" for b in "012"}

    def test_max_table_induces_chain(self):
        carrier = finset("0", "1", "2")
        assert semilattice_report(self.MAX3, carrier).passed
        assert order_from_semilattice(self.MAX3, carrier, "join") == CHAIN3

    def test_dual_pair_on_powerset(self):
        lt = lattice_from_poset(PW2)
        assert order_from_semilattice(lt.join, PW2.carrier, "join") == PW2
        assert order_from_semilattice(lt.meet, PW2.carrier, "meet") == PW2
        # units: empty set is minimum, full set maximum
        assert reference_min(PW2, PW2.carrier) == "{}"
        assert reference_max(PW2, PW2.carrier) == "{a,b}"

    def test_table_must_stay_in_the_carrier(self):
        carrier = finset("a", "b")
        escape = {("a", "a"): "a", ("a", "b"): "z", ("b", "a"): "b", ("b", "b"): "b"}
        with pytest.raises(CarrierMismatch) as e:
            semilattice_report(escape, carrier)
        assert e.value.witness == ("a", "b")
        missing = {("a", "a"): "z", ("b", "a"): "b", ("b", "b"): "b"}
        with pytest.raises(CarrierMismatch) as e:
            semilattice_report(missing, carrier)
        assert e.value.witness == ("a", "b")
        assert "missing" in str(e.value)

    def test_group_table_not_semilattice(self):
        z2 = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
        carrier = finset("e", "a")
        assert not semilattice_report(z2, carrier).passed
        with pytest.raises(NotSemilattice):
            order_from_semilattice(z2, carrier)

    def test_broken_absorption_rejected(self):
        # x∨y = y must match x∧y = x: max read as a meet orders the
        # chain backwards, min read as a meet orders it forwards
        carrier = finset("0", "1", "2")
        min3 = {(a, b): min(a, b) for a in "012" for b in "012"}
        assert order_from_semilattice(self.MAX3, carrier, "meet") != CHAIN3
        assert order_from_semilattice(min3, carrier, "meet") == CHAIN3

    def test_roundtrip_identity_small_lattices(self):
        for P in enumerate_posets(finset("a", "b", "c")):
            try:
                lt = lattice_from_poset(P)
            except NotALattice:
                continue
            assert order_from_semilattice(lt.join, P.carrier, "join") == P
            assert order_from_semilattice(lt.meet, P.carrier, "meet") == P


def assert_completeness_theorems(P):
    """A finite poset is directed complete, and upper-bound complete iff
    lower-bound complete. A complete lattice has inf A = sup of the lower
    bounds of A, and its dual is directed complete too."""
    flags = completeness_flags(P)
    assert flags["directed_complete"]
    subsets = list(P.carrier.subsets())
    lower_bounded = [A for A in subsets if len(A) > 0 and len(reference_lower_bounds(P, A)) > 0]
    assert flags["bounded_complete"] == all(P.inf(A) is not None for A in lower_bounded)
    if flags["complete_lattice"]:
        assert all(P.inf(A) == P.sup(reference_lower_bounds(P, A)) for A in subsets)
        assert completeness_flags(opposite(P))["directed_complete"]


class TestCompleteness:
    def test_powerset_complete_lattice(self):
        flags = completeness_flags(PW2)
        assert flags["complete_lattice"]
        assert_completeness_theorems(PW2)

    def test_antichain_directed_complete_but_no_lattice(self):
        P = antichain_poset(["a", "b"])
        flags = completeness_flags(P)
        assert flags["directed_complete"]
        assert not flags["complete_lattice"]

    def test_chain_all_flags(self):
        assert all(
            v for k, v in completeness_flags(CHAIN3).items()
        )

    def test_laws_hold_exhaustively_small(self):
        for P in enumerate_posets(finset("a", "b", "c")):
            assert_completeness_theorems(P)

    def test_natural_completeness_vs_fixed_points(self):
        # equivalence holds once the empty chain (a bottom) is demanded
        for P in enumerate_posets(finset("a", "b", "c")):
            chains_ok, fp_ok = natural_completeness_vs_fixed_points(
                P, include_empty_chain=True
            )
            assert chains_ok == fp_ok, P

    def test_nonempty_chain_reading_has_counterexample(self):
        P = antichain_poset(["a", "b", "c"])
        chains_ok, fp_ok = natural_completeness_vs_fixed_points(P)
        assert chains_ok and not fp_ok


class TestFunctorOrder:
    def test_single_identity(self):
        P = functor_order([FinMap.identity(CHAIN3.carrier)], CHAIN3, CHAIN3)
        assert len(P.carrier) == 1

    def test_constant_bottom_below_id_below_top(self):
        c = CHAIN3.carrier
        bottom, top = (FinMap(c, c, dict.fromkeys(c, y)) for y in ("0", "2"))
        maps = [bottom, FinMap.identity(c), top]
        P = functor_order(maps, CHAIN3, CHAIN3)
        assert P.le("m0", "m1") and P.le("m1", "m2") and not P.le("m2", "m0")

    def test_crossing_maps_incomparable(self):
        c = CHAIN3.carrier
        f = FinMap(c, c, {"0": "0", "1": "1", "2": "1"})
        g = FinMap(c, c, {"0": "1", "1": "1", "2": "0"})
        with pytest.raises(NotMonotone):
            functor_order([f, g], CHAIN3, CHAIN3)
        h = FinMap(c, c, {"0": "1", "1": "1", "2": "1"})
        k = FinMap(c, c, {"0": "0", "1": "2", "2": "2"})
        P = functor_order([h, k], CHAIN3, CHAIN3)
        assert not P.le("m0", "m1") and not P.le("m1", "m0")

    def test_a_map_off_the_carriers_is_refused(self):
        c, d = CHAIN3.carrier, DIAMOND.carrier
        ok = FinMap.identity(c)
        for bad in (FinMap(d, c, dict.fromkeys(d, "0")),
                    FinMap(c, d, dict.fromkeys(c, d.elements[0]))):
            with pytest.raises(CarrierMismatch):
                functor_order([ok, bad], CHAIN3, CHAIN3)

    def test_the_first_map_that_is_not_monotone_is_the_witness(self):
        c = CHAIN3.carrier
        down = FinMap(c, c, {"0": "2", "1": "1", "2": "0"})
        with pytest.raises(NotMonotone) as err:
            functor_order([FinMap.identity(c), down, down], CHAIN3, CHAIN3)
        assert err.value.witness == (1,)


class TestSupCharacterizationOnChains:
    def test_total_order_sup_witness(self):
        # in a chain, x ≤ sup A iff some a in A has x ≤ a
        for n in range(1, 7):
            P = chain_poset(["c%d" % i for i in range(n)])
            for A in P.carrier.subsets():
                if len(A) == 0:
                    continue
                s = P.sup(A)
                for x in P.carrier:
                    assert P.le(x, s) == any(P.le(x, a) for a in A)
