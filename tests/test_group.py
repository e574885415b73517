"""Group module tests.

Oracles: modular arithmetic for cyclic groups, permutation composition
for symmetric groups, and exhaustive searches over small carriers.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structa.core import (
    FinMap,
    FinSet,
    all_maps,
    associativity_witness,
    classify,
    compose,
    finset,
    two_sided_unit,
)
from structa import group
from structa.errors import (
    CarrierMismatch,
    CompositionMismatch,
    NotAGroup,
    NotBijective,
    NotAction,
    NotHomomorphism,
    NotNormal,
    NotSubgroup,
    StructaError,
    TooLarge,
)
from structa.group import (
    GroupAction,
    abelianization_check,
    action_check,
    action_nucleus,
    as_group,
    bijection_group,
    cayley,
    center,
    check_group,
    commutant,
    commutator,
    coset_action,
    cosets,
    cyclic_group,
    cyclic_subgroup,
    enumerate_groups,
    enumerate_homs,
    first_iso,
    group_axioms,
    hom_check,
    hom_witness,
    image_subgroup,
    inner_automorphisms,
    is_normal,
    is_transitive,
    kernel,
    klein_four,
    linear_space_check,
    normality_witness,
    permutation_group,
    power,
    quotient,
    regular_action,
    stabilizer,
    stabilizer_suite,
    subgroup_check,
    symmetric_group_3,
    zp_field,
)
from structa.group import Subgroup, _perm_name, conjugation_map
from structa.report import LawReport
from structa.suites import run_suite


def s3():
    return symmetric_group_3()


class TestAxioms:
    def test_cyclic_tables_pass(self):
        for n in range(1, 8):
            G = cyclic_group(n)
            assert group_axioms(G.op, G.carrier).passed
            assert G.unit == "g0"
            # oracle: modular arithmetic
            for i in range(n):
                for j in range(n):
                    assert G.op[("g%d" % i, "g%d" % j)] == "g%d" % ((i + j) % n)
                assert G.inv["g%d" % i] == "g%d" % ((-i) % n)

    def test_broken_associativity_rejected(self):
        # a 2-element table with a wrong cell
        carrier = finset("e", "a")
        table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}
        rep = group_axioms(table, carrier)
        assert not rep.passed
        with pytest.raises(NotAGroup):
            check_group(table, carrier)

    def test_missing_inverse_rejected(self):
        # monoid on {e, a} with a absorbing: no inverse for a
        carrier = finset("e", "a")
        table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}
        rep = group_axioms(table, carrier)
        failed = {c.law for c in rep.failures}
        assert "grp-inverse" in failed or "grp-assoc" in failed

    def test_s3_order_and_noncommutativity(self):
        G, perms = s3()
        assert G.order() == 6
        assert not G.is_abelian()
        # oracle: table entries agree with permutation composition
        for p in G.carrier:
            for q in G.carrier:
                assert perms[G.op[(p, q)]] == compose(perms[p], perms[q])

    def test_klein_four_is_abelian_with_involutions(self):
        G = klein_four()
        assert G.is_abelian()
        assert all(G.op[(a, a)] == G.unit for a in G.carrier)

    def test_unique_solutions_and_cancellation_read_one_predicate(self):
        # grp-unique-solutions and grp-cancel are recorded, not computed,
        # on a table that passed the axioms before them; the old predicate
        # is the reference: ax = b and ya = b each have exactly one
        # solution, for all a, b, on every group the axioms return
        def counting(table, xs):
            return all(
                sum(1 for x in xs if table[(a, x)] == b) == 1
                and sum(1 for y in xs if table[(y, a)] == b) == 1
                for a in xs
                for b in xs
            )

        tables = groups = 0
        for n in (1, 2, 3):
            xs = ("a", "b", "c")[:n]
            cells = list(itertools.product(xs, repeat=2))
            for values in itertools.product(xs, repeat=n * n):
                table = dict(zip(cells, values))
                G = group.axioms_and_group(table, FinSet(xs))[1]
                if G is not None:
                    assert counting(table, xs), table
                    assert all(G.inv[G.inv[a]] == a for a in xs), table
                    groups += 1
                tables += 1
        assert tables == 1 + 2**4 + 3**9
        # the labelled groups: n!/|Aut| on n symbols, so 1 + 2 + 3
        assert groups == 6

    def test_power_matches_repeated_multiplication(self):
        G = cyclic_group(6)
        for i in range(6):
            for n in range(-7, 8):
                assert power(G, "g%d" % i, n) == "g%d" % ((i * n) % 6)


class TestSubgroups:
    def test_all_subgroups_of_z6_by_exhaustion(self):
        G = cyclic_group(6)
        subs = []
        for k in range(1, 7):
            for members in itertools.combinations(G.carrier.elements, k):
                H = FinSet(members)
                try:
                    subgroup_check(G, H)
                    subs.append(H)
                except NotSubgroup:
                    pass
        # divisor lattice of 6: orders 1, 2, 3, 6
        assert sorted(len(h) for h in subs) == [1, 2, 3, 6]

    def test_s3_subgroup_count(self):
        G, _ = s3()
        count = 0
        for k in range(1, 7):
            for members in itertools.combinations(G.carrier.elements, k):
                try:
                    subgroup_check(G, FinSet(members))
                    count += 1
                except NotSubgroup:
                    pass
        # trivial, three order-2, one order-3, whole group
        assert count == 6

    def test_cyclic_subgroup_orders_divide(self):
        G, _ = s3()
        for a in G.carrier:
            H = cyclic_subgroup(G, a)
            assert 6 % len(H.members) == 0

    def test_non_subgroup_rejected(self):
        G = cyclic_group(4)
        with pytest.raises(NotSubgroup):
            subgroup_check(G, finset("g0", "g1"))

    def test_lagrange_via_cosets(self):
        G, _ = s3()
        for a in G.carrier:
            H = cyclic_subgroup(G, a)
            part = cosets(G, H, "right")
            assert len(part.blocks) * len(H.members) == 6


class TestQuotients:
    def test_z6_mod_z2_is_z3(self):
        G = cyclic_group(6)
        N = subgroup_check(G, finset("g0", "g3"))
        Q = quotient(G, N)
        assert Q.order() == 3
        # oracle: every nonunit element generates the whole quotient
        for a in Q.carrier:
            if a != Q.unit:
                assert len(cyclic_subgroup(Q, a).members) == 3

    def test_s3_mod_a3_is_z2(self):
        G, perms = s3()
        # A3: identity and the two 3-cycles (the elements of order 1 or 3)
        a3 = FinSet(
            p for p in G.carrier if power(G, p, 3) == G.unit
        )
        N = subgroup_check(G, a3)
        assert is_normal(G, N)
        Q = quotient(G, N)
        assert Q.order() == 2

    def test_non_normal_subgroup_rejected(self):
        G, _ = s3()
        H = next(
            cyclic_subgroup(G, a)
            for a in G.carrier
            if len(cyclic_subgroup(G, a).members) == 2
        )
        assert not is_normal(G, H)
        with pytest.raises(NotNormal):
            quotient(G, H)

    def test_non_normal_quotient_names_the_least_witness(self):
        G, _ = s3()
        H = next(
            cyclic_subgroup(G, a)
            for a in G.carrier
            if len(cyclic_subgroup(G, a).members) == 2
        )
        bad = sorted((x, n) for x in G.carrier for n in H.members
                     if G.op[(G.op[(x, n)], G.inv[x])] not in H.members)
        with pytest.raises(NotNormal) as err:
            quotient(G, H)
        assert err.value.witness == bad[0] == ("(1>2,2>1,3>3)", "(1>1,2>3,3>2)")

    def test_one_representative_per_coset_gives_the_all_representatives_table(self):
        groups = catalog() + [bijection_group(finset("1", "2", "3", "4"))[0], cyclic_group(12)]
        cases = [(G, N) for G in groups for N in normal_subgroups(G)]
        # 22 in the catalogue, then {e}, V4, A4 and S4, and one per divisor of 12
        assert len(cases) == 32
        for G, N in cases:
            want = all_representatives_table(G, N)
            assert list(quotient(G, N).op.items()) == list(want.items())

    def test_left_right_cosets_agree_iff_normal(self):
        G, _ = s3()
        for k in range(1, 7):
            for members in itertools.combinations(G.carrier.elements, k):
                try:
                    H = subgroup_check(G, FinSet(members))
                except NotSubgroup:
                    continue
                same = set(cosets(G, H, "left").blocks) == set(
                    cosets(G, H, "right").blocks
                )
                assert same == is_normal(G, H)


def normal_subgroups(G):
    """The subgroups that are unions of conjugacy classes."""
    classes = {FinSet(G.op[(G.op[(g, x)], G.inv[g])] for g in G.carrier) for x in G.carrier}
    others = sorted((c for c in classes if G.unit not in c), key=lambda c: c.elements)
    out = []
    for k in range(len(others) + 1):
        for combo in itertools.combinations(others, k):
            try:
                out.append(subgroup_check(G, FinSet([G.unit, *(x for c in combo for x in c)])))
            except NotSubgroup:
                pass
    return out


def all_representatives_table(G, N):
    """The quotient's table, each product block read from every pair of
    representatives of its two cosets, which must agree."""
    part = cosets(G, N, "right")
    names = {b: b.name() for b in part.blocks}
    table = {}
    for A in part.blocks:
        for B in part.blocks:
            products = {part.block_of(G.op[(a, b)]) for a in A for b in B}
            assert len(products) == 1
            table[(names[A], names[B])] = names[products.pop()]
    return table


class TestCommutators:
    def test_abelian_commutant_is_trivial(self):
        for G in (cyclic_group(5), klein_four()):
            assert commutant(G).members == finset(G.unit)
            assert center(G).members == G.carrier

    def test_s3_commutant_is_a3_and_center_trivial(self):
        G, _ = s3()
        comm = commutant(G)
        assert len(comm.members) == 3
        assert center(G).members == finset(G.unit)

    def test_commutator_identity(self):
        G, _ = s3()
        for a in G.carrier:
            for b in G.carrier:
                lhs = commutator(G, a, b)
                # oracle: ab = [a,b] ba rearranged through the table
                assert G.op[(G.op[(a, b)], G.inv[G.op[(b, a)]])] == lhs

    def test_abelianization_report(self):
        G, _ = s3()
        comm = commutant(G)
        rep = abelianization_check(G, comm)
        assert rep.passed
        # G/N abelian iff commutant inside N, over all normal subgroups
        for k in range(1, 7):
            for members in itertools.combinations(G.carrier.elements, k):
                try:
                    N = subgroup_check(G, FinSet(members))
                except NotSubgroup:
                    continue
                if is_normal(G, N):
                    assert abelianization_check(G, N).passed

    def test_abelianization_of_a_non_normal_subgroup_raises(self):
        # N must be normal for G/N to exist, as quotient requires
        G, _ = s3()
        H = next(
            cyclic_subgroup(G, a)
            for a in G.carrier
            if len(cyclic_subgroup(G, a).members) == 2
        )
        with pytest.raises(NotNormal):
            abelianization_check(G, H)


class TestHoms:
    def test_mod_reduction_is_a_hom(self):
        G, H = cyclic_group(6), cyclic_group(3)
        f = FinMap(
            G.carrier, H.carrier, {"g%d" % i: "g%d" % (i % 3) for i in range(6)}
        )
        h = hom_check(G, H, f)
        assert kernel(h).members == finset("g0", "g3")
        assert image_subgroup(h).members == H.carrier

    def test_non_hom_rejected(self):
        G = cyclic_group(4)
        f = FinMap(
            G.carrier, G.carrier, {"g0": "g0", "g1": "g1", "g2": "g3", "g3": "g2"}
        )
        with pytest.raises(NotHomomorphism):
            hom_check(G, G, f)

    def test_hom_counts_by_exhaustion(self):
        # |Hom(Z_m, Z_n)| = gcd(m, n), a classical count
        import math

        for m in range(1, 5):
            for n in range(1, 5):
                homs = list(enumerate_homs(cyclic_group(m), cyclic_group(n)))
                assert len(homs) == math.gcd(m, n)

    def test_hom_z2_to_s3_counts_involutions(self):
        G2 = cyclic_group(2)
        S, _ = s3()
        homs = list(enumerate_homs(G2, S))
        # trivial hom plus one per involution (three transpositions)
        assert len(homs) == 4

    def test_first_iso_on_mod_reduction(self):
        G, H = cyclic_group(6), cyclic_group(3)
        f = FinMap(
            G.carrier, H.carrier, {"g%d" % i: "g%d" % (i % 3) for i in range(6)}
        )
        iso = first_iso(hom_check(G, H, f))
        assert classify(iso.map)["bijective"]
        assert iso.src.order() == 3 == iso.tgt.order()

    def test_first_iso_sign_map_on_s3(self):
        S, perms = s3()
        Z2 = cyclic_group(2)
        sign = {}
        for p in S.carrier:
            # oracle parity: count inversions of the permutation
            f = perms[p]
            xs = f.dom.elements
            inv = sum(
                1
                for i in range(3)
                for j in range(i + 1, 3)
                if f(xs[i]) > f(xs[j])
            )
            sign[p] = "g%d" % (inv % 2)
        h = hom_check(S, Z2, FinMap(S.carrier, Z2.carrier, sign))
        iso = first_iso(h)
        assert iso.src.order() == 2
        assert len(kernel(h).members) == 3

    def test_transfer_along_sign_map(self):
        S, perms = s3()
        Z2 = cyclic_group(2)
        sign = {
            p: "g%d"
            % (
                sum(
                    1
                    for i in range(3)
                    for j in range(i + 1, 3)
                    if perms[p](perms[p].dom.elements[i])
                    > perms[p](perms[p].dom.elements[j])
                )
                % 2
            )
            for p in S.carrier
        }
        h = hom_check(S, Z2, FinMap(S.carrier, Z2.carrier, sign))
        assert h.map.image() == Z2.carrier
        for k in range(1, 7):
            for members in itertools.combinations(S.carrier.elements, k):
                try:
                    H = subgroup_check(S, FinSet(members))
                except NotSubgroup:
                    continue
                # the image of a subgroup is a subgroup, normal when H is,
                # since h is onto; the preimage of a normal subgroup is normal
                img = subgroup_check(Z2, h.map.image(H.members))
                if is_normal(S, H):
                    assert is_normal(Z2, img)
                pre = subgroup_check(S, h.map.preimage(img.members))
                if is_normal(Z2, img):
                    assert is_normal(S, pre)


class TestAutomorphisms:
    def test_inner_automorphisms_of_s3(self):
        G, _ = s3()
        inn, h = inner_automorphisms(G)
        # trivial center, so Inn(S3) has full order
        assert inn.order() == 6
        assert kernel(h).members == finset(G.unit)

    def test_inner_automorphisms_of_abelian_group_trivial(self):
        G = cyclic_group(4)
        inn, h = inner_automorphisms(G)
        assert inn.order() == 1
        assert kernel(h).members == G.carrier


class TestCayley:
    def test_cayley_is_an_isomorphism(self):
        for G in (cyclic_group(4), klein_four(), s3()[0]):
            h = cayley(G)
            assert classify(h.map)["bijective"]
            assert h.tgt.order() == G.order()

    def test_cayley_image_sits_inside_bijection_group(self):
        G = cyclic_group(3)
        h = cayley(G)
        B, _ = bijection_group(G.carrier)
        assert h.tgt.carrier <= B.carrier
        subgroup_check(B, h.tgt.carrier)


class TestActions:
    def test_regular_action_is_transitive_and_effective(self):
        G, _ = s3()
        A = regular_action(G)
        assert action_check(A).passed
        assert is_transitive(A)
        assert action_nucleus(A) == finset(G.unit)

    def test_coset_action_of_s3_on_two_cosets(self):
        G, _ = s3()
        a3 = FinSet(p for p in G.carrier if power(G, p, 3) == G.unit)
        H = subgroup_check(G, a3)
        A = coset_action(G, H)
        assert len(A.carrier) == 2
        assert action_nucleus(A) == a3

    def test_coset_action_on_order2_subgroup_faithful(self):
        G, _ = s3()
        H = next(
            cyclic_subgroup(G, a)
            for a in G.carrier
            if len(cyclic_subgroup(G, a).members) == 2
        )
        A = coset_action(G, H)
        assert len(A.carrier) == 3
        # the intersection of the conjugates of H is trivial here
        assert action_nucleus(A) == finset(G.unit)

    def test_stabilizer_suite_on_natural_s3_action(self):
        G, perms = s3()
        carrier = finset("1", "2", "3")
        A = GroupAction(G, carrier, {p: perms[p] for p in G.carrier})
        assert action_check(A).passed
        for point in carrier:
            rep = stabilizer_suite(A, point)
            assert rep.passed, rep.render_text()
            assert len(stabilizer(A, point).members) == 2

    def test_stabilizer_suite_builds_each_stabilizer_once(self, monkeypatch):
        # once for the given point, then once per point of the carrier
        real_stabilizer, real_suite = group.stabilizer, group.stabilizer_suite
        calls, per_suite = [], []

        def counting(A, a):
            calls.append(a)
            return real_stabilizer(A, a)

        def suite(A, a):
            before = len(calls)
            rep = real_suite(A, a)
            per_suite.append((len(calls) - before, len(A.carrier)))
            return rep

        monkeypatch.setattr(group, "stabilizer", counting)
        monkeypatch.setattr(group, "stabilizer_suite", suite)
        assert run_suite("actions", seed=0).passed
        # S3 on its 3 letters, one suite per letter
        assert len(per_suite) == 3
        assert all(n <= size + 1 for n, size in per_suite), per_suite

    def test_a_map_into_another_set_is_no_action(self):
        # the domain is the carrier, the codomain is not
        G = cyclic_group(2)
        pts, other = finset("x", "y"), finset("x", "y", "z")
        act = {g: FinMap.identity(pts) for g in G.carrier}
        act["g1"] = FinMap(pts, other, {"x": "y", "y": "x"})
        with pytest.raises(NotAction, match="self-maps") as info:
            action_check(GroupAction(G, pts, act))
        assert info.value.witness == ("g1",)

    def test_orbit_stabilizer_count(self):
        G, perms = s3()
        carrier = finset("1", "2", "3")
        A = GroupAction(G, carrier, {p: perms[p] for p in G.carrier})
        for point in carrier:
            assert len(stabilizer(A, point).members) * len(carrier) == G.order()


class TestLinearSpace:
    def test_f2_acting_on_klein_four(self):
        field = zp_field(2)
        V = klein_four()
        act = {
            "k0": FinMap.constant(V.carrier, V.carrier, V.unit),
            "k1": FinMap.identity(V.carrier),
        }
        rep = linear_space_check(field, V, act)
        assert rep.passed, rep.render_text()

    def test_f3_acting_on_z3(self):
        field = zp_field(3)
        V = cyclic_group(3)
        act = {
            "k%d" % a: FinMap(
                V.carrier, V.carrier, {"g%d" % i: "g%d" % (a * i % 3) for i in range(3)}
            )
            for a in range(3)
        }
        rep = linear_space_check(field, V, act)
        assert rep.passed, rep.render_text()

    def test_bad_scalar_action_fails(self):
        field = zp_field(3)
        V = cyclic_group(3)
        act = {
            "k%d" % a: FinMap(
                V.carrier, V.carrier, {"g%d" % i: "g%d" % (a * i % 3) for i in range(3)}
            )
            for a in range(3)
        }
        # break associativity of the scalar action
        act["k2"] = FinMap.identity(V.carrier)
        rep = linear_space_check(field, V, act)
        assert not rep.passed
        assert rep["ls-agree"].passed  # both formulations fail together


class TestEnumeration:
    def test_group_counts_up_to_iso(self):
        # classical counts: 1, 1, 1, 2, 1, 2 for orders 1..6
        expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}
        for n, count in expected.items():
            assert len(enumerate_groups(n)) == count

    def test_order4_catalog_contains_klein_and_cyclic(self):
        groups = enumerate_groups(4)
        involution_counts = sorted(
            sum(1 for a in G.carrier if G.op[(a, a)] == G.unit) for G in groups
        )
        # Z4 has two self-inverse elements, Klein four has four
        assert involution_counts == [2, 4]

    def test_order6_catalog_contains_a_nonabelian_group(self):
        groups = enumerate_groups(6)
        assert sorted(G.is_abelian() for G in groups) == [False, True]

    def test_enumeration_guard(self):
        with pytest.raises(TooLarge):
            enumerate_groups(7)

    def test_no_group_has_an_empty_carrier(self):
        assert enumerate_groups(0) == ()
        assert enumerate_groups(-1) == ()

    def test_pruned_search_matches_the_filtered_reference(self):
        for n in range(1, 7):
            got = [(G.carrier, G.op) for G in enumerate_groups(n)]
            assert got == reference_groups(n), n


def reference_groups(n):
    """The groups of order n as (carrier, op), by the unpruned search:
    fill every Latin square with a fixed unit, keep the associative ones,
    and dedupe by relabeling."""
    names = ["g%d" % i for i in range(n)]
    xs = range(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    table = {**{(0, i): i for i in xs}, **{(i, 0): i for i in xs}}
    found = []

    def place(k):
        if k == len(cells):
            if all(
                table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
                for a in xs
                for b in xs
                for c in xs
            ):
                found.append(dict(table))
            return
        i, j = cells[k]
        used = {table[(i, c)] for c in range(j)} | {table[(r, j)] for r in range(i)}
        for v in xs:
            if v not in used:
                table[(i, j)] = v
                place(k + 1)

    place(0)
    reps = []
    for t in found:
        if not any(group._tables_isomorphic(t, r, n) for r in reps):
            reps.append(t)
    return [
        (FinSet(names), {(names[i], names[j]): names[t[(i, j)]] for i in xs for j in xs})
        for t in reps
    ]


# Theorems about the library's constructions, checked over the catalogue
# of groups of order at most 6 (the constructions compute one definition
# each; these are the reference checks).


def catalog(max_order=6):
    return [G for n in range(1, max_order + 1) for G in enumerate_groups(n)]


def all_subgroups(G):
    out = []
    for sub in G.carrier.subsets():
        try:
            out.append(subgroup_check(G, sub))
        except NotSubgroup:
            pass
    return out


def conjugates(G, H, x):
    return FinSet(G.op[(G.op[(x, h)], G.inv[x])] for h in H.members)


class TestConstructionTheorems:
    def test_cyclic_subgroups_are_abelian(self):
        for G in catalog():
            for a in G.carrier:
                assert as_group(cyclic_subgroup(G, a)).is_abelian()

    def test_cosets_are_equinumerous_with_the_subgroup(self):
        for G in catalog():
            for H in all_subgroups(G):
                for side in ("left", "right"):
                    part = cosets(G, H, side)
                    assert all(len(b) == len(H.members) for b in part.blocks)
                    assert H.members in part.blocks

    def test_quotients_of_abelian_groups_are_abelian(self):
        for G in catalog():
            if not G.is_abelian():
                continue
            for H in all_subgroups(G):
                assert quotient(G, H).is_abelian()

    def test_center_commutant_and_kernels_are_normal(self):
        for G in catalog():
            assert is_normal(G, center(G))
            comm = commutant(G)
            assert is_normal(G, comm)
            assert all(G.inv[a] in comm.members for a in comm.members)
        for G in catalog(4):
            for H in catalog(4):
                for h in enumerate_homs(G, H):
                    assert is_normal(G, kernel(h))

    def test_homs_send_unit_and_inverses_along(self):
        for G in catalog(4):
            for H in catalog(4):
                for h in enumerate_homs(G, H):
                    assert h.map(G.unit) == H.unit
                    assert all(h.map(G.inv[a]) == H.inv[h.map(a)] for a in G.carrier)

    def test_first_iso_is_a_bijection_through_which_h_factors(self):
        for G in catalog(4):
            for H in catalog(4):
                for h in enumerate_homs(G, H):
                    ker = kernel(h)
                    iso = first_iso(h)
                    assert classify(iso.map)["bijective"]
                    assert G.order() == len(ker.members) * len(iso.tgt.carrier)
                    for b in cosets(G, ker).blocks:
                        assert {h.map(x) for x in b} == {iso.map(b.name())}

    def test_inner_automorphisms_and_the_center(self):
        for G in catalog():
            inn, h = inner_automorphisms(G)
            for x in G.carrier:
                f = group.conjugation_map(G, x)
                assert classify(f)["bijective"]
                hom_check(G, G, f)
            assert classify(h.map)["onto"]
            assert kernel(h).members == center(G).members

    def test_coset_actions_are_transitive_with_the_nucleus_as_core(self):
        for G in catalog():
            for H in all_subgroups(G):
                A = coset_action(G, H)
                assert action_check(A).passed
                assert is_transitive(A)
                h_name = H.members.name()
                assert all(
                    (A.apply(x, h_name) == h_name) == (x in H.members) for x in G.carrier
                )
                core = G.carrier
                for x in G.carrier:
                    core = core.inter(conjugates(G, H, x))
                assert action_nucleus(A) == core

    def test_commutant_is_the_least_subgroup_holding_every_commutator(self):
        for G in catalog():
            comms = {commutator(G, a, b) for a in G.carrier for b in G.carrier}
            least = G.carrier
            for H in all_subgroups(G):
                if comms <= set(H.members):
                    least = least.inter(H.members)
            assert commutant(G).members == least

    def test_cyclic_subgroup_is_the_powers(self):
        for G in catalog() + [bijection_group(finset("1", "2", "3", "4"))[0]]:
            for a in G.carrier:
                powers = FinSet(power(G, a, k) for k in range(G.order()))
                assert cyclic_subgroup(G, a).members == powers

    def test_cyclic_subgroup_of_an_outside_element(self):
        with pytest.raises(CarrierMismatch) as err:
            cyclic_subgroup(cyclic_group(3), "zz")
        assert err.value.witness == ("zz",)

    def test_cayley_rejects_colliding_permutation_names(self, monkeypatch):
        G = cyclic_group(3)
        monkeypatch.setattr(group, "_perm_name", lambda assign: "(same)")
        with pytest.raises(NotBijective) as err:
            cayley(G)
        assert err.value.witness == ("g0", "g1")


# ---------------------------------------------------------------------------
# Witness searches, against references that collect every witness and take
# the first. The inputs obey the law, then one value or member is planted.

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)
CATALOGUE = [cyclic_group(n) for n in (1, 2, 3, 4)] + [klein_four(), s3()[0]]


def lawful_homs(G, H):
    """Homomorphisms G → H built without a hom test: the trivial map, and
    for G = H the conjugations and, for abelian G, the power maps."""
    yield {a: H.unit for a in G.carrier}
    if G is H:
        yield from (conjugation_map(G, x).assign for x in G.carrier)
        if G.is_abelian():
            yield from ({a: power(G, a, k) for a in G.carrier} for k in range(4))


@st.composite
def planted_homs(draw):
    G, H = draw(st.sampled_from(CATALOGUE)), draw(st.sampled_from(CATALOGUE))
    assign = dict(draw(st.sampled_from(list(lawful_homs(G, H)))))
    assign[draw(st.sampled_from(G.carrier.elements))] = draw(st.sampled_from(H.carrier.elements))
    return G, H, FinMap(G.carrier, H.carrier, assign)


def first_non_hom(G, H, f):
    bad = [(a, b) for a, b in itertools.product(G.carrier, repeat=2)
           if f(G.op[(a, b)]) != H.op[(f(a), f(b))]]
    return bad[0] if bad else None


@st.composite
def planted_subgroups(draw):
    G = draw(st.sampled_from(CATALOGUE))
    members = set(cyclic_subgroup(G, draw(st.sampled_from(G.carrier.elements))).members)
    members ^= {draw(st.sampled_from(G.carrier.elements))}
    return G, Subgroup(G, FinSet(members))


def first_non_normal(G, N):
    bad = [(x, n) for x, n in itertools.product(G.carrier, N.members)
           if G.op[(G.op[(x, n)], G.inv[x])] not in N.members]
    return bad[0] if bad else None


S3_PERMS = s3()[1]


def s3_subgroups():
    # the subgroups of S3 are its cyclic subgroups and S3, which is not abelian
    S3 = s3()[0]
    return [cyclic_subgroup(S3, x).members for x in S3.carrier] + [S3.carrier]


@st.composite
def planted_perm_sets(draw):
    names = set(draw(st.sampled_from(s3_subgroups())))
    names ^= {draw(st.sampled_from((None,) + s3()[0].carrier.elements))} - {None}
    return {p: S3_PERMS[p] for p in names}


def every_planted_perm_set():
    """Each set ``planted_perm_sets`` can draw, once."""
    sets = {frozenset(H) ^ ({x} - {None})
            for H in s3_subgroups() for x in (None,) + tuple(S3_PERMS)}
    return [{p: S3_PERMS[p] for p in sorted(names)} for names in sorted(sets, key=sorted)]


def composite_name(p, q):
    return _perm_name({x: p.assign[q.assign[x]] for x in q.dom})


class TestWitnessSearches:
    @PROPERTY
    @given(planted_homs())
    def test_hom_witness_is_the_first(self, case):
        G, H, f = case
        assert hom_witness(G, H, f) == first_non_hom(G, H, f)

    @PROPERTY
    @given(planted_subgroups())
    def test_normality_witness_is_the_first(self, case):
        G, N = case
        assert normality_witness(G, N) == first_non_normal(G, N)
        assert is_normal(G, N) == (first_non_normal(G, N) is None)

    def test_normality_witness_conjugates_as_x_n_x_inverse(self):
        # S4 relabelled so that g01 is the 3-cycle 1>2>3>1, g02 the
        # transposition of 3 and 4, and g03 that of 2 and 4. N is the
        # stabilizer of 1. g01 normalizes N exactly when g01⁻¹ does, so
        # both conjugations fail first at x = g01, but at different n:
        # g01·g02·g01⁻¹ moves 1, while g01⁻¹·g02·g01 fixes it and
        # g01⁻¹·g03·g01 moves it.
        pts = finset("1", "2", "3", "4")
        perms = bijection_group(pts)[1]

        def perm(*images):
            return group._perm_name(dict(zip(pts.elements, images)))

        first = [perm("1", "2", "3", "4"), perm("2", "3", "1", "4"),
                 perm("1", "2", "4", "3"), perm("1", "4", "3", "2")]
        order = first + sorted(p for p in perms if p not in first)
        name = {p: "g%02d" % i for i, p in enumerate(order)}
        table = {(name[p], name[q]): name[group._perm_name(compose(perms[p], perms[q]).assign)]
                 for p in perms for q in perms}
        G = check_group(table, FinSet(name.values()))
        N = subgroup_check(G, FinSet(name[p] for p in perms if perms[p]("1") == "1"))
        assert len(N.members) == 6
        assert normality_witness(G, N) == ("g01", "g02")

    def test_permutation_group_refuses_mixed_carriers_as_compose_does(self):
        pts = finset("1", "2", "3")
        swap = FinMap(pts, pts, {"1": "2", "2": "1", "3": "3"})
        shift = FinMap(finset("1", "2"), finset("1", "2"), {"1": "2", "2": "1"})
        into = FinMap(finset("1", "2"), pts, {"1": "2", "2": "1"})
        for by_name in ({"a": swap, "b": shift}, {"a": into}, {"a": swap, "b": into}):
            names = sorted(by_name)
            want = None
            for p, q in itertools.product(names, repeat=2):
                try:
                    compose(by_name[p], by_name[q])
                except CompositionMismatch as e:
                    want = e.witness
                    break
            with pytest.raises(CompositionMismatch) as err:
                permutation_group(by_name)
            assert err.value.witness == want is not None

    @PROPERTY
    @given(planted_perm_sets())
    def test_permutation_group_composes_or_names_the_first_escape(self, by_name):
        products = {(p, q): composite_name(by_name[p], by_name[q])
                    for p, q in itertools.product(sorted(by_name), repeat=2)}
        escapes = [pq for pq, r in products.items() if r not in by_name]
        if not by_name:
            with pytest.raises(NotAGroup):
                permutation_group(by_name)
        elif escapes:
            with pytest.raises(NotAGroup) as err:
                permutation_group(by_name)
            assert err.value.witness == escapes[0]
        else:
            assert permutation_group(by_name).op == products


# ---------------------------------------------------------------------------
# Cayley images named by a base and generators, against the spelled-out loop
# that names each product over every point.


def spelled_table(by_name):
    names = sorted(by_name)
    keys = sorted(by_name[names[0]].dom) if names else []
    assigns = [(p, by_name[p].assign) for p in names]
    return {
        (p, q): "(%s)" % ",".join("%s>%s" % (k, pa[qa[k]]) for k in keys)
        for p, pa in assigns
        for q, qa in assigns
    }


def based_table(by_name):
    names = sorted(by_name)
    perms = [by_name[p] for p in names]
    return group._based_table(tuple(names), perms, sorted(perms[0].dom) if perms else [])


def by_perm_name(maps):
    return {_perm_name(f.assign): f for f in maps}


def dihedral_group(k):
    """The symmetries of the k-gon: rotations r_i and reflections s_i."""
    xs = ["r%d" % i for i in range(k)] + ["s%d" % i for i in range(k)]

    def mul(a, b):
        i, j = int(a[1:]), int(b[1:])
        if a[0] == "r":
            return ("r%d" if b[0] == "r" else "s%d") % ((i + j) % k)
        return ("s%d" if b[0] == "r" else "r%d") % ((i - j) % k)

    return check_group({(a, b): mul(a, b) for a in xs for b in xs}, FinSet(xs))


class TestCayleyNaming:
    def assert_certified(self, by_name):
        want = spelled_table(by_name)
        assert based_table(by_name) == want
        assert list(permutation_group(by_name).op.items()) == list(want.items())

    def assert_spelled_error(self, by_name):
        """No certificate, and the error and witness of the spelled table."""
        assert based_table(by_name) is None
        with pytest.raises(NotAGroup) as want:
            check_group(spelled_table(by_name), FinSet(by_name))
        with pytest.raises(NotAGroup) as err:
            permutation_group(by_name)
        assert (str(err.value), err.value.witness) == (str(want.value), want.value.witness)

    def test_bijection_groups_on_up_to_four_points(self):
        # the one empty permutation, and S4, whose base needs three points
        for k in range(5):
            self.assert_certified(bijection_group(FinSet(str(i) for i in range(1, k + 1)))[1])

    def test_regular_images_of_the_catalogue_and_the_derived_groups(self):
        groups = catalog() + [dihedral_group(n // 2) if n % 2 == 0 and n >= 6 else cyclic_group(n)
                              for n in range(2, 49)]
        for G in groups:
            self.assert_certified(by_perm_name(regular_action(G).act.values()))

    def test_inner_automorphisms_of_the_catalogue(self):
        for G in catalog():
            self.assert_certified(by_perm_name(conjugation_map(G, x) for x in G.carrier))

    def test_names_that_are_not_spellings_get_the_spelled_error(self):
        perms = [S3_PERMS[p] for p in sorted(S3_PERMS)]
        self.assert_spelled_error(dict(zip("abcdef", perms)))

    def test_a_set_without_the_identity_gets_the_spelled_error(self):
        unit = s3()[0].unit
        self.assert_spelled_error({p: f for p, f in S3_PERMS.items() if p != unit})

    def test_planted_perm_sets_are_certified_or_get_the_spelled_error(self):
        for by_name in every_planted_perm_set():
            products = spelled_table(by_name)
            if by_name and all(r in by_name for r in products.values()):
                self.assert_certified(by_name)
            else:
                self.assert_spelled_error(by_name)

    def test_a_closed_monoid_is_certified_and_then_fails_as_a_group(self):
        pts = finset("1", "2")
        by_name = by_perm_name([FinMap(pts, pts, {"1": "1", "2": "2"}),
                                FinMap(pts, pts, {"1": "1", "2": "1"})])
        assert based_table(by_name) == spelled_table(by_name)
        with pytest.raises(NotAGroup) as err:
            permutation_group(by_name)
        assert err.value.witness == ("(1>1,2>1)",)


# ---------------------------------------------------------------------------
# The group axioms on one position table, against the spelled-out scans
# over the pair-keyed table that they replaced.


def spelled_axioms(table, carrier):
    r = LawReport("group-axioms")
    xs = carrier.elements
    missing = next(((a, b) for a in xs for b in xs if (a, b) not in table), None)
    r.add("grp-total", missing is None, missing)
    if missing is not None:
        return r
    escape = next(((a, b) for a in xs for b in xs if table[(a, b)] not in carrier), None)
    r.add("grp-closed", escape is None, escape)
    if escape is not None:
        return r
    assoc = associativity_witness(table, xs)
    r.add("grp-assoc", assoc is None, assoc)
    unit = two_sided_unit(table, xs)
    r.add("grp-unit", unit is not None)
    if unit is None or assoc is not None:
        return r
    no_inv = next(
        ((a,) for a in xs if not any(table[(a, b)] == unit == table[(b, a)] for b in xs)),
        None,
    )
    r.add("grp-inverse", no_inv is None, no_inv)
    if no_inv is not None:
        return r
    inv = {a: next(b for b in xs if table[(a, b)] == unit) for a in xs}
    r.add("grp-inv-invol", all(inv[inv[a]] == a for a in xs))
    n = len(xs)
    latin = all(
        len({table[(a, b)] for b in xs}) == n and len({table[(b, a)] for b in xs}) == n
        for a in xs
    )
    r.add("grp-unique-solutions", latin)
    r.add("grp-cancel", latin)
    return r


def assembled(table, carrier):
    """The unit and inverses that the group of a passing table had."""
    xs = carrier.elements
    unit = two_sided_unit(table, xs)
    return unit, {a: next(b for b in xs if table[(a, b)] == unit) for a in xs}


def verdicts(rep):
    return [(c.law, c.passed, c.witness) for c in rep.checks]


def broken_cells(table):
    """The table with its first or last cell dropped, set to a symbol
    outside the carrier, or set to an unhashable value."""
    cells = list(table)
    for cell in (cells[0], cells[-1]):
        yield {k: v for k, v in table.items() if k != cell}
        yield {**table, cell: "z"}
        yield {**table, cell: ["a"]}


def every_small_table():
    """(table, carrier) for each of the 19,701 tables over at most three
    symbols, each followed by its broken copies."""
    for n in range(4):
        xs = ("a", "b", "c")[:n]
        cells = list(itertools.product(xs, repeat=2))
        for values in itertools.product(xs, repeat=n * n):
            table = dict(zip(cells, values))
            yield table, FinSet(xs)
            if table:
                for broken in broken_cells(table):
                    yield broken, FinSet(xs)


class TestPositionTable:
    def assert_spelled(self, table, carrier):
        want = spelled_axioms(table, carrier)
        rep, G = group.axioms_and_group(table, carrier)
        assert verdicts(rep) == verdicts(want), table
        if want.passed:
            unit, inv = assembled(table, carrier)
            assert (G.unit, list(G.inv.items())) == (unit, list(inv.items()))
            assert check_group(table, carrier) == G
        else:
            assert G is None
        return want.passed

    def test_every_table_on_three_symbols_and_its_broken_cells(self):
        counted = [self.assert_spelled(t, c) for t, c in every_small_table()]
        assert len(counted) == 19701 + 6 * 19700
        # the labelled groups: n!/|Aut| on n symbols, so 1 + 2 + 3
        assert sum(counted) == 6

    def test_catalogue_cyclic_and_dihedral_groups(self):
        groups = catalog() + [cyclic_group(n) for n in range(1, 49)]
        groups += [dihedral_group(k) for k in range(3, 25)]
        for G in groups:
            assert self.assert_spelled(G.op, G.carrier)
            # the first cell takes the last cell's value: no longer a group
            first, last = list(G.op)[0], list(G.op)[-1]
            if G.op[first] != G.op[last]:
                assert not self.assert_spelled({**G.op, first: G.op[last]}, G.carrier)
            for broken in broken_cells(G.op):
                assert not self.assert_spelled(broken, G.carrier)


# ---------------------------------------------------------------------------
# Actions on value lists, against act-hom by composed FinMaps and
# transitivity by a search for each pair of points.


def spelled_transitive(A):
    return all(
        any(A.apply(g, x) == y for g in A.group.carrier)
        for x in A.carrier
        for y in A.carrier
    )


def spelled_action_check(A):
    r = LawReport("group-action")
    for g, f in A.act.items():
        if f.dom != A.carrier or f.cod != A.carrier:
            raise NotAction("action maps must be self-maps of the carrier", witness=(g,))
        if not classify(f)["bijective"]:
            raise NotAction("action image is not a bijection", witness=(g,))
    bad = next(
        (
            (a, b)
            for a in A.group.carrier
            for b in A.group.carrier
            if compose(A.act[a], A.act[b]) != A.act[A.group.op[(a, b)]]
        ),
        None,
    )
    r.add("act-hom", bad is None, bad)
    if bad is not None:
        return r
    nul = FinSet(g for g in A.group.carrier if A.act[g] == FinMap.identity(A.carrier))
    r.add("act-nul-subgroup", True)
    subgroup_check(A.group, nul)
    r.add("act-transitive-flag", spelled_transitive(A))
    return r


def outcome(check, A):
    """The checks of the report, statements included, or the error."""
    try:
        return check(A).checks
    except StructaError as e:
        return (type(e), str(e), e.witness)


class TestActionValueLists:
    def assert_spelled(self, A):
        want = outcome(spelled_action_check, A)
        assert outcome(action_check, A) == want, A
        transitive = is_transitive(A)
        assert transitive == spelled_transitive(A)
        return want, transitive

    def test_every_assignment_of_self_maps_for_z2_and_z3(self):
        seen = set()
        for n in (2, 3):
            G = cyclic_group(n)
            for k in (2, 3):
                pts = FinSet(["x", "y", "z"][:k])
                maps = list(all_maps(pts, pts))
                for chosen in itertools.product(maps, repeat=n):
                    A = GroupAction(G, pts, dict(zip(G.carrier, chosen)))
                    want, transitive = self.assert_spelled(A)
                    if isinstance(want, tuple):
                        seen.add(want[0])
                    else:
                        seen.add((want[0].passed, len(want), transitive))
        # every path is met: a map that is no bijection, a failing act-hom,
        # and an action that is transitive or not
        assert seen == {NotAction, (False, 1, False), (False, 1, True),
                        (True, 3, False), (True, 3, True)}

    def test_the_actions_suite_corpus(self):
        G, perms = s3()
        actions = [GroupAction(G, finset("1", "2", "3"), {g: perms[g] for g in G.carrier})]
        for H in all_subgroups(G):
            actions.append(coset_action(G, H))
        for K in catalog():
            actions.append(regular_action(K))
        for A in actions:
            assert self.assert_spelled(A)[0][0].passed
