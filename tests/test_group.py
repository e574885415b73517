"""Group module tests.

Oracles: modular arithmetic for cyclic groups, permutation composition
for symmetric groups, and exhaustive searches over small carriers.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structa.core import FinMap, FinSet, classify, compose, finset
from structa import group
from structa.errors import (
    CarrierMismatch,
    IllDefinedQuotient,
    NotAGroup,
    NotBijective,
    NotHomomorphism,
    NotNormal,
    NotSubgroup,
    TooLarge,
)
from structa.group import (
    GroupAction,
    abelianization_check,
    action_check,
    action_nucleus,
    as_group,
    automorphisms,
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
    inner_normal_in_aut,
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
    transfer_check,
    zp_field,
)
from structa.group import Subgroup, _perm_name, conjugation_map


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

    def test_ill_defined_witness_shape(self):
        G, _ = s3()
        H = next(
            cyclic_subgroup(G, a)
            for a in G.carrier
            if len(cyclic_subgroup(G, a).members) == 2
        )
        try:
            quotient(G, H)
        except NotNormal as e:
            assert e.witness is not None

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
        for k in range(1, 7):
            for members in itertools.combinations(S.carrier.elements, k):
                try:
                    subgroup_check(S, FinSet(members))
                except NotSubgroup:
                    continue
                assert transfer_check(h, FinSet(members)).passed


class TestAutomorphisms:
    def test_aut_z5_has_order_4(self):
        auts = automorphisms(cyclic_group(5))
        assert len(auts) == 4

    def test_aut_klein_four_has_order_6(self):
        auts = automorphisms(klein_four())
        assert len(auts) == 6

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

    def test_inn_normal_in_aut(self):
        for G in (cyclic_group(4), klein_four(), s3()[0]):
            assert inner_normal_in_aut(G)

    def test_aut_guard(self):
        with pytest.raises(TooLarge):
            automorphisms(cyclic_group(9), guard=8)


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


@st.composite
def planted_perm_sets(draw):
    # the subgroups of S3 are its cyclic subgroups and S3, which is not abelian
    S3 = s3()[0]
    lawful = [cyclic_subgroup(S3, x).members for x in S3.carrier] + [S3.carrier]
    names = set(draw(st.sampled_from(lawful)))
    names ^= {draw(st.sampled_from((None,) + S3.carrier.elements))} - {None}
    return {p: S3_PERMS[p] for p in names}


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
