"""Posets, chains, Galois connections, lattices and completeness.

Orders are stored as explicit pair sets over a finite carrier, so every
axiom is a direct scan. A Hasse reduction exists only for rendering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import FinMap, FinSet, all_maps, classify, finset
from .errors import (
    BadStructure,
    CarrierMismatch,
    EmptySubset,
    NotALattice,
    NotDualPair,
    NotMonotone,
    NotSemilattice,
    TooLarge,
    UnboundedChain,
)
from .report import LawReport


def check_order(carrier: FinSet, rel) -> LawReport:
    """Classify a pair relation: preorder, partial order, natural order."""
    rel = set(rel)
    r = LawReport("order-axioms")
    for x, y in rel:
        if x not in carrier or y not in carrier:
            raise CarrierMismatch("relation pair outside the carrier", witness=(x, y))
    refl = next(((x,) for x in carrier if (x, x) not in rel), None)
    r.add("refl", "x ≤ x for all x", refl is None, refl)
    antisym = next(
        ((x, y) for x, y in rel if x != y and (y, x) in rel), None
    )
    r.add("antisym", "x ≤ y and y ≤ x imply x = y", antisym is None, antisym)
    trans = next(
        (
            (x, y, z)
            for (x, y) in sorted(rel)
            for z in carrier
            if (y, z) in rel and (x, z) not in rel
        ),
        None,
    )
    r.add("trans", "x ≤ y and y ≤ z imply x ≤ z", trans is None, trans)
    total = next(
        (
            (x, y)
            for x, y in itertools.combinations(carrier.elements, 2)
            if (x, y) not in rel and (y, x) not in rel
        ),
        None,
    )
    r.add("total", "every pair is comparable", total is None, total)
    return r


def order_flags(carrier: FinSet, rel) -> dict:
    rep = check_order(carrier, rel)
    ok = {c.law: c.passed for c in rep.checks}
    preorder = ok["refl"] and ok["trans"]
    partial = preorder and ok["antisym"]
    return {"preorder": preorder, "partial": partial, "natural": partial and ok["total"]}


class Poset:
    """A reflexive, antisymmetric, transitive relation on a finite carrier."""

    __slots__ = ("carrier", "pairs")

    def __init__(self, carrier: FinSet, pairs):
        pairs = frozenset(pairs)
        if not order_flags(carrier, pairs)["partial"]:
            raise BadStructure("relation is not a partial order")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _trusted(cls, carrier: FinSet, pairs) -> "Poset":
        """The poset of ``pairs``, unchecked: the caller guarantees a partial order."""
        P = object.__new__(cls)
        object.__setattr__(P, "carrier", carrier)
        object.__setattr__(P, "pairs", frozenset(pairs))
        return P

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.carrier == other.carrier
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.carrier, self.pairs))

    def __repr__(self):
        strict = sorted((x, y) for x, y in self.pairs if x != y)
        return "Poset(%s, %s)" % (list(self.carrier), strict)

    def le(self, x, y) -> bool:
        return (x, y) in self.pairs

    def comparable(self, x, y) -> bool:
        return self.le(x, y) or self.le(y, x)

    def opposite(self) -> "Poset":
        return Poset._trusted(self.carrier, {(y, x) for x, y in self.pairs})

    def upper_bounds(self, A: FinSet) -> FinSet:
        pairs = self.pairs
        return FinSet._ordered(
            tuple(u for u in self.carrier.elements if all((a, u) in pairs for a in A))
        )

    def lower_bounds(self, A: FinSet) -> FinSet:
        pairs = self.pairs
        return FinSet._ordered(
            tuple(l for l in self.carrier.elements if all((l, a) in pairs for a in A))
        )

    def max_of(self, A: FinSet):
        for m in A:
            if all(self.le(a, m) for a in A):
                return m
        return None

    def min_of(self, A: FinSet):
        for m in A:
            if all(self.le(m, a) for a in A):
                return m
        return None

    def sup(self, A: FinSet):
        return self.min_of(self.upper_bounds(A))

    def inf(self, A: FinSet):
        return self.max_of(self.lower_bounds(A))

    def is_chain(self, A) -> bool:
        return all(self.comparable(x, y) for x, y in itertools.combinations(list(A), 2))

    def sort_chain(self, A) -> tuple:
        elems = list(A)
        if not self.is_chain(elems):
            raise BadStructure("subset is not a chain", witness=tuple(sorted(elems)))
        out = []
        remaining = sorted(elems)
        while remaining:
            m = next(x for x in remaining if all(self.le(x, y) for y in remaining))
            out.append(m)
            remaining.remove(m)
        return tuple(out)


def chain_poset(labels) -> Poset:
    labels = list(labels)
    carrier = FinSet(labels)
    pairs = {
        (labels[i], labels[j]) for i in range(len(labels)) for j in range(i, len(labels))
    }
    return Poset(carrier, pairs)


def antichain_poset(labels) -> Poset:
    carrier = FinSet(labels)
    return Poset(carrier, {(x, x) for x in carrier})


def diamond_poset() -> Poset:
    # bottom < left, right < top; left, right incomparable
    carrier = finset("bot", "l", "r", "top")
    pairs = {(x, x) for x in carrier} | {
        ("bot", "l"),
        ("bot", "r"),
        ("bot", "top"),
        ("l", "top"),
        ("r", "top"),
    }
    return Poset(carrier, pairs)


def powerset_poset(base: FinSet) -> Poset:
    subs = list(base.subsets())
    names = {s: s.name() for s in subs}
    carrier = FinSet(names.values())
    pairs = {(names[a], names[b]) for a in subs for b in subs if a <= b}
    return Poset(carrier, pairs)


def subset_of_name(name: str) -> FinSet:
    """Inverse of FinSet.name for powerset-poset carriers."""
    inner = name.strip("{}")
    return FinSet(inner.split(",")) if inner else FinSet()


def enumerate_posets(carrier: FinSet):
    """All labeled partial orders on the carrier: one of {<, >, incomparable}
    per unordered pair, filtered for transitivity."""
    elems = carrier.elements
    pairs2 = list(itertools.combinations(elems, 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs2)):
        rel = {(x, x) for x in elems}
        for (x, y), c in zip(pairs2, choice):
            if c == 1:
                rel.add((x, y))
            elif c == 2:
                rel.add((y, x))
        if all(
            (x, z) in rel
            for (x, y) in rel
            for z in elems
            if (y, z) in rel
        ):
            yield Poset._trusted(carrier, rel)


def map_classify(f: FinMap, P: Poset, Q: Poset) -> dict:
    """Order-theoretic classification of f: carrier(P) → carrier(Q)."""
    if f.dom != P.carrier or f.cod != Q.carrier:
        raise CarrierMismatch("map does not connect the two carriers")
    pairs = [(x, y) for x in P.carrier for y in P.carrier]
    preserving = all(Q.le(f(x), f(y)) for x, y in pairs if P.le(x, y))
    reversing = all(Q.le(f(y), f(x)) for x, y in pairs if P.le(x, y))
    embedding = all(P.le(x, y) == Q.le(f(x), f(y)) for x, y in pairs)
    bij = classify(f)["bijective"]
    order_bijective = embedding and bij
    if embedding and not classify(f)["monic"]:
        raise BadStructure("an order embedding must be monic")
    flags = {
        "preserving": preserving,
        "reversing": reversing,
        "embedding": embedding,
        "order_bijective": order_bijective,
    }
    # the same map between the dual orders preserves iff it preserved before
    dual = {
        "preserving": all(
            Q.opposite().le(f(x), f(y)) for x, y in pairs if P.opposite().le(x, y)
        ),
        "order_bijective": bij
        and all(P.opposite().le(x, y) == Q.opposite().le(f(x), f(y)) for x, y in pairs),
    }
    flags["dual"] = dual
    return flags


def galois_check(f: FinMap, g: FinMap, P: Poset, Q: Poset) -> LawReport:
    """Verify both formulations of a Galois connection and their equivalence."""
    r = LawReport("galois")
    if f.dom != P.carrier or f.cod != Q.carrier:
        raise CarrierMismatch("f must map P into Q")
    if g.dom != Q.carrier or g.cod != P.carrier:
        raise CarrierMismatch("g must map Q into P")
    f_mono = map_classify(f, P, Q)["preserving"]
    g_mono = map_classify(g, Q, P)["preserving"]
    unit = all(P.le(p, g(f(p))) for p in P.carrier)
    counit = all(Q.le(f(g(q)), q) for q in Q.carrier)
    axioms = f_mono and g_mono and unit and counit
    comparable = all(
        (Q.le(f(p), q)) == (P.le(p, g(q))) for p in P.carrier for q in Q.carrier
    )
    r.add("gal-monotone-f", "f preserves the order", f_mono)
    r.add("gal-monotone-g", "g preserves the order", g_mono)
    r.add("gal-unit", "p ≤ g(f p)", unit)
    r.add("gal-counit", "f(g q) ≤ q", counit)
    r.add("gal-comparable", "f p ≤ q iff p ≤ g q", comparable)
    if f_mono and g_mono:
        r.add(
            "gal-equivalence",
            "axiom form and comparability form agree",
            axioms == comparable,
        )
    return r


def bounds(P: Poset, A: FinSet) -> dict:
    """Upper/lower bounds, sup/inf, max/min of a subset."""
    if not A <= P.carrier:
        raise CarrierMismatch("subset outside the carrier")
    return {
        "upper": P.upper_bounds(A),
        "lower": P.lower_bounds(A),
        "sup": P.sup(A),
        "inf": P.inf(A),
        "max": P.max_of(A),
        "min": P.min_of(A),
    }


def is_directed(P: Poset, A: FinSet) -> bool:
    """Every pair of members has an upper bound in A. On a finite set this
    is the same as every nonempty subset having one; the order tests
    check the two criteria against each other."""
    if len(A) == 0:
        raise EmptySubset("directedness is defined for nonempty subsets")
    return all(
        any(P.le(x, z) and P.le(y, z) for z in A) for x in A for y in A
    )


def extend_chain(P: Poset, chain) -> "TotalChain":
    """Greedily (lexicographic candidate order) grow a chain until maximal."""
    elems = set(chain)
    if not P.is_chain(elems):
        raise BadStructure("input is not a chain")
    changed = True
    while changed:
        changed = False
        for c in P.carrier:
            if c not in elems and all(P.comparable(c, x) for x in elems):
                elems.add(c)
                changed = True
                break
    return TotalChain(P, P.sort_chain(elems))


def zorn_maximal(P: Poset):
    """A maximal element, as the top of a greedily maximalized chain.

    Precondition (checked): every chain has an upper bound. On a finite
    carrier only the empty chain of the empty poset has none. Proof: a
    non-empty finite chain has a maximum, which bounds it; the empty
    chain is bounded by every point, so by any point of a non-empty
    carrier. The tests compare this with the scan over all subsets."""
    if len(P.carrier) == 0:
        raise UnboundedChain("a chain with no upper bound", witness=())
    chain = extend_chain(P, [])
    return chain.elements[-1]


@dataclass(frozen=True)
class TotalChain:
    poset: Poset
    elements: tuple

    def __post_init__(self):
        for a, b in zip(self.elements, self.elements[1:]):
            if not self.poset.le(a, b):
                raise BadStructure("chain elements out of order", witness=(a, b))


@dataclass(frozen=True)
class LatticeTables:
    poset: Poset
    join: dict
    meet: dict


def lattice_from_poset(P: Poset) -> LatticeTables:
    """Join/meet tables from pairwise sups/infs; fails if any is missing."""
    join, meet = {}, {}
    for x in P.carrier:
        for y in P.carrier:
            s = P.sup(finset(x, y))
            i = P.inf(finset(x, y))
            if s is None or i is None:
                raise NotALattice("a pair without sup or inf", witness=(x, y))
            join[(x, y)] = s
            meet[(x, y)] = i
    return LatticeTables(P, join, meet)


def lattice_laws(lt: LatticeTables) -> LawReport:
    P, join, meet = lt.poset, lt.join, lt.meet
    r = LawReport("lattice-laws")
    xs = P.carrier.elements
    r.add(
        "lat-order",
        "x ≤ y iff x∨y = y iff x∧y = x",
        all(
            P.le(x, y) == (join[(x, y)] == y) == (meet[(x, y)] == x)
            for x in xs
            for y in xs
        ),
    )
    r.add(
        "lat-comm",
        "∨ and ∧ are commutative",
        all(join[(x, y)] == join[(y, x)] and meet[(x, y)] == meet[(y, x)] for x in xs for y in xs),
    )
    r.add(
        "lat-assoc",
        "∨ and ∧ are associative",
        all(
            join[(join[(x, y)], z)] == join[(x, join[(y, z)])]
            and meet[(meet[(x, y)], z)] == meet[(x, meet[(y, z)])]
            for x in xs
            for y in xs
            for z in xs
        ),
    )
    r.add(
        "lat-idem",
        "every element is idempotent for ∨ and ∧",
        all(join[(x, x)] == x and meet[(x, x)] == x for x in xs),
    )
    r.add(
        "lat-absorb",
        "x∨(x∧y) = x = x∧(x∨y)",
        all(
            join[(x, meet[(x, y)])] == x and meet[(x, join[(x, y)])] == x
            for x in xs
            for y in xs
        ),
    )
    r.add(
        "lat-monotone",
        "∨ and ∧ preserve the order in each slot",
        all(
            (not P.le(x, y))
            or (P.le(join[(x, z)], join[(y, z)]) and P.le(meet[(x, z)], meet[(y, z)]))
            for x in xs
            for y in xs
            for z in xs
        ),
    )
    sups = {a: P.sup(a) for a in P.carrier.subsets()}
    r.add(
        "lat-finite-sup",
        "sup of a union is the join of the sups",
        all(
            sups[a.union(b)] == join[(sa, sb)]
            for a, sa in sups.items()
            for b, sb in sups.items()
            if sa is not None and sb is not None and sups[a.union(b)] is not None
        ),
    )
    return r


def semilattice_report(table, carrier: FinSet) -> LawReport:
    r = LawReport("semilattice")
    xs = carrier.elements
    for x in xs:
        for y in xs:
            if (x, y) not in table:
                raise CarrierMismatch("operation table missing a cell", witness=(x, y))
    comm = next(((x, y) for x in xs for y in xs if table[(x, y)] != table[(y, x)]), None)
    r.add("semi-comm", "x⋄y = y⋄x", comm is None, comm)
    assoc = next(
        (
            (x, y, z)
            for x in xs
            for y in xs
            for z in xs
            if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]
        ),
        None,
    )
    r.add("semi-assoc", "(x⋄y)⋄z = x⋄(y⋄z)", assoc is None, assoc)
    idem = next(((x,) for x in xs if table[(x, x)] != x), None)
    r.add("semi-idem", "x⋄x = x", idem is None, idem)
    return r


def semilattice_check(table, carrier: FinSet) -> bool:
    return semilattice_report(table, carrier).passed


def order_from_semilattice(table, carrier: FinSet, orientation: str = "join") -> Poset:
    """The order induced by a semilattice table: x ≤ y iff x⋄y = y
    (join orientation) or x⋄y = x (meet orientation)."""
    rep = semilattice_report(table, carrier)
    if not rep.passed:
        c = rep.failures[0]
        raise NotSemilattice("not a semilattice: %s" % c.law, witness=c.witness)
    if orientation == "join":
        pairs = {(x, y) for x in carrier for y in carrier if table[(x, y)] == y}
    elif orientation == "meet":
        pairs = {(x, y) for x in carrier for y in carrier if table[(x, y)] == x}
    else:
        raise ValueError("orientation must be 'join' or 'meet'")
    return Poset(carrier, pairs)


def lattice_from_dual_pair(join_table, meet_table, carrier: FinSet) -> LatticeTables:
    """Two absorbing semilattice tables determine one lattice."""
    for table, name in ((join_table, "join"), (meet_table, "meet")):
        if not semilattice_check(table, carrier):
            raise NotSemilattice("the %s table is not a semilattice" % name)
    absorb = next(
        (
            (x, y)
            for x in carrier
            for y in carrier
            if (join_table[(x, y)] == y) != (meet_table[(x, y)] == x)
        ),
        None,
    )
    if absorb is not None:
        raise NotDualPair("x∨y = y must match x∧y = x", witness=absorb)
    P = order_from_semilattice(join_table, carrier, "join")
    lt = lattice_from_poset(P)
    if lt.join != dict(join_table) or lt.meet != dict(meet_table):
        bad = next(
            (x, y)
            for x in carrier
            for y in carrier
            if lt.join[(x, y)] != join_table[(x, y)] or lt.meet[(x, y)] != meet_table[(x, y)]
        )
        raise NotDualPair("tables disagree with the induced order", witness=bad)
    return lt


def completeness_report(P: Poset) -> dict:
    """Completeness taxonomy, each predicate by direct enumeration."""
    subsets = list(P.carrier.subsets())
    nonempty = [A for A in subsets if len(A) > 0]
    directed = [A for A in nonempty if is_directed(P, A)]
    chains = [A for A in nonempty if P.is_chain(A)]
    bounded = [A for A in nonempty if len(P.upper_bounds(A)) > 0]
    has_sup = lambda A: P.sup(A) is not None
    has_inf = lambda A: P.inf(A) is not None
    directed_sups = all(has_sup(A) for A in directed)
    chain_sups = all(has_sup(A) for A in chains)
    return {
        "directed_complete": directed_sups,
        "complete_partial_order": directed_sups and P.min_of(P.carrier) is not None,
        "naturally_complete": chain_sups,
        "IS_complete": chain_sups,
        "bounded_complete": all(has_sup(A) for A in bounded),
        "complete_lattice": all(has_sup(A) and has_inf(A) for A in subsets),
    }


def completeness_laws(P: Poset) -> LawReport:
    r = LawReport("completeness")
    flags = completeness_report(P)
    r.add("cmp-finite-directed", "finite posets are directed complete", flags["directed_complete"])
    lower_bounded = [
        A for A in P.carrier.subsets() if len(A) > 0 and len(P.lower_bounds(A)) > 0
    ]
    lbc = all(P.inf(A) is not None for A in lower_bounded)
    r.add(
        "cmp-bound-duality",
        "upper-bound complete iff lower-bound complete",
        flags["bounded_complete"] == lbc,
    )
    if flags["complete_lattice"]:
        r.add(
            "cmp-inf-via-sup",
            "inf A = sup of the lower bounds of A",
            all(P.inf(A) == P.sup(P.lower_bounds(A)) for A in P.carrier.subsets()),
        )
        op_flags = completeness_report(P.opposite())
        r.add(
            "cmp-both-dcpo",
            "complete lattice: the order and its dual are directed complete",
            flags["directed_complete"] and op_flags["directed_complete"],
        )
    return r


def _partial_map_name(assign: dict) -> str:
    if not assign:
        return "[]"
    return "[%s]" % ",".join("%s>%s" % (k, v) for k, v in sorted(assign.items()))


def partial_map_poset(L: FinSet, bound: int = 3) -> Poset:
    """Partial self-maps of L ordered by restriction."""
    if len(L) > bound:
        raise TooLarge("carrier too large for the partial-map poset", witness=(len(L),))
    maps = []
    for D in L.subsets():
        for values in itertools.product(L.elements, repeat=len(D)):
            maps.append(dict(zip(D.elements, values)))
    names = [_partial_map_name(m) for m in maps]
    carrier = FinSet(names)
    by_name = dict(zip(names, maps))
    pairs = {
        (a, b)
        for a in names
        for b in names
        if all(k in by_name[b] and by_name[b][k] == v for k, v in by_name[a].items())
    }
    return Poset(carrier, pairs)


def functor_order(maps, P: Poset, Q: Poset) -> Poset:
    """The pointwise order on a list of order-preserving maps P → Q."""
    named = []
    for i, f in enumerate(maps):
        if not map_classify(f, P, Q)["preserving"]:
            raise NotMonotone("map %d does not preserve the order" % i, witness=(i,))
        named.append(("m%d" % i, f))
    carrier = FinSet(n for n, _ in named)
    by_name = dict(named)
    pairs = {
        (a, b)
        for a in carrier
        for b in carrier
        if all(Q.le(by_name[a](x), by_name[b](x)) for x in P.carrier)
    }
    return Poset(carrier, pairs)


def monotone_maps(P: Poset, Q: Poset):
    for f in all_maps(P.carrier, Q.carrier):
        if all(
            Q.le(f(x), f(y)) for (x, y) in P.pairs
        ):
            yield f


def natural_completeness_vs_fixed_points(P: Poset, include_empty_chain: bool = False) -> tuple:
    """Two predicates whose equivalence is a tested conjecture: every chain
    has a sup, and every monotone endofunction has a least fixed point.

    With ``include_empty_chain`` the first predicate also demands sup ∅,
    i.e. a bottom; only then do the two provably coincide (an antichain
    with a cyclic monotone map separates the nonempty-chain reading)."""
    chains_ok = completeness_report(P)["naturally_complete"]
    if include_empty_chain:
        chains_ok = chains_ok and P.min_of(P.carrier) is not None
    fp_ok = True
    for f in monotone_maps(P, P):
        inv = FinSet(x for x in P.carrier if f(x) == x)
        if P.min_of(inv) is None:
            fp_ok = False
            break
    return chains_ok, fp_ok
