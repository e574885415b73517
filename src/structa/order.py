"""Posets, chains, Galois connections, lattices and completeness.

Orders are stored as explicit pair sets over a finite carrier, so every
axiom is a direct scan of the pairs. The chain methods read each
element's up-set and down-set as masks over the carrier instead, built
on first use.
"""

from __future__ import annotations

import itertools

from .core import (
    FinMap,
    FinSet,
    Frozen,
    associativity_witness,
    classify,
    finset,
    set_of,
    subset_masks,
)
from .errors import (
    BadStructure,
    CarrierMismatch,
    EmptySubset,
    NotALattice,
    NotMonotone,
    NotSemilattice,
    UnboundedChain,
)
from .report import LawReport


def check_order(carrier: FinSet, rel) -> LawReport:
    """Classify a pair relation: preorder, partial order, natural order."""
    rel = set(rel)
    pairs = sorted(rel)  # scanned in order, so each witness is the least
    r = LawReport("order-axioms")
    for x, y in pairs:
        if x not in carrier or y not in carrier:
            raise CarrierMismatch("relation pair outside the carrier", witness=(x, y))
    refl = next(((x,) for x in carrier if (x, x) not in rel), None)
    r.add("refl", "x ≤ x for all x", refl is None, refl)
    antisym = next(
        ((x, y) for x, y in pairs if x != y and (y, x) in rel), None
    )
    r.add("antisym", "x ≤ y and y ≤ x imply x = y", antisym is None, antisym)
    trans = next(
        (
            (x, y, z)
            for (x, y) in pairs
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


class Poset(Frozen):
    """A reflexive, antisymmetric, transitive relation on a finite carrier."""

    __slots__ = ("carrier", "pairs", "_updown")
    _fields = ("carrier", "pairs")

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
        return set_of(self.carrier, self._common(A, self._masks()[0]))

    def lower_bounds(self, A: FinSet) -> FinSet:
        return set_of(self.carrier, self._common(A, self._masks()[1]))

    def max_of(self, A: FinSet):
        return self._extreme(self._mask(A), self._masks()[1])

    def min_of(self, A: FinSet):
        return self._extreme(self._mask(A), self._masks()[0])

    def sup(self, A: FinSet):
        up = self._masks()[0]
        return self._extreme(self._common(A, up), up)

    def inf(self, A: FinSet):
        down = self._masks()[1]
        return self._extreme(self._common(A, down), down)

    def _mask(self, A) -> int:
        """The mask of A. CarrierMismatch names the first member of A
        outside the carrier."""
        bits = self.carrier.bits()
        m = 0
        for a in A:
            b = bits.get(a)
            if b is None:
                raise CarrierMismatch("subset outside the carrier", witness=(a,))
            m |= b
        return m

    def _common(self, A, sets: dict) -> int:
        """The mask of the points lying in ``sets[a]`` for every a in A:
        the upper bounds of A when ``sets`` are the up-sets, the lower
        bounds when they are the down-sets. CarrierMismatch names the
        first member of A outside the carrier."""
        m = (1 << len(self.carrier.elements)) - 1
        for a in A:
            s = sets.get(a)
            if s is None:
                raise CarrierMismatch("subset outside the carrier", witness=(a,))
            m &= s
        return m

    def _extreme(self, m: int, sets):
        """The point x of the mask m whose ``sets[x]`` holds all of m, or
        None: the least point of m when ``sets`` are the up-sets, the
        greatest when they are the down-sets. By antisymmetry there is at
        most one."""
        for x, b in self.carrier.bits().items():
            if b & m and sets[x] & m == m:
                return x
        return None

    def _masks(self) -> tuple:
        """(up, down): each element's up-set and down-set as a mask over
        ``carrier.bits()``, built on first use."""
        try:
            return self._updown
        except AttributeError:
            bits = self.carrier.bits()
            up, down = dict.fromkeys(bits, 0), dict.fromkeys(bits, 0)
            for x, y in self.pairs:
                up[x] |= bits[y]
                down[y] |= bits[x]
            object.__setattr__(self, "_updown", (up, down))
            return up, down

    def _chain_mask(self, elems: list):
        """The mask of ``elems``, or None when they are not a chain: every
        member's up-set or down-set holds each of them. CarrierMismatch
        names the first member outside the carrier."""
        m = self._mask(elems)
        up, down = self._masks()
        return m if all((up[x] | down[x]) & m == m for x in elems) else None

    def is_chain(self, A) -> bool:
        return self._chain_mask(list(A)) is not None

    def sort_chain(self, A) -> tuple:
        """The members of the chain ``A`` from least to greatest, each
        placed by how many members of ``A`` lie at or below it."""
        elems = list(A)
        m = self._chain_mask(elems)
        if m is None:
            raise BadStructure("subset is not a chain", witness=tuple(sorted(elems)))
        return self._ascending(elems, m)

    def _ascending(self, elems, m: int) -> tuple:
        """The members ``elems`` of the chain with mask m, unchecked, from
        least to greatest: each is placed by how many members lie at or
        below it, and in a chain these counts differ."""
        down = self._masks()[1]
        return tuple(sorted(elems, key=lambda x: (down[x] & m).bit_count()))


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


def enumerate_posets(carrier: FinSet):
    """All labeled partial orders on the carrier, lazily, in the order of
    ``itertools.product`` over one of (incomparable, <, >) per pair of
    ``itertools.combinations``.

    A depth-first search decides one pair at a time. It keeps, per
    element x, the mask of its up-set so far and the mask of the partners
    whose pair with x is decided, and cuts a branch once x ≤ y ≤ z with
    the pair x–z decided and x ≤ z not holding: no order below it is
    transitive. A leaf is still tested for transitivity in full."""
    elems = carrier.elements
    n = len(elems)
    pairs2 = list(itertools.combinations(range(n), 2))
    up = [1 << x for x in range(n)]
    decided = list(up)

    def reach(x):
        """Everything above something above x."""
        r, ux = 0, up[x]
        while ux:
            low = ux & -ux
            r |= up[low.bit_length() - 1]
            ux ^= low
        return r

    def grow(k):
        if k == len(pairs2):
            if all(reach(x) == up[x] for x in range(n)):
                yield Poset._trusted(
                    carrier,
                    {(elems[x], elems[y]) for x in range(n) for y in range(n) if up[x] >> y & 1},
                )
            return
        x, y = pairs2[k]
        bx, by = 1 << x, 1 << y
        # only an element below x or y can gain a broken triple
        touched = bx | by
        decided[x] |= by
        decided[y] |= bx
        for ux, uy in ((0, 0), (by, 0), (0, bx)):  # incomparable, x < y, y < x
            up[x] |= ux
            up[y] |= uy
            if not any(
                up[z] & touched and reach(z) & decided[z] & ~up[z] for z in range(n)
            ):
                yield from grow(k + 1)
            up[x] ^= ux
            up[y] ^= uy
        decided[x] ^= by
        decided[y] ^= bx

    yield from grow(0)


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
    Pop, Qop = P.opposite(), Q.opposite()
    dual = {
        "preserving": all(Qop.le(f(x), f(y)) for x, y in pairs if Pop.le(x, y)),
        "order_bijective": bij
        and all(Pop.le(x, y) == Qop.le(f(x), f(y)) for x, y in pairs),
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
    """Greedily (lexicographic candidate order) grow a chain until maximal.

    A candidate c joins when everything in the chain is comparable with
    it. The chain only grows, so a candidate refused once stays refused,
    and one pass over the carrier gives what restarting the scan after
    each addition would. The grown mask is a chain by construction, so
    its members are sorted without a second check."""
    m = P._chain_mask(list(chain))
    if m is None:
        raise BadStructure("input is not a chain")
    up, down = P._masks()
    bits = P.carrier.bits()
    for c, b in bits.items():
        if (up[c] | down[c]) & m == m:
            m |= b
    return TotalChain(P, P._ascending([c for c, b in bits.items() if b & m], m))


def _zorn_chain(P: Poset) -> tuple:
    """(chain, top): the greedy maximal chain ``extend_chain(P, [])`` and
    its greatest member, which is a maximal element of P. A point above
    the top would be comparable with every member of the chain, so the
    greedy pass would have taken it.

    Precondition (checked): every chain has an upper bound. On a finite
    carrier only the empty chain of the empty poset has none. Proof: a
    non-empty finite chain has a maximum, which bounds it; the empty
    chain is bounded by every point, so by any point of a non-empty
    carrier."""
    if len(P.carrier) == 0:
        raise UnboundedChain("a chain with no upper bound", witness=())
    chain = extend_chain(P, [])
    return chain, chain.elements[-1]


def zorn_maximal(P: Poset):
    """A maximal element, as the top of a greedily maximalized chain
    (``_zorn_chain``). The tests compare this with the scan over all
    subsets."""
    return _zorn_chain(P)[1]


class TotalChain(Frozen):
    __slots__ = _fields = ("poset", "elements")

    def __init__(self, poset: Poset, elements: tuple):
        for a, b in zip(elements, elements[1:]):
            if not poset.le(a, b):
                raise BadStructure("chain elements out of order", witness=(a, b))
        Frozen.__init__(self, poset, elements)


class LatticeTables(Frozen):
    __slots__ = _fields = ("poset", "join", "meet")


def lattice_from_poset(P: Poset) -> LatticeTables:
    """Join/meet tables from pairwise sups/infs, read off the up-set and
    down-set masks; fails if any is missing."""
    up, down = P._masks()
    join, meet = {}, {}
    for x in P.carrier:
        for y in P.carrier:
            s = P._extreme(up[x] & up[y], up)
            i = P._extreme(down[x] & down[y], down)
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
        associativity_witness(join, xs) is None and associativity_witness(meet, xs) is None,
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
    # the sup of every subset, indexed by its mask: a mask's upper bounds
    # are those of the mask without its lowest bit, met with that bit's up-set
    up = P._masks()[0]
    up_of_bit = {b: up[x] for x, b in P.carrier.bits().items()}
    subs = subset_masks(P.carrier)
    upper = [(1 << len(xs)) - 1] * len(subs)
    for a in range(1, len(subs)):
        low = a & -a
        upper[a] = upper[a ^ low] & up_of_bit[low]
    sups = [P._extreme(u, up) for u in upper]
    r.add(
        "lat-finite-sup",
        "sup of a union is the join of the sups",
        all(
            sups[a | b] == join[(sups[a], sups[b])]
            for a in subs
            for b in subs
            if sups[a] is not None and sups[b] is not None and sups[a | b] is not None
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
    escape = next(((x, y) for x in xs for y in xs if table[(x, y)] not in carrier), None)
    if escape is not None:
        raise CarrierMismatch("operation table value outside the carrier", witness=escape)
    comm = next(((x, y) for x in xs for y in xs if table[(x, y)] != table[(y, x)]), None)
    r.add("semi-comm", "x⋄y = y⋄x", comm is None, comm)
    assoc = associativity_witness(table, xs)
    r.add("semi-assoc", "(x⋄y)⋄z = x⋄(y⋄z)", assoc is None, assoc)
    idem = next(((x,) for x in xs if table[(x, x)] != x), None)
    r.add("semi-idem", "x⋄x = x", idem is None, idem)
    return r


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
