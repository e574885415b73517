"""Posets, chains and lattices.

Orders are stored as explicit pair sets over a finite carrier, so every
axiom is a direct scan of the pairs. ``Poset.sup`` and ``Poset.inf``,
the chain functions and the lattice tables read each element's up-set
and down-set as masks over the carrier instead, built on first use.
"""

from __future__ import annotations

import itertools

from .core import (
    FinSet,
    Frozen,
    associativity_witness,
    finset,
    subset_masks,
)
from .errors import (
    BadStructure,
    CarrierMismatch,
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
    r.add("refl", refl is None, refl)
    antisym = next(
        ((x, y) for x, y in pairs if x != y and (y, x) in rel), None
    )
    r.add("antisym", antisym is None, antisym)
    trans = next(
        (
            (x, y, z)
            for (x, y) in pairs
            for z in carrier
            if (y, z) in rel and (x, z) not in rel
        ),
        None,
    )
    r.add("trans", trans is None, trans)
    total = next(
        (
            (x, y)
            for x, y in itertools.combinations(carrier.elements, 2)
            if (x, y) not in rel and (y, x) not in rel
        ),
        None,
    )
    r.add("total", total is None, total)
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
    def _trusted(cls, carrier: FinSet, pairs, updown=None) -> "Poset":
        """The poset of ``pairs``, unchecked: the caller guarantees a
        partial order, and that ``updown``, when given, is what
        ``_masks`` would build."""
        P = object.__new__(cls)
        object.__setattr__(P, "carrier", carrier)
        object.__setattr__(P, "pairs", frozenset(pairs))
        if updown is not None:
            object.__setattr__(P, "_updown", updown)
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

    Number the points 0..n-1 in carrier order. An order P on them is a
    pair: the digits of point 0 against 1..n-1, and the order Q that P
    induces on 1..n-1. Let A be the points the digits put above 0 and B
    the points they put below it. Then (digits, Q) comes from an order
    exactly when A is an up-set of Q, B is a down-set of Q, and every
    point of B lies below every point of A in Q (the one-point extension
    of Brinkmann and McKay, "Posets on up to 16 points", Order 19, 2002).
    Proof: these are the instances of transitivity that pass through 0,
    namely 0 < a ≤ y, y ≤ b < 0 and b < 0 < a; every other instance lies
    in Q. Antisymmetry holds since A and B are disjoint. So each order
    arises once, from its own restriction Q and its own digits.

    The first n-1 pairs of ``combinations`` are point 0's, and the rest
    are those of 1..n-1 in their own ``combinations`` order. So the
    product order is point 0's digit strings in product order on the
    outside and the orders Q, in this same order, on the inside. Only the
    orders on n-1 points are held in memory. Each poset comes with the
    up-set and down-set masks that ``Poset._masks`` would build."""
    elems = carrier.elements
    n = len(elems)
    # the pairs (x, y) with y in a mask, for each point x and each mask
    rows = [
        [tuple((x, y) for j, y in enumerate(elems) if m >> j & 1) for m in range(1 << n)]
        for x in elems
    ]
    for up, down in _extensions(n):
        yield Poset._trusted(
            carrier,
            {p for row, u in zip(rows, up) for p in row[u]},
            (dict(zip(elems, up)), dict(zip(elems, down))),
        )


def _extensions(n: int):
    """Each partial order on the points 0..n-1, in ``enumerate_posets``
    order, as (up, down): two tuples of masks, bit i for point i."""
    if n == 0:
        yield (), ()
        return
    m = n - 1
    # each order Q on n-1 points, with the set of point 0's digit strings
    # that extend it as one int: bit A << m | B for the string that puts
    # the points of A above 0 and those of B below it
    orders = []
    for up, down in _extensions(m):
        # per mask s over Q's points: the up-set and the down-set it
        # spans, and the points above all of s
        ups, downs, bounds = [0], [0], [(1 << m) - 1]
        for s in range(1, 1 << m):
            low = s & -s
            i, rest = low.bit_length() - 1, s ^ low
            ups.append(ups[rest] | up[i])
            downs.append(downs[rest] | down[i])
            bounds.append(bounds[rest] & up[i])
        upsets = [a for a, u in enumerate(ups) if u == a]
        extends = 0
        for b, d in enumerate(downs):
            if d == b:
                for a in upsets:
                    if not a & ~bounds[b]:
                        extends |= 1 << (a << m | b)
        orders.append((up, down, extends))
    # point 0's digit strings as (A, B), in product order
    digits = [(0, 0)]
    for bit in (1 << i for i in range(m)):
        digits = [(a | da, b | db) for a, b in digits for da, db in ((0, 0), (bit, 0), (0, bit))]
    for a, b in digits:
        key = a << m | b
        for up, down, extends in orders:
            if extends >> key & 1:
                # each tuple is built at its final size: concatenating a
                # tuple() would leave the discarded ones on CPython's tuple
                # free list, about 0.15 MB more peak memory at n = 5
                yield (
                    (1 | a << 1, *[u << 1 | b >> i & 1 for i, u in enumerate(up)]),
                    (1 | b << 1, *[d << 1 | a >> i & 1 for i, d in enumerate(down)]),
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
        all(
            P.le(x, y) == (join[(x, y)] == y) == (meet[(x, y)] == x)
            for x in xs
            for y in xs
        ),
    )
    r.add(
        "lat-comm",
        all(join[(x, y)] == join[(y, x)] and meet[(x, y)] == meet[(y, x)] for x in xs for y in xs),
    )
    r.add(
        "lat-assoc",
        associativity_witness(join, xs) is None and associativity_witness(meet, xs) is None,
    )
    r.add("lat-idem", all(join[(x, x)] == x and meet[(x, x)] == x for x in xs))
    r.add(
        "lat-absorb",
        all(
            join[(x, meet[(x, y)])] == x and meet[(x, join[(x, y)])] == x
            for x in xs
            for y in xs
        ),
    )
    r.add(
        "lat-monotone",
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
    r.add("semi-comm", comm is None, comm)
    assoc = associativity_witness(table, xs)
    r.add("semi-assoc", assoc is None, assoc)
    idem = next(((x,) for x in xs if table[(x, x)] != x), None)
    r.add("semi-idem", idem is None, idem)
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


def functor_order(maps, P: Poset, Q: Poset) -> Poset:
    """The pointwise order on a list of order-preserving maps P → Q."""
    named = []
    for i, f in enumerate(maps):
        if f.dom != P.carrier or f.cod != Q.carrier:
            raise CarrierMismatch("map does not connect the two carriers")
        if not all(Q.le(f(x), f(y)) for x, y in P.pairs):
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
