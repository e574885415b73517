"""Cayley-table groups: subgroups, cosets, quotients, homomorphisms,
commutator machinery and actions.

Groups are explicit multiplication tables over symbol carriers; every
table a construction builds is re-verified by ``check_group`` rather than
trusted from the construction. The group axioms read one position table,
``core._index_table``: Light's test decides associativity on it, and the
unit and the inverses read its rows and columns; the laws that follow
from these on a group are recorded, not computed. The same pass names
the unit and the inverses of the group it builds. An action's maps are
compared by their value lists in domain order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .core import (
    FinMap,
    FinSet,
    Frozen,
    Partition,
    _index_table,
    _light_witness,
    all_maps,
    classify,
    compose,
    finset,
    generated,
)
from .errors import (
    CarrierMismatch,
    NotAGroup,
    NotBijective,
    NotAction,
    NotHomomorphism,
    NotNormal,
    NotSubgroup,
    NotTransitive,
    TooLarge,
)
from .report import LawReport


class FinGroup(Frozen):
    """A group given by its full multiplication table."""

    __slots__ = ("carrier", "op", "unit", "inv")
    _fields = ("carrier", "op", "unit", "inv")

    def __init__(self, carrier: FinSet, op, unit, inv):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "op", dict(op))
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "inv", dict(inv))

    def __eq__(self, other):
        return (
            isinstance(other, FinGroup)
            and self.carrier == other.carrier
            and self.op == other.op
        )

    def __hash__(self):
        return hash((self.carrier, tuple(sorted(self.op.items()))))

    def __repr__(self):
        return "FinGroup(%s, unit=%s)" % (list(self.carrier), self.unit)

    def order(self):
        return len(self.carrier)

    def is_abelian(self):
        return all(
            self.op[(a, b)] == self.op[(b, a)]
            for a, b in itertools.combinations(self.carrier.elements, 2)
        )


class Subgroup(Frozen):
    __slots__ = _fields = ("parent", "members")


class GroupHom(Frozen):
    __slots__ = _fields = ("src", "tgt", "map")


class GroupAction(Frozen):
    # act: element -> bijection FinMap of carrier
    __slots__ = _fields = ("group", "carrier", "act")

    def apply(self, g, x):
        return self.act[g](x)


def group_axioms(table, carrier: FinSet) -> LawReport:
    return axioms_and_group(table, carrier)[0]


def axioms_and_group(table, carrier: FinSet) -> tuple:
    """The ``grp-*`` report of the pair-keyed ``table`` on ``carrier``,
    and the group it is when every law passed, else None.

    The laws read the position table T of ``core._index_table``, built
    once. A table with an undefined cell, or with an unhashable value,
    gets the ordered ``grp-total`` and ``grp-closed`` scans instead, one
    of which fails with its first witness. Otherwise both pass, and
    ``grp-assoc`` is Light's test on T. The unit e is the first position
    whose row and column are 0, 1, …, n-1. The inverse of a is the first
    b with ab = e; then ba = e, as in any finite monoid. On the group
    these rows make, ``grp-inv-invol``, ``grp-unique-solutions`` and
    ``grp-cancel`` are theorems, recorded as passed. The same pass names
    the unit and the inverses of the group it returns."""
    r = LawReport("group-axioms")
    xs = carrier.elements
    try:
        T = _index_table(table, xs)
    except TypeError:  # an unhashable value, which lies outside the carrier
        T = None
    if T is None or any(None in row for row in T):
        missing = next(((a, b) for a in xs for b in xs if (a, b) not in table), None)
        r.add("grp-total", missing is None, missing)
        if missing is None:
            escape = next(((a, b) for a in xs for b in xs if table[(a, b)] not in carrier), None)
            r.add("grp-closed", escape is None, escape)
        return r, None
    r.add("grp-total", True)
    r.add("grp-closed", True)
    assoc = _light_witness(T, xs)
    r.add("grp-assoc", assoc is None, assoc)
    ident = list(range(len(xs)))
    e = next(
        (i for i, row in enumerate(T) if row == ident and all(t[i] == k for k, t in enumerate(T))),
        None,
    )
    r.add("grp-unit", e is not None)
    if e is None or assoc is not None:
        return r, None
    inv = []
    for a, row in enumerate(T):
        if e not in row:
            r.add("grp-inverse", False, (xs[a],))
            return r, None
        inv.append(row.index(e))
    r.add("grp-inverse", True)
    r.add("grp-inv-invol", True)
    r.add("grp-unique-solutions", True)
    r.add("grp-cancel", True)
    return r, FinGroup(carrier, table, xs[e], {xs[a]: xs[b] for a, b in enumerate(inv)})


def check_group(table, carrier: FinSet) -> FinGroup:
    rep, G = axioms_and_group(table, carrier)
    if G is None:
        c = rep.failures[0]
        raise NotAGroup("group axiom failed: %s" % c.law, witness=c.witness)
    return G


def power(G: FinGroup, a, n: int):
    if a not in G.carrier:
        raise CarrierMismatch("element outside the group", witness=(a,))
    if n < 0:
        return G.inv[power(G, a, -n)]
    out = G.unit
    for _ in range(n):
        out = G.op[(out, a)]
    return out


def cyclic_group(n: int) -> FinGroup:
    names = ["g%d" % i for i in range(n)]
    table = {
        (names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)
    }
    return check_group(table, FinSet(names))


def klein_four() -> FinGroup:
    names = ["e", "a", "b", "c"]
    idx = {x: i for i, x in enumerate(names)}
    table = {}
    for x in names:
        for y in names:
            table[(x, y)] = names[idx[x] ^ idx[y]]
    return check_group(table, FinSet(names))


def _perm_name(assign: dict) -> str:
    return "(%s)" % ",".join("%s>%s" % (k, v) for k, v in sorted(assign.items()))


def permutation_group(by_name: dict) -> FinGroup:
    """The group of the permutations ``by_name`` (name → FinMap) under
    composition: the product pq is p∘q, with the name ``_perm_name`` gives
    it. ``_based_table`` names every product when its certificate holds;
    otherwise each product is spelled out from the ``assign`` dicts, so
    that no product is built as a ``FinMap`` and ``check_group`` meets the
    first escape in table order."""
    names = FinSet(by_name)
    perms = [by_name[p] for p in names]
    if any(f.dom != perms[0].dom or f.cod != perms[0].dom for f in perms):
        # raises CompositionMismatch at the first pair, in table order, that cannot compose
        for p, q in itertools.product(perms, repeat=2):
            compose(p, q)
    keys = sorted(perms[0].dom) if perms else []
    table = _based_table(names.elements, perms, keys)
    if table is None:
        assigns = [(p, f.assign) for p, f in zip(names, perms)]
        table = {
            (p, q): "(%s)" % ",".join("%s>%s" % (k, pa[qa[k]]) for k in keys)
            for p, pa in assigns
            for q, qa in assigns
        }
    return check_group(table, names)


def _based_table(names, perms, keys):
    """The table ``permutation_group`` spells out, found through a base
    and generators (Sims, "Computational methods in the study of
    permutation groups", 1970; Seress, *Permutation Group Algorithms*,
    2003, ch. 4), or None when the certificate below fails.

    P is the set of maps ``perms`` of the points ``keys``, named by
    ``names``; an image is the tuple of a map's values in ``keys`` order.
    1. Every name is ``_perm_name`` of its map, so distinct names are
       distinct maps and the name of a map in P is its spelling.
    2. The base B is the shortest prefix of ``keys`` on which the images
       of P are pairwise distinct. It exists by 1, since B = ``keys``
       tells distinct maps apart, and |B| = 1 for a regular
       representation. So at most one element of P has given images on B.
    3. The identity is in P.
    4. Generators S are picked in name order: a map joins S unless the
       walk has reached it. The walk multiplies every reached r by every
       s in S, once per pair, and compares r∘s on all points with the one
       element of P that has the same images on B; a miss means r∘s lies
       outside P. The walk starts at the identity and every pick is
       reached as id∘s, so in the end every element of P is reached, and
       P·S ⊆ P: |P|·|S| products of n points. In a group each pick at
       least doubles the subgroup reached, so |S| ≤ 1 + log₂ |P|.
    5. Every q in P is reached as id∘s₁∘…∘s_m, so for p in P each
       p∘s₁∘…∘s_k lies in P by induction on k, and p∘q lies in P. Then
       p∘q is the one element of P whose images on B are p(q(b)), found
       from q's images on B in O(|B|), and its name is the spelling of
       p∘q: the table equals the spelled-out one, cell for cell, in the
       same (p, q) order. A set that fails 1, 3 or 4 gets the spelled-out
       table and so the first error ``check_group`` finds in it."""
    if any(p != _perm_name(f.assign) for p, f in zip(names, perms)):
        return None
    assigns = [f.assign for f in perms]
    images = [[a[k] for k in keys] for a in assigns]
    m = 0
    while len({tuple(img[:m]) for img in images}) < len(images):
        m += 1
    heads = [img[:m] for img in images]
    by_base = {tuple(h): i for i, h in enumerate(heads)}
    e = by_base.get(tuple(keys[:m]))
    if e is None or images[e] != keys:
        return None
    reached = [False] * len(images)
    reached[e] = True
    walk = [e]
    gens = []
    for g in range(len(images)):
        if reached[g]:
            continue
        gens.append(g)
        todo = [(r, g) for r in walk]
        while todo:
            r, s = todo.pop()
            ra = assigns[r]
            rs = [ra[x] for x in images[s]]
            t = by_base.get(tuple(rs[:m]))
            if t is None or images[t] != rs:
                return None
            if not reached[t]:
                reached[t] = True
                walk.append(t)
                todo.extend((t, s2) for s2 in gens)
    return {
        (p, q): names[by_base[tuple([pa[x] for x in h])]]
        for p, pa in zip(names, assigns)
        for q, h in zip(names, heads)
    }


def bijection_group(carrier: FinSet) -> tuple:
    """The group of all bijections of a set, with a name → FinMap registry."""
    perms = {}
    for values in itertools.permutations(carrier.elements):
        f = FinMap(carrier, carrier, dict(zip(carrier.elements, values)))
        perms[_perm_name(f.assign)] = f
    return permutation_group(perms), perms


def symmetric_group_3() -> tuple:
    return bijection_group(finset("1", "2", "3"))


def subgroup_check(G: FinGroup, H: FinSet) -> Subgroup:
    """A nonempty subset containing the unit, closed under products and
    inverses. On failure the witness is a pair (a, b) with ab⁻¹ outside
    H. The groups suite's ``grp-criteria`` law checks this criterion
    against the division and restricted-table criteria."""
    if not H <= G.carrier:
        raise CarrierMismatch("subset outside the group")
    if len(H) == 0:
        raise NotSubgroup("a subgroup is nonempty")
    crit_full = (
        G.unit in H
        and all(G.op[(a, b)] in H for a in H for b in H)
        and all(G.inv[a] in H for a in H)
    )
    if not crit_full:
        bad = next(
            (a, b)
            for a in H
            for b in H
            if G.op[(a, G.inv[b])] not in H
        )
        raise NotSubgroup("HH⁻¹ escapes H", witness=bad)
    return Subgroup(G, H)


def cyclic_subgroup(G: FinGroup, a) -> Subgroup:
    """The powers of a: {a} closed under products."""
    if a not in G.carrier:
        raise CarrierMismatch("element outside the group", witness=(a,))
    return subgroup_check(G, FinSet(generated([a], binary=[lambda x, y: G.op[(x, y)]])))


def as_group(H: Subgroup) -> FinGroup:
    table = {(a, b): H.parent.op[(a, b)] for a in H.members for b in H.members}
    return check_group(table, H.members)


def cosets(G: FinGroup, H: Subgroup, side: str = "right") -> Partition:
    """Right cosets Hx (or left xH)."""
    blocks = set()
    for x in G.carrier:
        if side == "right":
            blocks.add(FinSet(G.op[(h, x)] for h in H.members))
        elif side == "left":
            blocks.add(FinSet(G.op[(x, h)] for h in H.members))
        else:
            raise ValueError("side must be 'right' or 'left'")
    return Partition(G.carrier, tuple(sorted(blocks, key=lambda b: b.elements)))


def normality_witness(G: FinGroup, N: Subgroup):
    """The first (x, n), x in G and n in N, with xnx⁻¹ outside N, or None."""
    return next(
        (
            (x, n)
            for x in G.carrier
            for n in N.members
            if G.op[(G.op[(x, n)], G.inv[x])] not in N.members
        ),
        None,
    )


def is_normal(G: FinGroup, N: Subgroup) -> bool:
    """Closed under conjugation: xnx⁻¹ lies in N for every x and n. The
    groups suite's ``grp-criteria`` law checks this criterion against
    coset equality and conjugate-set equality."""
    return normality_witness(G, N) is None


def quotient(G: FinGroup, N: Subgroup) -> FinGroup:
    bad = normality_witness(G, N)
    if bad is not None:
        raise NotNormal("the subgroup is not normal", witness=bad)
    part = cosets(G, N, "right")
    names = {b: b.name() for b in part.blocks}
    # N is normal, so Nx·Ny = Nxy and one representative per coset names
    # each product block
    table = {
        (names[A], names[B]): names[part.block_of(G.op[(A.elements[0], B.elements[0])])]
        for A in part.blocks
        for B in part.blocks
    }
    return check_group(table, FinSet(names.values()))


def commutator(G: FinGroup, a, b):
    """[a,b] = (ab)(a⁻¹b⁻¹)."""
    return G.op[(G.op[(a, b)], G.op[(G.inv[a], G.inv[b])])]


def center(G: FinGroup) -> Subgroup:
    members = FinSet(
        a for a in G.carrier if all(commutator(G, a, b) == G.unit for b in G.carrier)
    )
    return subgroup_check(G, members)


def commutant(G: FinGroup) -> Subgroup:
    """The subgroup generated by all commutators: their closure under products."""
    gens = {commutator(G, a, b) for a in G.carrier for b in G.carrier}
    return subgroup_check(G, FinSet(generated(gens, binary=[lambda x, y: G.op[(x, y)]])))


def abelianization_check(G: FinGroup, N: Subgroup) -> LawReport:
    r = LawReport("abelianization")
    comm = commutant(G)
    r.add("ab-quotient", quotient(G, comm).is_abelian())
    r.add(
        "ab-minimal",
        quotient(G, N).is_abelian() == (comm.members <= N.members),
        (tuple(N.members),),
    )
    return r


def hom_witness(src: FinGroup, tgt: FinGroup, f: FinMap):
    """The first (a, b) of the carrier of ``src`` with f(ab) != f(a)f(b),
    or None."""
    return next(
        (
            (a, b)
            for a in src.carrier
            for b in src.carrier
            if f(src.op[(a, b)]) != tgt.op[(f(a), f(b))]
        ),
        None,
    )


def hom_check(src: FinGroup, tgt: FinGroup, f: FinMap) -> GroupHom:
    if f.dom != src.carrier or f.cod != tgt.carrier:
        raise CarrierMismatch("map does not connect the group carriers")
    bad = hom_witness(src, tgt, f)
    if bad is not None:
        raise NotHomomorphism("f(ab) != f(a)f(b)", witness=bad)
    return GroupHom(src, tgt, f)


def kernel(h: GroupHom) -> Subgroup:
    members = FinSet(a for a in h.src.carrier if h.map(a) == h.tgt.unit)
    return subgroup_check(h.src, members)


def image_subgroup(h: GroupHom) -> Subgroup:
    return subgroup_check(h.tgt, h.map.image())


def first_iso(h: GroupHom) -> GroupHom:
    """The induced homomorphism from G/ker h to Im h, sending each coset
    to the value of h at one of its members. The groups suite's
    ``grp-first-iso`` law checks that it is a bijection through which h
    factors."""
    ker = kernel(h)
    Q = quotient(h.src, ker)
    img = as_group(image_subgroup(h))
    part = cosets(h.src, ker, "right")
    assign = {b.name(): h.map(b.elements[0]) for b in part.blocks}
    return hom_check(Q, img, FinMap(Q.carrier, img.carrier, assign))


def conjugation_map(G: FinGroup, x) -> FinMap:
    return FinMap(
        G.carrier, G.carrier, {a: G.op[(G.op[(x, a)], G.inv[x])] for a in G.carrier}
    )


def inner_automorphisms(G: FinGroup) -> tuple:
    """The group of conjugation maps and the epimorphism x ↦ (a ↦ xax⁻¹)."""
    conj = {x: conjugation_map(G, x) for x in G.carrier}
    names = {x: _perm_name(conj[x].assign) for x in G.carrier}
    inn = permutation_group({names[x]: conj[x] for x in G.carrier})
    onto = FinMap(G.carrier, inn.carrier, {x: names[x] for x in G.carrier})
    return inn, hom_check(G, inn, onto)


def action_check(A: GroupAction) -> LawReport:
    """The ``act-*`` report of A, whose maps must be bijections of its
    carrier. ``act-hom`` compares the values of act[a]∘act[b] with those
    of act[ab], for each (a, b) in carrier order: a FinMap keeps its
    values in domain order, so two self-maps of the carrier are equal iff
    their value lists are. A failing ``act-hom`` names its first pair and
    ends the report. Once it has passed, the nucleus is the kernel of the
    homomorphism g ↦ act[g], so ``act-nul-subgroup`` is recorded, not
    checked."""
    r = LawReport("group-action")
    for g, f in A.act.items():
        if f.dom != A.carrier or f.cod != A.carrier:
            raise NotAction("action maps must be self-maps of the carrier", witness=(g,))
        if not classify(f)["bijective"]:
            raise NotAction("action image is not a bijection", witness=(g,))
    values = {g: list(f.assign.values()) for g, f in A.act.items()}
    bad = next(
        (
            (a, b)
            for a in A.group.carrier
            for b in A.group.carrier
            if list(map(A.act[a].assign.__getitem__, values[b])) != values[A.group.op[(a, b)]]
        ),
        None,
    )
    r.add("act-hom", bad is None, bad)
    if bad is not None:
        return r
    r.add("act-nul-subgroup", True)
    r.add("act-transitive-flag", is_transitive(A))
    return r


def action_nucleus(A: GroupAction) -> FinSet:
    identity = FinMap.identity(A.carrier)
    return FinSet(g for g in A.group.carrier if A.act[g] == identity)


def is_transitive(A: GroupAction) -> bool:
    """Every point reaches every point: the carrier lies inside the orbit
    {gx : g in the group} of each point x."""
    maps = [A.act[g] for g in A.group.carrier]
    return all({f(x) for f in maps}.issuperset(A.carrier.elements) for x in A.carrier)


def coset_action(G: FinGroup, H: Subgroup) -> GroupAction:
    """G acting on its left cosets xH by translation. The actions suite
    checks its action laws, transitivity, and the fixed-coset and
    nucleus identities."""
    part = cosets(G, H, "left")
    names = {b: b.name() for b in part.blocks}
    carrier = FinSet(names.values())
    act = {}
    for g in G.carrier:
        assign = {}
        for b in part.blocks:
            x = b.elements[0]
            target = part.block_of(G.op[(g, x)])
            assign[names[b]] = names[target]
        act[g] = FinMap(carrier, carrier, assign)
    return GroupAction(G, carrier, act)


def stabilizer(A: GroupAction, a) -> Subgroup:
    """The fixers of a in A's group. Its ``subgroup_check`` enforces
    ``stab-subgroup``: ``stabilizer_suite`` accepts maps that
    ``action_check`` rejects, whose fixers need not be a subgroup."""
    members = FinSet(g for g in A.group.carrier if A.apply(g, a) == a)
    return subgroup_check(A.group, members)


def stabilizer_suite(A: GroupAction, a) -> LawReport:
    r = LawReport("stabilizer")
    if a not in A.carrier:
        raise CarrierMismatch("point outside the action carrier", witness=(a,))
    G = A.group
    inv_a = stabilizer(A, a)
    r.add("stab-subgroup", True)
    nul = action_nucleus(A)
    # in carrier order, so the first point whose fixers are no subgroup
    # raises first; stab-conjugate reuses them
    stabs = {x: stabilizer(A, x).members for x in A.carrier}
    inter = G.carrier
    for members in stabs.values():
        inter = inter.inter(members)
    r.add("stab-nucleus", nul == inter)
    if not is_transitive(A):
        raise NotTransitive("similarity items need a transitive action")
    part = cosets(G, inv_a, "left")
    names = {b.name(): b for b in part.blocks}
    transporters = {}
    for b in A.carrier:
        transporters[b] = FinSet(g for g in G.carrier if A.apply(g, a) == b)
    r.add("stab-cosets", set(transporters.values()) == set(names.values()))
    r.add("stab-bijection", len(set(transporters.values())) == len(A.carrier) == len(part.blocks))
    # similarity: the coset action and A are the same action up to the bijection
    CA = coset_action(G, inv_a)
    phi = {b: transporters[b].name() for b in A.carrier}
    similar = all(
        phi[A.apply(g, b)] == CA.apply(g, phi[b]) for g in G.carrier for b in A.carrier
    )
    r.add("stab-similar", similar)
    conj = all(
        stabs[b]
        == FinSet(
            G.op[(G.op[(x, s)], G.inv[x])] for s in inv_a.members
        )
        for b in A.carrier
        for x in transporters[b]
    )
    r.add("stab-conjugate", conj)
    return r


def regular_action(G: FinGroup) -> GroupAction:
    act = {
        g: FinMap(G.carrier, G.carrier, {x: G.op[(g, x)] for x in G.carrier})
        for g in G.carrier
    }
    return GroupAction(G, G.carrier, act)


def _permutation_image(G: FinGroup, perms: dict) -> GroupHom:
    """The isomorphism g ↦ perms[g] onto the group of the permutations
    ``perms`` (element → FinMap). Permutations are named from the
    carrier's symbols, so two elements whose permutations get the same
    name raise ``NotBijective``."""
    names = {g: _perm_name(perms[g].assign) for g in G.carrier}
    owner = {}
    for g in G.carrier:
        prev = owner.setdefault(names[g], g)
        if prev != g:
            raise NotBijective("two elements get the same permutation name", witness=(prev, g))
    img = permutation_group({names[g]: perms[g] for g in G.carrier})
    return hom_check(G, img, FinMap(G.carrier, img.carrier, names))


def cayley(G: FinGroup) -> GroupHom:
    """An isomorphism onto a transformation group of the carrier: each
    element goes to its left translation."""
    return _permutation_image(G, regular_action(G).act)


@lru_cache(maxsize=None)
def enumerate_groups(n: int) -> tuple:
    """All groups of order n up to isomorphism, from raw table enumeration;
    ``()`` for n < 1, since no group has an empty carrier.

    Backtracks over Latin squares with unit 0, filling the cells (i, j),
    i, j ≥ 1, in row order and trying the values in increasing order. A
    value is cut as soon as a triple whose four products are all filled
    breaks associativity. A cut drops only tables that would fail, so the
    leaves come in the order of a plain Latin-square search that keeps
    the associative ones. Each leaf is then matched against the
    representatives kept so far by ``_tables_isomorphic``.

    The table t is flat with stride m = n + 1: t[a·m + b] = ab, and n
    marks a blank cell. Row n and column n are all n, so a product that
    reads a blank reads n again, and a triple with a blank product never
    clashes. ``where[a][x]`` is the b with ab = x, or n; it lists the at
    most n filled cells holding x, one per row.

    A leaf is associative without a second scan. A triple (a, b, c)
    reads four cells: ab, bc, (ab)c and a(bc). If none of a, b, c is the
    unit, ab is a searched cell, and the triple is tested when the last
    of its four cells is filled, with that cell at (i, j) and value v:
    - as ab: (a, b) = (i, j), c any;
    - as bc: (b, c) = (i, j), a any;
    - as (ab)c: ab = i and c = j, so (a, b) is a cell holding i;
    - as a(bc): a = i and bc = j, so (b, c) is a cell holding j.
    The last two read ``where`` in column i and j, 2n cells at most. At a
    leaf every cell is filled. A triple with the unit in it holds on the
    fixed unit row and column. ``check_group`` verifies each
    representative again."""
    if n > 6:
        raise TooLarge("table enumeration capped at order 6", witness=(n,))
    if n < 1:
        return ()
    names = ["g%d" % i for i in range(n)]
    xs = range(n)
    m = n + 1
    t = [n] * (m * m)
    where = [[n] * n for _ in xs]
    for x in xs:
        t[x] = t[x * m] = x
        where[0][x] = x
        where[x][x] = 0
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    column = [1 << j for j in xs]  # the values in column j, as bits
    found = []

    def breaks(i, j, v):
        # the triples whose last filled cell is (i, j) = v
        ri, rj, rv = i * m, j * m, v * m
        for x in xs:
            left, right = t[rv + x], t[ri + t[rj + x]]  # (ij)x, i(jx)
            if left != right and left < n and right < n:
                return True
            rx = x * m
            left, right = t[t[rx + i] * m + j], t[rx + v]  # (xi)j, x(ij)
            if left != right and left < n and right < n:
                return True
            wx = where[x]
            right = t[rx + t[wx[i] * m + j]]  # (xb)j = ij with xb = i, x(bj)
            if right != v and right < n:
                return True
            left = t[t[ri + x] * m + wx[j]]  # (ix)b, i(xb) = ij with xb = j
            if left != v and left < n:
                return True
        return False

    def place(k):
        if k == len(cells):
            found.append([t[a * m + b] for a in xs for b in xs])
            return
        i, j = cells[k]
        cell, row = i * m + j, where[i]
        for v in xs:
            if row[v] == n and not column[j] >> v & 1:
                t[cell] = v
                row[v] = j
                if not breaks(i, j, v):
                    column[j] |= 1 << v
                    place(k + 1)
                    column[j] ^= 1 << v
                row[v] = n
        t[cell] = n

    place(0)
    reps = []
    for t1 in found:
        if not any(_tables_isomorphic(t1, r, n) for r in reps):
            reps.append(t1)
    out = []
    for r in reps:
        op = {(names[a], names[b]): names[r[a * n + b]] for a in xs for b in xs}
        out.append(check_group(op, FinSet(names)))
    return tuple(out)


def _element_orders(t, n):
    """The order of each element of the group table t, flat with stride
    n and unit 0."""
    out = []
    for a in range(n):
        k, x = 1, a
        while x:
            x, k = t[x * n + a], k + 1
        out.append(k)
    return out


def _tables_isomorphic(t1, t2, n) -> bool:
    """Whether a relabelling p of 0..n-1 has p(t1[a, b]) = t2[p(a), p(b)]
    for all a, b; t1 and t2 are group tables, flat with stride n and unit
    0. Only the p that send each element of t1 to one of the same order
    in t2 are tried. That keeps every such p: p is an isomorphism, so
    p(0) = 0 and p(aᵏ) = p(a)ᵏ, and as p is injective, aᵏ = 0 exactly
    when p(a)ᵏ = 0. When the two tables do not have the same number of
    elements of each order, none is tried."""
    o1, o2 = _element_orders(t1, n), _element_orders(t2, n)
    classes = {}
    for a, k in enumerate(o1):
        classes.setdefault(k, []).append(a)
    images = [[b for b in range(n) if o2[b] == k] for k in classes]
    if any(len(img) != len(src) for img, src in zip(images, classes.values())):
        return False
    cells = [(a, b) for a in range(n) for b in range(n)]
    p = [0] * n
    for choice in itertools.product(*map(itertools.permutations, images)):
        for src, img in zip(classes.values(), choice):
            for a, b in zip(src, img):
                p[a] = b
        if all(p[t1[a * n + b]] == t2[p[a] * n + p[b]] for a, b in cells):
            return True
    return False


def enumerate_homs(G: FinGroup, H: FinGroup):
    """All homomorphisms G → H by exhaustive map search."""
    for f in all_maps(G.carrier, H.carrier):
        if f(G.unit) == H.unit and hom_witness(G, H, f) is None:
            yield GroupHom(G, H, f)
