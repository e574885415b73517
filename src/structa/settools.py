"""Families of subsets: closure witnesses, sigma-algebra generation, and
filter theory on finite carriers.

Subsets are FinSet values; a Family is a set of subsets of a fixed
carrier. Filters use upward closure throughout (a point filter is the
collection of sets containing the point).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, partial

from .core import (
    FinSet,
    Frozen,
    finset,
    generated,
    mask_of,
    set_of,
    subset_masks,
    union_of,
)
from .errors import (
    CarrierMismatch,
    EmptyMemberInBase,
    TooLarge,
)
from .report import LawReport


class Family(Frozen):
    __slots__ = _fields = ("carrier", "members")

    def __init__(self, carrier: FinSet, members):
        members = frozenset(members)
        for m in members:
            if not isinstance(m, FinSet) or not m <= carrier:
                raise CarrierMismatch(
                    "family member escapes the carrier", witness=(str(m),)
                )
        Frozen.__init__(self, carrier, members)

    def __iter__(self):
        return iter(sorted(self.members, key=lambda s: (len(s), s.elements)))

    def __len__(self):
        return len(self.members)

    def __contains__(self, s):
        return s in self.members


def inter_of(fam, carrier: FinSet) -> FinSet:
    out = carrier
    for s in fam:
        out = out.inter(s)
    return out


# the mask form of each set operation a closure witness may be asked about
_MASK_OPS = {FinSet.union: operator.or_, FinSet.inter: operator.and_}


def unclosed_pair(masks, op):
    """The first pair (i, j), i < j, of positions in ``masks`` such that
    ``op(masks[i], masks[j])`` is not among ``masks``; None when there is
    none. ``op`` is ``operator.or_`` or ``operator.and_``."""
    present = set(masks)
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if op(a, masks[j]) not in present:
                return i, j
    return None


def closure_witness(fam: Family, op):
    """The first pair (a, b) of members, in canonical order, whose
    ``op(a, b)`` is not a member, as names; None when the family is closed
    under ``op``. ``op`` is ``FinSet.union`` or ``FinSet.inter``: both are
    commutative and idempotent, so the first such pair has a before b, and
    only those pairs are scanned, on member masks."""
    ms = list(fam)
    bad = unclosed_pair([mask_of(fam.carrier, m) for m in ms], _MASK_OPS[op])
    return None if bad is None else (ms[bad[0]].name(), ms[bad[1]].name())


def is_sigma_algebra(fam: Family) -> bool:
    ms = fam.members
    return (
        fam.carrier in ms
        and all(s.complement_in(fam.carrier) in ms for s in ms)
        and closure_witness(fam, FinSet.union) is None
    )


def _partitions(elements):
    elements = list(elements)
    if not elements:
        yield []
        return
    head, rest = elements[0], elements[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def sigma_generate(carrier: FinSet, B: Family, guard: int = 4) -> Family:
    """The least sigma-algebra containing B: the masks of B, ∅ and the
    carrier, closed under complement and ∪ by ``generated``. The sigma
    suite's ``sg-all-families`` law compares it with ``sigma_by_partitions``."""
    if len(carrier) > guard:
        raise TooLarge("sigma generation capped", witness=(len(carrier),))
    if B.carrier != carrier:
        raise CarrierMismatch("family lives over a different carrier")
    full = mask_of(carrier, carrier)
    seed = [mask_of(carrier, s) for s in B.members] + [0, full]
    masks = generated(seed, unary=[partial(operator.xor, full)], binary=[operator.or_])
    return Family(carrier, [set_of(carrier, m) for m in masks])


def sigma_by_partitions(carrier: FinSet, B: Family) -> Family:
    """The least sigma-algebra containing B, as the intersection of every
    sigma-algebra that contains it. On a finite carrier those are the
    block-union algebras of the partitions, so this enumerates the
    partitions: exponential, for checking ``sigma_generate`` only."""
    inter = None
    for part in _partitions(carrier.elements):
        blocks = [FinSet(b) for b in part]
        algebra = set()
        for k in range(len(blocks) + 1):
            for combo in itertools.combinations(blocks, k):
                algebra.add(union_of(combo))
        if B.members <= algebra:
            inter = algebra if inter is None else inter & algebra
    return Family(carrier, inter)


def filter_base_witness(fam: Family):
    """The first pair (f, g) of members, in canonical order, such that no
    member lies inside f ∩ g, as names; None when there is none."""
    ms = list(fam)
    masks = [mask_of(fam.carrier, m) for m in ms]
    for i, f in enumerate(masks):
        for j, g in enumerate(masks):
            fg = f & g
            if not any(not h & ~fg for h in masks):
                return (ms[i].name(), ms[j].name())
    return None


def upward_closure(carrier: FinSet, masks) -> Family:
    """The subsets of ``carrier`` above some mask in ``masks``: ``generated``
    under adding one point, m ↦ m | bit for each point's bit."""
    add_point = [partial(operator.or_, b) for b in carrier.bits().values()]
    return Family(carrier, [set_of(carrier, m) for m in generated(masks, add_point)])


def is_filter(fam: Family) -> bool:
    ms = fam.members
    if not ms or any(len(s) == 0 for s in ms):
        return False
    masks = [mask_of(fam.carrier, m) for m in ms]
    # upward closed: each member with any one point added is a member
    upward = set(masks).issuperset(m | b for m in masks for b in fam.carrier.bits().values())
    return upward and unclosed_pair(masks, operator.and_) is None


def generate_filter(base: Family) -> Family:
    """Upward closure of a base; the smallest filter containing it."""
    if any(len(s) == 0 for s in base.members):
        bad = next(s for s in base.members if len(s) == 0)
        raise EmptyMemberInBase("a base member is empty", witness=(bad.name(),))
    bad = filter_base_witness(base)
    if bad is not None or not base.members:
        raise EmptyMemberInBase("family is not a filter base", witness=bad)
    return upward_closure(base.carrier, [mask_of(base.carrier, s) for s in base.members])


def principal_filter(carrier: FinSet, S: FinSet) -> Family:
    return generate_filter(Family(carrier, [S]))


def point_filter(carrier: FinSet, x) -> Family:
    return principal_filter(carrier, finset(x))


@lru_cache(maxsize=None)
def _enumerate_filters_cached(carrier: FinSet) -> tuple:
    n = len(carrier)
    if n <= 4:
        # A family is a mask over the subsets, bit i for subs[i], and the
        # families come in ascending mask order. A search decides the
        # subsets from the last down, out before in, which is that order.
        # A subset may join only once every one-point superset has joined;
        # those come later in subs, so they are decided already. The leaves
        # are then exactly the up-closed families; subs[0] is the empty
        # set, which stays out, and a filter is a nonempty leaf closed
        # under intersection.
        subs = list(carrier.subsets())
        masks = subset_masks(carrier)
        pos = {m: i for i, m in enumerate(masks)}
        bits = carrier.bits().values()
        ones = [sum(1 << pos[s | b] for b in bits if not s & b) for s in masks]
        filters = []

        def grow(i, fmask):
            if i == 0:
                members = [j for j in range(len(masks)) if fmask >> j & 1]
                if members and unclosed_pair([masks[j] for j in members], operator.and_) is None:
                    filters.append(Family(carrier, [subs[j] for j in members]))
                return
            grow(i - 1, fmask)
            if not ones[i] & ~fmask:
                grow(i - 1, fmask | 1 << i)

        grow(len(masks) - 1, 0)
        return tuple(filters)
    if n == 5:
        # principal representation: every filter on a finite carrier is
        # principal, as the tests check against the exhaustive up-set
        # search above at sizes <= 4
        return tuple(
            principal_filter(carrier, S) for S in carrier.subsets() if len(S) > 0
        )
    raise TooLarge("filter enumeration capped at 5 points", witness=(n,))


def enumerate_filters(carrier: FinSet) -> list:
    return list(_enumerate_filters_cached(carrier))


def is_ultrafilter(fam: Family) -> bool:
    if not is_filter(fam):
        return False
    return all(
        s in fam.members or s.complement_in(fam.carrier) in fam.members
        for s in fam.carrier.subsets()
    )


def ultrafilter_suite(carrier: FinSet) -> LawReport:
    """Ultrafilter characterizations over the full filter catalogue."""
    if len(carrier) > 5:
        raise TooLarge("ultrafilter suite capped at 5 points", witness=(len(carrier),))
    r = LawReport("ultrafilters")
    filters = enumerate_filters(carrier)
    ultras = [F for F in filters if is_ultrafilter(F)]
    maximal = [
        F
        for F in filters
        if not any(F != G and F.members <= G.members for G in filters)
    ]
    r.add("uf-maximal", {F.members for F in ultras} == {F.members for F in maximal})
    prime_ok = all(
        is_ultrafilter(F)
        == all(
            (a.union(b) not in F.members)
            or (a in F.members or b in F.members)
            for a in carrier.subsets()
            for b in carrier.subsets()
        )
        for F in filters
    )
    r.add("uf-union-prime", prime_ok)
    points_ok = all(
        is_ultrafilter(point_filter(carrier, x)) for x in carrier
    )
    r.add("uf-points", points_ok)
    principal_ok = all(
        any(F.members == point_filter(carrier, x).members for x in carrier)
        for F in ultras
    )
    r.add("uf-principal", principal_ok)
    r.add("uf-count", len(ultras) == len(carrier))
    absorb_ok = True
    for F in filters:
        for G in filters:
            U = Family(carrier, F.members | G.members)
            if not is_filter(U):
                continue
            if is_ultrafilter(U) and not (is_ultrafilter(F) or is_ultrafilter(G)):
                absorb_ok = False
            if is_ultrafilter(F) and not is_ultrafilter(U):
                absorb_ok = False
    r.add("uf-union-absorb", absorb_ok)
    return r
