"""Families of subsets: the power functor, family images, set-algebra
law suites, sigma-algebra generation, and filter theory on finite
carriers.

Subsets are FinSet values; a Family is a set of subsets of a fixed
carrier. Filters use upward closure throughout (a point filter is the
collection of sets containing the point).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, partial

from .core import (
    FinMap,
    FinSet,
    Frozen,
    classify,
    compose,
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


def power_map(f: FinMap) -> FinMap:
    """The arrow function of the power functor: subsets map to images."""
    dom = FinSet(a.name() for a in f.dom.subsets())
    cod = FinSet(b.name() for b in f.cod.subsets())
    assign = {a.name(): f.image(a).name() for a in f.dom.subsets()}
    return FinMap(dom, cod, assign)


def power_functor_check(f: FinMap, g: FinMap | None = None) -> LawReport:
    """Functor laws for the power construction, plus the object-level
    power-set identities."""
    r = LawReport("power-functor")
    pf = power_map(f)
    r.add(
        "pw-identity",
        "the identity maps to the identity",
        power_map(FinMap.identity(f.dom)) == FinMap.identity(FinSet(a.name() for a in f.dom.subsets())),
    )
    if g is not None:
        if g.dom != f.cod:
            raise CarrierMismatch("g must compose with f")
        r.add(
            "pw-composition",
            "the power map of a composite is the composite of power maps",
            power_map(compose(g, f)) == compose(power_map(g), power_map(f)),
        )
    r.add(
        "pw-elementwise",
        "each subset goes to its elementwise image",
        all(pf(a.name()) == FinSet(f(x) for x in a).name() for a in f.dom.subsets()),
    )
    r.add(
        "pw-monotone",
        "inclusion is preserved",
        all(
            (not a <= b) or f.image(a) <= f.image(b)
            for a in f.dom.subsets()
            for b in f.dom.subsets()
        ),
    )
    meet_bad = next(
        (
            (a.name(), b.name())
            for a in f.dom.subsets()
            for b in f.dom.subsets()
            if {x.name() for x in a.inter(b).subsets()}
            != {x.name() for x in a.subsets()} & {x.name() for x in b.subsets()}
        ),
        None,
    )
    r.add("pw-meet", "P(A∩B) = PA ∩ PB", meet_bad is None, meet_bad)
    join_bad = next(
        (
            (a.name(), b.name())
            for a in f.dom.subsets()
            for b in f.dom.subsets()
            if not {x.name() for x in a.subsets()} | {x.name() for x in b.subsets()}
            <= {x.name() for x in a.union(b).subsets()}
        ),
        None,
    )
    r.add("pw-join", "PA ∪ PB sits inside P(A∪B)", join_bad is None, join_bad)
    r.add(
        "pw-union-recovers",
        "the union of all subsets of A is A",
        all(union_of(a.subsets()) == a for a in f.dom.subsets()),
    )
    return r


def f_forward(f: FinMap, A: FinSet):
    """All subsets of the image whose preimage is exactly A."""
    if not A <= f.dom:
        raise CarrierMismatch("A must be a subset of the domain")
    im = f.image()
    return {Y for Y in im.subsets() if f.preimage(Y) == A}


def f_backward(f: FinMap, B: FinSet):
    """All subsets of the domain whose image is exactly B."""
    if not B <= f.cod:
        raise CarrierMismatch("B must be a subset of the codomain")
    return {X for X in f.dom.subsets() if f.image(X) == B}


def family_images(f: FinMap, X: Family, Y: Family) -> dict:
    """The four family-image notions along a map."""
    if X.carrier != f.dom or Y.carrier != f.cod:
        raise CarrierMismatch("families must live over the map's carriers")
    return {
        "family_direct": Family(
            f.cod, [B for B in f.cod.subsets() if f.preimage(B) in X.members]
        ),
        "family_inverse": Family(
            f.dom, [A for A in f.dom.subsets() if f.image(A) in Y.members]
        ),
        "direct": Family(f.cod, [f.image(A) for A in X.members]),
        "inverse": Family(f.dom, [f.preimage(B) for B in Y.members]),
    }


def family_image_laws(f: FinMap, X: Family, Y: Family) -> LawReport:
    """The fiber lemmas and the two image-family equivalences."""
    r = LawReport("family-images")
    images = family_images(f, X, Y)
    pf = power_map(f)
    im = f.image()
    flags = classify(f)
    # lemma: for B in the image of the power map, the fiber of B under
    # the power map has maximum f⁻¹B
    bad1 = next(
        (
            (B.name(),)
            for B in im.subsets()
            if union_of(f_backward(f, B)) != f.preimage(B)
        ),
        None,
    )
    r.add(
        "fi-fiber-max",
        "the power-map fiber of B unions to the preimage of B",
        bad1 is None,
        bad1,
    )
    if flags["onto"]:
        bad2 = next(
            (
                (B.name(),)
                for B in f.cod.subsets()
                if (B in images["family_direct"].members)
                != (union_of(f_backward(f, B)) in X.members)
            ),
            None,
        )
        r.add(
            "fi-onto-direct",
            "for onto f: B is in the direct family image iff the fiber union is in the family",
            bad2 is None,
            bad2,
        )
        bad3 = next(
            (
                (B.name(),)
                for B in f.cod.subsets()
                if f_backward(f, B)
                != {A for A in f.dom.subsets() if pf(A.name()) == B.name()}
            ),
            None,
        )
        r.add(
            "fi-backward-is-fiber",
            "for onto f: the backward collection is the power-map fiber",
            bad3 is None,
            bad3,
        )
    # the inverse-side laws read "Range f" as the image and need
    # nonempty members; outside that the equivalence has an empty-set
    # counterexample
    y_admissible = all(len(Bm) > 0 and Bm <= im for Bm in Y.members)
    if flags["monic"] and y_admissible:
        bad4 = next(
            (
                (A.name(),)
                for A in f.dom.subsets()
                if (A in images["family_inverse"].members)
                != any(A == union_of(f_backward(f, Bm)) for Bm in Y.members)
            ),
            None,
        )
        r.add(
            "fi-monic-inverse",
            "for monic f: A is in the inverse family image iff it is a fiber union over the family",
            bad4 is None,
            bad4,
        )
    # forward collection: always inside {f[A]}, equal for monic f
    bad5 = next(
        ((A.name(),) for A in f.dom.subsets() if not f_forward(f, A) <= {f.image(A)}),
        None,
    )
    r.add("fi-forward-bound", "the forward collection is at most the image singleton", bad5 is None, bad5)
    if flags["monic"]:
        bad6 = next(
            ((A.name(),) for A in f.dom.subsets() if f_forward(f, A) != {f.image(A)}),
            None,
        )
        r.add(
            "fi-forward-monic",
            "for monic f the forward collection is exactly the image singleton",
            bad6 is None,
            bad6,
        )
    # theorem: for B inside the image, membership in the direct family
    # image is fiber-union membership in the family
    bad7 = next(
        (
            (B.name(),)
            for B in im.subsets()
            if (B in images["family_direct"].members)
            != (union_of(f_backward(f, B)) in X.members)
        ),
        None,
    )
    r.add(
        "fi-thm-direct",
        "for B in the image: direct family membership matches the fiber union test",
        bad7 is None,
        bad7,
    )
    if flags["monic"]:
        bad8 = next(
            (
                (A.name(),)
                for A in f.dom.subsets()
                if (A in images["family_inverse"].members)
                != (inter_of(f_forward(f, A), f.cod) in Y.members)
            ),
            None,
        )
        r.add(
            "fi-thm-inverse",
            "for monic f: inverse family membership matches the forward intersection test",
            bad8 is None,
            bad8,
        )
    return r


def set_law_suite(A: FinSet, B: FinSet, C: FinSet, X: Family) -> LawReport:
    """Difference, distribution, DeMorgan, decomposition, and truncated
    nest identities over a common carrier."""
    carrier = X.carrier
    for s in (A, B, C):
        if not s <= carrier:
            raise CarrierMismatch("sets must live in the family's carrier")
    r = LawReport("set-laws")
    comp = lambda s: s.complement_in(carrier)
    r.add("sl-diff-stack", "(A−B)−C = A−(B∪C)", A.diff(B).diff(C) == A.diff(B.union(C)))
    r.add("sl-diff-meet", "A−B = A ∩ Bᶜ", A.diff(B) == A.inter(comp(B)))
    r.add(
        "sl-distribute-meet",
        "A∩(B∪C) = (A∩B)∪(A∩C)",
        A.inter(B.union(C)) == A.inter(B).union(A.inter(C)),
    )
    r.add(
        "sl-distribute-join",
        "A∪(B∩C) = (A∪B)∩(A∪C)",
        A.union(B.inter(C)) == A.union(B).inter(A.union(C)),
    )
    r.add(
        "sl-demorgan-union",
        "the complement of a union is the intersection of complements",
        comp(union_of(X)) == inter_of((comp(s) for s in X), carrier),
    )
    if len(X) > 0:
        r.add(
            "sl-demorgan-inter",
            "the complement of an intersection is the union of complements",
            comp(inter_of(X, carrier)) == union_of(comp(s) for s in X),
        )
    r.add(
        "sl-decompose",
        "A = (A∩B) ∪ (A−B), disjointly",
        A == A.inter(B).union(A.diff(B)) and not A.inter(B).inter(A.diff(B)),
    )
    r.add(
        "sl-decompose-union",
        "A∪B splits into A−B, A∩B, B−A",
        A.union(B) == A.diff(B).union(A.inter(B)).union(B.diff(A)),
    )
    increasing = [A, A.union(B), A.union(B).union(C)]
    decreasing = list(reversed(increasing))
    r.merge(nest_identities(increasing, carrier))
    r.merge(nest_identities(decreasing, carrier))
    return r


def nest_identities(chain, carrier: FinSet) -> LawReport:
    """Disjointification of an increasing nest, and the truncated
    telescoping identity of a decreasing nest."""
    r = LawReport("nest")
    chain = list(chain)
    for s in chain:
        if not s <= carrier:
            raise CarrierMismatch("nest member escapes the carrier")
    increasing = all(chain[i] <= chain[i + 1] for i in range(len(chain) - 1))
    decreasing = all(chain[i + 1] <= chain[i] for i in range(len(chain) - 1))
    if increasing:
        disjoint = [chain[0]] + [
            chain[i + 1].diff(chain[i]) for i in range(len(chain) - 1)
        ]
        r.add(
            "nest-inc-union",
            "the nest and its disjointification share a union",
            union_of(chain) == union_of(disjoint),
        )
        r.add(
            "nest-inc-disjoint",
            "the disjointification is pairwise disjoint",
            all(
                not a.inter(b)
                for a, b in itertools.combinations(disjoint, 2)
            ),
        )
    if decreasing and chain:
        pieces = [chain[i].diff(chain[i + 1]) for i in range(len(chain) - 1)]
        r.add(
            "nest-dec-telescope",
            "the top of a decreasing nest is the telescoping union plus the last term",
            chain[0] == union_of(pieces).union(chain[-1]),
        )
    if not (increasing or decreasing):
        r.add("nest-shape", "the sequence is not a nest", False)
    return r


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


def is_filter_base(fam: Family) -> bool:
    ms = fam.members
    if not ms or any(len(s) == 0 for s in ms):
        return False
    return filter_base_witness(fam) is None


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
        # a family is a mask over the subsets, bit i for subs[i]; the
        # empty set is subs[0], so a family with bit 0 has an empty member
        subs = list(carrier.subsets())
        masks = subset_masks(carrier)
        pos = {m: i for i, m in enumerate(masks)}
        ups = [sum(1 << j for j, t in enumerate(masks) if not s & ~t) for s in masks]
        filters = []
        for fmask in range(2, 2 ** len(subs), 2):
            members = [i for i in range(len(subs)) if fmask >> i & 1]
            if any(ups[i] & ~fmask for i in members):
                continue
            if all(
                fmask >> pos[masks[i] & masks[j]] & 1 for i in members for j in members
            ):
                filters.append(Family(carrier, [subs[i] for i in members]))
        return tuple(filters)
    if n == 5:
        # principal representation; the fact that every filter on a
        # finite carrier is principal is brute-verified at sizes <= 4
        return tuple(
            principal_filter(carrier, S) for S in carrier.subsets() if len(S) > 0
        )
    raise TooLarge("filter enumeration capped at 5 points", witness=(n,))


def enumerate_filters(carrier: FinSet) -> list:
    return list(_enumerate_filters_cached(carrier))


def refinement(B1: Family, B2: Family) -> dict:
    """Whether B2 refines B1: every member of B1 contains a member of B2."""
    if B1.carrier != B2.carrier:
        raise CarrierMismatch("bases live over different carriers")
    finer = all(any(c <= b for c in B2.members) for b in B1.members)
    return {"finer": finer}


def refinement_laws(carrier: FinSet) -> LawReport:
    """Preorder/partial-order structure of refinement, by enumeration."""
    if len(carrier) > 3:
        raise TooLarge("refinement enumeration capped at 3 points", witness=(len(carrier),))
    r = LawReport("refinement")
    subs = [s for s in carrier.subsets() if len(s) > 0]
    bases = []
    for k in range(1, len(subs) + 1):
        for combo in itertools.combinations(subs, k):
            fam = Family(carrier, combo)
            if is_filter_base(fam):
                bases.append(fam)
    prec = lambda a, b: refinement(a, b)["finer"]
    r.add("ref-reflexive", "every base refines itself", all(prec(b, b) for b in bases))
    r.add(
        "ref-transitive",
        "refinement chains compose",
        all(
            not (prec(a, b) and prec(b, c)) or prec(a, c)
            for a in bases
            for b in bases
            for c in bases
        ),
    )
    filters = enumerate_filters(carrier)
    r.add(
        "ref-filters-inclusion",
        "on filters, refinement is containment",
        all(
            prec(F, G) == (F.members <= G.members) for F in filters for G in filters
        ),
    )
    r.add(
        "ref-filters-antisym",
        "on filters, mutual refinement forces equality",
        all(
            not (prec(F, G) and prec(G, F)) or F == G
            for F in filters
            for G in filters
        ),
    )
    r.add(
        "ref-mutual-same-filter",
        "bases refine each other exactly when they generate the same filter",
        all(
            (prec(a, b) and prec(b, a)) == (generate_filter(a) == generate_filter(b))
            for a in bases
            for b in bases
        ),
    )
    gens = {generate_filter(b) for b in bases}
    r.add(
        "ref-closure-extensive",
        "a base sits inside its generated filter",
        all(b.members <= generate_filter(b).members for b in bases),
    )
    r.add(
        "ref-closure-idempotent",
        "generating twice adds nothing",
        all(generate_filter(g) == g for g in gens),
    )
    r.add(
        "ref-closure-monotone",
        "larger bases generate larger filters",
        all(
            not prec(a, b) or generate_filter(a).members <= generate_filter(b).members
            for a in bases
            for b in bases
        ),
    )
    # minimality of the generated filter
    r.add(
        "ref-minimal",
        "the generated filter is the least filter containing the base",
        all(
            all(
                not b.members <= F.members
                or generate_filter(b).members <= F.members
                for F in filters
            )
            for b in bases
        ),
    )
    return r


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
    r.add(
        "uf-maximal",
        "ultra means maximal under refinement",
        {F.members for F in ultras} == {F.members for F in maximal},
    )
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
    r.add("uf-union-prime", "ultra means union-prime", prime_ok)
    points_ok = all(
        is_ultrafilter(point_filter(carrier, x)) for x in carrier
    )
    r.add("uf-points", "point filters are ultra", points_ok)
    principal_ok = all(
        any(F.members == point_filter(carrier, x).members for x in carrier)
        for F in ultras
    )
    r.add("uf-principal", "every ultrafilter here is a point filter", principal_ok)
    r.add("uf-count", "one ultrafilter per point", len(ultras) == len(carrier))
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
    r.add(
        "uf-union-absorb",
        "a filter union is ultra exactly under the absorption theorem",
        absorb_ok,
    )
    return r
