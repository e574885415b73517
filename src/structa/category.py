"""Finite categories with named, possibly-parallel arrows.

Arrows are first-class named entities: two distinct names may be
observationally equal (composition cannot tell them apart) and the
checker reports that instead of silently quotienting. Composition
tables are stored in full, and ``cat-assoc`` reads the one associativity
kernel, ``core.associativity_witness``: a total table, as in a
one-object category, is certified by Light's test, and any other gets a
scan that skips each pair without a cell.

The module carries the functor calculus: opposites, products, bridges
and natural transformations, vertical/horizontal composition with the
interchange law, Hom functors, the Yoneda lemma and embedding, and arrow
categories.

A functor runs into a ``FinCat`` (``FunctorData``) or into finite sets
(``SetRepr``), whose values are actual ``FinSet``/``FinMap`` data, so
that Yoneda's bijection is computed, never symbolic. Both targets offer
the same methods (``ends``, ``unit``, ``compose``, ``hom``,
``has_object``, ``has_arrow``), so each law is one scan for either
target. There is no variance flag: a contravariant functor C → D is a
functor C → D^op, or C^op → D (Mac Lane, §II.2), so ``check_functor``
into D^op checks it, and R_x is a ``SetRepr`` on C^op.

One formula gives every hom map: Hom(f, g) is h ↦ g∘h∘f for f: a→c and
g: b→d. L_x(f) is Hom(1_x, f), R_x(f) is Hom(f, 1_x), and on the
one-object category of a group L_pt gives the left translations.
"""

from __future__ import annotations

import itertools

from .core import (
    FinMap,
    FinSet,
    Frozen,
    all_maps,
    associativity_witness,
    check_symbol,
    compose,
    finset,
    two_sided_unit,
)
from .errors import (
    BadStructure,
    CarrierMismatch,
    CompositionMismatch,
    EndpointError,
    Mismatch,
    TooLarge,
)
from .report import LawReport


class FinCat(Frozen):
    """A finite category: objects, named arrows, identities, and an
    explicit composition table ``comp[(g, f)] = g∘f``.

    ``_fill`` indexes the arrows once, for ``__init__`` and for
    ``_trusted``, in the loop that fills ``src`` and ``tgt``:
    ``arrow_names``, and the arrows by source, by target and by (source,
    target), each a tuple of names in canonical order, so
    ``arrows_from``, ``arrows_into`` and ``hom`` are lookups. Like ``src``
    and ``tgt``, the indexes are slots, not fields: they follow from the
    arrows, so equality, hashing and repr ignore them, and copies and
    pickles rebuild them through ``__init__``."""

    __slots__ = ("objects", "arrows", "src", "tgt", "identity", "comp", "meta",
                 "arrow_names", "_from", "_into", "_hom")
    _fields = ("objects", "arrows", "identity", "comp", "meta")

    def __init__(self, objects, arrows, identity, comp, meta=None):
        objects = objects if isinstance(objects, FinSet) else FinSet(objects)
        arrs = tuple(sorted((check_symbol(n), s, t) for (n, s, t) in arrows))
        names = tuple(n for n, _, _ in arrs)
        if len(set(names)) != len(names):
            dup = sorted(n for n in set(names) if names.count(n) > 1)
            raise BadStructure("duplicate arrow names", witness=tuple(dup))
        for n, s, t in arrs:
            if s not in objects or t not in objects:
                raise CarrierMismatch("arrow endpoint outside the objects", witness=(n, s, t))
        known = set(names)
        identity = dict(identity)
        for x, n in identity.items():
            if x not in objects:
                raise CarrierMismatch("identity assigned to a non-object", witness=(x,))
            if n not in known:
                raise CarrierMismatch("identity is not an arrow", witness=(x, n))
        comp = dict(comp)
        for (g, f), v in comp.items():
            if g not in known or f not in known or v not in known:
                raise CarrierMismatch("composition table mentions a non-arrow", witness=(g, f))
        self._fill(objects, arrs, identity, comp, meta or {})

    @classmethod
    def _trusted(cls, objects: FinSet, arrows: tuple, identity: dict, comp: dict) -> "FinCat":
        """The category of validated parts, unchecked: the caller
        guarantees that ``arrows`` is a sorted tuple of (name, source,
        target) triples with distinct checked names and endpoints in
        ``objects``, that ``identity`` sends objects to arrows and that
        ``comp`` mentions only arrows: every check ``__init__`` makes."""
        C = object.__new__(cls)
        C._fill(objects, arrows, identity, comp, {})
        return C

    def _fill(self, objects, arrs, identity, comp, meta):
        src, tgt, out, into, hom = {}, {}, {}, {}, {}
        for n, s, t in arrs:
            src[n], tgt[n] = s, t
            out.setdefault(s, []).append(n)
            into.setdefault(t, []).append(n)
            hom.setdefault((s, t), []).append(n)
        names = tuple(src)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "arrows", arrs)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "meta", meta)
        object.__setattr__(self, "arrow_names", names)
        object.__setattr__(self, "_from", {s: tuple(ns) for s, ns in out.items()})
        object.__setattr__(self, "_into", {t: tuple(ns) for t, ns in into.items()})
        object.__setattr__(self, "_hom", {st: tuple(ns) for st, ns in hom.items()})

    def __eq__(self, other):
        return (
            isinstance(other, FinCat)
            and self.objects == other.objects
            and self.arrows == other.arrows
            and self.identity == other.identity
            and self.comp == other.comp
        )

    def __hash__(self):
        return hash(
            (
                self.objects,
                self.arrows,
                tuple(sorted(self.identity.items())),
                tuple(sorted(self.comp.items())),
            )
        )

    def __repr__(self):
        return "FinCat(%d objects, %d arrows)" % (len(self.objects), len(self.arrows))

    def hom(self, a, b):
        """Arrow names from a to b, in canonical order."""
        return self._hom.get((a, b), ())

    def arrows_from(self, a):
        return self._from.get(a, ())

    def arrows_into(self, b):
        return self._into.get(b, ())

    def compose(self, g, f):
        """g∘f; the pair must be composable and tabulated."""
        s = self.src.get(g)
        if s is None or self.tgt.get(f) != s:
            raise CompositionMismatch("arrows are not composable", witness=(g, f))
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise CompositionMismatch("composition table misses a composable pair", witness=(g, f))

    def ends(self, m):
        """(source, target) of the arrow m."""
        return self.src[m], self.tgt[m]

    def unit(self, x):
        """The identity arrow of the object x."""
        return self.identity[x]

    def has_object(self, x) -> bool:
        return x in self.objects

    def has_arrow(self, m) -> bool:
        return m in self.src


def arrow_equality_classes(C: FinCat) -> tuple:
    """Observational equality classes: parallel f, g are the same arrow
    when f∘h = g∘h and i∘f = i∘g for every composable h, i.

    Parallel arrows see the same h and the same i, so f and g are the
    same exactly when their signatures are equal: the source, the
    target, the composites f∘h over ``arrows_into(source)`` and the
    composites i∘f over ``arrows_from(target)``. The classes are the
    signature groups, each in name order, listed by their first member."""
    classes = {}
    for f, s, t in C.arrows:
        sig = (
            s,
            t,
            tuple(C.comp.get((f, h)) for h in C.arrows_into(s)),
            tuple(C.comp.get((i, f)) for i in C.arrows_from(t)),
        )
        classes.setdefault(sig, []).append(f)
    return tuple(tuple(cl) for cl in classes.values())


def check_category(C: FinCat) -> LawReport:
    """Endpoint consistency, unit laws, associativity, and the
    observational-equality warning."""
    r = LawReport("category")
    names = C.arrow_names
    src, tgt, comp = C.src, C.tgt, C.comp
    # one pass over the composable pairs, reached through the arrows
    # leaving each object, and one over the table's keys
    missing = min(
        ((g, f) for f in names for g in C.arrows_from(tgt[f]) if (g, f) not in comp),
        default=None,
    )
    extra = min(((g, f) for g, f in comp if tgt[f] != src[g]), default=None)
    bad = extra if missing is None else missing
    r.add("cat-comp-total", bad is None, bad)
    bad = min(
        (
            (g, f)
            for (g, f), h in comp.items()
            if tgt[f] == src[g] and (src[h] != src[f] or tgt[h] != tgt[g])
        ),
        default=None,
    )
    r.add("cat-endpoints", bad is None, bad)
    bad = next(
        ((x,) for x in C.objects if x not in C.identity or C.ends(C.identity[x]) != (x, x)),
        None,
    )
    if bad is None:
        bad = next(
            (
                (f,)
                for f in names
                if C.comp.get((f, C.identity[C.src[f]])) != f
                or C.comp.get((C.identity[C.tgt[f]], f)) != f
            ),
            None,
        )
    r.add("cat-unit", bad is None, bad)
    # comp[(h, g)] = h∘g is the product hg: the witness is the first
    # (h, g, f) in name order with (h∘g)∘f != h∘(g∘f), all four defined
    bad = associativity_witness(C.comp, names)
    r.add("cat-assoc", bad is None, bad)
    collapsed = [cl for cl in arrow_equality_classes(C) if len(cl) > 1]
    r.add("cat-discernible", not collapsed, collapsed[0][:2] if collapsed else None)
    return r


def _require_cat(C: FinCat) -> FinCat:
    check_category(C).require()
    return C


# ---------------------------------------------------------------------------
# constructors


def from_poset(P) -> FinCat:
    """One arrow per related pair; composition is transitivity."""
    arrows = [
        ("(%s<=%s)" % (x, y), x, y) for x in P.carrier for y in P.carrier if P.le(x, y)
    ]
    identity = {x: "(%s<=%s)" % (x, x) for x in P.carrier}
    comp = {}
    for n, x, y in arrows:
        for m, y2, z in arrows:
            if y == y2:
                comp[(m, n)] = "(%s<=%s)" % (x, z)
    return _require_cat(FinCat(P.carrier, arrows, identity, comp))


def from_group(table, carrier: FinSet | None = None) -> FinCat:
    """A one-object category whose arrows are the table elements. Accepts
    a ``FinGroup`` or a monoid table with its carrier."""
    if carrier is None:
        G = table
        carrier, op, unit = G.carrier, G.op, G.unit
    else:
        op = dict(table)
        unit = two_sided_unit(op, carrier)
        if unit is None:
            raise BadStructure("the table has no two-sided unit")
    obj = "pt"
    arrows = [(x, obj, obj) for x in carrier]
    comp = {(g, f): op[(g, f)] for g in carrier for f in carrier}
    return _require_cat(FinCat(finset(obj), arrows, {obj: unit}, comp))


def discrete(A: FinSet) -> FinCat:
    arrows = [("id(%s)" % x, x, x) for x in A]
    identity = {x: "id(%s)" % x for x in A}
    comp = {(identity[x], identity[x]): identity[x] for x in A}
    return _require_cat(FinCat(A, arrows, identity, comp))


# ---------------------------------------------------------------------------
# targets and the functor laws


class _FiniteSets:
    """Finite sets as a target category: its objects are ``FinSet``s and
    its arrows ``FinMap``s. It offers the methods of ``FinCat`` that a
    functor's target needs, and no product structure."""

    unit = staticmethod(FinMap.identity)
    compose = staticmethod(compose)
    hom = staticmethod(all_maps)

    @staticmethod
    def ends(m):
        return m.dom, m.cod

    @staticmethod
    def has_object(x) -> bool:
        return isinstance(x, FinSet)

    @staticmethod
    def has_arrow(m) -> bool:
        return isinstance(m, FinMap)


_SETS = _FiniteSets()


def _target(F):
    """The target of a ``FunctorData`` or ``SetRepr``: its ``FinCat``, or
    ``_SETS`` when it is Set-valued. The only code that reads which kind
    of target a value has."""
    return _SETS if isinstance(F, SetRepr) else F.tgt


def _functor_into(T, src: FinCat, on_obj: dict, on_arr: dict):
    """The covariant functor src → T with these components, checked: a
    ``SetRepr`` into finite sets, a ``FunctorData`` into a ``FinCat``."""
    if T is _SETS:
        out = SetRepr(src, on_obj, on_arr)
        check_set_functor(out).require()
    else:
        out = FunctorData(src, T, on_obj, on_arr)
        check_functor(out).require()
    return out


def _composite(T, g, f):
    """g∘f in the target T, or None when the pair does not compose."""
    try:
        return T.compose(g, f)
    except CompositionMismatch:
        return None


def _strays(names, assign: dict, inside) -> list:
    """The source names that ``assign`` misses or sends outside the
    target, in canonical order, then its keys that are not names."""
    out = [n for n in names if n not in assign or not inside(assign[n])]
    return out + sorted((k for k in assign if k not in names), key=str)


def _first_stray(F) -> tuple:
    """The first name that a component function of F misses or sends
    outside its target, as a 1-tuple; () when both are total."""
    C, T = F.src, _target(F)
    bad = _strays(C.objects, F.on_obj, T.has_object)
    bad += _strays(C.arrow_names, F.on_arr, T.has_arrow)
    return tuple(bad[:1])


def _scan_functor(r: LawReport, prefix: str, F) -> LawReport:
    """The laws ``<prefix>-endpoints``, ``-unit`` and ``-comp`` of F,
    whose component functions are total into its target. A pair of
    images that does not compose fails."""
    C, T, on_obj, on_arr = F.src, _target(F), F.on_obj, F.on_arr
    bad = next(
        (
            (n,)
            for n in C.arrow_names
            if T.ends(on_arr[n]) != (on_obj[C.src[n]], on_obj[C.tgt[n]])
        ),
        None,
    )
    r.add(prefix + "-endpoints", bad is None, bad)
    bad = next(
        ((x,) for x in C.objects if on_arr[C.identity[x]] != T.unit(on_obj[x])), None
    )
    r.add(prefix + "-unit", bad is None, bad)
    bad = next(
        (
            (g, f)
            for (g, f), v in sorted(C.comp.items())
            if _composite(T, on_arr[g], on_arr[f]) != on_arr[v]
        ),
        None,
    )
    r.add(prefix + "-comp", bad is None, bad)
    return r


# ---------------------------------------------------------------------------
# functors


class FunctorData(Frozen):
    __slots__ = _fields = ("src", "tgt", "on_obj", "on_arr")


def identity_functor(C: FinCat) -> FunctorData:
    return FunctorData(C, C, {x: x for x in C.objects}, {n: n for n in C.arrow_names})


def check_functor(F: FunctorData) -> LawReport:
    r = LawReport("functor")
    C, D = F.src, F.tgt
    bad = tuple(_strays(C.objects, F.on_obj, D.has_object)[:1])
    r.add("fun-objects", not bad, bad)
    bad = tuple(_strays(C.arrow_names, F.on_arr, D.has_arrow)[:1])
    r.add("fun-arrows", not bad, bad)
    if not r.passed:
        return r
    return _scan_functor(r, "fun", F)


def compose_functors(G: FunctorData, F: FunctorData) -> FunctorData:
    """G after F."""
    if F.tgt != G.src:
        raise Mismatch("functors are not composable")
    return FunctorData(
        F.src,
        G.tgt,
        {x: G.on_obj[F.on_obj[x]] for x in F.on_obj},
        {n: G.on_arr[F.on_arr[n]] for n in F.on_arr},
    )


# the most object maps C → D that ``enumerate_functors`` will try
_FUNCTOR_GUARD = 200000


def enumerate_functors(C: FinCat, D: FinCat) -> list:
    """All functors C → D, in a deterministic order."""
    objs = list(C.objects)
    ids = set(C.identity.values())
    arrs = [n for n in C.arrow_names if n not in ids]
    total = len(D.objects) ** max(len(objs), 1)
    if total > _FUNCTOR_GUARD:
        raise TooLarge("functor enumeration guard exceeded", witness=(total,))
    out = []
    for combo in itertools.product(D.objects.elements, repeat=len(objs)):
        on_obj = dict(zip(objs, combo))
        base = {C.identity[x]: D.identity[on_obj[x]] for x in objs}

        def backtrack(i, on_arr):
            if i == len(arrs):
                F = FunctorData(C, D, dict(on_obj), dict(on_arr))
                if check_functor(F).passed:
                    out.append(F)
                return
            n = arrs[i]
            for m in D.hom(on_obj[C.src[n]], on_obj[C.tgt[n]]):
                on_arr[n] = m
                backtrack(i + 1, on_arr)
                del on_arr[n]

        backtrack(0, dict(base))
    return out


# ---------------------------------------------------------------------------
# opposites


def opposite_cat(C: FinCat) -> FinCat:
    """Same arrow names, reversed endpoints; comp(f, g) := (g∘f)."""
    arrows = [(n, C.tgt[n], C.src[n]) for n in C.arrow_names]
    comp = {(f, g): v for (g, f), v in C.comp.items()}
    return FinCat(C.objects, arrows, dict(C.identity), comp)


# ---------------------------------------------------------------------------
# products


def _pair_name(l, r):
    return "(%s,%s)" % (l, r)


def product_cat(C1: FinCat, C2: FinCat) -> FinCat:
    objects = [_pair_name(x, y) for x in C1.objects for y in C2.objects]
    arrows = [
        (_pair_name(f, g), _pair_name(C1.src[f], C2.src[g]), _pair_name(C1.tgt[f], C2.tgt[g]))
        for f in C1.arrow_names
        for g in C2.arrow_names
    ]
    identity = {
        _pair_name(x, y): _pair_name(C1.identity[x], C2.identity[y])
        for x in C1.objects
        for y in C2.objects
    }
    comp = {}
    for (g1, f1), v1 in C1.comp.items():
        for (g2, f2), v2 in C2.comp.items():
            comp[(_pair_name(g1, g2), _pair_name(f1, f2))] = _pair_name(v1, v2)
    return _require_cat(FinCat(FinSet(objects), arrows, identity, comp))


# ---------------------------------------------------------------------------
# set-valued functors


class SetRepr(Frozen):
    """A Set-valued functor given by actual finite sets and maps:
    ``on_obj`` sends an object to a FinSet, ``on_arr`` an arrow name to
    a FinMap."""

    __slots__ = _fields = ("src", "on_obj", "on_arr")


def check_set_functor(S: SetRepr) -> LawReport:
    r = LawReport("set-functor")
    bad = _first_stray(S)
    r.add("sr-total", not bad, bad)
    if bad:
        return r
    return _scan_functor(r, "sr", S)


# ---------------------------------------------------------------------------
# bridges and natural transformations


class NatTransData(Frozen):
    """A bridge between parallel functors. ``F``/``G`` are FunctorData
    or SetRepr; components are arrow names or FinMaps accordingly."""

    __slots__ = _fields = ("F", "G", "component")


def identity_nat(F) -> NatTransData:
    T = _target(F)
    return NatTransData(F, F, {x: T.unit(F.on_obj[x]) for x in F.src.objects})


def _commutes(T, F, G, tau: dict, f) -> bool:
    """The naturality square of f: a→b, τ_b ∘ F f = G f ∘ τ_a in the
    target T. A side that does not compose fails it."""
    C = F.src
    lhs = _composite(T, tau[C.tgt[f]], F.on_arr[f])
    return lhs is not None and lhs == _composite(T, G.on_arr[f], tau[C.src[f]])


def bridge_check(tau: dict, F, G) -> dict:
    """``is_bridge``: every component connects F a to G a. ``is_natural``:
    every naturality square commutes. A component that is not an arrow
    of the target at all raises ``EndpointError``."""
    C = F.src
    if C != G.src:
        raise Mismatch("bridge needs parallel functors")
    if set(tau) != set(C.objects):
        raise EndpointError("components must be indexed by exactly the objects")
    T = _target(F)
    if T != _target(G):
        raise Mismatch("bridge needs parallel functors")
    for a, m in tau.items():
        if not T.has_arrow(m):
            raise EndpointError("component is not an arrow of the target", witness=(a, m))
    is_bridge = all(T.ends(tau[a]) == (F.on_obj[a], G.on_obj[a]) for a in C.objects)
    is_natural = is_bridge and all(_commutes(T, F, G, tau, f) for f in C.arrow_names)
    return {"is_bridge": is_bridge, "is_natural": is_natural}


def check_nat(n: NatTransData) -> LawReport:
    r = LawReport("natural-transformation")
    flags = bridge_check(n.component, n.F, n.G)
    r.add("nt-bridge", flags["is_bridge"])
    r.add("nt-natural", flags["is_natural"])
    return r


def bridge_category(tau: dict, F: FunctorData, G: FunctorData) -> FinCat:
    """The category whose objects are the component arrows and whose
    arrows are images of the source arrows; composition is inherited.
    The functor a ↦ τ_a, f ↦ t(f) into it is checked, not returned."""
    flags = bridge_check(tau, F, G)
    if not flags["is_bridge"]:
        raise EndpointError("not a bridge: a component has wrong endpoints")
    C = F.src
    objects = FinSet(tau.values())
    arrows = [("t(%s)" % f, tau[C.src[f]], tau[C.tgt[f]]) for f in C.arrow_names]
    identity = {}
    for b in C.objects:
        prev = identity.get(tau[b])
        if prev is not None and prev != "t(%s)" % C.identity[b]:
            raise BadStructure(
                "components collide with incompatible units", witness=(b,)
            )
        identity[tau[b]] = "t(%s)" % C.identity[b]
    comp = {}
    for (g, f), v in C.comp.items():
        comp[("t(%s)" % g, "t(%s)" % f)] = "t(%s)" % v
    cat = FinCat(objects, arrows, identity, comp)
    # component collisions may create composable pairs with no source
    # counterpart; the structure is then not a category
    names = [n for n, _, _ in arrows]
    for g in names:
        for f in names:
            if cat.tgt[f] == cat.src[g] and (g, f) not in comp:
                raise BadStructure(
                    "component collision leaves composition undefined", witness=(g, f)
                )
    _require_cat(cat)
    _functor_into(cat, C, tau, {f: "t(%s)" % f for f in C.arrow_names})
    return cat


def vcompose(sigma: NatTransData, tau: NatTransData) -> NatTransData:
    """σ·τ for τ: F→G, σ: G→H."""
    if sigma.F != tau.G:
        raise Mismatch("vertical composition needs matching middle functor")
    T = _target(tau.F)
    comp = {
        x: T.compose(sigma.component[x], tau.component[x]) for x in tau.F.src.objects
    }
    return NatTransData(tau.F, sigma.G, comp)


def enumerate_nat_trans(F, G) -> list:
    """All natural transformations F → G, deterministically ordered.
    Components are chosen depth-first in object order, each from the
    target's hom, which is the order of ``itertools.product`` over the
    choices; a choice is cut as soon as a naturality square with both
    corners chosen fails."""
    C, T = F.src, _target(F)
    if C != G.src or T != _target(G):
        raise Mismatch("parallel functors required")
    objs = sorted(C.objects)
    # the squares whose later corner is x, tested once x is chosen
    closes = {x: [] for x in objs}
    for f in C.arrow_names:
        closes[max(C.src[f], C.tgt[f])].append(f)
    out = []

    def backtrack(i, comp):
        if i == len(objs):
            out.append(NatTransData(F, G, dict(comp)))
            return
        x = objs[i]
        for m in T.hom(F.on_obj[x], G.on_obj[x]):
            comp[x] = m
            if all(_commutes(T, F, G, comp, f) for f in closes[x]):
                backtrack(i + 1, comp)
            del comp[x]

    backtrack(0, {})
    return out


def functor_category(C: FinCat, D: FinCat) -> FinCat:
    """Cat(C, D): functors as objects, natural transformations as
    arrows, vertical composition as the operation."""
    funs = sorted(
        enumerate_functors(C, D),
        key=lambda F: (sorted(F.on_obj.items()), sorted(F.on_arr.items())),
    )
    fname = ["F%d" % i for i in range(len(funs))]
    nats = sorted(
        (
            (i, j, n)
            for i, F in enumerate(funs)
            for j, G in enumerate(funs)
            for n in enumerate_nat_trans(F, G)
        ),
        key=lambda t: (t[0], t[1], sorted(t[2].component.items())),
    )

    def key(i, j, n):
        return (i, j, tuple(sorted(n.component.items())))

    nat_name = {key(*t): "t%d" % k for k, t in enumerate(nats)}
    arrows = [("t%d" % k, fname[i], fname[j]) for k, (i, j, _) in enumerate(nats)]
    identity = {fname[i]: nat_name[key(i, i, identity_nat(F))] for i, F in enumerate(funs)}
    comp = {
        ("t%d" % k2, "t%d" % k1): nat_name[key(i1, j2, vcompose(n2, n1))]
        for k2, (i2, j2, n2) in enumerate(nats)
        for k1, (i1, j1, n1) in enumerate(nats)
        if j1 == i2
    }
    meta = {
        "functors": dict(zip(fname, funs)),
        "nats": {"t%d" % k: n for k, (_, _, n) in enumerate(nats)},
    }
    return _require_cat(FinCat(FinSet(fname), arrows, identity, comp, meta))


def _hcompose_components(alpha: NatTransData, tau: NatTransData) -> dict:
    """The components of the horizontal composite α∘τ: J∘F → K∘G, for
    τ: F→G in Cat(C,D) and α: J→K in Cat(D,E), by the formula
    (α∘τ)_x = α_{Gx} ∘ J τ_x. The composite functors are not built: the
    callers compare components. The other defining formula,
    K τ_x ∘ α_{Fx}, is compared with these by the interchange suite's
    ``ic-volume`` law."""
    F, G = tau.F, tau.G
    J = alpha.F
    if F.tgt != J.src:
        raise Mismatch("horizontal composition needs matching middle category")
    E = J.tgt
    return {
        x: E.compose(alpha.component[G.on_obj[x]], J.on_arr[tau.component[x]])
        for x in F.src.objects
    }


def interchange_check(
    alpha: NatTransData,
    beta: NatTransData,
    sigma: NatTransData,
    tau: NatTransData,
) -> LawReport:
    """(β·α)∘(σ·τ) = (β∘σ)·(α∘τ) on a 2×2 grid: τ: F→G, σ: G→H in
    Cat(C,D); α: J→K, β: K→L in Cat(D,E). Both sides run from J∘F to
    L∘H by construction, so only their components are compared."""
    r = LawReport("interchange")
    lhs = _hcompose_components(vcompose(beta, alpha), vcompose(sigma, tau))
    left, right = _hcompose_components(beta, sigma), _hcompose_components(alpha, tau)
    rhs = {x: alpha.F.tgt.compose(left[x], right[x]) for x in tau.F.src.objects}
    r.add("ic-interchange", lhs == rhs)
    return r


# ---------------------------------------------------------------------------
# hom functors


def hom_set(C: FinCat, a, b) -> FinSet:
    return FinSet(C.hom(a, b))


def _hom(C: FinCat, f, g) -> FinMap:
    """Hom(f, g) for f: a→c and g: b→d: the map h ↦ g∘h∘f from
    Hom(c, b) to Hom(a, d). The hom functors and the arrows f† of the
    Yoneda embedding are slices of it."""
    (a, c), (b, d) = C.ends(f), C.ends(g)
    dom = hom_set(C, c, b)
    return FinMap(dom, hom_set(C, a, d), {h: C.comp[(C.comp[(g, h)], f)] for h in dom})


def _covariant_hom(C: FinCat, x) -> SetRepr:
    """L_x, checked: a ↦ {x→a}, f ↦ Hom(1_x, f) = (f∘−)."""
    if x not in C.objects:
        raise CarrierMismatch("unknown object", witness=(x,))
    one = C.identity[x]
    return _functor_into(
        _SETS,
        C,
        {a: hom_set(C, x, a) for a in C.objects},
        {f: _hom(C, one, f) for f in C.arrow_names},
    )


def hom_functors(C: FinCat, x):
    """(L_x, R_x), checked: L_x on C is a ↦ {x→a} with f ↦ Hom(1_x, f),
    and R_x, contravariant on C, is the functor on C^op with a ↦ {a→x}
    and f ↦ Hom(f, 1_x)."""
    L = _covariant_hom(C, x)
    one = C.identity[x]
    R = _functor_into(
        _SETS,
        opposite_cat(C),
        {a: hom_set(C, a, x) for a in C.objects},
        {f: _hom(C, f, one) for f in C.arrow_names},
    )
    return L, R


# ---------------------------------------------------------------------------
# Yoneda


def yoneda(C: FinCat, a, La: SetRepr, F: SetRepr) -> dict:
    """Nat(L_a, F) enumerated exhaustively, as ``by_name`` (each
    transformation once, under its name n0, n1, ...), and φ(τ) = τ_a(1_a)
    on those names. ``La`` is L_a, the checked ``_covariant_hom(C, a)``,
    which a caller builds once for every F. The Yoneda suite's
    ``yo-count`` laws check that φ is a bijection onto F a with inverse
    x ↦ τ_x, where τ_x c(f) = F f(x). F must be a functor on C: R_x is
    one on C^op and raises ``Mismatch`` unless C^op = C."""
    by_name = {"n%d" % i: n for i, n in enumerate(enumerate_nat_trans(La, F))}
    names = FinSet(by_name)
    one = C.identity[a]
    phi = FinMap(names, F.on_obj[a], {name: by_name[name].component[a](one) for name in names})
    return {"phi": phi, "by_name": by_name}


def yoneda_embedding(C: FinCat) -> LawReport:
    """f ↦ f† is a bijection Hom(b, a) → Nat(L_a, L_b) for every pair,
    where f† for f: b→a has components Hom(f, 1_x) = (−∘f): the
    embedding into the functor category is full and faithful. Each
    L_x is built once, and f† is compared with Nat(L_a, L_b) by its
    components. f† need not be checked natural: distinct f†, as many as
    Nat(L_a, L_b) and including it, are exactly it, so an unnatural f†
    fails ``ye-faithful`` or ``ye-full``."""
    r = LawReport("yoneda-embedding")
    L = {x: _covariant_hom(C, x) for x in C.objects}
    bad_faithful = None
    bad_full = None
    for a in C.objects:
        for b in C.objects:
            seen = [{x: _hom(C, f, C.identity[x]) for x in C.objects} for f in C.hom(b, a)]
            if any(s == t for s, t in itertools.combinations(seen, 2)):
                bad_faithful = bad_faithful or (a, b)
            nat = [n.component for n in enumerate_nat_trans(L[a], L[b])]
            if not all(n in seen for n in nat) or len(nat) != len(seen):
                bad_full = bad_full or (a, b)
    r.add("ye-faithful", bad_faithful is None, bad_faithful)
    r.add("ye-full", bad_full is None, bad_full)
    return r


# ---------------------------------------------------------------------------
# arrow categories


def arrow_category(F: FunctorData, G: FunctorData) -> FinCat:
    """Objects are arrows 𝔣a → 𝔤b of the common target; arrows are
    commuting squares (u, v) with h' ∘ 𝔣u = 𝔤v ∘ h."""
    if F.tgt != G.tgt:
        raise Mismatch("arrow category needs a common range")
    D = F.tgt
    A, B = F.src, G.src
    objs = []
    obj_data = {}
    for a in A.objects:
        for b in B.objects:
            for h in D.hom(F.on_obj[a], G.on_obj[b]):
                name = "<%s|%s|%s>" % (a, b, h)
                objs.append(name)
                obj_data[name] = (a, b, h)
    arrows = []
    arr_data = {}
    for o1 in objs:
        a, b, h = obj_data[o1]
        for u in A.arrows_from(a):
            for v in B.arrows_from(b):
                a2, b2 = A.tgt[u], B.tgt[v]
                lhs = D.comp[(G.on_arr[v], h)]
                for h2 in D.hom(F.on_obj[a2], G.on_obj[b2]):
                    if D.comp[(h2, F.on_arr[u])] == lhs:
                        o2 = "<%s|%s|%s>" % (a2, b2, h2)
                        name = "[%s|%s|%s>%s]" % (u, v, h, h2)
                        arrows.append((name, o1, o2))
                        arr_data[name] = (u, v, o1, o2)
    identity = {}
    for o in objs:
        a, b, h = obj_data[o]
        identity[o] = "[%s|%s|%s>%s]" % (A.identity[a], B.identity[b], h, h)
    comp = {}
    for n2, (u2, v2, p2, q2) in arr_data.items():
        for n1, (u1, v1, p1, q1) in arr_data.items():
            if q1 == p2:
                u = A.comp[(u2, u1)]
                v = B.comp[(v2, v1)]
                h = obj_data[p1][2]
                h2 = obj_data[q2][2]
                comp[(n2, n1)] = "[%s|%s|%s>%s]" % (u, v, h, h2)
    return _require_cat(FinCat(FinSet(objs), arrows, identity, comp))
