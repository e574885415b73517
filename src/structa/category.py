"""Finite categories with named, possibly-parallel arrows.

Arrows are first-class named entities: two distinct names may be
observationally equal (composition cannot tell them apart) and the
checker reports that instead of silently quotienting. Composition
tables are stored in full, so associativity is a finite scan.

The module carries the whole functor calculus: opposites, products,
bifunctors and their decomposition, bridges and natural
transformations, vertical/horizontal composition with the interchange
law, Hom functors, the Yoneda lemma and embedding, representable
functors, and arrow categories. Set-valued functors (``SetRepr``)
carry actual ``FinSet``/``FinMap`` data so that Yoneda's bijection is
computed, never symbolic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import FinMap, FinSet, Partition, check_symbol, classify, compose, finset
from .errors import (
    BadStructure,
    CarrierMismatch,
    CompositionMismatch,
    EndpointError,
    IncompatibleFamilies,
    Mismatch,
    NotIsomorphicRepresentations,
    NotProduct,
    TooLarge,
    VarianceError,
)
from .report import LawReport


class FinCat:
    """A finite category: objects, named arrows, identities, and an
    explicit composition table ``comp[(g, f)] = g∘f``."""

    __slots__ = ("objects", "arrows", "src", "tgt", "identity", "comp", "meta")

    def __init__(self, objects, arrows, identity, comp, meta=None):
        objects = objects if isinstance(objects, FinSet) else FinSet(objects)
        arrs = tuple(sorted((check_symbol(n), s, t) for (n, s, t) in arrows))
        names = [n for n, _, _ in arrs]
        if len(set(names)) != len(names):
            dup = sorted(n for n in set(names) if names.count(n) > 1)
            raise BadStructure("duplicate arrow names", witness=tuple(dup))
        src, tgt = {}, {}
        for n, s, t in arrs:
            if s not in objects or t not in objects:
                raise CarrierMismatch("arrow endpoint outside the objects", witness=(n, s, t))
            src[n], tgt[n] = s, t
        identity = dict(identity)
        for x, n in identity.items():
            if x not in objects:
                raise CarrierMismatch("identity assigned to a non-object", witness=(x,))
            if n not in src:
                raise CarrierMismatch("identity is not an arrow", witness=(x, n))
        comp = dict(comp)
        for (g, f), v in comp.items():
            if g not in src or f not in src or v not in src:
                raise CarrierMismatch("composition table mentions a non-arrow", witness=(g, f))
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "arrows", arrs)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "meta", meta or {})

    def __setattr__(self, name, value):
        raise AttributeError("FinCat is immutable")

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

    @property
    def arrow_names(self):
        return tuple(n for n, _, _ in self.arrows)

    def hom(self, a, b):
        """Arrow names from a to b, in canonical order."""
        return tuple(n for n in self.arrow_names if self.src[n] == a and self.tgt[n] == b)

    def arrows_from(self, a):
        return tuple(n for n in self.arrow_names if self.src[n] == a)

    def arrows_into(self, b):
        return tuple(n for n in self.arrow_names if self.tgt[n] == b)

    def compose(self, g, f):
        """g∘f; the pair must be composable and tabulated."""
        if self.tgt.get(f) != self.src.get(g):
            raise CompositionMismatch("arrows are not composable", witness=(g, f))
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise CompositionMismatch("composition table misses a composable pair", witness=(g, f))


def arrow_equality_classes(C: FinCat) -> tuple:
    """Observational equality classes: parallel f, g are the same arrow
    when f∘h = g∘h and i∘f = i∘g for every composable h, i."""

    def same(f, g):
        if C.src[f] != C.src[g] or C.tgt[f] != C.tgt[g]:
            return False
        for h in C.arrows_into(C.src[f]):
            if C.comp.get((f, h)) != C.comp.get((g, h)):
                return False
        for i in C.arrows_from(C.tgt[f]):
            if C.comp.get((i, f)) != C.comp.get((i, g)):
                return False
        return True

    classes = []
    for n in C.arrow_names:
        for cl in classes:
            if same(cl[0], n):
                cl.append(n)
                break
        else:
            classes.append([n])
    return tuple(tuple(cl) for cl in classes)


def check_category(C: FinCat, require_unit: bool = True) -> LawReport:
    """Endpoint consistency, unit laws, associativity, and the
    observational-equality warning. ``require_unit=False`` admits
    associative (monoid-style) composition systems without identities."""
    r = LawReport("category")
    names = C.arrow_names
    composable = {
        (g, f) for g in names for f in names if C.tgt[f] == C.src[g]
    }
    missing = sorted(p for p in composable if p not in C.comp)
    extra = sorted(p for p in C.comp if p not in composable)
    r.add(
        "cat-comp-total",
        "composition is defined exactly on the composable pairs",
        not missing and not extra,
        (missing + extra)[0] if (missing or extra) else None,
    )
    bad = next(
        (
            (g, f)
            for (g, f) in sorted(composable & set(C.comp))
            if C.src[C.comp[(g, f)]] != C.src[f] or C.tgt[C.comp[(g, f)]] != C.tgt[g]
        ),
        None,
    )
    r.add("cat-endpoints", "g∘f runs from the source of f to the target of g", bad is None, bad)
    if require_unit:
        bad = None
        for x in C.objects:
            u = C.identity.get(x)
            if u is None or C.src[u] != x or C.tgt[u] != x:
                bad = (x,)
                break
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
        r.add("cat-unit", "every object has a two-sided unit arrow", bad is None, bad)
    bad = next(
        (
            (h, g, f)
            for h in names
            for g in names
            for f in names
            if C.tgt[f] == C.src[g]
            and C.tgt[g] == C.src[h]
            and (h, C.comp.get((g, f))) in C.comp
            and (C.comp.get((h, g)), f) in C.comp
            and C.comp[(h, C.comp[(g, f)])] != C.comp[(C.comp[(h, g)], f)]
        ),
        None,
    )
    r.add("cat-assoc", "composition is associative on every composable triple", bad is None, bad)
    collapsed = [cl for cl in arrow_equality_classes(C) if len(cl) > 1]
    if collapsed:
        stmt = (
            "warning: distinct named arrows are observationally equal, e.g. %s"
            % (collapsed[0][:2],)
        )
    else:
        stmt = "observational arrow equality refines to named equality"
    r.add("cat-discernible", stmt, True)
    return r


def _require_cat(C: FinCat, require_unit: bool = True) -> FinCat:
    check_category(C, require_unit=require_unit).require()
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
        unit = next(
            (
                e
                for e in carrier
                if all(op[(e, x)] == x and op[(x, e)] == x for x in carrier)
            ),
            None,
        )
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
# arrows


def arrow_classify(C: FinCat, f) -> dict:
    """Invertibility and cancellability flags by exhaustive search."""
    if f not in C.src:
        raise CarrierMismatch("unknown arrow", witness=(f,))
    a, b = C.src[f], C.tgt[f]
    left_inv = [l for l in C.hom(b, a) if C.comp.get((l, f)) == C.identity[a]]
    right_inv = [r for r in C.hom(b, a) if C.comp.get((f, r)) == C.identity[b]]
    two_sided = [g for g in left_inv if g in right_inv]
    left_canc = all(
        C.comp[(f, g)] != C.comp[(f, h)]
        for x in C.objects
        for g, h in itertools.combinations(C.hom(x, a), 2)
    )
    right_canc = all(
        C.comp[(g, f)] != C.comp[(h, f)]
        for y in C.objects
        for g, h in itertools.combinations(C.hom(b, y), 2)
    )
    return {
        "iso": bool(two_sided),
        "left_cancellable": left_canc,
        "right_cancellable": right_canc,
        "left_invertible": bool(left_inv),
        "right_invertible": bool(right_inv),
    }


def iso_classes(C: FinCat) -> Partition:
    """Isomorphism of objects is an equivalence relation; the classes
    form a partition of the objects."""
    iso = {
        (a, b)
        for a in C.objects
        for b in C.objects
        if any(arrow_classify(C, f)["iso"] for f in C.hom(a, b))
    }
    blocks = []
    seen = set()
    for a in C.objects:
        if a in seen:
            continue
        block = FinSet(b for b in C.objects if (a, b) in iso)
        seen |= set(block)
        blocks.append(block)
    return Partition(C.objects, tuple(sorted(blocks, key=lambda s: s.elements)))


# ---------------------------------------------------------------------------
# functors


@dataclass(frozen=True)
class FunctorData:
    src: FinCat
    tgt: FinCat
    on_obj: dict
    on_arr: dict


def identity_functor(C: FinCat) -> FunctorData:
    return FunctorData(C, C, {x: x for x in C.objects}, {n: n for n in C.arrow_names})


def constant_functor(C: FinCat, D: FinCat, obj) -> FunctorData:
    if obj not in D.objects:
        raise CarrierMismatch("constant value is not an object", witness=(obj,))
    return FunctorData(
        C, D, {x: obj for x in C.objects}, {n: D.identity[obj] for n in C.arrow_names}
    )


def check_functor(F: FunctorData) -> LawReport:
    r = LawReport("functor")
    C, D = F.src, F.tgt
    ok = set(F.on_obj) == set(C.objects) and all(
        y in D.objects for y in F.on_obj.values()
    )
    r.add("fun-objects", "the object function lands in the target objects", ok)
    ok = set(F.on_arr) == set(C.arrow_names) and all(
        m in D.src for m in F.on_arr.values()
    )
    r.add("fun-arrows", "the arrow function lands in the target arrows", ok)
    if not r.passed:
        return r
    bad = next(
        (
            (n,)
            for n in C.arrow_names
            if D.src[F.on_arr[n]] != F.on_obj[C.src[n]]
            or D.tgt[F.on_arr[n]] != F.on_obj[C.tgt[n]]
        ),
        None,
    )
    r.add("fun-endpoints", "arrows keep their endpoints under the functor", bad is None, bad)
    bad = next(
        ((x,) for x in C.objects if F.on_arr[C.identity[x]] != D.identity[F.on_obj[x]]),
        None,
    )
    r.add("fun-unit", "unit arrows map to unit arrows", bad is None, bad)
    bad = next(
        (
            (g, f)
            for (g, f), v in sorted(C.comp.items())
            if D.comp.get((F.on_arr[g], F.on_arr[f])) != F.on_arr[v]
        ),
        None,
    )
    r.add("fun-comp", "F(g∘f) = F g ∘ F f", bad is None, bad)
    return r


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


def classify_functor(F: FunctorData) -> dict:
    """Full / faithful / embedding flags via the restricted hom maps."""
    C, D = F.src, F.tgt
    full = True
    faithful = True
    for a in C.objects:
        for b in C.objects:
            image = [F.on_arr[n] for n in C.hom(a, b)]
            if len(set(image)) < len(image):
                faithful = False
            if not set(D.hom(F.on_obj[a], F.on_obj[b])) <= set(image):
                full = False
    monic_obj = len(set(F.on_obj.values())) == len(F.on_obj)
    return {"full": full, "faithful": faithful, "embedding": faithful and monic_obj}


def enumerate_functors(C: FinCat, D: FinCat, guard: int = 200000) -> list:
    """All functors C → D, in a deterministic order."""
    objs = list(C.objects)
    ids = set(C.identity.values())
    arrs = [n for n in C.arrow_names if n not in ids]
    total = len(D.objects) ** max(len(objs), 1)
    if total > guard:
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


def cats_isomorphic(C: FinCat, D: FinCat, guard: int = 200000) -> bool:
    """Exhaustive isomorphism search: a functor bijective on objects and
    arrows has a functorial inverse on finite data."""
    if len(C.objects) != len(D.objects) or len(C.arrows) != len(D.arrows):
        return False
    for F in enumerate_functors(C, D, guard=guard):
        obj_bij = len(set(F.on_obj.values())) == len(F.on_obj)
        arr_bij = len(set(F.on_arr.values())) == len(F.on_arr)
        if obj_bij and arr_bij:
            return True
    return len(C.arrows) == 0 and len(C.objects) == 0


# ---------------------------------------------------------------------------
# opposites and variance


def opposite_cat(C: FinCat) -> FinCat:
    """Same arrow names, reversed endpoints; comp(f, g) := (g∘f)."""
    arrows = [(n, C.tgt[n], C.src[n]) for n in C.arrow_names]
    comp = {(f, g): v for (g, f), v in C.comp.items()}
    return FinCat(C.objects, arrows, dict(C.identity), comp)


def opposite_functor(F: FunctorData) -> FunctorData:
    return FunctorData(
        opposite_cat(F.src), opposite_cat(F.tgt), dict(F.on_obj), dict(F.on_arr)
    )


def op_universe_check(cats, functors=()) -> LawReport:
    """op is an involution and distributes over functor composition."""
    r = LawReport("op-universe")
    bad = next(
        ((i,) for i, C in enumerate(cats) if not check_category(opposite_cat(C)).passed),
        None,
    )
    r.add("op-category", "the opposite of a category is a category", bad is None, bad)
    bad = next(((i,) for i, C in enumerate(cats) if opposite_cat(opposite_cat(C)) != C), None)
    r.add("op-involution", "taking the opposite twice restores the category", bad is None, bad)
    functors = list(functors)
    bad = next(
        (
            (i,)
            for i, F in enumerate(functors)
            if not check_functor(opposite_functor(F)).passed
        ),
        None,
    )
    r.add("op-functor", "the opposite of a functor is a functor", bad is None, bad)
    bad = None
    for i, F in enumerate(functors):
        for j, G in enumerate(functors):
            if F.tgt == G.src:
                lhs = opposite_functor(compose_functors(G, F))
                rhs = compose_functors(opposite_functor(G), opposite_functor(F))
                if lhs != rhs:
                    bad = (i, j)
                    break
        if bad:
            break
    r.add("op-distributes", "op(G∘F) = op G ∘ op F", bad is None, bad)
    return r


def check_contravariant(F: FunctorData) -> LawReport:
    """The reversed laws: endpoints flip and composition reverses."""
    r = LawReport("contravariant-functor")
    C, D = F.src, F.tgt
    ok = set(F.on_obj) == set(C.objects) and set(F.on_arr) == set(C.arrow_names)
    r.add("cfun-total", "both component functions are total", ok)
    if not ok:
        return r
    bad = next(
        (
            (n,)
            for n in C.arrow_names
            if D.src[F.on_arr[n]] != F.on_obj[C.tgt[n]]
            or D.tgt[F.on_arr[n]] != F.on_obj[C.src[n]]
        ),
        None,
    )
    r.add("cfun-endpoints", "arrows swap their endpoints", bad is None, bad)
    bad = next(
        ((x,) for x in C.objects if F.on_arr[C.identity[x]] != D.identity[F.on_obj[x]]),
        None,
    )
    r.add("cfun-unit", "unit arrows map to unit arrows", bad is None, bad)
    bad = next(
        (
            (g, f)
            for (g, f), v in sorted(C.comp.items())
            if D.comp.get((F.on_arr[f], F.on_arr[g])) != F.on_arr[v]
        ),
        None,
    )
    r.add("cfun-anticomp", "F(g∘f) = F f ∘ F g", bad is None, bad)
    return r


def variance_convert(F: FunctorData) -> FunctorData:
    """Swap variance by replacing the target with its opposite. A
    contravariant functor into D becomes covariant into D^op and back;
    the conversion is an involution."""
    co = check_functor(F).passed
    contra = check_contravariant(F).passed
    if not co and not contra:
        bad = check_functor(F).failures[0]
        raise VarianceError(
            "input is neither covariant nor contravariant", witness=bad.witness
        )
    out = FunctorData(F.src, opposite_cat(F.tgt), dict(F.on_obj), dict(F.on_arr))
    if contra and not co:
        check_functor(out).require()
    if co and not contra:
        check_contravariant(out).require()
    return out


# ---------------------------------------------------------------------------
# products


def _pair_name(l, r):
    return "(%s,%s)" % (l, r)


def product_cat(C1: FinCat, C2: FinCat) -> FinCat:
    objects = [_pair_name(x, y) for x in C1.objects for y in C2.objects]
    obj_pairs = {
        _pair_name(x, y): (x, y) for x in C1.objects for y in C2.objects
    }
    arrows = []
    arr_pairs = {}
    for f in C1.arrow_names:
        for g in C2.arrow_names:
            n = _pair_name(f, g)
            arrows.append((n, _pair_name(C1.src[f], C2.src[g]), _pair_name(C1.tgt[f], C2.tgt[g])))
            arr_pairs[n] = (f, g)
    identity = {
        _pair_name(x, y): _pair_name(C1.identity[x], C2.identity[y])
        for x in C1.objects
        for y in C2.objects
    }
    comp = {}
    for (g1, f1), v1 in C1.comp.items():
        for (g2, f2), v2 in C2.comp.items():
            comp[(_pair_name(g1, g2), _pair_name(f1, f2))] = _pair_name(v1, v2)
    P = FinCat(
        FinSet(objects),
        arrows,
        identity,
        comp,
        meta={"product_of": (C1, C2), "obj_pairs": obj_pairs, "arr_pairs": arr_pairs},
    )
    _require_cat(P)
    return P


def pair_functor(F: FunctorData, G: FunctorData) -> FunctorData:
    """⟨F, G⟩ : C → D1 × D2 for functors of common domain."""
    if F.src != G.src:
        raise Mismatch("pair functor needs a common source")
    P = product_cat(F.tgt, G.tgt)
    out = FunctorData(
        F.src,
        P,
        {x: _pair_name(F.on_obj[x], G.on_obj[x]) for x in F.src.objects},
        {n: _pair_name(F.on_arr[n], G.on_arr[n]) for n in F.src.arrow_names},
    )
    check_functor(out).require()
    return out


def unpair_functor(F: FunctorData):
    """Split a functor into a product category into its components."""
    meta = F.tgt.meta
    if "product_of" not in meta:
        raise NotProduct("target category carries no product structure")
    D1, D2 = meta["product_of"]
    obj_pairs, arr_pairs = meta["obj_pairs"], meta["arr_pairs"]
    f = FunctorData(
        F.src,
        D1,
        {x: obj_pairs[F.on_obj[x]][0] for x in F.src.objects},
        {n: arr_pairs[F.on_arr[n]][0] for n in F.src.arrow_names},
    )
    g = FunctorData(
        F.src,
        D2,
        {x: obj_pairs[F.on_obj[x]][1] for x in F.src.objects},
        {n: arr_pairs[F.on_arr[n]][1] for n in F.src.arrow_names},
    )
    check_functor(f).require()
    check_functor(g).require()
    return f, g


def common_range_product(F: FunctorData, G: FunctorData) -> FunctorData:
    """F × G : C1 × C2 → D × D for functors of common range."""
    if F.tgt != G.tgt:
        raise Mismatch("common-range product needs a common target")
    src = product_cat(F.src, G.src)
    tgt = product_cat(F.tgt, G.tgt)
    pairs = src.meta["obj_pairs"]
    arrs = src.meta["arr_pairs"]
    out = FunctorData(
        src,
        tgt,
        {
            n: _pair_name(F.on_obj[pairs[n][0]], G.on_obj[pairs[n][1]])
            for n in src.objects
        },
        {
            n: _pair_name(F.on_arr[arrs[n][0]], G.on_arr[arrs[n][1]])
            for n in src.arrow_names
        },
    )
    check_functor(out).require()
    return out


# ---------------------------------------------------------------------------
# set-valued functors


@dataclass(frozen=True)
class SetRepr:
    """A Set-valued functor given by actual finite sets and maps."""

    src: FinCat
    on_obj: dict  # object -> FinSet
    on_arr: dict  # arrow name -> FinMap
    variance: str = "co"


def check_set_functor(S: SetRepr) -> LawReport:
    r = LawReport("set-functor")
    C = S.src
    ok = set(S.on_obj) == set(C.objects) and set(S.on_arr) == set(C.arrow_names)
    r.add("sr-total", "both component functions are total", ok)
    if not ok:
        return r
    if S.variance == "co":
        bad = next(
            (
                (n,)
                for n in C.arrow_names
                if S.on_arr[n].dom != S.on_obj[C.src[n]]
                or S.on_arr[n].cod != S.on_obj[C.tgt[n]]
            ),
            None,
        )
    else:
        bad = next(
            (
                (n,)
                for n in C.arrow_names
                if S.on_arr[n].dom != S.on_obj[C.tgt[n]]
                or S.on_arr[n].cod != S.on_obj[C.src[n]]
            ),
            None,
        )
    r.add("sr-endpoints", "arrow images connect the right carriers", bad is None, bad)
    bad = next(
        (
            (x,)
            for x in C.objects
            if S.on_arr[C.identity[x]] != FinMap.identity(S.on_obj[x])
        ),
        None,
    )
    r.add("sr-unit", "unit arrows become identity maps", bad is None, bad)
    if S.variance == "co":
        bad = next(
            (
                (g, f)
                for (g, f), v in sorted(C.comp.items())
                if compose(S.on_arr[g], S.on_arr[f]) != S.on_arr[v]
            ),
            None,
        )
        r.add("sr-comp", "F(g∘f) = F g ∘ F f as set maps", bad is None, bad)
    else:
        bad = next(
            (
                (g, f)
                for (g, f), v in sorted(C.comp.items())
                if compose(S.on_arr[f], S.on_arr[g]) != S.on_arr[v]
            ),
            None,
        )
        r.add("sr-comp", "F(g∘f) = F f ∘ F g as set maps", bad is None, bad)
    return r


# ---------------------------------------------------------------------------
# bridges and natural transformations


@dataclass(frozen=True)
class NatTransData:
    """A bridge between parallel functors. ``F``/``G`` are FunctorData
    or SetRepr; components are arrow names or FinMaps accordingly."""

    F: object
    G: object
    component: dict


def _is_set_valued(F) -> bool:
    return isinstance(F, SetRepr)


def identity_nat(F) -> NatTransData:
    if _is_set_valued(F):
        comp = {x: FinMap.identity(F.on_obj[x]) for x in F.src.objects}
    else:
        comp = {x: F.tgt.identity[F.on_obj[x]] for x in F.src.objects}
    return NatTransData(F, F, comp)


def bridge_check(tau: dict, F, G) -> dict:
    """``is_bridge``: every component connects F a to G a. ``is_natural``:
    every naturality square commutes. A component that is not an arrow
    of the target at all raises ``EndpointError``."""
    C = F.src
    if C != G.src:
        raise Mismatch("bridge needs parallel functors")
    setv = _is_set_valued(F)
    if set(tau) != set(C.objects):
        raise EndpointError("components must be indexed by exactly the objects")
    if setv:
        for a, m in tau.items():
            if not isinstance(m, FinMap):
                raise EndpointError("component is not a set map", witness=(a,))
        is_bridge = all(
            tau[a].dom == F.on_obj[a] and tau[a].cod == G.on_obj[a] for a in C.objects
        )
        is_natural = is_bridge and all(
            compose(tau[C.tgt[f]], F.on_arr[f]) == compose(G.on_arr[f], tau[C.src[f]])
            for f in C.arrow_names
        )
    else:
        D = F.tgt
        if D != G.tgt:
            raise Mismatch("bridge needs parallel functors")
        for a, m in tau.items():
            if m not in D.src:
                raise EndpointError("component is not an arrow of the target", witness=(a, m))
        is_bridge = all(
            D.src[tau[a]] == F.on_obj[a] and D.tgt[tau[a]] == G.on_obj[a]
            for a in C.objects
        )
        is_natural = is_bridge and all(
            D.comp.get((tau[C.tgt[f]], F.on_arr[f]))
            == D.comp.get((G.on_arr[f], tau[C.src[f]]))
            for f in C.arrow_names
        )
    return {"is_bridge": is_bridge, "is_natural": is_natural}


def check_nat(n: NatTransData) -> LawReport:
    r = LawReport("natural-transformation")
    flags = bridge_check(n.component, n.F, n.G)
    r.add("nt-bridge", "each component runs from F a to G a", flags["is_bridge"])
    r.add("nt-natural", "every naturality square commutes", flags["is_natural"])
    return r


def bridge_category(tau: dict, F: FunctorData, G: FunctorData) -> FinCat:
    """The category whose objects are the component arrows and whose
    arrows are images of the source arrows; composition is inherited."""
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
    # component collisions may create composable pairs with no source
    # counterpart; the structure is then not a category
    names = [n for n, _, _ in arrows]
    srcs = {n: tau[C.src[f]] for n, f in zip(names, C.arrow_names)}
    tgts = {n: tau[C.tgt[f]] for n, f in zip(names, C.arrow_names)}
    for g in names:
        for f in names:
            if tgts[f] == srcs[g] and (g, f) not in comp:
                raise BadStructure(
                    "component collision leaves composition undefined", witness=(g, f)
                )
    cat = FinCat(objects, arrows, identity, comp)
    _require_cat(cat)
    T = FunctorData(
        C, cat, dict(tau), {f: "t(%s)" % f for f in C.arrow_names}
    )
    check_functor(T).require()
    return FinCat(objects, arrows, identity, comp, meta={"functor": T})


def vcompose(sigma: NatTransData, tau: NatTransData) -> NatTransData:
    """σ·τ for τ: F→G, σ: G→H."""
    if sigma.F != tau.G:
        raise Mismatch("vertical composition needs matching middle functor")
    if _is_set_valued(tau.F):
        comp = {
            x: compose(sigma.component[x], tau.component[x])
            for x in tau.F.src.objects
        }
    else:
        D = tau.F.tgt
        comp = {
            x: D.compose(sigma.component[x], tau.component[x])
            for x in tau.F.src.objects
        }
    return NatTransData(tau.F, sigma.G, comp)


def enumerate_nat_trans(F, G) -> list:
    """All natural transformations F → G, deterministically ordered."""
    C = F.src
    if C != G.src:
        raise Mismatch("parallel functors required")
    objs = sorted(C.objects)
    if _is_set_valued(F):
        from .core import all_maps

        out = []

        def backtrack(i, comp):
            if i == len(objs):
                n = NatTransData(F, G, dict(comp))
                if check_nat(n).passed:
                    out.append(n)
                return
            x = objs[i]
            for m in all_maps(F.on_obj[x], G.on_obj[x]):
                comp[x] = m
                if _nat_partial_ok(F, G, comp):
                    backtrack(i + 1, comp)
                del comp[x]

        backtrack(0, {})
        return out
    D = F.tgt
    choices = [D.hom(F.on_obj[x], G.on_obj[x]) for x in objs]
    out = []
    for values in itertools.product(*choices):
        comp = dict(zip(objs, values))
        n = NatTransData(F, G, comp)
        if bridge_check(comp, F, G)["is_natural"]:
            out.append(n)
    return out


def _nat_partial_ok(F, G, comp) -> bool:
    C = F.src
    for f in C.arrow_names:
        a, b = C.src[f], C.tgt[f]
        if a in comp and b in comp:
            if compose(comp[b], F.on_arr[f]) != compose(G.on_arr[f], comp[a]):
                return False
    return True


def functor_category(C: FinCat, D: FinCat) -> FinCat:
    """Cat(C, D): functors as objects, natural transformations as
    arrows, vertical composition as the operation."""
    funs = enumerate_functors(C, D)
    funs.sort(key=lambda F: (sorted(F.on_obj.items()), sorted(F.on_arr.items())))
    fname = {}
    for i, F in enumerate(funs):
        fname[i] = "F%d" % i
    by_fun = {i: funs[i] for i in range(len(funs))}
    nats = []
    for i, F in enumerate(funs):
        for j, G in enumerate(funs):
            for n in enumerate_nat_trans(F, G):
                nats.append((i, j, n))
    nats.sort(key=lambda t: (t[0], t[1], sorted(t[2].component.items())))
    arrows = []
    nat_name = {}
    nat_by_name = {}
    for k, (i, j, n) in enumerate(nats):
        name = "t%d" % k
        arrows.append((name, fname[i], fname[j]))
        nat_name[(i, j, tuple(sorted(n.component.items())))] = name
        nat_by_name[name] = n
    identity = {}
    for i, F in enumerate(funs):
        idn = identity_nat(F)
        identity[fname[i]] = nat_name[(i, i, tuple(sorted(idn.component.items())))]
    comp = {}
    for k2, (i2, j2, n2) in enumerate(nats):
        for k1, (i1, j1, n1) in enumerate(nats):
            if j1 == i2:
                v = vcompose(n2, n1)
                comp[("t%d" % k2, "t%d" % k1)] = nat_name[
                    (i1, j2, tuple(sorted(v.component.items())))
                ]
    cat = FinCat(
        FinSet(fname.values()),
        arrows,
        identity,
        comp,
        meta={
            "functors": {fname[i]: by_fun[i] for i in by_fun},
            "nats": nat_by_name,
            "src": C,
            "tgt": D,
        },
    )
    _require_cat(cat)
    return cat


def hcompose(alpha: NatTransData, tau: NatTransData) -> NatTransData:
    """α∘τ for τ: F→G in Cat(C,D) and α: J→K in Cat(D,E), by the formula
    (α∘τ)_x = α_{Gx} ∘ J τ_x. The other defining formula, K τ_x ∘ α_{Fx},
    is compared with it by the interchange suite's ``ic-volume`` law."""
    F, G = tau.F, tau.G
    J, K = alpha.F, alpha.G
    if F.tgt != J.src:
        raise Mismatch("horizontal composition needs matching middle category")
    E = J.tgt
    comp = {
        x: E.compose(alpha.component[G.on_obj[x]], J.on_arr[tau.component[x]])
        for x in F.src.objects
    }
    return NatTransData(compose_functors(J, F), compose_functors(K, G), comp)


def interchange_check(
    alpha: NatTransData,
    beta: NatTransData,
    sigma: NatTransData,
    tau: NatTransData,
) -> LawReport:
    """(β·α)∘(σ·τ) = (β∘σ)·(α∘τ) on a 2×2 grid: τ: F→G, σ: G→H in
    Cat(C,D); α: J→K, β: K→L in Cat(D,E)."""
    r = LawReport("interchange")
    lhs = hcompose(vcompose(beta, alpha), vcompose(sigma, tau))
    rhs = vcompose(hcompose(beta, sigma), hcompose(alpha, tau))
    r.add(
        "ic-interchange",
        "vertical-then-horizontal equals horizontal-then-vertical",
        lhs == rhs,
    )
    return r


def composition_functor(C: FinCat, D: FinCat, E: FinCat) -> FunctorData:
    """The functor Cat(C,D) × Cat(D,E) → Cat(C,E) given by composition
    of functors and horizontal composition of transformations."""
    CD = functor_category(C, D)
    DE = functor_category(D, E)
    CE = functor_category(C, E)
    P = product_cat(CD, DE)
    ce_fun_name = {}
    for name, F in CE.meta["functors"].items():
        ce_fun_name[(tuple(sorted(F.on_obj.items())), tuple(sorted(F.on_arr.items())))] = name
    ce_nat_name = {}
    for name in CE.arrow_names:
        n = CE.meta["nats"][name]
        ce_nat_name[
            (CE.src[name], CE.tgt[name], tuple(sorted(n.component.items())))
        ] = name

    def fun_of(pair_obj):
        a, b = P.meta["obj_pairs"][pair_obj]
        return CD.meta["functors"][a], DE.meta["functors"][b]

    on_obj = {}
    for o in P.objects:
        F, G = fun_of(o)
        GF = compose_functors(G, F)
        on_obj[o] = ce_fun_name[
            (tuple(sorted(GF.on_obj.items())), tuple(sorted(GF.on_arr.items())))
        ]
    on_arr = {}
    for n in P.arrow_names:
        t_cd, t_de = P.meta["arr_pairs"][n]
        tau = CD.meta["nats"][t_cd]
        alpha = DE.meta["nats"][t_de]
        h = hcompose(alpha, tau)
        on_arr[n] = ce_nat_name[
            (
                on_obj[P.src[n]],
                on_obj[P.tgt[n]],
                tuple(sorted(h.component.items())),
            )
        ]
    out = FunctorData(P, CE, on_obj, on_arr)
    check_functor(out).require()
    return out


# ---------------------------------------------------------------------------
# hom functors and the hom bifunctor


def hom_set(C: FinCat, a, b) -> FinSet:
    return FinSet(C.hom(a, b))


def hom_functors(C: FinCat, x):
    """(L_x, R_x): the covariant functor a ↦ {x→a} with f ↦ (f∘−), and
    the contravariant functor a ↦ {a→x} with f ↦ (−∘f)."""
    if x not in C.objects:
        raise CarrierMismatch("unknown object", witness=(x,))
    L = SetRepr(
        C,
        {a: hom_set(C, x, a) for a in C.objects},
        {
            f: FinMap(
                hom_set(C, x, C.src[f]),
                hom_set(C, x, C.tgt[f]),
                {h: C.comp[(f, h)] for h in C.hom(x, C.src[f])},
            )
            for f in C.arrow_names
        },
        variance="co",
    )
    R = SetRepr(
        C,
        {a: hom_set(C, a, x) for a in C.objects},
        {
            f: FinMap(
                hom_set(C, C.tgt[f], x),
                hom_set(C, C.src[f], x),
                {h: C.comp[(h, f)] for h in C.hom(C.tgt[f], x)},
            )
            for f in C.arrow_names
        },
        variance="contra",
    )
    check_set_functor(L).require()
    check_set_functor(R).require()
    return L, R


# ---------------------------------------------------------------------------
# bifunctors


@dataclass(frozen=True)
class BifunctorData:
    """Contravariant in the first slot, covariant in the second. When
    ``tgt`` is None the values are FinSets and FinMaps (Set-valued)."""

    src1: FinCat
    src2: FinCat
    tgt: FinCat | None
    on_obj: dict  # (a, b) -> object / FinSet
    on_arr: dict  # (f, g) -> arrow / FinMap


def _bf_id(B: BifunctorData, v):
    if B.tgt is None:
        return FinMap.identity(v)
    return B.tgt.identity[v]


def _bf_compose(B: BifunctorData, m2, m1):
    if B.tgt is None:
        return compose(m2, m1)
    return B.tgt.compose(m2, m1)


def _bf_endpoints(B: BifunctorData, m):
    if B.tgt is None:
        return m.dom, m.cod
    return B.tgt.src[m], B.tgt.tgt[m]


def bifunctor_check(B: BifunctorData) -> LawReport:
    r = LawReport("bifunctor")
    C1, C2 = B.src1, B.src2
    ok = set(B.on_obj) == {(a, b) for a in C1.objects for b in C2.objects} and set(
        B.on_arr
    ) == {(f, g) for f in C1.arrow_names for g in C2.arrow_names}
    r.add("bf-total", "object and arrow functions cover all pairs", ok)
    if not ok:
        return r
    bad = next(
        (
            (a, b)
            for a in C1.objects
            for b in C2.objects
            if B.on_arr[(C1.identity[a], C2.identity[b])] != _bf_id(B, B.on_obj[(a, b)])
        ),
        None,
    )
    r.add("bf-unit", "B(1a, 1b) is the identity of B(a, b)", bad is None, bad)
    bad = None
    for f in C1.arrow_names:
        for g in C2.arrow_names:
            dom, cod = _bf_endpoints(B, B.on_arr[(f, g)])
            if dom != B.on_obj[(C1.tgt[f], C2.src[g])] or cod != B.on_obj[
                (C1.src[f], C2.tgt[g])
            ]:
                bad = (f, g)
                break
        if bad:
            break
    r.add(
        "bf-endpoints",
        "B(f, g) runs from B(c, b) to B(a, d) for f: a→c, g: b→d",
        bad is None,
        bad,
    )
    bad = None
    for (h, f), hf in sorted(C1.comp.items()):
        for (i, g), ig in sorted(C2.comp.items()):
            lhs = B.on_arr[(hf, ig)]
            rhs = _bf_compose(B, B.on_arr[(f, i)], B.on_arr[(h, g)])
            if lhs != rhs:
                bad = (h, f, i, g)
                break
        if bad:
            break
    r.add("bf-comp", "B(h∘f, i∘g) = B(f, i) ∘ B(h, g)", bad is None, bad)
    bad = None
    for f in C1.arrow_names:
        for g in C2.arrow_names:
            a, c = C1.src[f], C1.tgt[f]
            b, d = C2.src[g], C2.tgt[g]
            left = _bf_compose(
                B, B.on_arr[(f, C2.identity[d])], B.on_arr[(C1.identity[c], g)]
            )
            right = _bf_compose(
                B, B.on_arr[(C1.identity[a], g)], B.on_arr[(f, C2.identity[b])]
            )
            if left != B.on_arr[(f, g)] or right != B.on_arr[(f, g)]:
                bad = (f, g)
                break
        if bad:
            break
    r.add(
        "bf-slices",
        "B(f, g) factors through the one-sided slices in either order",
        bad is None,
        bad,
    )
    return r


def hom_bifunctor(C: FinCat) -> BifunctorData:
    """Hom: C × C → Set, (a, b) ↦ {a→b}, (f, g) ↦ (g ∘ − ∘ f)."""
    on_obj = {(a, b): hom_set(C, a, b) for a in C.objects for b in C.objects}
    on_arr = {}
    for f in C.arrow_names:
        for g in C.arrow_names:
            dom = on_obj[(C.tgt[f], C.src[g])]
            cod = on_obj[(C.src[f], C.tgt[g])]
            on_arr[(f, g)] = FinMap(
                dom, cod, {h: C.comp[(C.comp[(g, h)], f)] for h in dom}
            )
    B = BifunctorData(C, C, None, on_obj, on_arr)
    bifunctor_check(B).require()
    return B


def bifunctor_functor_bridge(B: BifunctorData):
    """The covariant functor on C1^op × C2 that carries the same data.
    Returns a SetRepr for Set-valued bifunctors, FunctorData otherwise."""
    P = product_cat(opposite_cat(B.src1), B.src2)
    pairs = P.meta["obj_pairs"]
    arrs = P.meta["arr_pairs"]
    on_obj = {n: B.on_obj[pairs[n]] for n in P.objects}
    on_arr = {n: B.on_arr[arrs[n]] for n in P.arrow_names}
    if B.tgt is None:
        out = SetRepr(P, on_obj, on_arr, variance="co")
        check_set_functor(out).require()
    else:
        out = FunctorData(P, B.tgt, on_obj, on_arr)
        check_functor(out).require()
    return out


def functor_to_bifunctor(F, C1: FinCat, C2: FinCat) -> BifunctorData:
    """Inverse of the bridge: read a functor on C1^op × C2 back as a
    bifunctor C1 × C2 → target."""
    pairs = F.src.meta.get("obj_pairs")
    arrs = F.src.meta.get("arr_pairs")
    if pairs is None:
        raise NotProduct("source category carries no product structure")
    tgt = None if _is_set_valued(F) else F.tgt
    on_obj = {pairs[n]: F.on_obj[n] for n in F.src.objects}
    on_arr = {arrs[n]: F.on_arr[n] for n in F.src.arrow_names}
    B = BifunctorData(C1, C2, tgt, on_obj, on_arr)
    bifunctor_check(B).require()
    return B


def bifunctor_decompose(B: BifunctorData):
    """For a bifunctor into a product D1 × D2: the component bifunctors
    (p, q); pairing them back recovers B."""
    if B.tgt is None or "product_of" not in B.tgt.meta:
        raise NotProduct("target is not a product category")
    D1, D2 = B.tgt.meta["product_of"]
    obj_pairs = B.tgt.meta["obj_pairs"]
    arr_pairs = B.tgt.meta["arr_pairs"]
    p = BifunctorData(
        B.src1,
        B.src2,
        D1,
        {k: obj_pairs[v][0] for k, v in B.on_obj.items()},
        {k: arr_pairs[v][0] for k, v in B.on_arr.items()},
    )
    q = BifunctorData(
        B.src1,
        B.src2,
        D2,
        {k: obj_pairs[v][1] for k, v in B.on_obj.items()},
        {k: arr_pairs[v][1] for k, v in B.on_arr.items()},
    )
    bifunctor_check(p).require()
    bifunctor_check(q).require()
    return p, q


def slice_nat(B: BifunctorData, f) -> NatTransData:
    """Slicing a bifunctor at f: a→c in the first category gives a
    natural transformation B_c → B_a with components B(f, 1_x)."""
    C1, C2 = B.src1, B.src2
    if f not in C1.src:
        raise CarrierMismatch("unknown arrow", witness=(f,))
    a, c = C1.src[f], C1.tgt[f]

    def partial(z):
        on_obj = {y: B.on_obj[(z, y)] for y in C2.objects}
        on_arr = {g: B.on_arr[(C1.identity[z], g)] for g in C2.arrow_names}
        if B.tgt is None:
            S = SetRepr(C2, on_obj, on_arr, variance="co")
            check_set_functor(S).require()
            return S
        F = FunctorData(C2, B.tgt, on_obj, on_arr)
        check_functor(F).require()
        return F

    Fc, Fa = partial(c), partial(a)
    comps = {y: B.on_arr[(f, C2.identity[y])] for y in C2.objects}
    out = NatTransData(Fc, Fa, comps)
    check_nat(out).require()
    return out


def assemble_functor(C1: FinCat, C2: FinCat, Lfam: dict, Rfam: dict) -> SetRepr:
    """Build the product functor from compatible one-sided families:
    R_x over C2 for each object x of C1, L_y over C1 for each object y
    of C2, agreeing on objects and satisfying the commuting condition
    L_d f ∘ R_a g = R_c g ∘ L_b f."""
    for x in C1.objects:
        if x not in Rfam:
            raise IncompatibleFamilies("missing right family member", witness=(x,))
    for y in C2.objects:
        if y not in Lfam:
            raise IncompatibleFamilies("missing left family member", witness=(y,))
    for x in C1.objects:
        for y in C2.objects:
            if Rfam[x].on_obj[y] != Lfam[y].on_obj[x]:
                raise IncompatibleFamilies(
                    "families disagree on an object pair", witness=(x, y)
                )
    for f in C1.arrow_names:
        a, d = C1.src[f], C1.tgt[f]
        for g in C2.arrow_names:
            b, c = C2.src[g], C2.tgt[g]
            lhs = compose(Lfam[c].on_arr[f], Rfam[a].on_arr[g])
            rhs = compose(Rfam[d].on_arr[g], Lfam[b].on_arr[f])
            if lhs != rhs:
                raise IncompatibleFamilies(
                    "the commuting condition fails", witness=(f, g)
                )
    P = product_cat(C1, C2)
    pairs = P.meta["obj_pairs"]
    arrs = P.meta["arr_pairs"]
    on_obj = {n: Rfam[pairs[n][0]].on_obj[pairs[n][1]] for n in P.objects}
    on_arr = {}
    for n in P.arrow_names:
        f, g = arrs[n]
        a = C1.src[f]
        d = C1.tgt[f]
        c = C2.tgt[g]
        on_arr[n] = compose(Lfam[c].on_arr[f], Rfam[a].on_arr[g])
    out = SetRepr(P, on_obj, on_arr, variance="co")
    check_set_functor(out).require()
    return out


# ---------------------------------------------------------------------------
# Yoneda


def dagger(C: FinCat, f) -> NatTransData:
    """f†: L_c → L_a for f: a→c, with components h ↦ h∘f."""
    a, c = C.src[f], C.tgt[f]
    La, _ = hom_functors(C, a)
    Lc, _ = hom_functors(C, c)
    comps = {
        x: FinMap(
            hom_set(C, c, x),
            hom_set(C, a, x),
            {h: C.comp[(h, f)] for h in C.hom(c, x)},
        )
        for x in C.objects
    }
    out = NatTransData(Lc, La, comps)
    check_nat(out).require()
    return out


def yoneda(C: FinCat, a, F: SetRepr) -> dict:
    """Nat(L_a, F) enumerated exhaustively, with φ(τ) = τ_a(1_a). The
    Yoneda suite's ``yo-count`` laws check that φ is a bijection onto
    F a with inverse x ↦ τ_x, where τ_x c(f) = F f(x)."""
    if F.variance != "co":
        raise VarianceError("the Yoneda lemma here takes a covariant functor")
    La, _ = hom_functors(C, a)
    nat_set = enumerate_nat_trans(La, F)
    names = FinSet("n%d" % i for i in range(len(nat_set)))
    by_name = {"n%d" % i: n for i, n in enumerate(nat_set)}
    one = C.identity[a]
    phi = FinMap(
        names,
        F.on_obj[a],
        {name: by_name[name].component[a](one) for name in names},
    )
    return {"nat_set": nat_set, "phi": phi, "by_name": by_name}


def yoneda_embedding(C: FinCat) -> LawReport:
    """f ↦ f† is a bijection Hom(b, a) → Nat(L_a, L_b) for every pair:
    the embedding into the functor category is full and faithful."""
    r = LawReport("yoneda-embedding")
    bad_faithful = None
    bad_full = None
    for a in C.objects:
        La, _ = hom_functors(C, a)
        for b in C.objects:
            Lb, _ = hom_functors(C, b)
            daggers = {f: dagger(C, f) for f in C.hom(b, a)}
            seen = list(daggers.values())
            if any(
                seen[i] == seen[j]
                for i in range(len(seen))
                for j in range(i + 1, len(seen))
            ):
                bad_faithful = bad_faithful or (a, b)
            nat = enumerate_nat_trans(La, Lb)
            if not all(any(n == d for d in seen) for n in nat) or len(nat) != len(seen):
                bad_full = bad_full or (a, b)
    r.add(
        "ye-faithful",
        "distinct arrows give distinct transformations",
        bad_faithful is None,
        bad_faithful,
    )
    r.add(
        "ye-full",
        "every transformation L_a → L_b comes from an arrow b → a",
        bad_full is None,
        bad_full,
    )
    return r


def cayley(G) -> "GroupHom":
    """Cayley's theorem through the hom functor of the one-object
    category: L_e sends each element to left translation, and those
    translations form an isomorphic transformation group."""
    from .group import _perm_name, check_group, hom_check

    C = from_group(G)
    obj = next(iter(C.objects))
    L, _ = hom_functors(C, obj)
    perms = {g: L.on_arr[g] for g in G.carrier}
    names = {g: _perm_name(perms[g].assign) for g in G.carrier}
    img_names = FinSet(names.values())
    by_name = {names[g]: perms[g] for g in G.carrier}
    table = {
        (p, q): _perm_name(compose(by_name[p], by_name[q]).assign)
        for p in img_names
        for q in img_names
    }
    img = check_group(table, img_names)
    return hom_check(G, img, FinMap(G.carrier, img_names, names))


def compare_representations(C: FinCat, F: SetRepr, rep1, rep2):
    """Two representations (x, β) and (y, γ) of F are linked by a unique
    isomorphism f: x→y with γ = β · f†; this returns the first arrow
    in hom order with γ = β · f†."""
    x, beta = rep1
    y, gamma = rep2
    for z, nt in ((x, beta), (y, gamma)):
        if not check_nat(nt).passed:
            raise BadStructure("not a representation: transformation is not natural", witness=(z,))
        if not all(classify(m)["bijective"] for m in nt.component.values()):
            raise BadStructure(
                "not a representation: a component is not bijective", witness=(z,)
            )
    for f in C.hom(x, y):
        d = dagger(C, f)
        composed = {
            c: compose(beta.component[c], d.component[c]) for c in C.objects
        }
        if composed == dict(gamma.component):
            return f
    raise NotIsomorphicRepresentations("no arrow links the representations")


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
    cat = FinCat(
        FinSet(objs),
        arrows,
        identity,
        comp,
        meta={"objects": obj_data, "squares": arr_data},
    )
    return _require_cat(cat)
