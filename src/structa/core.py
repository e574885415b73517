"""Finite sets and total functions: the substrate for every other module.

Symbols are plain text tokens. A ``FinSet`` is a canonically ordered,
duplicate-free collection of symbols; a ``FinMap`` is a total function
between two such sets. Everything is immutable and compared
extensionally: two maps are equal when domain, codomain and assignment
coincide.

Public constructors validate: ``FinSet(...)`` checks every symbol and
``FinMap(...)`` checks totality and codomain membership. Sets derived
inside the library (intersections, differences, unions of sets, subsets,
images, preimages, fibers, bounds) are built from members of sets and
values of maps that were validated when those were built, so they skip
the symbol check and the sort through ``FinSet._ordered``.

The hot subset laws run on bit masks (Knuth, TAOCP Vol. 4A, §7.1.3).
A carrier numbers its elements in canonical order, so a subset of it is
an ``int``: ⊆ is ``a & ~b == 0``, ∩ is ``&`` and ∪ is ``|``. Each set
builds its element-to-bit index on first use and keeps it for its own
lifetime; ``mask_of`` and ``set_of`` convert between the two forms, and
a ``FinSet`` is built only where a witness or a result needs one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BadStructure,
    CarrierMismatch,
    CompositionMismatch,
    EmptyFold,
    EmptyMember,
    NotBijective,
    NotMonic,
    NotOnto,
)
from .report import LawReport

Symbol = str


def check_symbol(s) -> str:
    # str.split() splits on exactly the characters for which isspace()
    # holds, so this accepts the nonempty strings without whitespace
    if not (isinstance(s, str) and s.split() == [s]):
        raise ValueError("symbol must be a nonempty token without whitespace: %r" % (s,))
    # a lone surrogate (JSON "\ud800") has no UTF-8 encoding, so no output could name it
    if not s.isascii():
        try:
            s.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("symbol is not UTF-8 encodable: %r" % (s,)) from None
    return s


class FinSet:
    """An ordered, duplicate-free finite set of symbols."""

    __slots__ = ("elements", "_bit")

    def __init__(self, elements=()):
        elems = sorted({check_symbol(e) for e in elements})
        object.__setattr__(self, "elements", tuple(elems))

    @classmethod
    def _ordered(cls, elems: tuple) -> "FinSet":
        """The set whose canonical element tuple is ``elems``, unchecked.

        The caller guarantees that ``elems`` is a tuple, sorted, without
        duplicates, and made only of checked symbols: members of a
        ``FinSet`` or values of a ``FinMap``."""
        s = object.__new__(cls)
        _set_elements(s, elems)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("FinSet is immutable")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        try:
            return x in self.bits()
        except TypeError:  # unhashable, so no symbol
            return False

    def __eq__(self, other):
        return isinstance(other, FinSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __le__(self, other):
        if isinstance(other, FinSet):
            if len(self.elements) > len(other.elements):
                return False
            return all(map(other.bits().__contains__, self.elements))
        return all(x in other for x in self)

    def __lt__(self, other):
        return self <= other and self != other

    def __repr__(self):
        return "FinSet(%s)" % (list(self.elements),)

    def union(self, other):
        if isinstance(other, FinSet):
            return FinSet._ordered(tuple(sorted(set(self.elements).union(other.elements))))
        return FinSet(self.elements + tuple(other))

    def inter(self, other):
        keep = set(other.elements) if isinstance(other, FinSet) else other
        return FinSet._ordered(tuple([x for x in self.elements if x in keep]))

    def diff(self, other):
        drop = set(other.elements) if isinstance(other, FinSet) else other
        return FinSet._ordered(tuple([x for x in self.elements if x not in drop]))

    def complement_in(self, carrier):
        if not self <= carrier:
            raise CarrierMismatch("not a subset of the carrier", witness=tuple(self.diff(carrier)))
        return carrier.diff(self)

    def subsets(self):
        """All subsets in canonical order: by size, then in combination
        order of the elements (``subset_masks`` gives the same order)."""
        for r in range(len(self.elements) + 1):
            for combo in itertools.combinations(self.elements, r):
                yield FinSet._ordered(combo)

    def name(self) -> str:
        """A single symbol naming this set; used for derived carriers."""
        return "{%s}" % ",".join(self.elements)

    def bits(self) -> dict:
        """Each element's bit, 1 << its canonical position, built on first use."""
        try:
            return self._bit
        except AttributeError:
            bits = {x: 1 << i for i, x in enumerate(self.elements)}
            _set_bit(self, bits)
            return bits


# write the slots directly, past FinSet.__setattr__, which refuses all writes
_set_elements = FinSet.elements.__set__
_set_bit = FinSet._bit.__set__


def mask_of(carrier: FinSet, subset: FinSet) -> int | None:
    """The mask of ``subset`` over ``carrier``, or None when it is not a subset."""
    bits = carrier.bits()
    m = 0
    for x in subset.elements:
        b = bits.get(x)
        if b is None:
            return None
        m |= b
    return m


def set_of(carrier: FinSet, mask: int) -> FinSet:
    """The subset of ``carrier`` whose mask is ``mask``."""
    return FinSet._ordered(tuple([x for x, b in carrier.bits().items() if mask & b]))


def subset_masks(carrier: FinSet) -> list:
    """The masks of ``carrier.subsets()``, in the same order."""
    bits = list(carrier.bits().values())
    return [sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r)]


def finset(*elements) -> FinSet:
    return FinSet(elements)


def _join(sets) -> FinSet:
    """The union of a family of ``FinSet``s, built from their members."""
    return FinSet._ordered(tuple(sorted({x for s in sets for x in s.elements})))


class FinMap:
    """A total function between finite sets.

    On masks, the map is the tuple of its points' image bits over ``cod``,
    in ``dom`` order (``point_masks``), built on first use."""

    __slots__ = ("dom", "cod", "assign", "_points")

    def __init__(self, dom: FinSet, cod: FinSet, assign):
        assign = dict(assign)
        if set(assign) != set(dom.elements):
            missing = set(dom.elements) - set(assign)
            extra = set(assign) - set(dom.elements)
            raise CarrierMismatch(
                "assignment must be defined for exactly the domain",
                witness=tuple(sorted(missing | extra)),
            )
        values = set(cod.elements)
        for x, y in assign.items():
            # elements are str; the type test keeps unhashable values out of the set lookup
            if not isinstance(y, str) or y not in values:
                raise CarrierMismatch("value outside the codomain", witness=(x, y))
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "assign", {x: assign[x] for x in dom})

    def __setattr__(self, name, value):
        raise AttributeError("FinMap is immutable")

    def __call__(self, x):
        try:
            return self.assign[x]
        except KeyError:
            raise CarrierMismatch("argument outside the domain", witness=(x,))

    def __eq__(self, other):
        return (
            isinstance(other, FinMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((self.dom, self.cod, tuple(sorted(self.assign.items()))))

    def __repr__(self):
        return "FinMap(%s -> %s, %s)" % (list(self.dom), list(self.cod), self.assign)

    @classmethod
    def identity(cls, carrier: FinSet) -> "FinMap":
        return cls(carrier, carrier, {x: x for x in carrier})

    @classmethod
    def constant(cls, dom: FinSet, cod: FinSet, value: Symbol) -> "FinMap":
        return cls(dom, cod, {x: value for x in dom})

    def point_masks(self) -> tuple:
        """The image bit over ``cod`` of each point of ``dom``, in ``dom`` order."""
        try:
            return self._points
        except AttributeError:
            points = tuple(map(self.cod.bits().__getitem__, self.assign.values()))
            _set_points(self, points)
            return points

    def image_mask(self, m: int) -> int:
        """The image of the ``dom`` mask ``m``, as a ``cod`` mask."""
        out = 0
        for p in self.point_masks():
            if not m:
                break
            if m & 1:
                out |= p
            m >>= 1
        return out

    def preimage_mask(self, m: int) -> int:
        """The preimage of the ``cod`` mask ``m``, as a ``dom`` mask."""
        out = 0
        bit = 1
        for p in self.point_masks():
            if p & m:
                out |= bit
            bit <<= 1
        return out

    def image(self, subset: FinSet | None = None) -> FinSet:
        if subset is None:
            m = (1 << len(self.dom.elements)) - 1
        else:
            m = mask_of(self.dom, subset)
            if m is None:
                raise CarrierMismatch("image argument not a subset of the domain")
        return set_of(self.cod, self.image_mask(m))

    def preimage(self, subset: FinSet) -> FinSet:
        m = mask_of(self.cod, subset)
        if m is None:
            raise CarrierMismatch("preimage argument not a subset of the codomain")
        return set_of(self.dom, self.preimage_mask(m))


_set_points = FinMap._points.__set__


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint nonempty blocks covering a carrier."""

    carrier: FinSet
    blocks: tuple

    def __post_init__(self):
        seen = []
        for i, b in enumerate(self.blocks):
            if len(b) == 0:
                raise BadStructure("partition blocks must be nonempty", witness=(i,))
            if not b <= self.carrier:
                raise CarrierMismatch("block outside the carrier")
            seen.extend(b)
        if sorted(seen) != list(self.carrier):
            bad = next(x for x in self.carrier if seen.count(x) != 1)
            raise BadStructure("blocks must be disjoint and cover the carrier", witness=(bad,))

    def block_of(self, x: Symbol) -> FinSet:
        for b in self.blocks:
            if x in b:
                return b
        raise CarrierMismatch("element outside the carrier", witness=(x,))


@dataclass(frozen=True)
class EndoReport:
    invariant_points: FinSet
    is_once_effective: bool
    stabilizes_at: Symbol | None
    nilpotent_at: tuple | None  # (fixed point, first n with f^n constant)
    iterates: tuple  # (f, f^2, ...) up to max_steps


def compose(g: FinMap, f: FinMap, strict: bool = True) -> FinMap:
    """g after f. Strict mode requires cod(f) = dom(g); general mode
    restricts to the largest domain on which the composite is defined."""
    if strict:
        if f.cod != g.dom:
            raise CompositionMismatch(
                "cod(f) != dom(g)", witness=(tuple(f.cod), tuple(g.dom))
            )
        return FinMap(f.dom, g.cod, {x: g.assign[f.assign[x]] for x in f.dom})
    d = FinSet._ordered(tuple(x for x in f.dom.elements if f.assign[x] in g.assign))
    return FinMap(d, g.cod, {x: g.assign[f.assign[x]] for x in d})


def classify(f: FinMap) -> dict:
    # every fiber has at most one point iff no two points share a value;
    # every fiber is nonempty iff the values, which lie in cod, fill it
    hit = 0
    for p in f.point_masks():
        hit |= p
    monic = hit.bit_count() == len(f.dom.elements)
    onto = hit == (1 << len(f.cod.elements)) - 1
    return {"monic": monic, "onto": onto, "bijective": monic and onto}


def left_inverse(f: FinMap) -> FinMap:
    """l with l∘f = id. Off-image values take the least domain element."""
    c = classify(f)
    if not c["monic"]:
        raise NotMonic("no left inverse: map is not monic")
    if len(f.dom) == 0:
        raise NotMonic("empty domain admits no selection for off-image values")
    default = f.dom.elements[0]
    back = {f.assign[x]: x for x in f.dom}
    return FinMap(f.cod, f.dom, {y: back.get(y, default) for y in f.cod})


def right_inverse(f: FinMap) -> FinMap:
    """r with f∘r = id; preimage representatives are chosen least-first."""
    if not classify(f)["onto"]:
        raise NotOnto("no right inverse: map is not onto")
    least = {}
    for x in f.dom.elements:  # ascending, so the first point of a fiber is its least
        least.setdefault(f.assign[x], x)
    return FinMap(f.cod, f.dom, {z: least[z] for z in f.cod})


def inverse(f: FinMap) -> FinMap:
    if not classify(f)["bijective"]:
        raise NotBijective("no inverse: map is not bijective")
    return FinMap(f.cod, f.dom, {f.assign[x]: x for x in f.dom})


def fiber(f: FinMap, z: Symbol) -> FinSet:
    if z not in f.cod:
        raise CarrierMismatch("fiber point outside the codomain", witness=(z,))
    return set_of(f.dom, _fiber_mask(f, f.cod.bits()[z]))


def _fiber_mask(f: FinMap, z: int) -> int:
    """The ``dom`` mask of the points whose image bit is exactly ``z``."""
    out = 0
    bit = 1
    for p in f.point_masks():
        if p == z:
            out |= bit
        bit <<= 1
    return out


def fiber_partition(f: FinMap) -> Partition:
    blocks = [fiber(f, z) for z in f.image()]
    return Partition(f.dom, tuple(sorted(blocks, key=lambda b: b.elements)))


def image_calculus(f: FinMap, A: FinSet, B: FinSet, families=()) -> LawReport:
    """Evaluate the image/preimage law set for subsets A ⊆ dom, B ⊆ cod
    and any number of subset families (over dom or cod), on masks. Each
    law compares two separately computed sides."""
    a = mask_of(f.dom, A)
    if a is None:
        raise CarrierMismatch("A must be a subset of the domain")
    b = mask_of(f.cod, B)
    if b is None:
        raise CarrierMismatch("B must be a subset of the codomain")
    r = LawReport("image-calculus")
    c = classify(f)
    img = f.image_mask
    pre = f.preimage_mask
    full_dom = (1 << len(f.dom.elements)) - 1
    full_cod = (1 << len(f.cod.elements)) - 1
    fa = img(a)
    pb = pre(b)
    fpb = img(pb)
    r.add(
        "img-adjoint",
        "fA ⊆ B iff A ⊆ f⁻¹B",
        (not fa & ~b) == (not a & ~pb),
        (A.elements, B.elements),
    )
    pfa = pre(fa)
    r.add("img-unit", "A ⊆ f⁻¹fA", not a & ~pfa, (A.elements,))
    if c["monic"]:
        r.add("img-unit-monic", "monic: f⁻¹fA = A", pfa == a, (A.elements,))
    r.add("img-counit", "ff⁻¹B ⊆ B", not fpb & ~b, (B.elements,))
    if c["onto"]:
        r.add("img-counit-onto", "onto: ff⁻¹B = B", fpb == b, (B.elements,))
    # f|A⁻¹B: the points of A, and only those, whose image lies in B
    restricted = 0
    bit = 1
    for p in f.point_masks():
        if a & bit and p & b:
            restricted |= bit
        bit <<= 1
    r.add(
        "img-restrict",
        "f|A⁻¹B = A ∩ f⁻¹B",
        restricted == a & pb,
        (A.elements, B.elements),
    )
    for fam in families:
        members = list(fam)
        dom_masks = [mask_of(f.dom, m) for m in members]
        cod_masks = [mask_of(f.cod, m) for m in members]
        over_dom = None not in dom_masks
        over_cod = None not in cod_masks
        if not (over_dom or over_cod):
            raise CarrierMismatch("family members must share a carrier of f")
        if over_dom:
            union = 0
            inter = full_dom
            im_union = 0
            im_inter = full_cod
            for m in dom_masks:
                union |= m
                inter &= m
                fm = img(m)
                im_union |= fm
                im_inter &= fm
            r.add("img-union", "f(⋃X) = ⋃fX", img(union) == im_union)
            if members:
                f_inter = img(inter)
                r.add("img-inter", "f(⋂X) ⊆ ⋂fX", not f_inter & ~im_inter)
                if c["monic"]:
                    r.add("img-inter-monic", "monic: f(⋂X) = ⋂fX", f_inter == im_inter)
        if over_cod:
            union = 0
            inter = full_cod
            pre_union = 0
            pre_inter = full_dom
            for m in cod_masks:
                union |= m
                inter &= m
                pm = pre(m)
                pre_union |= pm
                pre_inter &= pm
            r.add("pre-union", "f⁻¹(⋃Y) = ⋃f⁻¹Y", pre(union) == pre_union)
            if members:
                r.add("pre-inter", "f⁻¹(⋂Y) = ⋂f⁻¹Y", pre(inter) == pre_inter)
            if len(members) >= 2:
                m0, m1 = cod_masks[0], cod_masks[1]
                r.add(
                    "pre-diff",
                    "f⁻¹(Y0 − Y1) = f⁻¹Y0 − f⁻¹Y1",
                    pre(m0 & ~m1) == pre(m0) & ~pre(m1),
                )
    return r


def fiber_union_check(f: FinMap, A: FinSet, B: FinSet) -> LawReport:
    """For monic f and B inside the image: fA = B iff A is the union of
    the fibers of B. Fibers are only meaningful for image points, so
    points of B outside Im f reduce the claim to one direction."""
    r = LawReport("fiber-union")
    b = mask_of(f.cod, B)
    if b is None:
        z = next(z for z in B.elements if z not in f.cod)
        raise CarrierMismatch("fiber point outside the codomain", witness=(z,))
    a = mask_of(f.dom, A)
    if a is None:
        raise CarrierMismatch("image argument not a subset of the domain")
    fibers_of_B = 0
    for z in f.cod.bits().values():
        if z & b:
            fibers_of_B |= _fiber_mask(f, z)
    fa = f.image_mask(a)
    lhs = fa == b
    rhs = a == fibers_of_B
    if classify(f)["monic"] and not b & ~f.image_mask((1 << len(f.dom.elements)) - 1):
        r.add("fib-prop", "monic: fA = B iff A = ⋃ fibers of B", lhs == rhs, (A.elements, B.elements))
    else:
        r.add(
            "fib-prop-onedir",
            "fA = B implies A ⊆ ⋃ fibers of B",
            (not lhs) or not a & ~fibers_of_B,
            (A.elements, B.elements),
        )
    return r


def decompose(f: FinMap):
    """Split f as immersion ∘ bijection ∘ projection through its fibers."""
    part = fiber_partition(f)
    block_names = {b: b.name() for b in part.blocks}
    middle = FinSet(block_names.values())
    p = FinMap(f.dom, middle, {x: block_names[part.block_of(x)] for x in f.dom})
    im = f.image()
    bij = FinMap(
        middle, im, {block_names[b]: f.assign[b.elements[0]] for b in part.blocks}
    )
    incl = FinMap(im, f.cod, {y: y for y in im})
    return p, bij, incl


def generated(seed, unary=(), binary=()) -> set:
    """The least set that holds ``seed`` and is closed under each ``unary``
    f(x) and each ``binary`` op(x, y): the closure of an algebraic closure
    operator (Davey & Priestley, ch. 7). A worklist applies each new
    member to itself and to every member found so far, in both orders,
    since a product need not commute."""
    out = set(seed)
    todo = list(out)
    found = []
    while todo:
        x = todo.pop()
        found.append(x)
        new = [f(x) for f in unary]
        new += [z for op in binary for y in found for z in (op(x, y), op(y, x))]
        for z in new:
            if z not in out:
                out.add(z)
                todo.append(z)
    return out


def fold(op, seq):
    """Left fold of a binary table over a nonempty symbol sequence.

    Returns the total and the sequence of partial results."""
    seq = list(seq)
    if not seq:
        raise EmptyFold("fold of an empty sequence")
    acc = seq[0]
    partials = [acc]
    for x in seq[1:]:
        if (acc, x) not in op:
            raise CarrierMismatch("operation table missing a cell", witness=(acc, x))
        acc = op[(acc, x)]
        partials.append(acc)
    return acc, tuple(partials)


def associativity_witness(op, xs):
    """The first triple (a, b, c) of ``xs``, in the order of ``xs``, with
    (ab)c != a(bc) in the pair-keyed table ``op``, or None."""
    for a in xs:
        for b in xs:
            ab = op[(a, b)]
            for c in xs:
                if op[(ab, c)] != op[(a, op[(b, c)])]:
                    return (a, b, c)
    return None


def two_sided_unit(op, xs):
    """The first e of ``xs`` with ea = a = ae for every a of ``xs`` in the
    pair-keyed table ``op``, or None."""
    return next((e for e in xs if all(op[(e, a)] == a == op[(a, e)] for a in xs)), None)


def iterate(f: FinMap, n: int) -> FinMap:
    if f.dom != f.cod:
        raise CompositionMismatch("iteration needs an endofunction")
    g = FinMap.identity(f.dom)
    for _ in range(n):
        g = compose(f, g)
    return g


def endo_analyze(f: FinMap, max_steps: int | None = None) -> EndoReport:
    """Dynamics of an endofunction: invariant points, once-effectiveness,
    stabilization and nilpotency, with the iterate sequence up to max_steps."""
    if f.dom != f.cod:
        raise CompositionMismatch("endo analysis needs dom = cod")
    if max_steps is None:
        max_steps = max(1, len(f.dom))
    inv = FinSet._ordered(tuple(x for x in f.dom.elements if f.assign[x] == x))
    once = f.image() <= inv
    iterates = []
    g = f
    for _ in range(max_steps):
        iterates.append(g)
        g = compose(f, g)
    stabilizes_at = None
    nilpotent_at = None
    for a in inv:
        if all(_orbit_reaches(f, x, a) for x in f.dom):
            stabilizes_at = a
            break
    for n, g in enumerate(iterates, start=1):
        values = set(g.assign.values())
        if len(values) == 1:
            a = values.pop()
            if a in inv:
                nilpotent_at = (a, n)
            break
    return EndoReport(inv, once, stabilizes_at, nilpotent_at, tuple(iterates))


def _orbit_reaches(f: FinMap, x: Symbol, a: Symbol) -> bool:
    seen = set()
    while x not in seen:
        if x == a:
            return True
        seen.add(x)
        x = f.assign[x]
    return x == a


def natural_pair_check(F: FinMap, G: FinMap, sa: FinMap, sb: FinMap) -> LawReport:
    """Does G describe F after transforming source and target by sa, sb?"""
    r = LawReport("natural-pair")
    if sa.dom != F.dom or sa.cod != G.dom:
        raise CarrierMismatch("sa must map dom F onto dom G")
    if sb.dom != F.cod or sb.cod != G.cod:
        raise CarrierMismatch("sb must map cod F to cod G")
    if not classify(sa)["onto"]:
        raise NotOnto("sa must be onto for the pair to be well posed")
    ok = True
    witness = None
    for x in F.dom:
        if G.assign[sa.assign[x]] != sb.assign[F.assign[x]]:
            ok = False
            witness = (x,)
            break
    r.add("nat-pair", "G(sa x) = sb(F x) for all x", ok, witness)
    return r


def select(family, rule=min) -> FinMap:
    """A deterministic selection function: one element from each member.

    The domain carries member names (``FinSet.name``)."""
    members = sorted(set(family), key=lambda m: m.elements)
    for m in members:
        if len(m) == 0:
            raise EmptyMember("cannot select from an empty member")
    dom = FinSet(m.name() for m in members)
    cod = _join(members)
    by_name = {m.name(): m for m in members}
    return FinMap(dom, cod, {n: rule(by_name[n].elements) for n in dom})


def all_maps(dom: FinSet, cod: FinSet):
    """Every total map dom → cod, in lexicographic order of value tuples."""
    if len(dom) == 0:
        yield FinMap(dom, cod, {})
        return
    if len(cod) == 0:
        return
    for values in itertools.product(cod.elements, repeat=len(dom)):
        yield FinMap(dom, cod, dict(zip(dom.elements, values)))
