"""Finite sets and total functions: the substrate for every other module.

Symbols are plain text tokens. A ``FinSet`` is a canonically ordered,
duplicate-free collection of symbols; a ``FinMap`` is a total function
between two such sets. Everything is compared extensionally: two maps
are equal when domain, codomain and assignment coincide. The value
types of the package (``FinSet``, ``FinMap``, ``Poset``, ``FinGroup``,
``FinCat``, ``ClosureOp``, ``Rat``) derive from ``Frozen``, which
refuses every write and ``del`` and copies through the constructor. So
do the records, which declare only their fields and take ``Frozen``'s
constructor, equality, hash and ``repr`` unless they check their
arguments: ``Partition`` here, ``TotalChain`` and ``LatticeTables`` in
``order``, ``IntWindow`` and ``RatClass`` in ``numbers``, ``Family`` in
``settools``, ``Topology`` in ``top``, ``Subgroup``, ``GroupHom`` and
``GroupAction`` in ``group``, ``FunctorData``, ``SetRepr`` and
``NatTransData`` in ``category``, and ``StructureDoc`` in ``docs``.
No module imports ``dataclasses``: with ``inspect`` and the code it
generates for each class, it would be most of the import time of every
fresh ``structa`` process.

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
from operator import attrgetter

from .errors import (
    BadStructure,
    CarrierMismatch,
    CompositionMismatch,
    NotBijective,
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


class Frozen:
    """Base of the immutable value types and records. Every write and
    every ``del`` raises; constructors write their slots past
    ``__setattr__``. Copies and pickles rebuild through ``__init__`` from
    the ``_fields`` values, the constructor's arguments in order, so slots
    that are not fields, such as lazy caches, are rebuilt rather than
    carried.

    A record only declares its ``__slots__`` and ``_fields``: the default
    ``__init__`` assigns the fields in order, and equality, hashing and
    ``repr`` are those of the field tuple, as a frozen dataclass has them.
    A value of another class is never equal, and a record with a dict
    field is unhashable."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        # per class, once: the field tuple read in one C call (attrgetter
        # of a single name gives the bare value, so that one is wrapped),
        # and each field's slot setter; equality and construction then
        # cost about what per-class generated code costs
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        get = attrgetter(*fields)
        cls._values = (lambda self: get(self)) if len(fields) > 1 else (lambda self: (get(self),))
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d arguments, got %d"
                            % (type(self).__name__, len(self._fields), len(values)))
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        return (self.__class__, self._values())


class FinSet(Frozen):
    """An ordered, duplicate-free finite set of symbols."""

    __slots__ = ("elements", "_bit")
    _fields = ("elements",)

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


# write the slots directly, past Frozen.__setattr__, which refuses all writes
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


def union_of(sets) -> FinSet:
    """The union of a family of ``FinSet``s, built from their members."""
    return FinSet._ordered(tuple(sorted({x for s in sets for x in s.elements})))


class FinMap(Frozen):
    """A total function between finite sets.

    On masks, the map is the tuple of its points' image bits over ``cod``,
    in ``dom`` order (``point_masks``), built on first use."""

    __slots__ = ("dom", "cod", "assign", "_points")
    _fields = ("dom", "cod", "assign")

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


class Partition(Frozen):
    """Pairwise-disjoint nonempty blocks covering a carrier. ``block_of``
    reads an element → block index that is not a field, so equality,
    hashing and repr ignore it."""

    __slots__ = ("carrier", "blocks", "_index")
    _fields = ("carrier", "blocks")

    def __init__(self, carrier: FinSet, blocks: tuple):
        seen = []
        for i, b in enumerate(blocks):
            if len(b) == 0:
                raise BadStructure("partition blocks must be nonempty", witness=(i,))
            if not b <= carrier:
                raise CarrierMismatch("block outside the carrier")
            seen.extend(b)
        if sorted(seen) != list(carrier):
            bad = next(x for x in carrier if seen.count(x) != 1)
            raise BadStructure("blocks must be disjoint and cover the carrier", witness=(bad,))
        Frozen.__init__(self, carrier, blocks)
        object.__setattr__(self, "_index", {x: b for b in blocks for x in b})

    def block_of(self, x: Symbol) -> FinSet:
        try:
            return self._index[x]
        except (KeyError, TypeError):  # TypeError: unhashable, so no symbol
            raise CarrierMismatch("element outside the carrier", witness=(x,)) from None


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f; cod(f) must be dom(g)."""
    if f.cod != g.dom:
        raise CompositionMismatch("cod(f) != dom(g)", witness=(tuple(f.cod), tuple(g.dom)))
    return FinMap(f.dom, g.cod, {x: g.assign[f.assign[x]] for x in f.dom})


def classify(f: FinMap) -> dict:
    # every fiber has at most one point iff no two points share a value;
    # every fiber is nonempty iff the values, which lie in cod, fill it
    hit = 0
    for p in f.point_masks():
        hit |= p
    monic = hit.bit_count() == len(f.dom.elements)
    onto = hit == (1 << len(f.cod.elements)) - 1
    return {"monic": monic, "onto": onto, "bijective": monic and onto}


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


# law id -> the subsets among A and B that a failure names; the
# statements are rows of ``report.LAWS``
_IMAGE_LAWS = {
    "img-adjoint": ("A", "B"),
    "img-unit": ("A",),
    "img-unit-monic": ("A",),
    "img-counit": ("B",),
    "img-counit-onto": ("B",),
    "img-restrict": ("A", "B"),
    "img-union": (),
    "img-inter": (),
    "img-inter-monic": (),
    "pre-union": (),
    "pre-inter": (),
    "pre-diff": (),
}


def _family_masks(dom: FinSet, cod: FinSet, members) -> tuple:
    """A family of subsets as (its ``dom`` masks, its ``cod`` masks), with
    None for a carrier that some member is not a subset of. ``[]`` and
    ``[∅]`` are over both carriers; a family over neither is refused."""
    members = list(members)
    dom_masks = [mask_of(dom, m) for m in members]
    cod_masks = [mask_of(cod, m) for m in members]
    over_dom = None not in dom_masks
    over_cod = None not in cod_masks
    if not (over_dom or over_cod):
        raise CarrierMismatch("family members must share a carrier of f")
    return (dom_masks if over_dom else None), (cod_masks if over_cod else None)


def _fold(masks, full: int, h, h_full: int) -> tuple:
    """⋃ and ⋂ of ``masks`` (over ``full``), and of their images under h (over ``h_full``)."""
    union, inter, h_union, h_inter = 0, full, 0, h_full
    for m in masks:
        union |= m
        inter &= m
        hm = h(m)
        h_union |= hm
        h_inter &= hm
    return union, inter, h_union, h_inter


def _image_laws(f: FinMap, c: dict, a: int, b: int, families, img, pre) -> list:
    """The image/preimage laws of f as (law id, passed) pairs in report
    order, for the ``dom`` mask a, the ``cod`` mask b and families from
    ``_family_masks``; ``c`` is ``classify(f)``. ``img`` and ``pre`` give
    the image of a ``dom`` mask and the preimage of a ``cod`` mask:
    ``f.image_mask`` and ``f.preimage_mask``, or lookups in tables of
    them. Each law compares two separately computed sides. No ``Check``
    is built."""
    full_dom = (1 << len(f.dom.elements)) - 1
    full_cod = (1 << len(f.cod.elements)) - 1
    fa = img(a)
    pb = pre(b)
    pfa = pre(fa)
    fpb = img(pb)
    laws = [("img-adjoint", (not fa & ~b) == (not a & ~pb)), ("img-unit", not a & ~pfa)]
    if c["monic"]:
        laws.append(("img-unit-monic", pfa == a))
    laws.append(("img-counit", not fpb & ~b))
    if c["onto"]:
        laws.append(("img-counit-onto", fpb == b))
    # f|A⁻¹B: the points of A, and only those, whose image lies in B
    restricted = 0
    bit = 1
    for p in f.point_masks():
        if a & bit and p & b:
            restricted |= bit
        bit <<= 1
    laws.append(("img-restrict", restricted == a & pb))
    for dom_masks, cod_masks in families:
        if dom_masks is not None:
            union, inter, im_union, im_inter = _fold(dom_masks, full_dom, img, full_cod)
            laws.append(("img-union", img(union) == im_union))
            if dom_masks:
                f_inter = img(inter)
                laws.append(("img-inter", not f_inter & ~im_inter))
                if c["monic"]:
                    laws.append(("img-inter-monic", f_inter == im_inter))
        if cod_masks is not None:
            union, inter, pre_union, pre_inter = _fold(cod_masks, full_cod, pre, full_dom)
            laws.append(("pre-union", pre(union) == pre_union))
            if cod_masks:
                laws.append(("pre-inter", pre(inter) == pre_inter))
            if len(cod_masks) >= 2:
                m0, m1 = cod_masks[0], cod_masks[1]
                laws.append(("pre-diff", pre(m0 & ~m1) == pre(m0) & ~pre(m1)))
    return laws


def image_calculus(f: FinMap, A: FinSet, B: FinSet, families=()) -> LawReport:
    """Evaluate the image/preimage law set for subsets A ⊆ dom, B ⊆ cod
    and any number of subset families (over dom or cod): the verdicts of
    ``_image_laws`` as a report, each failure named by the witness that
    ``_IMAGE_LAWS`` gives its law."""
    a = mask_of(f.dom, A)
    if a is None:
        raise CarrierMismatch("A must be a subset of the domain")
    b = mask_of(f.cod, B)
    if b is None:
        raise CarrierMismatch("B must be a subset of the codomain")
    fams = [_family_masks(f.dom, f.cod, fam) for fam in families]
    sides = {"A": A.elements, "B": B.elements}
    r = LawReport("image-calculus")
    for law, passed in _image_laws(f, classify(f), a, b, fams, f.image_mask, f.preimage_mask):
        r.add(law, passed, tuple(sides[n] for n in _IMAGE_LAWS[law]))
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
        r.add("fib-prop", lhs == rhs, (A.elements, B.elements))
    else:
        r.add("fib-prop-onedir", (not lhs) or not a & ~fibers_of_B, (A.elements, B.elements))
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


def associativity_witness(op, xs):
    """The first triple (a, b, c) of ``xs``, in the order of ``xs``, with
    (ab)c != a(bc) in the pair-keyed table ``op``, or None. A product is
    undefined when its cell is missing or its value lies outside ``xs``,
    and a triple counts only when ab, bc, (ab)c and a(bc) are defined.

    A table with no undefined product is certified by Light's test
    (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961,
    §1.2). Let T be the set of a with (xa)y = x(ay) for all x and y. T is
    closed under the product: for a, b in T,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y),
    by a, b, a and b in turn. So when a set A generates ``xs``, A ⊆ T
    makes T all of ``xs``, which is associativity. ``_greedy_generators``
    picks A in O(n²), and the test reads each row of a generator and each
    product xa once, so it checks |A|·n² cells where the scan checks n³
    triples. In a group each pick after the first at least doubles the
    subgroup generated, so |A| ≤ 1 + log₂ n. Any other table, and a table
    whose generator fails, gets the scan, and so the scan's least
    witness."""
    return _light_witness(_index_table(op, xs), xs)


def _light_witness(T, xs):
    """``associativity_witness`` on the position table T of
    ``_index_table``, for a caller that has built it already."""
    if any(None in row for row in T):
        return _associativity_scan(T, xs)
    for a in _greedy_generators(T):
        row = T[a]
        for x, rx in zip(xs, T):
            if T[rx[a]] != [rx[v] for v in row]:
                return _associativity_scan(T, xs)
    return None


def _associativity_scan(T, xs):
    """``associativity_witness`` by trying every triple in order on the
    position table T: O(n³). An undefined ab skips its inner loop."""
    for a, row in enumerate(T):
        for b, ab in enumerate(row):
            if ab is None:
                continue
            left = T[ab]
            for c, bc in enumerate(T[b]):
                if bc is not None:
                    lhs, rhs = left[c], row[bc]
                    if lhs != rhs and lhs is not None and rhs is not None:
                        return (xs[a], xs[b], xs[c])
    return None


def _index_table(op, xs):
    """The table ``op`` on ``xs`` by positions: row i holds the position
    of xs[i]·y for each y of ``xs``, or None where that product is
    undefined: its cell is missing or its value lies outside ``xs``."""
    pos = {x: i for i, x in enumerate(xs)}
    undefined = object()
    return [[pos.get(op.get((x, y), undefined)) for y in xs] for x in xs]


def _greedy_generators(T):
    """Positions that generate the closed position table T, picked in
    order: a position joins unless it lies in the closure of the earlier
    picks. The closure grows by a worklist that multiplies each new member
    with every member found so far, on both sides, so every ordered pair
    is multiplied once over the whole walk: O(n²)."""
    inside = [False] * len(T)
    found = []
    picks = []
    for g in range(len(T)):
        if inside[g]:
            continue
        picks.append(g)
        inside[g] = True
        todo = [g]
        while todo:
            z = todo.pop()
            found.append(z)
            row = T[z]
            for m in found:
                for p in (row[m], T[m][z]):
                    if not inside[p]:
                        inside[p] = True
                        todo.append(p)
    return picks


def two_sided_unit(op, xs):
    """The first e of ``xs`` with ea = a = ae for every a of ``xs`` in the
    pair-keyed table ``op``, or None."""
    return next((e for e in xs if all(op[(e, a)] == a == op[(a, e)] for a in xs)), None)


def all_maps(dom: FinSet, cod: FinSet):
    """Every total map dom → cod, in lexicographic order of value tuples."""
    if len(dom) == 0:
        yield FinMap(dom, cod, {})
        return
    if len(cod) == 0:
        return
    for values in itertools.product(cod.elements, repeat=len(dom)):
        yield FinMap(dom, cod, dict(zip(dom.elements, values)))
