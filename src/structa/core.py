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
from operator import and_, attrgetter, eq, invert, or_

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
    "fib-prop": ("A", "B"),
    "fib-prop-onedir": ("A", "B"),
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


def _image_scan(full_dom: int, full_cod: int, instances, fibre: int = 0) -> tuple:
    """The columns that ``_image_laws`` reads, for instances (a, b,
    families): a ``dom`` mask, a ``cod`` mask and families from
    ``_family_masks``, over carriers whose full masks are ``full_dom``
    and ``full_cod``. The image laws cover every instance and the fibre
    law the first ``fibre``.

    Returns ((a column, b column), family columns, (a column, b column)
    of the fibre law). A family column gathers, over one carrier, the
    j-th families of the instances that have j-th families of one size:
    (over ``dom``, the indices of their instances, one column per
    member, the column of their unions and that of their intersections).
    None of it depends on a map, so a scan serves every map between the
    two carriers."""
    A = [a for a, _, _ in instances]
    B = [b for _, b, _ in instances]
    grouped = {}
    for i, (_, _, families) in enumerate(instances):
        for j, sides in enumerate(families):
            for over_dom, masks in zip((True, False), sides):
                if masks is not None:
                    grouped.setdefault((j, over_dom, len(masks)), []).append((i, masks))
    columns = []
    for (_, over_dom, _), rows in grouped.items():
        members = [list(col) for col in zip(*(masks for _, masks in rows))]
        unions, inters = _fold(members, len(rows), full_dom if over_dom else full_cod)
        columns.append((over_dom, [i for i, _ in rows], members, unions, inters))
    return (A, B), columns, (A[:fibre], B[:fibre])


def _fold(columns, n: int, full: int) -> tuple:
    """Row by row, the union and the intersection (within ``full``) of n
    rows of masks given as columns, one column per member."""
    union, inter = [0] * n, [full] * n
    for col in columns:
        union = list(map(or_, union, col))
        inter = list(map(and_, inter, col))
    return union, inter


def _first_difference(left: list, right: list):
    """The first index at which two columns of one length differ, or None."""
    if left == right:
        return None
    return next(i for i, (x, y) in enumerate(zip(left, right)) if x != y)


def _image_laws(f: FinMap, c: dict, scan, img, pre) -> list:
    """The image/preimage and fibre laws of f on the instances of a scan
    from ``_image_scan``, each law in one pass over mask columns; ``c``
    is ``classify(f)``. ``img`` and ``pre`` give the image of a ``dom``
    mask and the preimage of a ``cod`` mask: ``f.image_mask`` and
    ``f.preimage_mask``, or lookups in tables of them. Each law compares
    two separately computed sides, as two columns that agree on every
    instance where it holds. No ``Check`` is built.

    Returns one (law id, index of the first instance that fails it or
    None, number of cases) per law with a case, in report order: the
    laws on (A, B), each family column's laws, then the fibre law. On a
    one-instance scan these are the rows of one report. The cases are a
    function of the scan and ``c`` alone: per instance 4 + monic + onto;
    per ``dom`` family 1 + [non-empty]·(1 + monic); per ``cod`` family
    1 + [non-empty] + [at least 2 members]; and one per fibre instance."""
    (A, B), families, (fibre_A, fibre_B) = scan
    out = []

    def law(name, left, right, at=None):
        first = _first_difference(left, right)
        if first is not None and at is not None:
            first = at[first]
        out.append((name, first, len(left)))

    full_dom = (1 << len(f.dom.elements)) - 1
    full_cod = (1 << len(f.cod.elements)) - 1
    if A:
        FA = list(map(img, A))
        PB = list(map(pre, B))
        PFA = list(map(pre, FA))
        FPB = list(map(img, PB))
        law("img-adjoint", list(map(eq, map(or_, FA, B), B)), list(map(eq, map(or_, A, PB), PB)))
        law("img-unit", list(map(or_, A, PFA)), PFA)
        if c["monic"]:
            law("img-unit-monic", PFA, A)
        law("img-counit", list(map(or_, FPB, B)), B)
        if c["onto"]:
            law("img-counit-onto", FPB, B)
        # f|A⁻¹B: the points of A, and only those, whose image lies in B
        lands = {}
        for b in set(B):
            hit, bit = 0, 1
            for p in f.point_masks():
                if p & b:
                    hit |= bit
                bit <<= 1
            lands[b] = hit
        law("img-restrict", list(map(and_, A, map(lands.__getitem__, B))), list(map(and_, A, PB)))
    for over_dom, at, members, unions, inters in families:
        h, h_full = (img, full_cod) if over_dom else (pre, full_dom)
        hs = [list(map(h, m)) for m in members]
        h_union, h_inter = _fold(hs, len(at), h_full)
        if over_dom:
            law("img-union", list(map(img, unions)), h_union, at)
            if members:
                f_inter = list(map(img, inters))
                law("img-inter", list(map(or_, f_inter, h_inter)), h_inter, at)
                if c["monic"]:
                    law("img-inter-monic", f_inter, h_inter, at)
        else:
            law("pre-union", list(map(pre, unions)), h_union, at)
            if members:
                law("pre-inter", list(map(pre, inters)), h_inter, at)
            if len(members) >= 2:
                diffs = map(and_, members[0], map(invert, members[1]))
                pre_diffs = map(and_, hs[0], map(invert, hs[1]))
                law("pre-diff", list(map(pre, diffs)), list(pre_diffs), at)
    if fibre_A:
        # fA = B against A = ⋃ fibers of B: both ways for monic f and B
        # inside Im f; otherwise fibers are only meaningful for image
        # points, and the claim is one direction
        fibres = {}
        for b in set(fibre_B):
            union = 0
            for z in f.cod.bits().values():
                if z & b:
                    union |= _fiber_mask(f, z)
            fibres[b] = union
        image = img(full_dom) if c["monic"] else None
        both, one = [], []
        for i, (a, b, fa) in enumerate(zip(fibre_A, fibre_B, map(img, fibre_A))):
            lhs, fib = fa == b, fibres[b]
            if c["monic"] and not b & ~image:
                both.append((i, lhs, a == fib))
            else:
                # fA = B implies A ⊆ ⋃ fibers: with A ⊆ them, fA = B is unchanged
                one.append((i, lhs and not a & ~fib, lhs))
        for name, rows in (("fib-prop", both), ("fib-prop-onedir", one)):
            if rows:
                at, left, right = map(list, zip(*rows))
                law(name, left, right, at)
    return out


def image_calculus(f: FinMap, A: FinSet, B: FinSet, families=()) -> LawReport:
    """Evaluate the image/preimage law set for subsets A ⊆ dom, B ⊆ cod
    and any number of subset families (over dom or cod): ``_image_laws``
    on the one instance (A, B, families), each failure named by the
    witness that ``_IMAGE_LAWS`` gives its law. Its rows are the
    instance's cases: 4 + monic + onto, and for each family those that
    ``_image_laws`` counts for it over each carrier it lies in."""
    a = mask_of(f.dom, A)
    if a is None:
        raise CarrierMismatch("A must be a subset of the domain")
    b = mask_of(f.cod, B)
    if b is None:
        raise CarrierMismatch("B must be a subset of the codomain")
    fams = [_family_masks(f.dom, f.cod, fam) for fam in families]
    full_dom, full_cod = (1 << len(f.dom.elements)) - 1, (1 << len(f.cod.elements)) - 1
    scan = _image_scan(full_dom, full_cod, [(a, b, fams)])
    return _one_instance_report("image-calculus", f, scan, {"A": A.elements, "B": B.elements})


def fiber_union_check(f: FinMap, A: FinSet, B: FinSet) -> LawReport:
    """For monic f and B inside the image: fA = B iff A is the union of
    the fibers of B. Fibers are only meaningful for image points, so
    points of B outside Im f reduce the claim to one direction. This is
    ``_image_laws``'s fibre law on the one instance (A, B): one row,
    ``fib-prop`` or ``fib-prop-onedir``."""
    b = mask_of(f.cod, B)
    if b is None:
        z = next(z for z in B.elements if z not in f.cod)
        raise CarrierMismatch("fiber point outside the codomain", witness=(z,))
    a = mask_of(f.dom, A)
    if a is None:
        raise CarrierMismatch("image argument not a subset of the domain")
    scan = ([], []), [], ([a], [b])
    return _one_instance_report("fiber-union", f, scan, {"A": A.elements, "B": B.elements})


def _one_instance_report(name: str, f: FinMap, scan, sides: dict) -> LawReport:
    """The report of ``_image_laws`` on a one-instance scan, with the
    mask methods of f; ``sides`` names A and B for the witnesses."""
    r = LawReport(name)
    for law, failed_at, _ in _image_laws(f, classify(f), scan, f.image_mask, f.preimage_mask):
        r.add(law, failed_at is None, tuple(sides[n] for n in _IMAGE_LAWS[law]))
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
