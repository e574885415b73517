"""Structure documents: the text surface of the library.

A document is a restricted JSON profile — a single object with a
``kind`` key and a fixed, kind-specific key set. Sets are arrays of
strings, relations are arrays of pairs, operation tables are arrays of
triples, and nested structures (the groups of a homomorphism, the
categories of a functor) are full sub-documents. ``parse`` canonicalizes
on the way in, so ``render`` is a fixpoint: rendering a parsed document
and parsing it again gives an identical document, byte for byte.

Each kind is one ``_Kind`` row of ``_KINDS``: its key set, validator,
builder, law checker and size guards. ``run_check`` routes a document to
its kind's law suite; ``run_derive`` builds a new document from an old
one (quotient group, opposite category, generated filter, topology from
a base, ...).
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring

from .core import FinMap, FinSet, Frozen, check_symbol, classify
from .errors import EmptyMemberInBase, ParseError, SchemaError, StructaError, TooLarge
from .report import LawReport


class StructureDoc(Frozen):
    """A parsed document: the canonical payload ``_validate`` returns,
    plain JSON data with its ``kind`` key. Nested documents are payload
    dicts of the same form."""

    __slots__ = _fields = ("payload",)

    @property
    def kind(self) -> str:
        return self.payload["kind"]

    def __getitem__(self, key):
        return self.payload[key]


# ---------------------------------------------------------------------------
# schema validation


def _want_keys(body: dict, kind: str, keys: set):
    got = set(body) - {"kind"}
    if got != keys:
        missing = sorted(keys - got)
        extra = sorted(got - keys)
        raise SchemaError(
            "kind %r wants keys %s; missing %s, unexpected %s"
            % (kind, sorted(keys), missing, extra)
        )


def _symbol(v, where: str) -> str:
    if not isinstance(v, str):
        raise SchemaError("%s must be a string, got %r" % (where, v))
    try:
        return check_symbol(v)
    except ValueError as e:
        raise SchemaError("%s: %s" % (where, e))


def _symbol_list(v, where: str) -> list:
    if not isinstance(v, list):
        raise SchemaError("%s must be an array of strings" % where)
    out = [_symbol(x, where) for x in v]
    dup = sorted(x for x, n in Counter(out).items() if n > 1)
    if dup:
        raise SchemaError("%s has duplicate entries %s" % (where, dup))
    return sorted(out)


def _symbols(xs, seen: set, where: str):
    """Check each entry of xs with ``_symbol`` and add it to ``seen``. A
    string already in ``seen`` has passed and is skipped, so a table pays
    the check once per distinct symbol; anything else is checked in order,
    so the first bad entry still raises the same error."""
    for x in xs:
        if x.__class__ is not str or x not in seen:
            seen.add(_symbol(x, where))


def _tuple_list(v, n: int, where: str) -> list:
    if not isinstance(v, list):
        raise SchemaError("%s must be an array of %d-tuples" % (where, n))
    out = []
    seen = set()
    for row in v:
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError("%s entries must be arrays of length %d" % (where, n))
        _symbols(row, seen, where)
        out.append(row[:])
    return out


def _declared(x, declared: set, where: str):
    if x not in declared:
        raise SchemaError("undeclared symbol %r in %s" % (x, where))
    return x


def _total_table(rows, left, right, values, where: str) -> list:
    """Rows [a, b, v] with (a, b) covering left x right exactly once."""
    left_set, right_set, value_set = set(left), set(right), set(values)
    seen = {}
    for a, b, v in rows:
        _declared(a, left_set, where)
        _declared(b, right_set, where)
        _declared(v, value_set, where)
        if (a, b) in seen:
            raise SchemaError("%s defines the cell (%s, %s) twice" % (where, a, b))
        seen[(a, b)] = v
    for a in left:
        for b in right:
            if (a, b) not in seen:
                raise SchemaError(
                    "%s is not total: missing the cell (%s, %s)" % (where, a, b)
                )
    return sorted([a, b, v] for (a, b), v in seen.items())


def _total_pairs(rows, keys, values, where: str) -> list:
    """Rows [k, v] with k covering ``keys`` exactly once."""
    key_set, value_set = set(keys), set(values)
    seen = {}
    for k, v in rows:
        _declared(k, key_set, where)
        _declared(v, value_set, where)
        if k in seen:
            raise SchemaError("%s assigns %r twice" % (where, k))
        seen[k] = v
    for k in keys:
        if k not in seen:
            raise SchemaError("%s is not total: no value for %r" % (where, k))
    return sorted([k, v] for k, v in seen.items())


def _subset_list(v, carrier, where: str) -> list:
    if not isinstance(v, list):
        raise SchemaError("%s must be an array of subsets" % where)
    declared = set(carrier)
    out = []
    seen = set()
    for sub in v:
        if not isinstance(sub, list):
            raise SchemaError("%s members must be arrays of strings" % where)
        _symbols(sub, seen, where)
        for x in sub:
            _declared(x, declared, where)
        if len(set(sub)) != len(sub):
            raise SchemaError("%s member lists elements twice" % where)
        out.append(sorted(sub))
    canon = sorted(out)
    for i in range(1, len(canon)):
        if canon[i] == canon[i - 1]:
            raise SchemaError("%s lists the subset %s twice" % (where, canon[i]))
    return canon


def _nested(body, key, kind, where: str) -> dict:
    sub = body.get(key)
    if not isinstance(sub, dict):
        raise SchemaError("%s must be a nested %r document" % (where, kind))
    if sub.get("kind") != kind:
        raise SchemaError("%s must have kind %r" % (where, kind))
    return _validate(sub)


def _v_set(body):
    return {"elements": _symbol_list(body["elements"], "elements")}


def _v_map(body):
    dom = _symbol_list(body["dom"], "dom")
    cod = _symbol_list(body["cod"], "cod")
    rows = _tuple_list(body["map"], 2, "map")
    return {"dom": dom, "cod": cod, "map": _total_pairs(rows, dom, cod, "map")}


def _v_poset(body):
    carrier = _symbol_list(body["carrier"], "carrier")
    rows = _tuple_list(body["le"], 2, "le")
    declared = set(carrier)
    for x, y in rows:
        _declared(x, declared, "le")
        _declared(y, declared, "le")
    pairs = sorted([x, y] for x, y in {(x, y) for x, y in rows})
    return {"carrier": carrier, "le": pairs}


def _v_op_table(body):
    carrier = _symbol_list(body["carrier"], "carrier")
    rows = _tuple_list(body["table"], 3, "table")
    return {
        "carrier": carrier,
        "table": _total_table(rows, carrier, carrier, carrier, "table"),
    }


def _v_category(body):
    objects = _symbol_list(body["objects"], "objects")
    arrows = _tuple_list(body["arrows"], 3, "arrows")
    declared = set(objects)
    names = []
    for n, s, t in arrows:
        _declared(s, declared, "arrows")
        _declared(t, declared, "arrows")
        names.append(n)
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise SchemaError("arrows declares duplicate names %s" % dup)
    ident = _total_pairs(
        _tuple_list(body["identity"], 2, "identity"), objects, names, "identity"
    )
    comp_rows = _tuple_list(body["comp"], 3, "comp")
    declared = set(names)
    seen = set()
    for g, f, v in comp_rows:
        _declared(g, declared, "comp")
        _declared(f, declared, "comp")
        _declared(v, declared, "comp")
        if (g, f) in seen:
            raise SchemaError("comp defines the cell (%s, %s) twice" % (g, f))
        seen.add((g, f))
    return {
        "objects": objects,
        "arrows": sorted(arrows),
        "identity": ident,
        "comp": sorted(comp_rows),
    }


def _v_functor(body):
    src = _nested(body, "src", "category", "src")
    tgt = _nested(body, "tgt", "category", "tgt")
    src_arrows = [n for n, _, _ in src["arrows"]]
    tgt_arrows = [n for n, _, _ in tgt["arrows"]]
    return {
        "src": src,
        "tgt": tgt,
        "on_obj": _total_pairs(
            _tuple_list(body["on_obj"], 2, "on_obj"),
            src["objects"],
            tgt["objects"],
            "on_obj",
        ),
        "on_arr": _total_pairs(
            _tuple_list(body["on_arr"], 2, "on_arr"),
            src_arrows,
            tgt_arrows,
            "on_arr",
        ),
    }


def _v_nattrans(body):
    f = _nested(body, "f", "functor", "f")
    g = _nested(body, "g", "functor", "g")
    if f["src"] != g["src"] or f["tgt"] != g["tgt"]:
        raise SchemaError("component families need parallel functors")
    tgt_arrows = [n for n, _, _ in f["tgt"]["arrows"]]
    return {
        "f": f,
        "g": g,
        "component": _total_pairs(
            _tuple_list(body["component"], 2, "component"),
            f["src"]["objects"],
            tgt_arrows,
            "component",
        ),
    }


def _v_hom(body):
    src = _nested(body, "src", "group", "src")
    tgt = _nested(body, "tgt", "group", "tgt")
    rows = _tuple_list(body["map"], 2, "map")
    return {
        "src": src,
        "tgt": tgt,
        "map": _total_pairs(rows, src["carrier"], tgt["carrier"], "map"),
    }


def _v_action(body):
    group = _nested(body, "group", "group", "group")
    carrier = _symbol_list(body["carrier"], "carrier")
    rows = _tuple_list(body["act"], 3, "act")
    return {
        "group": group,
        "carrier": carrier,
        "act": _total_table(rows, group["carrier"], carrier, carrier, "act"),
    }


def _v_subset_family(body):
    (key,) = _KINDS[body["kind"]].keys - {"carrier"}
    carrier = _symbol_list(body["carrier"], "carrier")
    return {"carrier": carrier, key: _subset_list(body[key], carrier, key)}


def _v_closure(body):
    carrier = _symbol_list(body["carrier"], "carrier")
    if not isinstance(body["table"], list):
        raise SchemaError("table must be an array of [subset, subset] pairs")
    seen = {}
    for row in body["table"]:
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError("table entries must be [subset, subset] pairs")
        key = tuple(sorted(_subset_list([row[0]], carrier, "table")[0]))
        val = _subset_list([row[1]], carrier, "table")[0]
        if key in seen:
            raise SchemaError("table defines the cell {%s} twice" % ", ".join(key))
        seen[key] = val
    full = FinSet(carrier).subsets()
    for sub in full:
        if tuple(sub.elements) not in seen:
            raise SchemaError(
                "table is not total: missing the cell {%s}" % ", ".join(sub.elements)
            )
    return {
        "carrier": carrier,
        "table": sorted([list(k), v] for k, v in seen.items()),
    }


def _v_rational_window(body):
    for key in ("window", "den"):
        v = body[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise SchemaError("%s must be a positive integer" % key)
    return {"window": body["window"], "den": body["den"]}


def _validate(payload: dict) -> dict:
    kind = payload.get("kind")
    # a tuple test, since a kind that is not a string may be unhashable
    if kind not in KINDS:
        raise SchemaError("unknown kind %r; expected one of %s" % (kind, list(KINDS)))
    spec = _KINDS[kind]
    _want_keys(payload, kind, spec.keys)
    return {"kind": kind, **spec.validate(payload)}


# ---------------------------------------------------------------------------
# parse and render


def _unique_keys(pairs) -> dict:
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        dup = sorted({k for k in keys if keys.count(k) > 1})
        raise SchemaError("duplicate keys %s in one object" % dup)
    return out


def parse_text(text: str) -> StructureDoc:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno)
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply")
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError("an integer has too many digits")
    if not isinstance(payload, dict):
        raise SchemaError("a document must be a JSON object with a 'kind' key")
    return StructureDoc(_validate(payload))


def is_literal(source: str) -> bool:
    """Whether ``parse`` reads source as document text, not as a path."""
    return source.lstrip().startswith("{")


def parse(source: str) -> StructureDoc:
    """Parse a document from literal text (anything starting with '{')
    or from a file path."""
    if is_literal(source):
        return parse_text(source)
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (source, e.strerror or e))
    except UnicodeDecodeError as e:
        raise ParseError("%s is not UTF-8 text (byte %d)" % (source, e.start))
    return parse_text(text)


def render(doc: StructureDoc) -> str:
    """The canonical text of a document, equal to
    ``json.dumps(doc.payload, sort_keys=True, indent=2, ensure_ascii=False)``
    followed by one newline. The rule, for JSON data with string keys:

    - an object is ``{``, its members in sorted key order, then ``}``; a
      member is its key, ``": "`` and its value;
    - an array is ``[``, its entries in order, then ``]``;
    - each member or entry starts a new line indented two spaces deeper
      than the line of its bracket, every one but the last ends with
      ``,``, and the closing bracket has a line at the bracket's own
      indent; an empty array or object is ``[]`` or ``{}``;
    - a string is quoted and escaped by ``json.encoder.encode_basestring``:
      ``"``, ``\\`` and control characters are escaped, every other
      character, non-ASCII included, is written as itself;
    - any other value (an integer) is written as ``json.dumps`` writes it.

    The text is built in one pass that appends its pieces to one list;
    each distinct string and each bracket layout is made once per call.
    """
    out = []
    append = out.append
    encoded = {}
    layouts = {}

    def emit(v, depth):
        if isinstance(v, str):
            s = encoded.get(v)
            if s is None:
                s = encoded[v] = encode_basestring(v)
            append(s)
        elif isinstance(v, (list, dict)):
            array = isinstance(v, list)
            if not v:
                append("[]" if array else "{}")
                return
            layout = layouts.get((depth, array))
            if layout is None:
                layout = layouts[depth, array] = _layout(depth, array)
            first, comma, last = layout
            append(first)
            if array:
                for x in v:
                    emit(x, depth + 1)
                    append(comma)
            else:
                for key in sorted(v):
                    emit(key, depth + 1)
                    append(": ")
                    emit(v[key], depth + 1)
                    append(comma)
            out[-1] = last
        else:
            append(json.dumps(v))

    emit(doc.payload, 0)
    append("\n")
    return "".join(out)


def _layout(depth: int, array: bool) -> tuple:
    """The opening, separating and closing text of a non-empty array or
    object whose bracket is at ``depth``."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    opening, closing = "[]" if array else "{}"
    return opening + inner, "," + inner, outer + closing


# ---------------------------------------------------------------------------
# documents -> library structures


def to_structure(doc: StructureDoc):
    """The library object a document denotes. Invalid structures raise
    the same errors the library constructors raise."""
    return _KINDS[doc.kind].build(doc)


def _b_set(doc):
    return FinSet(doc["elements"])


def _b_map(doc):
    return FinMap(
        FinSet(doc["dom"]), FinSet(doc["cod"]), {k: v for k, v in doc["map"]}
    )


def _b_poset(doc):
    from .order import Poset

    return Poset(FinSet(doc["carrier"]), {(x, y) for x, y in doc["le"]})


def _table(doc):
    return {(a, b): v for a, b, v in doc["table"]}


def _b_group(doc):
    from .group import check_group

    return check_group(_table(doc), FinSet(doc["carrier"]))


def _b_category(doc):
    from .category import FinCat

    return FinCat(
        doc["objects"],
        [tuple(a) for a in doc["arrows"]],
        {x: n for x, n in doc["identity"]},
        {(g, f): v for g, f, v in doc["comp"]},
    )


def _b_functor(doc):
    from .category import FunctorData

    return FunctorData(
        _b_category(doc["src"]),
        _b_category(doc["tgt"]),
        {k: v for k, v in doc["on_obj"]},
        {k: v for k, v in doc["on_arr"]},
    )


def _b_nattrans(doc):
    from .category import NatTransData

    return NatTransData(
        _b_functor(doc["f"]),
        _b_functor(doc["g"]),
        {k: v for k, v in doc["component"]},
    )


def _b_hom(doc):
    return _hom(doc, _b_group(doc["src"]), _b_group(doc["tgt"]))


def _hom(doc, src, tgt):
    from .group import GroupHom

    f = FinMap(src.carrier, tgt.carrier, {k: v for k, v in doc["map"]})
    return GroupHom(src, tgt, f)


def _b_action(doc):
    return _action(doc, _b_group(doc["group"]))


def _action(doc, G):
    from .group import GroupAction

    carrier = FinSet(doc["carrier"])
    table = {(g, x): y for g, x, y in doc["act"]}
    act = {
        g: FinMap(carrier, carrier, {x: table[(g, x)] for x in carrier})
        for g in G.carrier
    }
    return GroupAction(G, carrier, act)


def _b_family(doc):
    from .settools import Family

    return Family(FinSet(doc["carrier"]), [FinSet(m) for m in doc["members"]])


def _b_closure(doc):
    from .top import ClosureOp

    return ClosureOp(
        FinSet(doc["carrier"]),
        {FinSet(k): FinSet(v) for k, v in doc["table"]},
    )


def _b_topology(doc):
    from .settools import Family
    from .top import check_topology

    carrier = FinSet(doc["carrier"])
    return check_topology(carrier, Family(carrier, [FinSet(m) for m in doc["opens"]]))


# ---------------------------------------------------------------------------
# library structures -> documents


def _table_payload(kind: str, table: dict, carrier: FinSet) -> dict:
    return {
        "kind": kind,
        "carrier": list(carrier.elements),
        "table": [[a, b, v] for (a, b), v in table.items()],
    }


def doc_table(kind: str, table: dict, carrier: FinSet) -> StructureDoc:
    return StructureDoc(_validate(_table_payload(kind, table, carrier)))


def doc_group(G) -> StructureDoc:
    return doc_table("group", G.op, G.carrier)


def doc_category(C) -> StructureDoc:
    return StructureDoc(_validate({
        "kind": "category",
        "objects": list(C.objects.elements),
        "arrows": [list(a) for a in C.arrows],
        "identity": [[x, n] for x, n in C.identity.items()],
        "comp": [[g, f, v] for (g, f), v in C.comp.items()],
    }))


def doc_hom(h) -> StructureDoc:
    # _v_hom validates the two nested groups, so they go in raw
    return StructureDoc(_validate({
        "kind": "hom",
        "src": _table_payload("group", h.src.op, h.src.carrier),
        "tgt": _table_payload("group", h.tgt.op, h.tgt.carrier),
        "map": [[x, y] for x, y in h.map.assign.items()],
    }))


def doc_subsets(kind: str, carrier: FinSet, members) -> StructureDoc:
    (key,) = _KINDS[kind].keys - {"carrier"}
    return StructureDoc(_validate({
        "kind": kind,
        "carrier": list(carrier.elements),
        key: [list(m.elements) for m in members],
    }))


def doc_closure(op) -> StructureDoc:
    return StructureDoc(_validate({
        "kind": "closure",
        "carrier": list(op.carrier.elements),
        "table": [[list(a.elements), list(b.elements)] for a, b in op.table.items()],
    }))


# ---------------------------------------------------------------------------
# check dispatch


def run_check(doc: StructureDoc, max_size: int | None = None) -> LawReport:
    """The law suite of the document's kind, as a report. Raises
    TooLarge first if the document exceeds one of its kind's guards.
    ``max_size``, when given, replaces every default bound and must be
    at least 1, as ``--max-size`` must; a smaller one raises ValueError."""
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be at least 1, got %r" % (max_size,))
    spec = _KINDS[doc.kind]
    for key, default in spec.guards:
        size = doc[key] if isinstance(doc[key], int) else len(doc[key])
        bound = default if max_size is None else max_size
        if size > bound:
            raise TooLarge(
                "%s document exceeds the size bound (%d > %d); raise --max-size"
                % (doc.kind, size, bound),
                witness=(size, bound),
            )
    return spec.check(doc)


def _ck_set(doc):
    A = _b_set(doc)
    r = LawReport("set")
    r.add("set-elements", "elements are distinct well-formed symbols", True)
    r.add(
        "set-subset-count",
        "a finite set has 2^n subsets",
        len(list(A.subsets())) == 2 ** len(A) if len(A) <= 10 else True,
    )
    return r


def _ck_map(doc):
    f = _b_map(doc)
    r = LawReport("map")
    flags = classify(f)
    r.add("map-total", "the assignment covers exactly the domain", True)
    r.add(
        "map-classify",
        "monic and onto together are equivalent to bijective",
        flags["bijective"] == (flags["monic"] and flags["onto"]),
    )
    from .core import image_calculus

    r.merge(image_calculus(f, f.dom, f.cod))
    return r


def _ck_poset(doc):
    from .order import check_order

    rep = check_order(FinSet(doc["carrier"]), {(x, y) for x, y in doc["le"]})
    # totality distinguishes natural orders; it is not a poset law
    out = LawReport(rep.suite, [c for c in rep.checks if c.law != "total"])
    return out


def _ck_semilattice(doc):
    from .order import semilattice_report

    return semilattice_report(_table(doc), FinSet(doc["carrier"]))


def _ck_category(doc):
    from .category import check_category

    return check_category(_b_category(doc))


def _ck_functor(doc):
    from .category import check_category, check_functor

    F = _b_functor(doc)
    r = LawReport("functor")
    r.merge(check_category(F.src))
    r.merge(check_category(F.tgt))
    r.merge(check_functor(F))
    return r


def _ck_nattrans(doc):
    from .category import check_functor, check_nat

    n = _b_nattrans(doc)
    r = LawReport("nattrans")
    r.merge(check_functor(n.F))
    r.merge(check_functor(n.G))
    r.merge(check_nat(n))
    return r


def _ck_group(doc):
    from .group import group_axioms

    return group_axioms(_table(doc), FinSet(doc["carrier"]))


def _ck_hom(doc):
    from .group import assemble_group, group_axioms, hom_witness

    r = LawReport("hom")
    groups = [(_table(doc[k]), FinSet(doc[k]["carrier"])) for k in ("src", "tgt")]
    for table, carrier in groups:
        r.merge(group_axioms(table, carrier))
    if not r.passed:
        return r
    src, tgt = (assemble_group(table, carrier) for table, carrier in groups)
    h = _hom(doc, src, tgt)
    bad = hom_witness(src, tgt, h.map)
    r.add("hom-mult", "f(ab) equals f(a)f(b)", bad is None, bad)
    r.add("hom-unit", "f sends unit to unit", h.map(h.src.unit) == h.tgt.unit)
    return r


def _ck_action(doc):
    from .group import action_check, assemble_group, group_axioms

    r = LawReport("action")
    table, carrier = _table(doc["group"]), FinSet(doc["group"]["carrier"])
    r.merge(group_axioms(table, carrier))
    if not r.passed:
        return r
    r.merge(action_check(_action(doc, assemble_group(table, carrier))))
    return r


def _ck_family(doc):
    from .settools import is_sigma_algebra, sigma_generate

    fam = _b_family(doc)
    r = LawReport("family")
    # run_check has bounded the carrier already
    sigma = sigma_generate(fam.carrier, fam, guard=len(fam.carrier))
    r.add("fam-sigma-extends", "the generated sigma-algebra contains the family",
          fam.members <= sigma.members)
    r.add("fam-sigma-fixed", "the generated sigma-algebra is a fixed point",
          is_sigma_algebra(sigma))
    return r


def _ck_filterbase(doc):
    from .settools import generate_filter, is_filter

    fam = _b_family(doc)
    r = LawReport("filterbase")
    try:
        F = generate_filter(fam)
    except EmptyMemberInBase:
        F = None
    r.add("fb-base", "pairwise intersections swallow a member", F is not None)
    if F is not None:
        r.add("fb-filter", "the generated family is a filter", is_filter(F))
        r.add("fb-extends", "the generated filter contains the base",
              fam.members <= F.members)
    return r


def _ck_closure(doc):
    from .top import closure_laws

    return closure_laws(_b_closure(doc))


def _ck_topology(doc):
    from .settools import Family
    from .top import check_topology, neighborhood_laws

    carrier = FinSet(doc["carrier"])
    fam = Family(carrier, [FinSet(m) for m in doc["opens"]])
    r = LawReport("topology")
    try:
        T = check_topology(carrier, fam)
    except StructaError as e:
        r.add("top-axioms", "opens contain endpoints, unions, intersections",
              False, e.witness or (str(e),))
        return r
    r.add("top-axioms", "opens contain endpoints, unions, intersections", True)
    r.merge(neighborhood_laws(T))
    return r


def _ck_base(doc):
    from .top import base_ops

    fam = _b_family(doc)
    r = LawReport("base")
    try:
        out = base_ops(fam.carrier, fam)
    except StructaError as e:
        r.add("bs-covering", "every point lies in a base member",
              False, e.witness or (str(e),))
        return r
    r.add("bs-covering", "every point lies in a base member", True)
    r.merge(out["criterion"])
    return r


def _ck_rational_window(doc):
    from .numbers import dual_order_checks, embedding_check, int_group_check

    r = LawReport("rational-window")
    r.merge(int_group_check(doc["window"]))
    r.merge(dual_order_checks(doc["den"]))
    r.merge(embedding_check(doc["den"]))
    return r


# ---------------------------------------------------------------------------
# the kinds


class _Kind(Frozen):
    """One document kind: the keys a payload has besides ``kind``, and
    the functions that validate a payload with those keys, build the
    library object and check the laws. ``guards`` are the kind's
    enumeration guards, (document key, default bound) pairs that
    ``run_check`` applies in order; --max-size replaces every default. A
    key's size is its length (a carrier) or its value (an integer)."""

    __slots__ = _fields = ("keys", "validate", "build", "check", "guards")

    def __init__(self, keys, validate, build, check, guards=()):
        super().__init__(frozenset(keys), validate, build, check, guards)


_KINDS = {
    "set": _Kind({"elements"}, _v_set, _b_set, _ck_set),
    "map": _Kind({"dom", "cod", "map"}, _v_map, _b_map, _ck_map),
    "poset": _Kind({"carrier", "le"}, _v_poset, _b_poset, _ck_poset),
    "semilattice": _Kind({"carrier", "table"}, _v_op_table,
                         lambda d: (_table(d), FinSet(d["carrier"])), _ck_semilattice),
    "category": _Kind({"objects", "arrows", "identity", "comp"},
                      _v_category, _b_category, _ck_category),
    "functor": _Kind({"src", "tgt", "on_obj", "on_arr"}, _v_functor, _b_functor, _ck_functor),
    "nattrans": _Kind({"f", "g", "component"}, _v_nattrans, _b_nattrans, _ck_nattrans),
    "group": _Kind({"carrier", "table"}, _v_op_table, _b_group, _ck_group),
    "hom": _Kind({"src", "tgt", "map"}, _v_hom, _b_hom, _ck_hom),
    "action": _Kind({"group", "carrier", "act"}, _v_action, _b_action, _ck_action),
    "family": _Kind({"carrier", "members"}, _v_subset_family, _b_family, _ck_family,
                    (("carrier", 4),)),
    "filterbase": _Kind({"carrier", "members"}, _v_subset_family, _b_family, _ck_filterbase,
                        (("carrier", 5),)),
    "closure": _Kind({"carrier", "table"}, _v_closure, _b_closure, _ck_closure,
                     (("carrier", 4),)),
    "topology": _Kind({"carrier", "opens"}, _v_subset_family, _b_topology, _ck_topology,
                      (("carrier", 5),)),
    "base": _Kind({"carrier", "members"}, _v_subset_family, _b_family, _ck_base,
                  (("carrier", 5),)),
    "rational-window": _Kind({"window", "den"}, _v_rational_window,
                             lambda d: (d["window"], d["den"]), _ck_rational_window,
                             (("window", 40), ("den", 6))),
}


KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# derive dispatch


def _d_quotient(doc, args):
    from .group import quotient, subgroup_check

    if not args:
        raise SchemaError("quotient needs the subgroup elements as arguments")
    G = _b_group(doc)
    H = FinSet([_symbol(x, "quotient argument") for x in args])
    return doc_group(quotient(G, subgroup_check(G, H)))


def _d_opposite(doc, args):
    from .category import opposite_cat

    return doc_category(opposite_cat(_b_category(doc)))


def _d_filter(doc, args):
    from .settools import generate_filter

    return doc_subsets("family", FinSet(doc["carrier"]),
                       generate_filter(_b_family(doc)).members)


def _d_topology(doc, args):
    from .top import base_ops

    fam = _b_family(doc)
    T = base_ops(fam.carrier, fam)["topology"]
    return doc_subsets("topology", T.carrier, T.opens.members)


def _d_closure(doc, args):
    from .top import closure_from_closed, open_duality

    T = _b_topology(doc)
    return doc_closure(closure_from_closed(T.carrier, open_duality(T)))


def _d_cayley(doc, args):
    from .group import cayley

    return doc_hom(cayley(_b_group(doc)))


DERIVE_OPS = {
    "quotient": ("group", _d_quotient),
    "opposite": ("category", _d_opposite),
    "filter": ("filterbase", _d_filter),
    "topology": ("base", _d_topology),
    "closure": ("topology", _d_closure),
    "cayley": ("group", _d_cayley),
}


def run_derive(doc: StructureDoc, op: str, args=()) -> StructureDoc:
    """A new document computed from an old one."""
    if op not in DERIVE_OPS:
        raise SchemaError(
            "unknown derive op %r; known: %s" % (op, sorted(DERIVE_OPS))
        )
    kind, fn = DERIVE_OPS[op]
    if doc.kind != kind:
        raise SchemaError(
            "derive op %r wants a %r document, got %r" % (op, kind, doc.kind)
        )
    return fn(doc, list(args))
