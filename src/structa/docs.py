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
from itertools import chain
from json.encoder import encode_basestring

from . import category, core, group, numbers, order, settools, top
from .core import FinMap, FinSet, Frozen, check_symbol
from .errors import EmptyMemberInBase, ParseError, SchemaError, StructaError, TooLarge
from .report import LawReport


class StructureDoc(Frozen):
    """A parsed document: the canonical payload ``_validate`` returns,
    plain JSON data with its ``kind`` key. Nested documents are payload
    dicts of the same form.

    The builders trust the payload: its symbol lists are sorted,
    duplicate-free and checked, and they become sets without being
    checked again. Make documents with ``parse`` or the ``doc_*``
    functions, not from a payload that ``_validate`` has not returned."""

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
    """Copies of the rows of v, each an array of n symbols.

    The rows are certified first: every row a list of length n, and every
    distinct entry a symbol. Only when that fails does the loop below run,
    in order, so that it raises at the first bad row or entry."""
    if not isinstance(v, list):
        raise SchemaError("%s must be an array of %d-tuples" % (where, n))
    if _rows_of_symbols(v, n):
        return list(map(list.copy, v))
    out = []
    seen = set()
    for row in v:
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError("%s entries must be arrays of length %d" % (where, n))
        _symbols(row, seen, where)
        out.append(row[:])
    return out


def _rows_of_symbols(v, n: int) -> bool:
    """Whether each entry of v is a list of n symbols."""
    for row in v:
        if row.__class__ is not list or len(row) != n:
            return False
    try:
        distinct = set(chain.from_iterable(v))
    except TypeError:  # an unhashable entry
        return False
    for x in distinct:
        if x.__class__ is not str:
            return False
        try:
            check_symbol(x)
        except ValueError:
            return False
    return True


def _declared(x, declared: set, where: str):
    if x not in declared:
        raise SchemaError("undeclared symbol %r in %s" % (x, where))
    return x


def _total_table(rows, left, right, values, where: str) -> list:
    """Rows [a, b, v] with (a, b) covering left x right exactly once,
    sorted.

    The passing case is decided first by a certificate of set operations:
    every row symbol is declared, no cell (a, b) repeats, and there are
    |left|·|right| cells. Distinct declared cells, as many as left x right
    has, are all of left x right, so the table is total. When the
    certificate fails, the ordered scan below runs, which raises at the
    first undeclared symbol, repeated cell or missing cell, in the order
    it always did; so the error a bad table gets does not change."""
    left_set, right_set, value_set = set(left), set(right), set(values)
    cells = {(a, b): v for a, b, v in rows}
    if (
        len(cells) == len(rows) == len(left_set) * len(right_set)
        and left_set.issuperset([a for a, _ in cells])
        and right_set.issuperset([b for _, b in cells])
        and value_set.issuperset(cells.values())
    ):
        return sorted(rows)
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
    """Rows [k, v] with k covering ``keys`` exactly once, sorted. As in
    ``_total_table``, a certificate (every symbol declared, no key
    repeated, |keys| rows) decides the passing case before the ordered
    scan."""
    key_set, value_set = set(keys), set(values)
    cells = dict(rows)
    if (
        len(cells) == len(rows) == len(key_set)
        and key_set.issuperset(cells)
        and value_set.issuperset(cells.values())
    ):
        return sorted(rows)
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
    acting = _nested(body, "group", "group", "group")
    carrier = _symbol_list(body["carrier"], "carrier")
    rows = _tuple_list(body["act"], 3, "act")
    return {
        "group": acting,
        "carrier": carrier,
        "act": _total_table(rows, acting["carrier"], carrier, carrier, "act"),
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
    full = _set(carrier).subsets()
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

    The text is built in one pass that appends its pieces to one list.
    An array writes its string entries, and the string entries of its
    non-empty array entries (the rows of a table), in its own loop, with
    no ``emit`` call per string; any other entry goes through ``emit``.
    Strings are escaped in one place, ``_Escaped``, once per distinct
    string, and each bracket layout is made once per call. No row is
    joined into one string first: that raised peak memory.
    """
    out = []
    append = out.append
    enc = _Escaped()
    layouts = _Layouts()

    def emit(v, depth):
        if isinstance(v, str):
            append(enc[v])
        elif isinstance(v, (list, dict)):
            array = isinstance(v, list)
            if not v:
                append("[]" if array else "{}")
                return
            first, comma, last = layouts[depth, array]
            append(first)
            if array:
                row_first, row_comma, row_last = layouts[depth + 1, True]
                for x in v:
                    if x.__class__ is str:
                        append(enc[x])
                    elif x.__class__ is list and x:
                        append(row_first)
                        for y in x:
                            if y.__class__ is str:
                                append(enc[y])
                            else:
                                emit(y, depth + 2)
                            append(row_comma)
                        out[-1] = row_last
                    else:
                        emit(x, depth + 1)
                    append(comma)
            else:
                for key in sorted(v):
                    append(enc[key])
                    append(": ")
                    emit(v[key], depth + 1)
                    append(comma)
            out[-1] = last
        else:
            append(json.dumps(v))

    emit(doc.payload, 0)
    append("\n")
    return "".join(out)


class _Escaped(dict):
    """Each string's quoted JSON text, made by ``encode_basestring`` on
    the first lookup of the string: the one place ``render`` escapes."""

    __slots__ = ()

    def __missing__(self, s):
        text = self[s] = encode_basestring(s)
        return text


class _Layouts(dict):
    """The opening, separating and closing text of a non-empty array or
    object, keyed by the depth of its bracket and whether it is an array;
    made on first lookup."""

    __slots__ = ()

    def __missing__(self, key):
        depth, array = key
        inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        opening, closing = "[]" if array else "{}"
        layout = self[key] = (opening + inner, "," + inner, outer + closing)
        return layout


# ---------------------------------------------------------------------------
# documents -> library structures


def to_structure(doc: StructureDoc):
    """The library object a document denotes. Invalid structures raise
    the same errors the library constructors raise."""
    return _KINDS[doc.kind].build(doc)


def _set(elements) -> FinSet:
    """The set of a symbol list of a validated payload: it is sorted,
    duplicate-free and checked already, so it is not checked again."""
    return FinSet._ordered(tuple(elements))


def _b_set(doc):
    return _set(doc["elements"])


def _b_map(doc):
    return FinMap(
        _set(doc["dom"]), _set(doc["cod"]), {k: v for k, v in doc["map"]}
    )


def _b_poset(doc):
    return order.Poset(_set(doc["carrier"]), {(x, y) for x, y in doc["le"]})


def _table(doc):
    return {(a, b): v for a, b, v in doc["table"]}


def _b_group(doc):
    return group.check_group(_table(doc), _set(doc["carrier"]))


def _b_category(doc):
    # _v_category has checked the symbols, sorted the arrows, and found the
    # names distinct and every endpoint, identity and cell declared
    return category.FinCat._trusted(
        _set(doc["objects"]),
        tuple(map(tuple, doc["arrows"])),
        {x: n for x, n in doc["identity"]},
        {(g, f): v for g, f, v in doc["comp"]},
    )


def _b_functor(doc):
    return category.FunctorData(
        _b_category(doc["src"]),
        _b_category(doc["tgt"]),
        {k: v for k, v in doc["on_obj"]},
        {k: v for k, v in doc["on_arr"]},
    )


def _b_nattrans(doc):
    return category.NatTransData(
        _b_functor(doc["f"]),
        _b_functor(doc["g"]),
        {k: v for k, v in doc["component"]},
    )


def _b_hom(doc):
    return _hom(doc, _b_group(doc["src"]), _b_group(doc["tgt"]))


def _hom(doc, src, tgt):
    f = FinMap(src.carrier, tgt.carrier, {k: v for k, v in doc["map"]})
    return group.GroupHom(src, tgt, f)


def _b_action(doc):
    return _action(doc, _b_group(doc["group"]))


def _action(doc, G):
    carrier = _set(doc["carrier"])
    table = {(g, x): y for g, x, y in doc["act"]}
    act = {
        g: FinMap(carrier, carrier, {x: table[(g, x)] for x in carrier})
        for g in G.carrier
    }
    return group.GroupAction(G, carrier, act)


def _b_family(doc):
    return settools.Family(_set(doc["carrier"]), [_set(m) for m in doc["members"]])


def _b_closure(doc):
    return top.ClosureOp(
        _set(doc["carrier"]),
        {_set(k): _set(v) for k, v in doc["table"]},
    )


def _b_topology(doc):
    carrier = _set(doc["carrier"])
    return top.check_topology(carrier, settools.Family(carrier, [_set(m) for m in doc["opens"]]))


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
    r.add("set-elements", True)
    r.add("set-subset-count", len(list(A.subsets())) == 2 ** len(A) if len(A) <= 10 else True)
    return r


def _ck_map(doc):
    f = _b_map(doc)
    r = LawReport("map")
    r.add("map-total", True)
    r.add("map-classify", True)
    r.merge(core.image_calculus(f, f.dom, f.cod))
    return r


def _ck_poset(doc):
    rep = order.check_order(_set(doc["carrier"]), {(x, y) for x, y in doc["le"]})
    # totality distinguishes natural orders; it is not a poset law
    out = LawReport(rep.suite, [c for c in rep.checks if c.law != "total"])
    return out


def _ck_semilattice(doc):
    return order.semilattice_report(_table(doc), _set(doc["carrier"]))


def _ck_category(doc):
    return category.check_category(_b_category(doc))


def _ck_functor(doc):
    F = _b_functor(doc)
    r = LawReport("functor")
    r.merge(category.check_category(F.src))
    r.merge(category.check_category(F.tgt))
    r.merge(category.check_functor(F))
    return r


def _ck_nattrans(doc):
    n = _b_nattrans(doc)
    r = LawReport("nattrans")
    r.merge(category.check_functor(n.F))
    r.merge(category.check_functor(n.G))
    r.merge(category.check_nat(n))
    return r


def _ck_group(doc):
    return group.group_axioms(_table(doc), _set(doc["carrier"]))


def _ck_hom(doc):
    r = LawReport("hom")
    groups = [(_table(doc[k]), _set(doc[k]["carrier"])) for k in ("src", "tgt")]
    (src_rep, src), (tgt_rep, tgt) = (group.axioms_and_group(t, c) for t, c in groups)
    r.merge(src_rep)
    r.merge(tgt_rep)
    if not r.passed:
        return r
    h = _hom(doc, src, tgt)
    bad = group.hom_witness(src, tgt, h.map)
    r.add("hom-mult", bad is None, bad)
    r.add("hom-unit", h.map(h.src.unit) == h.tgt.unit)
    return r


def _ck_action(doc):
    r = LawReport("action")
    rep, G = group.axioms_and_group(_table(doc["group"]), _set(doc["group"]["carrier"]))
    r.merge(rep)
    if G is None:
        return r
    r.merge(group.action_check(_action(doc, G)))
    return r


def _ck_family(doc):
    fam = _b_family(doc)
    r = LawReport("family")
    # run_check has bounded the carrier already
    sigma = settools.sigma_generate(fam.carrier, fam, guard=len(fam.carrier))
    r.add("fam-sigma-extends", fam.members <= sigma.members)
    r.add("fam-sigma-fixed", settools.is_sigma_algebra(sigma))
    return r


def _ck_filterbase(doc):
    fam = _b_family(doc)
    r = LawReport("filterbase")
    try:
        F = settools.generate_filter(fam)
    except EmptyMemberInBase:
        F = None
    r.add("fb-base", F is not None)
    if F is not None:
        r.add("fb-filter", settools.is_filter(F))
        r.add("fb-extends", fam.members <= F.members)
    return r


def _ck_closure(doc):
    return top.closure_laws(_b_closure(doc))


def _ck_topology(doc):
    carrier = _set(doc["carrier"])
    fam = settools.Family(carrier, [_set(m) for m in doc["opens"]])
    r = LawReport("topology")
    try:
        T = top.check_topology(carrier, fam)
    except StructaError as e:
        r.add("top-axioms", False, e.witness)
        return r
    r.add("top-axioms", True)
    r.merge(top.neighborhood_laws(T))
    return r


def _ck_base(doc):
    fam = _b_family(doc)
    r = LawReport("base")
    try:
        out = top.base_ops(fam.carrier, fam)
    except StructaError as e:
        r.add("bs-covering", False, e.witness or (str(e),))
        return r
    r.add("bs-covering", True)
    r.merge(out["criterion"])
    return r


def _ck_rational_window(doc):
    r = LawReport("rational-window")
    r.merge(numbers.int_group_check(doc["window"]))
    r.merge(numbers.dual_order_checks(doc["den"]))
    r.merge(numbers.embedding_check(doc["den"]))
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
                         lambda d: (_table(d), _set(d["carrier"])), _ck_semilattice),
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
    if not args:
        raise SchemaError("quotient needs the subgroup elements as arguments")
    G = _b_group(doc)
    H = FinSet([_symbol(x, "quotient argument") for x in args])
    return doc_group(group.quotient(G, group.subgroup_check(G, H)))


def _d_opposite(doc, args):
    return doc_category(category.opposite_cat(_b_category(doc)))


def _d_filter(doc, args):
    return doc_subsets("family", _set(doc["carrier"]),
                       settools.generate_filter(_b_family(doc)).members)


def _d_topology(doc, args):
    fam = _b_family(doc)
    T = top.base_ops(fam.carrier, fam)["topology"]
    return doc_subsets("topology", T.carrier, T.opens.members)


def _d_closure(doc, args):
    T = _b_topology(doc)
    return doc_closure(top.closure_from_closed(T.carrier, top.open_duality(T)))


def _d_cayley(doc, args):
    return doc_hom(group.cayley(_b_group(doc)))


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
