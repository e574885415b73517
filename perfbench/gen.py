"""Seeded inputs for the document workloads, with verdicts known in advance.

Every input's expected exit code is fixed by how the input is built. Where
a construction alone cannot fix it (a perturbed table may still satisfy
every law), a small oracle in this file decides. No expected answer comes
from structa itself.

The corpus composition (how many documents of each kind, how many are
broken and how) is the same for every seed; the seed moves sizes within
fixed strata and picks tables, so the cost of a corpus varies little from
seed to seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

# exit codes of the structa command line
PASS, LAW_FAILED, REJECTED = 0, 1, 2


@dataclass
class Unit:
    """One document and the command to run on it."""

    name: str
    kind: str
    text: str
    expect: int
    op: str | None = None  # derive operation; None for check
    args: list = field(default_factory=list)
    oracle: object = None  # derive: callable(payload) -> bool on the output


# ---------------------------------------------------------------------------
# sizes


def strata(count: int, lo: int, hi: int) -> list:
    """``count`` sizes spread log-uniformly over [lo, hi]: the middle of
    each stratum, and the last at hi. Sizes do not depend on the seed, so
    the cost of a corpus varies little from seed to seed."""
    out = [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count - 1)]
    return [max(lo, min(hi, n)) for n in out] + [hi]


# ---------------------------------------------------------------------------
# groups as (elements, table) with table[(a, b)] = ab


def cyclic(n: int, p: str = "c"):
    xs = ["%s%d" % (p, i) for i in range(n)]
    return xs, {(xs[i], xs[j]): xs[(i + j) % n] for i in range(n) for j in range(n)}


def dihedral(n: int):
    """Symmetries of the n-gon: rotations r_i and reflections s_i."""
    xs = ["r%d" % i for i in range(n)] + ["s%d" % i for i in range(n)]

    def mul(a, b):
        i, j = int(a[1:]), int(b[1:])
        if a[0] == "r":
            return ("r%d" if b[0] == "r" else "s%d") % ((i + j) % n)
        return ("s%d" if b[0] == "r" else "r%d") % ((i - j) % n)

    return xs, {(a, b): mul(a, b) for a in xs for b in xs}


def product(m: int, n: int):
    xs = ["p%d_%d" % (i, j) for i in range(m) for j in range(n)]
    table = {}
    for i, j, k, l in itertools.product(range(m), range(n), range(m), range(n)):
        table[("p%d_%d" % (i, j), "p%d_%d" % (k, l))] = "p%d_%d" % ((i + k) % m, (j + l) % n)
    return xs, table


def symmetric(k: int):
    perms = list(itertools.permutations(range(k)))
    name = {p: "q" + "".join(map(str, p)) for p in perms}
    return [name[p] for p in perms], {
        (name[p], name[q]): name[tuple(p[q[i]] for i in range(k))]
        for p in perms
        for q in perms
    }


def some_group(rng: random.Random, order: int):
    """A group of exactly ``order`` elements, of a seeded shape."""
    shapes = ["cyclic"]
    if order % 2 == 0 and order >= 6:
        shapes.append("dihedral")
    splits = [(a, order // a) for a in range(2, order) if order % a == 0 and a <= order // a]
    if splits:
        shapes.append("product")
    if order in (6, 24):
        shapes.append("symmetric")
    shape = rng.choice(shapes)
    if shape == "dihedral":
        return dihedral(order // 2)
    if shape == "product":
        return product(*rng.choice(splits))
    if shape == "symmetric":
        return symmetric(3 if order == 6 else 4)
    return cyclic(order)


def unit_of(xs, t):
    return next(e for e in xs if all(t[(e, a)] == a == t[(a, e)] for a in xs))


def is_group(xs, t) -> bool:
    if any(t[(a, b)] not in xs for a in xs for b in xs):
        return False
    units = [e for e in xs if all(t[(e, a)] == a == t[(a, e)] for a in xs)]
    if not units:
        return False
    e = units[0]
    if not all(any(t[(a, b)] == e == t[(b, a)] for b in xs) for a in xs):
        return False
    return all(t[(t[(a, b)], c)] == t[(a, t[(b, c)])] for a in xs for b in xs for c in xs)


def table_rows(t):
    return [[a, b, v] for (a, b), v in t.items()]


def group_payload(xs, t):
    return {"kind": "group", "carrier": list(xs), "table": table_rows(t)}


def perturb(rng: random.Random, xs, t):
    """The table with one cell changed to another element."""
    t = dict(t)
    cell = rng.choice(sorted(t))
    t[cell] = rng.choice([x for x in xs if x != t[cell]])
    return t


# ---------------------------------------------------------------------------
# orders and categories


def random_order(rng: random.Random, n: int, p: float):
    """A partial order on n points: a random DAG along a random linear
    extension, closed under reflexivity and transitivity."""
    xs = ["v%d" % i for i in range(n)]
    perm = xs[:]
    rng.shuffle(perm)
    le = {(x, x) for x in xs}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            le.add((perm[i], perm[j]))
    return xs, transitive_closure(le)


def transitive_closure(le: set) -> set:
    while True:
        more = {(a, d) for a, b in le for c, d in le if b == c} - le
        if not more:
            return le
        le |= more


def is_partial_order(xs, le) -> bool:
    return (
        all((x, x) in le for x in xs)
        and not any(a != b and (b, a) in le for a, b in le)
        and all((a, d) in le for a, b in le for c, d in le if b == c)
    )


def chain_category(n: int, p: str = "o"):
    """The chain 0 < 1 < ... < n-1 as a thin category."""
    objs = ["%s%d" % (p, i) for i in range(n)]
    arrows = [("%s%d_%d" % (p, i, j), objs[i], objs[j]) for i in range(n) for j in range(i, n)]
    ident = {objs[i]: "%s%d_%d" % (p, i, i) for i in range(n)}
    comp = {
        ("%s%d_%d" % (p, j, k), "%s%d_%d" % (p, i, j)): "%s%d_%d" % (p, i, k)
        for i in range(n)
        for j in range(i, n)
        for k in range(j, n)
    }
    return {"objects": objs, "arrows": arrows, "identity": ident, "comp": comp}


def group_category(xs, t):
    e = unit_of(xs, t)
    return {
        "objects": ["pt"],
        "arrows": [(x, "pt", "pt") for x in xs],
        "identity": {"pt": e},
        "comp": dict(t),
    }


def category_payload(C):
    return {
        "kind": "category",
        "objects": list(C["objects"]),
        "arrows": [list(a) for a in C["arrows"]],
        "identity": [[x, n] for x, n in C["identity"].items()],
        "comp": [[g, f, v] for (g, f), v in C["comp"].items()],
    }


def is_category(C) -> bool:
    src = {n: s for n, s, _ in C["arrows"]}
    tgt = {n: t for n, _, t in C["arrows"]}
    comp, ident = C["comp"], C["identity"]
    names = list(src)
    composable = {(g, f) for g in names for f in names if tgt[f] == src[g]}
    if set(comp) != composable:
        return False
    if any(src[v] != src[f] or tgt[v] != tgt[g] for (g, f), v in comp.items()):
        return False
    for x in C["objects"]:
        u = ident[x]
        if src[u] != x or tgt[u] != x:
            return False
    if any(comp[(f, ident[src[f]])] != f or comp[(ident[tgt[f]], f)] != f for f in names):
        return False
    return all(
        comp[(h, comp[(g, f)])] == comp[(comp[(h, g)], f)]
        for (g, f) in composable
        for h in names
        if src[h] == tgt[g]
    )


def monotone(rng: random.Random, n: int, m: int, floor=None):
    """A non-decreasing map range(n) -> range(m), pointwise >= floor."""
    vals = sorted(rng.randrange(m) for _ in range(n))
    if floor is not None:
        vals = [max(v, f) for v, f in zip(vals, floor)]
    return vals


def chain_functor(n: int, m: int, f):
    C, D = chain_category(n, "a"), chain_category(m, "b")
    return {
        "src": C,
        "tgt": D,
        "on_obj": {"a%d" % i: "b%d" % f[i] for i in range(n)},
        "on_arr": {"a%d_%d" % (i, j): "b%d_%d" % (f[i], f[j]) for i in range(n) for j in range(i, n)},
    }


def functor_payload(F):
    return {
        "kind": "functor",
        "src": category_payload(F["src"]),
        "tgt": category_payload(F["tgt"]),
        "on_obj": [[k, v] for k, v in F["on_obj"].items()],
        "on_arr": [[k, v] for k, v in F["on_arr"].items()],
    }


def is_functor(F) -> bool:
    C, D = F["src"], F["tgt"]
    csrc = {n: s for n, s, _ in C["arrows"]}
    ctgt = {n: t for n, _, t in C["arrows"]}
    dsrc = {n: s for n, s, _ in D["arrows"]}
    dtgt = {n: t for n, _, t in D["arrows"]}
    on_obj, on_arr = F["on_obj"], F["on_arr"]
    if any(dsrc[on_arr[n]] != on_obj[csrc[n]] or dtgt[on_arr[n]] != on_obj[ctgt[n]] for n in csrc):
        return False
    if any(on_arr[C["identity"][x]] != D["identity"][on_obj[x]] for x in C["objects"]):
        return False
    return all(D["comp"].get((on_arr[g], on_arr[f])) == on_arr[v] for (g, f), v in C["comp"].items())


def is_nat(F, G, comp) -> bool:
    D = F["tgt"]
    dsrc = {n: s for n, s, _ in D["arrows"]}
    dtgt = {n: t for n, _, t in D["arrows"]}
    for x in F["src"]["objects"]:
        c = comp[x]
        if dsrc[c] != F["on_obj"][x] or dtgt[c] != G["on_obj"][x]:
            return False
    return all(
        D["comp"][(G["on_arr"][n], comp[s])] == D["comp"][(comp[t], F["on_arr"][n])]
        for n, s, t in F["src"]["arrows"]
    )


# ---------------------------------------------------------------------------
# set families, filters, topologies


def subsets(xs):
    return [frozenset(c) for k in range(len(xs) + 1) for c in itertools.combinations(xs, k)]


def members_payload(kind: str, xs, members):
    key = "opens" if kind == "topology" else "members"
    # sorted, so that the same seed writes the same bytes whatever the hash seed
    return {"kind": kind, "carrier": list(xs), key: sorted(sorted(m) for m in members)}


def alexandrov(rng: random.Random, n: int):
    """A random topology with at most 2n opens: the up-sets of a random
    preorder (every finite topology arises this way). The cap keeps the
    cost of a document steady: on up to four points structa's closure laws
    take time exponential in the number of closed sets."""
    while True:
        xs, opens = _alexandrov(rng, n)
        if len(opens) <= 2 * n:
            return xs, opens


def _alexandrov(rng: random.Random, n: int):
    xs = ["t%d" % i for i in range(n)]
    le = {(x, x) for x in xs}
    for a, b in itertools.permutations(xs, 2):
        if rng.random() < 0.3:
            le.add((a, b))
    le = transitive_closure(le)
    opens = [S for S in subsets(xs) if all(y in S for x in S for (a, y) in le if a == x)]
    return xs, opens


def is_topology(xs, opens) -> bool:
    fam = set(opens)
    return (
        frozenset() in fam
        and frozenset(xs) in fam
        and all(a | b in fam and a & b in fam for a in fam for b in fam)
    )


def is_filter_base(members) -> bool:
    return (
        bool(members)
        and all(members)
        and all(any(h <= f & g for h in members) for f in members for g in members)
    )


def covering_family(rng: random.Random, xs, p: float):
    """Random nonempty subsets that cover xs and generate a topology with at
    most 2n opens (see alexandrov)."""
    while True:
        members = [S for S in subsets(xs) if S and rng.random() < p]
        members += [frozenset([x]) for x in xs if not any(x in S for S in members)]
        if len(union_closure(xs, members)) <= 2 * len(xs):
            return members


def union_closure(xs, members):
    """The topology a family generates: close under unions and
    intersections, then add the empty set and the carrier."""
    opens = set(members) | {frozenset(), frozenset(xs)}
    while True:
        new = opens | {a | b for a in opens for b in opens} | {a & b for a in opens for b in opens}
        if new == opens:
            return opens
        opens = new


def closure_table(xs, opens):
    closed = [frozenset(xs) - U for U in opens]
    full = frozenset(xs)
    return {A: frozenset.intersection(full, *[C for C in closed if A <= C]) for A in subsets(xs)}


def closure_payload(xs, table):
    return {"kind": "closure", "carrier": list(xs),
            "table": [[sorted(a), sorted(b)] for a, b in table.items()]}


# ---------------------------------------------------------------------------
# rendering inputs


def dump(payload, rng: random.Random) -> str:
    """The payload as JSON with every list in a seeded order, so that
    structa's canonicalization has work to do."""

    def shuffled(v):
        if isinstance(v, dict):
            return {k: shuffled(x) for k, x in v.items()}
        if isinstance(v, list):
            # rows and members may come in any order; a row's own order matters
            out = list(v)
            rng.shuffle(out)
            return out
        return v

    return json.dumps(shuffled(payload))


# ---------------------------------------------------------------------------
# the doc-check corpus

# (kind, documents per corpus, largest size); kinds under a size guard stay
# within it, unguarded kinds go larger
CHECK_KINDS = [
    ("set", 16, 4000),
    ("map", 16, 1500),
    ("poset", 14, 24),
    ("semilattice", 12, 32),
    ("category", 12, 12),
    ("functor", 10, 8),
    ("nattrans", 10, 8),
    ("group", 20, 60),
    ("hom", 10, 36),
    ("action", 10, 40),
    ("family", 12, 4),
    ("filterbase", 14, 5),
    ("closure", 10, 4),
    ("topology", 14, 5),
    ("base", 14, 5),
    ("rational-window", 8, 16),
]

# per kind: which documents (by index within the kind) are built differently,
# and how: most are broken; the last closure document takes the discrete
# topology at the size guard, structa's known slow case (closure laws over
# 2^16 families of closed sets)
VARIANTS = {
    "set": {3: "duplicate"},
    "map": {4: "undeclared"},
    "poset": {2: "law", 9: "law"},
    "semilattice": {5: "law"},
    "category": {3: "law"},
    "functor": {4: "law"},
    "nattrans": {6: "law"},
    "group": {4: "law", 11: "law", 15: "missing-cell"},
    "hom": {2: "law"},
    "action": {3: "law"},
    "family": {1: "too-large"},
    "filterbase": {6: "law", 10: "law"},
    "closure": {2: "law", 9: "discrete"},
    "topology": {4: "law", 8: "too-large"},
    "base": {5: "law"},
    "rational-window": {1: "too-large"},
}
PARSE_ERRORS = 3  # truncated documents appended to the corpus
# the default size guards of the guarded kinds
GUARD = {"family": 4, "filterbase": 5, "closure": 4, "topology": 5, "base": 5}


def _check_doc(kind: str, rng: random.Random, size: int, variant: str | None):
    """(payload, expected exit code) for one document."""
    law = variant == "law"
    if kind == "set":
        xs = ["e%d" % i for i in range(size)]
        if variant == "duplicate":
            xs.append(xs[rng.randrange(len(xs))])
            return {"kind": "set", "elements": xs}, REJECTED
        return {"kind": "set", "elements": xs}, PASS
    if kind == "map":
        dom = ["x%d" % i for i in range(size)]
        cod = ["y%d" % i for i in range(max(1, size // 2))]
        rows = [[x, rng.choice(cod)] for x in dom]
        if variant == "undeclared":
            rows[rng.randrange(len(rows))][1] = "nowhere"
            return {"kind": "map", "dom": dom, "cod": cod, "map": rows}, REJECTED
        return {"kind": "map", "dom": dom, "cod": cod, "map": rows}, PASS
    if kind == "poset":
        xs, le = random_order(rng, size, 4.0 / size)
        if law:
            x = rng.choice(xs)
            le.discard((x, x))
        return {"kind": "poset", "carrier": xs, "le": sorted(list(p) for p in le)}, (
            PASS if is_partial_order(xs, le) else LAW_FAILED)
    if kind == "semilattice":
        # meet = lowest common ancestor in a random rooted tree
        parent = [None] + [rng.randrange(i) for i in range(1, size)]

        def ancestors(i):
            out = []
            while i is not None:
                out.append(i)
                i = parent[i]
            return out

        xs = ["m%d" % i for i in range(size)]
        t = {}
        for i, j in itertools.product(range(size), repeat=2):
            aj = set(ancestors(j))
            t[(xs[i], xs[j])] = xs[next(a for a in ancestors(i) if a in aj)]
        if law:
            t = perturb(rng, xs, t)
        ok = (
            all(t[(a, b)] == t[(b, a)] for a in xs for b in xs)
            and all(t[(a, a)] == a for a in xs)
            and all(t[(t[(a, b)], c)] == t[(a, t[(b, c)])] for a in xs for b in xs for c in xs)
        )
        return {"kind": "semilattice", "carrier": xs, "table": table_rows(t)}, (
            PASS if ok else LAW_FAILED)
    if kind == "category":
        if rng.random() < 0.5:
            C = chain_category(size)
        else:
            C = group_category(*some_group(rng, size))
        if law:
            comp = dict(C["comp"])
            cell = rng.choice(sorted(comp))
            others = [n for n, _, _ in C["arrows"] if n != comp[cell]]
            comp[cell] = rng.choice(others) if others else comp[cell]
            C = {**C, "comp": comp}
        return category_payload(C), PASS if is_category(C) else LAW_FAILED
    if kind == "functor":
        m = max(1, size - rng.randrange(3))
        F = chain_functor(size, m, monotone(rng, size, m))
        if law:
            i = rng.randrange(size)
            j = rng.randrange(i, size)
            F["on_arr"]["a%d_%d" % (i, j)] = "b0_%d" % (m - 1)
        return functor_payload(F), PASS if is_functor(F) else LAW_FAILED
    if kind == "nattrans":
        m = max(1, size - rng.randrange(3))
        f = monotone(rng, size, m)
        g = monotone(rng, size, m, floor=f)
        g = [max(g[: i + 1]) for i in range(size)]
        F, G = chain_functor(size, m, f), chain_functor(size, m, g)
        comp = {"a%d" % i: "b%d_%d" % (f[i], g[i]) for i in range(size)}
        if law:
            i = rng.randrange(size)
            comp["a%d" % i] = "b0_%d" % (m - 1)
        payload = {
            "kind": "nattrans",
            "f": functor_payload(F),
            "g": functor_payload(G),
            "component": [[k, v] for k, v in comp.items()],
        }
        return payload, PASS if is_nat(F, G, comp) else LAW_FAILED
    if kind == "group":
        xs, t = some_group(rng, size)
        if variant == "missing-cell":
            rows = table_rows(t)
            del rows[rng.randrange(len(rows))]
            return {"kind": "group", "carrier": xs, "table": rows}, REJECTED
        if law:
            t = perturb(rng, xs, t)
        return group_payload(xs, t), PASS if is_group(xs, t) else LAW_FAILED
    if kind == "hom":
        # x -> kx on the cyclic group of order n
        n = size
        k = rng.randrange(n)
        gx, gt = cyclic(n, "g")
        hx, ht = cyclic(n, "h")
        f = {gx[i]: hx[(k * i) % n] for i in range(n)}
        if law:
            x = rng.choice(gx)
            f[x] = rng.choice([y for y in hx if y != f[x]] or hx)
        ok = all(f[gt[(a, b)]] == ht[(f[a], f[b])] for a in gx for b in gx)
        payload = {"kind": "hom", "src": group_payload(gx, gt), "tgt": group_payload(hx, ht),
                   "map": [[a, b] for a, b in f.items()]}
        return payload, PASS if ok else LAW_FAILED
    if kind == "action":
        # a dihedral group acting on the vertices of its polygon
        n = max(3, size // 2)
        xs, t = dihedral(n)
        pts = ["w%d" % i for i in range(n)]
        act = {}
        for g in xs:
            i = int(g[1:])
            for v in range(n):
                act[(g, pts[v])] = pts[(v + i) % n if g[0] == "r" else (i - v) % n]
        if law:
            g = rng.choice(xs[1:])
            act[(g, pts[0])] = act[(g, pts[1])]
        ok = all(
            act[(t[(a, b)], p)] == act[(a, act[(b, p)])] for a in xs for b in xs for p in pts
        ) and len({act[(g, p)] for g in xs for p in pts}) == n and all(
            len({act[(g, p)] for p in pts}) == n for g in xs)
        payload = {"kind": "action", "group": group_payload(xs, t), "carrier": pts,
                   "act": [[g, p, q] for (g, p), q in act.items()]}
        return payload, PASS if ok else LAW_FAILED
    if kind in ("family", "filterbase", "base"):
        n = GUARD[kind] + 1 if variant == "too-large" else size
        xs = ["s%d" % i for i in range(n)]
        subs = subsets(xs)
        if kind == "family":
            members = rng.sample(subs, min(len(subs), 1 + rng.randrange(4)))
            expect = REJECTED if variant else PASS
        elif kind == "filterbase":
            core = frozenset(rng.sample(xs, 1 + rng.randrange(n)))
            members = {core} | {S for S in subs if core <= S and rng.random() < 0.6}
            if law:
                a, b = rng.sample(xs, 2) if n > 1 else (xs[0], xs[0])
                members = [frozenset([a]), frozenset([b])]
            expect = PASS if is_filter_base(members) else LAW_FAILED
        else:
            members = covering_family(rng, xs, 0.4)
            if law:
                gone = rng.choice(xs)
                members = [S - {gone} for S in members if S - {gone}]
            members = sorted(set(members), key=sorted)
            covering = set().union(*members) == set(xs) if members else not xs
            expect = PASS if covering else LAW_FAILED
        if variant == "too-large":
            expect = REJECTED
        return members_payload(kind, xs, members), expect
    if kind == "closure":
        xs, opens = alexandrov(rng, size)
        if variant == "discrete":
            opens = subsets(xs)
        table = closure_table(xs, opens)
        if law:
            x = rng.choice(xs)
            table[frozenset([x])] = frozenset()
        return closure_payload(xs, table), LAW_FAILED if law else PASS
    if kind == "topology":
        n = GUARD[kind] + 1 if variant == "too-large" else size
        xs, opens = alexandrov(rng, n)
        if law:
            inner = [U for U in opens if U and U != frozenset(xs)]
            if inner:
                opens = [U for U in opens if U != rng.choice(inner)]
            else:
                opens = [U for U in opens if U]
        expect = PASS if is_topology(xs, opens) else LAW_FAILED
        if variant == "too-large":
            expect = REJECTED
        return members_payload("topology", xs, opens), expect
    if kind == "rational-window":
        if variant == "too-large":
            return {"kind": "rational-window", "window": 41, "den": 2}, REJECTED
        return {"kind": "rational-window", "window": size, "den": 2 + size % 3}, PASS
    raise ValueError(kind)


def check_corpus(seed: int, scale: float = 1.0) -> list:
    """The doc-check corpus: every kind, sizes up to each kind's cap,
    about 15% with a known bad verdict."""
    rng = random.Random(seed)
    units = []
    for kind, count, cap in CHECK_KINDS:
        count = max(2, round(count * scale))
        cap = max(2, round(cap * scale)) if cap > 8 else cap
        lo = 1 if kind in ("set", "map", "family", "filterbase", "closure", "topology", "base") else 2
        for i, size in enumerate(strata(count, lo, cap)):
            variant = VARIANTS[kind].get(i)
            if variant == "law" and kind == "filterbase":
                size = max(size, 2)  # two disjoint members need two points
            payload, expect = _check_doc(kind, rng, size, variant)
            units.append(Unit("%s-%02d" % (kind, i), kind, dump(payload, rng), expect))
    for i in range(PARSE_ERRORS):
        victim = units[rng.randrange(len(units))]
        cut = victim.text[: rng.randrange(1, len(victim.text) - 1)]
        units.append(Unit("parse-error-%d" % i, victim.kind, cut, REJECTED))
    rng.shuffle(units)
    return units


# ---------------------------------------------------------------------------
# the doc-derive inputs


def derive_inputs(seed: int, scale: float = 1.0) -> list:
    """Inputs for all six derive operations, each with an oracle on the
    derived document, plus inputs with a known error."""
    rng = random.Random(seed)
    units = []

    def add(name, op, payload, expect, args=(), oracle=None):
        units.append(Unit(name, payload["kind"], dump(payload, rng), expect, op, list(args), oracle))

    # 33 inputs per operation: with the error inputs, over 200 in all, so
    # that at least 10 lie beyond the 95th percentile of time to verdict
    per_op = max(2, round(33 * scale))
    for i, order in enumerate(strata(per_op, 2, max(4, round(48 * scale)))):
        # the shape is fixed by the order: the image of the largest group
        # dominates the workload's peak memory, which should not vary by seed
        xs, t = dihedral(order // 2) if order % 2 == 0 and order >= 6 else cyclic(order)
        add("cayley-%02d" % i, "cayley", group_payload(xs, t), PASS,
            oracle=lambda out, xs=tuple(xs): out["kind"] == "hom"
            and sorted(out["src"]["carrier"]) == sorted(xs)
            and len({v for _, v in out["map"]}) == len(xs))
    for i, n in enumerate(strata(per_op, 2, max(4, round(60 * scale)))):
        xs, t = cyclic(n)
        # the quotient's order comes from the index, not the seed: it sets
        # the cost, which should not vary by seed
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        d = divisors[i % len(divisors)]
        H = [xs[j] for j in range(0, n, d)]
        add("quotient-%02d" % i, "quotient", group_payload(xs, t), PASS, H,
            oracle=lambda out, q=d: out["kind"] == "group" and len(out["carrier"]) == q)
    for i, n in enumerate(strata(per_op, 2, max(3, round(10 * scale)))):
        C = chain_category(n) if i % 2 else group_category(*some_group(rng, 2 * n))
        flipped = sorted([a, t, s] for a, s, t in C["arrows"])
        add("opposite-%02d" % i, "opposite", category_payload(C), PASS,
            oracle=lambda out, fl=flipped, objs=sorted(C["objects"]): out["kind"] == "category"
            and sorted(out["arrows"]) == fl and sorted(out["objects"]) == objs)
    for i, n in enumerate(strata(per_op, 1, 6)):
        xs = ["s%d" % j for j in range(n)]
        core = frozenset(rng.sample(xs, 1 + rng.randrange(n)))
        members = {core} | {S for S in subsets(xs) if core <= S and rng.random() < 0.5}
        up = {S for S in subsets(xs) if any(m <= S for m in members)}
        add("filter-%02d" % i, "filter", members_payload("filterbase", xs, members), PASS,
            oracle=lambda out, up=up: out["kind"] == "family"
            and {frozenset(m) for m in out["members"]} == up)
    for i, n in enumerate(strata(per_op, 1, 5)):
        xs = ["s%d" % j for j in range(n)]
        members = covering_family(rng, xs, 0.3)
        opens = union_closure(xs, members)
        add("topology-%02d" % i, "topology", members_payload("base", xs, members), PASS,
            oracle=lambda out, opens=opens: out["kind"] == "topology"
            and {frozenset(m) for m in out["opens"]} == opens)
    for i, n in enumerate(strata(per_op, 1, 4)):
        xs, opens = alexandrov(rng, n)
        want = {(frozenset(a), frozenset(b)) for a, b in closure_table(xs, opens).items()}
        add("closure-%02d" % i, "closure", members_payload("topology", xs, opens), PASS,
            oracle=lambda out, want=want: out["kind"] == "closure"
            and {(frozenset(a), frozenset(b)) for a, b in out["table"]} == want)
    # known errors: a subgroup that is not normal fails a law (exit 1); a
    # filter base whose members meet emptily fails a law (exit 1); an
    # operation on the wrong kind is a usage error (exit 2)
    for i in range(2):
        n = 3 + rng.randrange(4)
        xs, t = dihedral(n)
        add("quotient-not-normal-%d" % i, "quotient", group_payload(xs, t), LAW_FAILED,
            ["r0", "s%d" % rng.randrange(n)])
    xs = ["s0", "s1", "s2"]
    add("filter-not-a-base", "filter", members_payload("filterbase", xs, [{"s0"}, {"s1"}]),
        LAW_FAILED)
    add("cayley-wrong-kind", "cayley", category_payload(chain_category(3)), REJECTED)
    add("opposite-wrong-kind", "opposite", group_payload(*cyclic(4)), REJECTED)
    add("closure-wrong-kind", "closure", members_payload("base", xs, [{"s0"}, {"s1", "s2"}]),
        REJECTED)
    rng.shuffle(units)
    return units


def rational_windows(seed: int, scale: float = 1.0) -> list:
    """rational-window documents: one at the default guard (window 40,
    den 6) and two below it. All pass."""
    rng = random.Random(seed)
    sizes = [(40, 6), (rng.randint(12, 24), rng.randint(2, 5)), (rng.randint(12, 24), rng.randint(2, 5))]
    units = []
    for i, (window, den) in enumerate(sizes):
        window = max(2, round(window * scale))
        payload = {"kind": "rational-window", "window": window, "den": den}
        units.append(Unit("rational-window-%d-%d" % (window, den), "rational-window",
                          dump(payload, rng), PASS))
    return units


def write_units(units, directory) -> list:
    """Write each unit's document to ``directory``; returns the paths."""
    paths = []
    for u in units:
        path = directory / ("%s.json" % u.name)
        path.write_text(u.text, encoding="utf-8")
        paths.append(str(path))
    return paths
