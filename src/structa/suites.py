"""Named acceptance bundles.

Each suite is a list of independent units; a unit returns a LawReport.
Units run serially and their reports are merged in unit order; an error
raised inside a unit becomes a failed check of that unit. Randomized
suites take a ``seed`` and are deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import Counter
from pathlib import Path

from . import category, core, docs, group, numbers, order, settools, top
from .core import FinMap, FinSet, all_maps, compose, decompose, finset
from .errors import NotALattice, NotSubgroup, SchemaError, StructaError
from .report import LawReport


def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def _run_units(name: str, units) -> LawReport:
    """Run the units in order and merge their reports. A unit that
    raises a StructaError gets one failed ``unit-error`` check whose
    witness is the unit's 1-based position and the error, and the
    remaining units still run."""
    r = LawReport(name)
    for i, u in enumerate(units, start=1):
        try:
            r.merge(u())
        except StructaError as e:
            r.add("unit-error", False, (i, str(e)))
    return r


# Mersenne Twister words per getrandbits call of _randints, and draws
# per chunk of _samples: the suites' sampling memory stays bounded
_BLOCK = 3000


def _randints(rng: random.Random, lo: int, hi: int):
    """An endless iterator of the values ``rng.randint(lo, hi)`` gives,
    in the same order; -128 <= lo <= hi <= 127 and hi - lo < 255.

    ``randint`` draws ``getrandbits(k)``, k the bit length of the span
    hi - lo + 1, until it is below the span, and ``getrandbits(k)`` for
    k <= 32 is the top k bits of one 32-bit Mersenne Twister word.
    ``getrandbits(32 * _BLOCK)`` is the next ``_BLOCK`` words, the first
    in its lowest bits, so byte 4i + 3 of its little-endian bytes is the
    top byte of word i, and the top k <= 8 bits of the word are that
    byte >> (8 - k). One ``bytes.translate`` deletes the top bytes whose
    k bits reach the span and maps the rest to lo + (byte >> (8 - k)) as
    signed bytes. The rng runs up to a block ahead of the values read;
    every unit that samples owns its rng."""
    span = hi - lo + 1
    if not (-128 <= lo <= hi <= 127 and span < 256):
        raise ValueError("the values must fit in a signed byte, the span in a byte")
    drop = 8 - span.bit_length()
    value = bytes((lo + (t >> drop)) & 0xFF for t in range(256))
    reject = bytes(t for t in range(256) if t >> drop >= span)

    def next_block(_):
        top = rng.getrandbits(32 * _BLOCK).to_bytes(4 * _BLOCK, "little")[3::4]
        return memoryview(top.translate(value, reject)).cast("b")

    return itertools.chain.from_iterable(map(next_block, itertools.repeat(None)))


def _samples(draws, width: int, count: int):
    """``count`` samples of ``width`` consecutive draws each, in chunks of
    at most ``_BLOCK`` draws; each chunk is ``width`` lists, the first
    draws of its samples, then their second draws, and so on."""
    while count > 0:
        n = min(_BLOCK // width, count)
        xs = list(itertools.islice(draws, width * n))
        yield [xs[i::width] for i in range(width)]
        count -= n


# ---------------------------------------------------------------------------
# 1. function calculus


def _image_tables(f: FinMap) -> tuple:
    """(images, preimages): the ``cod`` mask of the image of every ``dom``
    mask, and the ``dom`` mask of the preimage of every ``cod`` mask, each
    list indexed by the mask it maps."""
    return (
        list(map(f.image_mask, range(1 << len(f.dom.elements)))),
        list(map(f.preimage_mask, range(1 << len(f.cod.elements)))),
    )


def _function_scan(dom: FinSet, cod: FinSet) -> tuple:
    """(instances, scan) of ``suite functions`` on maps dom → cod. An
    instance is (tag, a, b, families), a family (over ``dom``, its member
    masks): ``img`` for every A ⊆ dom and B ⊆ cod with the families [A]
    and [B], then ``img-fam`` and ``pre-fam`` for every pair of subsets
    of dom or of cod, and ``img-fam3`` for every triple of subsets of a
    three-point dom, each with A = dom and B = cod. The scan is
    ``core._image_scan`` of them, with the fibre law on the ``img``
    instances. The carriers share no point, so a family lies over both
    exactly when its members are all empty."""
    subsA, subsB = core.subset_masks(dom), core.subset_masks(cod)
    full_a, full_b = subsA[-1], subsB[-1]
    product = itertools.product
    instances = [("img", a, b, ((True, (a,)), (False, (b,)))) for a in subsA for b in subsB]
    instances += [("img-fam", full_a, full_b, ((True, X),)) for X in product(subsA, repeat=2)]
    instances += [("pre-fam", full_a, full_b, ((False, Y),)) for Y in product(subsB, repeat=2)]
    if len(dom) == 3:
        instances += [("img-fam3", full_a, full_b, ((True, X),)) for X in product(subsA, repeat=3)]
    columns = [
        (a, b, [(ms if over_dom or not any(ms) else None,
                 ms if not over_dom or not any(ms) else None) for over_dom, ms in families])
        for _, a, b, families in instances
    ]
    return instances, core._image_scan(full_a, full_b, columns, fibre=len(subsA) * len(subsB))


def _first_failure(f: FinMap, instance) -> tuple:
    """The first failure of one instance of ``_function_scan``, as the
    suite names it: its image laws' report, then for ``img`` its fibre
    law's."""
    tag, a, b, families = instance
    A, B = core.set_of(f.dom, a), core.set_of(f.cod, b)
    fams = [[core.set_of(f.dom if over_dom else f.cod, m) for m in ms] for over_dom, ms in families]
    failures = [(tag, x.law, x.witness) for x in core.image_calculus(f, A, B, fams).failures]
    if tag == "img":
        failures += [("fib", x.law, x.witness) for x in core.fiber_union_check(f, A, B).failures]
    return failures[0]


def suite_functions(seed=0) -> LawReport:
    doms = [FinSet("a%d" % i for i in range(m)) for m in range(4)]
    cods = [FinSet("b%d" % i for i in range(n)) for n in range(4)]
    volumes = []  # per unit: the individual checks performed

    def unit_for(dom, cod):
        def unit():
            maps = list(all_maps(dom, cod))
            # one scan serves every map; with no map there is none to build
            instances, scan = _function_scan(dom, cod) if maps else ((), None)
            checks = 0
            failure = None
            for f in maps:
                p, bij, incl = decompose(f)
                if compose(incl, compose(bij, p)) != f and failure is None:
                    failure = ("decompose", f)
                # each image and preimage is computed once per map
                images, preimages = _image_tables(f)
                laws = core._image_laws(f, core.classify(f), scan, images.__getitem__,
                                        preimages.__getitem__)
                checks += 1 + sum(cases for _, _, cases in laws)
                failed = [i for _, i, _ in laws if i is not None]
                # only the first failing instance gets a report, for its witness
                if failed and failure is None:
                    failure = _first_failure(f, instances[min(failed)])
            volumes.append(checks)
            out = LawReport("functions[%d,%d]" % (len(dom), len(cod)))
            out.add(
                "fn-laws-%d-%d",
                failure is None,
                None if failure is None else (str(failure),),
                ids=(len(dom), len(cod)),
                counts=(checks,),
            )
            return out

        return unit

    units = [unit_for(d, c) for d in doms for c in cods]
    r = _run_units("suite-functions", units)
    total = sum(volumes)
    r.add("fn-volume", total >= 100000, (total,))
    return r


# ---------------------------------------------------------------------------
# 2. category constructors + planted defects


def _seed_categories():
    chains = {
        n: category.from_poset(order.chain_poset(["c%d" % i for i in range(n)]))
        for n in (1, 2, 3, 4)
    }
    seeds = [("chain-%d" % n, C) for n, C in chains.items()]
    seeds.append(("diamond", category.from_poset(order.diamond_poset())))
    seeds.append(("antichain-3", category.from_poset(order.antichain_poset(["x", "y", "z"]))))
    seeds.append(("powerset-2", category.from_poset(order.powerset_poset(finset("a", "b")))))
    for n in (1, 2, 3, 4):
        G = group.cyclic_group(n)
        seeds.append(("cyclic-%d" % n, category.from_group(G.op, G.carrier)))
    K = group.klein_four()
    seeds.append(("klein", category.from_group(K.op, K.carrier)))
    S3, _ = group.symmetric_group_3()
    seeds.append(("sym-3", category.from_group(S3.op, S3.carrier)))
    seeds.append(("discrete-3", category.discrete(finset("u", "v", "w"))))
    C2 = chains[2]
    G2 = group.cyclic_group(2)
    Z2 = category.from_group(G2.op, G2.carrier)
    seeds.append(("product-c2-c2", category.product_cat(C2, C2)))
    seeds.append(("product-c2-z2", category.product_cat(C2, Z2)))
    diamond = category.from_poset(order.diamond_poset())
    seeds.append(("opposite-diamond", category.opposite_cat(diamond)))
    seeds.append(("functor-cat-c2-c2", category.functor_category(C2, C2)))
    seeds.append(("functor-cat-c2-c3", category.functor_category(C2, chains[3])))
    # a bridge between two monotone maps chain2 -> chain3, and an arrow category
    C3 = chains[3]
    same, shift = {"c0": "c0", "c1": "c1"}, {"c0": "c1", "c1": "c2"}
    lo = category.FunctorData(C2, C3, same, _poset_on_arr(C2, C3, same))
    hi = category.FunctorData(C2, C3, shift, _poset_on_arr(C2, C3, shift))
    tau = {x: C3.hom(lo.on_obj[x], hi.on_obj[x])[0] for x in C2.objects}
    seeds.append(("bridge-c2-c3", category.bridge_category(tau, lo, hi)))
    seeds.append(("arrow-cat-c2-c2", category.arrow_category(lo, lo)))
    return seeds


def _poset_on_arr(C, D, on_obj):
    return {
        f: D.hom(on_obj[C.src[f]], on_obj[C.tgt[f]])[0] for f in C.arrow_names
    }


def suite_categories(seed=0) -> LawReport:
    def positives():
        seeds = _seed_categories()
        out = LawReport("categories-positive")
        bad = [name for name, C in seeds if not category.check_category(C).passed]
        out.add(
            "cat-seeds",
            len(seeds) >= 20 and not bad,
            tuple(bad) or None,
            counts=(len(seeds),),
        )
        return out

    def negatives():
        out = LawReport("categories-negative")
        paths = sorted(fixtures_dir().glob("category_neg_assoc_*.json"))
        found = []
        for p in paths:
            rep = docs.run_check(docs.parse(str(p)))
            c = rep["cat-assoc"]
            found.append((p.name, (not c.passed) and c.witness is not None))
        out.add(
            "cat-planted",
            len(paths) == 5 and all(ok for _, ok in found),
            tuple(name for name, ok in found if not ok) or None,
            counts=(len(paths),),
        )
        return out

    return _run_units("suite-categories", [positives, negatives])


# ---------------------------------------------------------------------------
# 3. interchange


def _hcompose_formulas_agree(alpha, tau) -> bool:
    """The components of the horizontal composite α∘τ that
    ``category._hcompose_components`` gives (the formula α_{Gx} ∘ J τ_x,
    for τ: F→G and α: J→K) agree at every object x with the other
    defining formula, K τ_x ∘ α_{Fx}. Only the components are compared,
    so the composite functors are not built."""
    E, K = alpha.F.tgt, alpha.G
    comp = category._hcompose_components(alpha, tau)
    return all(
        comp[x]
        == E.compose(K.on_arr[tau.component[x]], alpha.component[tau.F.on_obj[x]])
        for x in tau.F.src.objects
    )


def suite_interchange(seed=0) -> LawReport:
    """The interchange law (β·α)∘(σ·τ) = (β∘σ)·(α∘τ) (Mac Lane, §II.5)
    on 400 grids per unit, drawn with the unit's own rng: a vertical
    pair (σ, τ) in Cat(C, D), then one (β, α) in Cat(D, E). Each
    distinct grid is evaluated once, in the order of its first draw, and
    counts once per draw in the ``ic-grid-*`` total and failure count.
    ``ic-volume`` checks the total and that the two formulas of the
    horizontal composite agree on α∘τ, β∘σ and their vertical
    composites, for every grid of every unit."""
    C2 = category.from_poset(order.chain_poset(["c0", "c1"]))
    C3 = category.from_poset(order.chain_poset(["c0", "c1", "c2"]))
    # one object, so not thin: the two formulas of α∘τ can differ here
    Z2 = category.from_group(group.cyclic_group(2))

    def vertical_pairs(FC):
        # (σ, τ) with τ into the source of σ: one name per functor, so
        # these are the pairs with σ.F == τ.G, in name order
        nats = FC.meta["nats"]
        return [(nats[s], nats[t]) for s in FC.arrow_names for t in FC.arrows_into(FC.src[s])]

    grids = []  # per unit: grids sampled, and whether both formulas agreed

    def unit_for(C, D, E, sub_seed):
        def unit():
            rng = random.Random(sub_seed)
            vert_cd = vertical_pairs(category.functor_category(C, D))
            vert_de = vertical_pairs(category.functor_category(D, E))
            # an index draws what rng.choice on the pairs would
            cd, de = range(len(vert_cd)), range(len(vert_de))
            draws = Counter((rng.choice(cd), rng.choice(de)) for _ in range(400))
            total, bad = 0, 0
            formulas_ok = True
            for (i, j), k in draws.items():
                sigma, tau = vert_cd[i]
                beta, alpha = vert_de[j]
                if not category.interchange_check(alpha, beta, sigma, tau).passed:
                    bad += k
                formulas_ok = formulas_ok and all(
                    _hcompose_formulas_agree(a, t)
                    for a, t in (
                        (category.vcompose(beta, alpha), category.vcompose(sigma, tau)),
                        (beta, sigma),
                        (alpha, tau),
                    )
                )
                total += k
            grids.append((total, formulas_ok))
            out = LawReport("interchange[%d,%d,%d]" % tuple(len(X.objects) for X in (C, D, E)))
            out.add(
                "ic-grid-%d%d%d",
                bad == 0,
                (bad,) if bad else None,
                ids=tuple(len(X.objects) for X in (C, D, E)),
                counts=(total,),
            )
            return out

        return unit

    units = [
        unit_for(C, D, E, seed * 1000 + i)
        for i, (C, D, E) in enumerate([(C2, C2, C2), (C2, C2, C3), (C2, C3, C2), (Z2, Z2, Z2)])
    ]
    r = _run_units("suite-interchange", units)
    r.add("ic-volume", sum(n for n, _ in grids) >= 1000 and all(ok for _, ok in grids))
    return r


# ---------------------------------------------------------------------------
# 4. Yoneda


def _yoneda_corpus():
    cats = []
    for n in (1, 2, 3, 4):
        chain = order.chain_poset(["c%d" % i for i in range(n)])
        cats.append(("chain-%d" % n, category.from_poset(chain)))
    for n in (1, 2, 3, 4):
        G = group.cyclic_group(n)
        cats.append(("cyclic-%d" % n, category.from_group(G.op, G.carrier)))
    # hand-built: the parallel pair with a cap
    pp = category.FinCat(
        ["x", "y", "z"],
        [
            ("1x", "x", "x"), ("1y", "y", "y"), ("1z", "z", "z"),
            ("f", "x", "y"), ("g", "x", "y"), ("h", "y", "z"),
            ("hf", "x", "z"), ("hg", "x", "z"),
        ],
        {"x": "1x", "y": "1y", "z": "1z"},
        _complete_comp(
            ["x", "y", "z"],
            {("h", "f"): "hf", ("h", "g"): "hg"},
            {"1x": ("x", "x"), "1y": ("y", "y"), "1z": ("z", "z"),
             "f": ("x", "y"), "g": ("x", "y"), "h": ("y", "z"),
             "hf": ("x", "z"), "hg": ("x", "z")},
        ),
    )
    cats.append(("parallel-pair", pp))
    # hand-built: a chain with an idempotent endomorphism at the bottom
    idem = category.FinCat(
        ["a", "b", "c"],
        [
            ("1a", "a", "a"), ("1b", "b", "b"), ("1c", "c", "c"),
            ("e", "a", "a"), ("f", "a", "b"), ("g", "b", "c"),
            ("gf", "a", "c"),
        ],
        {"a": "1a", "b": "1b", "c": "1c"},
        _complete_comp(
            ["a", "b", "c"],
            {("e", "e"): "e", ("f", "e"): "f", ("g", "f"): "gf",
             ("gf", "e"): "gf"},
            {"1a": ("a", "a"), "1b": ("b", "b"), "1c": ("c", "c"),
             "e": ("a", "a"), "f": ("a", "b"), "g": ("b", "c"),
             "gf": ("a", "c")},
        ),
    )
    cats.append(("idempotent-chain", idem))
    return cats


def _complete_comp(objects, partial, endpoints):
    """Fill identity compositions into a partial composition table."""
    comp = dict(partial)
    ids = {o: None for o in objects}
    for n, (s, t) in endpoints.items():
        if n.startswith("1") and s == t:
            ids[s] = n
    for n, (s, t) in endpoints.items():
        comp.setdefault((n, ids[s]), n)
        comp.setdefault((ids[t], n), n)
    return comp


def _yoneda_round_trip(C, a, F, res) -> bool:
    """φ from ``yoneda(C, a, L_a, F)`` is a bijection onto F a, and the
    inverse x ↦ τ_x, with τ_x c(f) = F f(x), hits exactly the
    transformation that φ sends to x. Every transformation in
    ``res["by_name"]`` runs from L_a to F, so τ_x is matched by its
    components."""
    phi, by_name = res["phi"], res["by_name"]
    if not core.classify(phi)["bijective"]:
        return False
    for x in F.on_obj[a]:
        tau_x = {
            c: FinMap(
                category.hom_set(C, a, c), F.on_obj[c], {f: F.on_arr[f](x) for f in C.hom(a, c)}
            )
            for c in C.objects
        }
        match = [name for name, n in by_name.items() if n.component == tau_x]
        if len(match) != 1 or phi(match[0]) != x:
            return False
    return True


def suite_yoneda(seed=0) -> LawReport:
    def unit_for(name, C):
        def unit():
            out = LawReport("yoneda[%s]" % name)
            pairs = 0
            ok = True
            Ls = {x: category._covariant_hom(C, x) for x in sorted(C.objects)}
            for a in sorted(C.objects):
                for L in Ls.values():
                    res = category.yoneda(C, a, Ls[a], L)
                    pairs += 1
                    count_ok = len(res["by_name"]) == len(L.on_obj[a])
                    if not (count_ok and _yoneda_round_trip(C, a, L, res)):
                        ok = False
            out.add("yo-count-%s", ok, ids=(name,), counts=(pairs,))
            emb = category.yoneda_embedding(C)
            out.add("yo-embedding-%s", emb.passed, ids=(name,))
            return out

        return unit

    units = [unit_for(name, C) for name, C in _yoneda_corpus()]
    return _run_units("suite-yoneda", units)


# ---------------------------------------------------------------------------
# 5. integers


def suite_integers(seed=0) -> LawReport:
    """The successor-window sum and the recursion product against native
    ``+`` and ``*``: exhaustively on [-30, 30]², then on random samples,
    each unit with its own ``random.Random``.

    The samples are those of ``rng.randint``, drawn by ``_randints`` in
    blocks. Each sampled unit counts its failing lines as C-level
    ``map`` chains over chunks of its samples, so its count is the
    per-sample loop's. The ring laws read a·b, b·a, a·c and b·c from one
    ``int_mul`` table on [-50, 50]² and call it per sample only on
    a·(b + c), (a·b)·c and a·(b·c), whose arguments may leave it."""
    ne, add = operator.ne, operator.add

    def exhaustive():
        out = LawReport("integers-exhaustive")
        bad = sum(
            1
            for a in range(-30, 31)
            for b in range(-30, 31)
            if numbers.int_add(a, b, N=61) != a + b
        )
        out.add("int-add-exhaustive", bad == 0, (bad,) if bad else None)
        return out

    def randomized():
        out = LawReport("integers-random")
        draws = _randints(random.Random(seed + 5), -100, 100)
        shifts = numbers._shift_maps(numbers.build_discrete(201), 100)
        bad = 0
        for a, b in _samples(draws, 2, 10000):
            moved = map(FinMap.__call__, map(shifts.__getitem__, b), map(numbers._sym, a))
            bad += sum(map(ne, map(int, moved), map(add, a, b)))
        # the packaged entry point agrees on a subsample
        for a, b in _samples(draws, 2, 500):
            bad += sum(map(ne, map(numbers.int_add, a, b, itertools.repeat(201)), map(add, a, b)))
        out.add("int-add-random", bad == 0, (bad,) if bad else None)
        return out

    def products():
        out = LawReport("integers-product")
        draws = _randints(random.Random(seed + 6), -100, 100)
        bad = 0
        for a, b in _samples(draws, 2, 10000):
            bad += sum(map(ne, map(numbers.int_mul, a, b), map(operator.mul, a, b)))
        out.add("int-mul-recursion", bad == 0, (bad,) if bad else None)
        return out

    def laws():
        out = LawReport("integers-laws")
        draws = _randints(random.Random(seed + 7), -50, 50)
        mul = numbers.int_mul
        # int_mul once on each pair of [-50, 50], x·y at row x + 50 and
        # column y + 50. int_mul is a function of its ints that returns on
        # these pairs, so a cell is the product each line would compute:
        # a·b for all three laws, b·a, a·c and b·c
        grid = range(-50, 51)
        table = [[mul(x, y) for y in grid] for x in grid]
        at = (50).__add__

        def cells(xs, ys):
            return map(list.__getitem__, map(table.__getitem__, map(at, xs)), map(at, ys))

        bad = 0
        for a, b, c in _samples(draws, 3, 10000):
            ab = list(cells(a, b))
            bad += sum(map(ne, map(mul, a, map(add, b, c)), map(add, ab, cells(a, c))))
            bad += sum(map(ne, ab, cells(b, a)))
            bad += sum(map(ne, map(mul, ab, c), map(mul, a, cells(b, c))))
        out.add("int-ring-laws", bad == 0, (bad,) if bad else None)
        return out

    return _run_units("suite-integers", [exhaustive, randomized, products, laws])


# ---------------------------------------------------------------------------
# 6. rationals


def suite_rationals(seed=0) -> LawReport:
    grid = [
        numbers.Rat(n, d)
        for n in range(-6, 7)
        for d in list(range(-6, 0)) + list(range(1, 7))
    ]
    reps = {}
    for p in grid:
        reps.setdefault(numbers.rat_canon(p), p)
    classes = sorted(reps.values(), key=lambda p: (p.num, p.den))
    # the comm laws compare each cell of an operation's table with the
    # cell of its transpose: op(q, p) is the cell at (q, p), with the
    # ints the call would give, op being a function of its arguments' ints
    flat = itertools.chain.from_iterable

    def order_laws():
        out = LawReport("rationals-order")
        # rat_le once per ordered pair of the grid; the laws read its cells
        L = numbers._le_table(grid)
        total_ok = all(a or b for row, col in zip(L, zip(*L)) for a, b in zip(row, col))
        out.add("rat-total", total_ok)
        at = {p: k for k, p in enumerate(grid)}
        le = {
            (i, j): L[at[p]][at[q]]
            for i, p in enumerate(classes)
            for j, q in enumerate(classes)
        }
        n = len(classes)
        # up[i] is the mask of the j with i <= j; the order is transitive
        # exactly when i <= j gives up[j] ⊆ up[i]
        up = [sum(1 << j for j in range(n) if le[(i, j)]) for i in range(n)]
        trans_ok = all(
            not up[j] & ~up[i] for i in range(n) for j in range(n) if le[(i, j)]
        )
        out.add("rat-trans", trans_ok)
        anti_ok = all(
            not (le[(i, j)] and le[(j, i)]) or i == j
            for i in range(n)
            for j in range(n)
        )
        out.add("rat-antisym", anti_ok)
        return out

    def additive_group():
        out = LawReport("rationals-add")
        zero = numbers.Rat(0, 1)
        # each pair's sum once; associativity adds each distinct sum to
        # every class on either side, and q + p is a cell of s
        s = [[numbers.rat_add(p, q) for q in classes] for p in classes]
        out.add("rat-add-assoc", numbers._assoc_holds(classes, s, numbers.rat_add))
        out.add("rat-add-unit", all(numbers.rat_eq(numbers.rat_add(p, zero), p) for p in classes))
        out.add(
            "rat-add-inverse",
            all(numbers.rat_eq(numbers.rat_add(p, numbers.rat_neg(p)), zero) for p in classes),
        )
        out.add("rat-add-comm", all(map(numbers.rat_eq, flat(s), flat(zip(*s)))))
        return out

    def multiplicative_group():
        out = LawReport("rationals-mul")
        one = numbers.Rat(1, 1)
        nz = [p for p in classes if p.num != 0]
        # each pair's product once, as for rat-add-assoc
        m = [[numbers.rat_mul(p, q) for q in nz] for p in nz]
        out.add("rat-mul-assoc", numbers._assoc_holds(nz, m, numbers.rat_mul))
        out.add("rat-mul-unit", all(numbers.rat_eq(numbers.rat_mul(p, one), p) for p in nz))
        out.add(
            "rat-mul-inverse",
            all(numbers.rat_eq(numbers.rat_mul(p, numbers.rat_inv(p)), one) for p in nz),
        )
        out.add("rat-mul-comm", all(map(numbers.rat_eq, flat(m), flat(zip(*m)))))
        return out

    def embedding():
        out = LawReport("rationals-embedding")
        rep = numbers.embedding_check(6)
        out.merge(rep)
        out.add(
            "rat-embed-grid",
            all(numbers.rat_eq(numbers.embed_int(a), numbers.Rat(a, 1)) for a in range(-6, 7)),
        )
        return out

    return _run_units(
        "suite-rationals",
        [order_laws, additive_group, multiplicative_group, embedding],
    )


# ---------------------------------------------------------------------------
# 7. lattices


def suite_lattices(seed=0) -> LawReport:
    def unit_for(n):
        def unit():
            carrier = FinSet("x%d" % i for i in range(n))
            out = LawReport("lattices[%d]" % n)
            total, lattices = 0, 0
            ok_iff, ok_round, ok_laws = True, True, True
            for P in order.enumerate_posets(carrier):
                total += 1
                pairwise = all(
                    P.sup(finset(x, y)) is not None
                    and P.inf(finset(x, y)) is not None
                    for x in carrier
                    for y in carrier
                )
                try:
                    lt = order.lattice_from_poset(P)
                except NotALattice:
                    lt = None
                if (lt is not None) != pairwise:
                    ok_iff = False
                if lt is None:
                    continue
                lattices += 1
                if order.order_from_semilattice(lt.join, carrier, "join") != P:
                    ok_round = False
                if order.order_from_semilattice(lt.meet, carrier, "meet") != P:
                    ok_round = False
                if not order.lattice_laws(lt).passed:
                    ok_laws = False
            out.add("lat-iff-%d", ok_iff, ids=(n,), counts=(total, lattices))
            out.add("lat-roundtrip-%d", ok_round, ids=(n,))
            out.add("lat-laws-%d", ok_laws, ids=(n,))
            return out

        return unit

    return _run_units("suite-lattices", [unit_for(n) for n in (1, 2, 3, 4)])


# ---------------------------------------------------------------------------
# 8. Zorn


def suite_zorn(seed=0) -> LawReport:
    def unit_for(n):
        def unit():
            carrier = FinSet("x%d" % i for i in range(n))
            out = LawReport("zorn[%d]" % n)
            total = 0
            ok_max, ok_chain = True, True
            for P in order.enumerate_posets(carrier):
                total += 1
                # one greedy chain serves both laws: its top is zorn_maximal(P)
                chain, m = order._zorn_chain(P)
                if any(P.le(m, y) and m != y for y in carrier):
                    ok_max = False
                elems = set(chain.elements)
                if any(
                    c not in elems and all(P.comparable(c, x) for x in elems)
                    for c in carrier
                ):
                    ok_chain = False
            out.add("zorn-maximal-%d", ok_max, ids=(n,), counts=(total,))
            out.add("zorn-chain-%d", ok_chain, ids=(n,))
            return out

        return unit

    return _run_units("suite-zorn", [unit_for(n) for n in (1, 2, 3, 4, 5)])


# ---------------------------------------------------------------------------
# 9. groups


def suite_groups(seed=0) -> LawReport:
    def catalog_criteria():
        out = LawReport("groups-catalog")
        total_subsets, subgroups = 0, 0
        agree = True
        catalog = [G for n in range(1, 7) for G in group.enumerate_groups(n)]
        for G in catalog:
            for sub in G.carrier.subsets():
                if len(sub) == 0:
                    continue
                total_subsets += 1
                # criterion 1: closure + unit + inverses (subgroup_check)
                try:
                    H = group.subgroup_check(G, sub)
                    by_axioms = True
                except NotSubgroup:
                    by_axioms = False
                # criterion 2: nonempty and closed under (a, b) -> a b^-1
                by_division = all(
                    G.op[(a, G.inv[b])] in sub for a in sub for b in sub
                )
                # criterion 3: the restricted table is itself a group
                restricted = {
                    (a, b): G.op[(a, b)]
                    for a in sub
                    for b in sub
                    if G.op[(a, b)] in sub
                }
                by_table = len(restricted) == len(sub) ** 2 and group.group_axioms(
                    restricted, sub
                ).passed
                if not (by_axioms == by_division == by_table):
                    agree = False
                if by_axioms:
                    subgroups += 1
                    # normality criteria: conjugation closure, coset
                    # equality, and conjugate-set equality
                    n1 = group.is_normal(G, H)
                    n2 = all(
                        {G.op[(g, h)] for h in sub}
                        == {G.op[(h, g)] for h in sub}
                        for g in G.carrier
                    )
                    n3 = all(
                        {G.op[(G.op[(g, h)], G.inv[g])] for h in sub} == set(sub)
                        for g in G.carrier
                    )
                    if not (n1 == n2 == n3):
                        agree = False
        out.add("grp-criteria", agree, counts=(total_subsets, subgroups))
        return out

    def first_iso_holds(h):
        """The induced map G/ker h -> Im h is a bijective homomorphism
        through which h factors."""
        try:
            iso = group.first_iso(h)
        except StructaError:
            return False
        block = {x: b.name() for b in group.cosets(h.src, group.kernel(h)).blocks for x in b}
        return core.classify(iso.map)["bijective"] and all(
            iso.map(block[x]) == h.map(x) for x in h.src.carrier
        )

    def first_iso_sweep():
        out = LawReport("groups-first-iso")
        catalog = [G for n in range(1, 5) for G in group.enumerate_groups(n)]
        homs = 0
        ok = True
        for G in catalog:
            for H in catalog:
                for h in group.enumerate_homs(G, H):
                    homs += 1
                    if not first_iso_holds(h):
                        ok = False
        out.add("grp-first-iso", ok, counts=(homs,))
        S3, perms = group.symmetric_group_3()
        Z2 = group.cyclic_group(2)

        def parity(p):
            letters = sorted(p.dom.elements)
            inversions = sum(
                1
                for i in range(len(letters))
                for j in range(i + 1, len(letters))
                if p(letters[i]) > p(letters[j])
            )
            return "g0" if inversions % 2 == 0 else "g1"

        f = FinMap(S3.carrier, Z2.carrier, {x: parity(perms[x]) for x in S3.carrier})
        sign_ok = first_iso_holds(group.hom_check(S3, Z2, f))
        out.add("grp-sign-hom", sign_ok)
        return out

    def s3_facts():
        out = LawReport("groups-s3")
        S3, _ = group.symmetric_group_3()
        D = group.commutant(S3)
        out.add("grp-s3-commutant", len(D.members) == 3)
        Z = group.center(S3)
        out.add("grp-s3-center", Z.members == finset(S3.unit))
        inner, _ = group.inner_automorphisms(S3)
        out.add("grp-s3-inner", inner.order() == 6)
        rep = group.abelianization_check(S3, D)
        q = group.as_group(D)  # touch the subgroup-as-group view
        out.add(
            "grp-s3-abelianization",
            rep.passed and len(S3.carrier) // len(D.members) == 2 and q.order() == 3,
        )
        return out

    return _run_units("suite-groups", [catalog_criteria, first_iso_sweep, s3_facts])


# ---------------------------------------------------------------------------
# 10. actions


def suite_actions(seed=0) -> LawReport:
    S3, perms = group.symmetric_group_3()

    def coset_shapes():
        out = LawReport("actions-cosets")
        order2 = next(
            g for g in S3.carrier if g != S3.unit and S3.op[(g, g)] == S3.unit
        )
        order3 = next(
            g
            for g in S3.carrier
            if g != S3.unit and S3.op[(g, g)] != S3.unit
        )
        for label, gen in (("order-2", order2), ("order-3", order3)):
            H = group.cyclic_subgroup(S3, gen)
            A = group.coset_action(S3, H)
            rep = group.action_check(A)
            out.add("act-%s-laws", rep.passed, ids=(label,))
            out.add("act-%s-transitive", group.is_transitive(A), ids=(label,))
            fixed_ok = True
            blocks = group.cosets(S3, H, side="left")
            for g in S3.carrier:
                for block in blocks.blocks:
                    name = block.name()
                    fixes = A.apply(g, name) == name
                    x = block.elements[0]
                    criterion = (
                        S3.op[(S3.inv[x], S3.op[(g, x)])] in H.members
                    )
                    if fixes != criterion:
                        fixed_ok = False
            out.add("act-%s-fixed-coset", fixed_ok, ids=(label,))
            nucleus = group.action_nucleus(A)
            conj_core = FinSet(
                h
                for h in S3.carrier
                if all(
                    S3.op[(S3.op[(x, h)], S3.inv[x])] in H.members
                    for x in S3.carrier
                )
            )
            out.add("act-%s-nucleus", nucleus == conj_core, ids=(label,))
        return out

    def stabilizers():
        out = LawReport("actions-stabilizers")
        # S3 acting on the three letters it permutes
        letters = finset("1", "2", "3")
        A = group.GroupAction(S3, letters, {g: perms[g] for g in S3.carrier})
        ok = group.action_check(A).passed
        out.add("act-letters", ok)
        sim_ok = True
        for a in letters:
            rep = group.stabilizer_suite(A, a)
            if not rep.passed:
                sim_ok = False
        out.add("act-stabilizer-similarity", sim_ok)
        return out

    return _run_units("suite-actions", [coset_shapes, stabilizers])


# ---------------------------------------------------------------------------
# 11. filters


def suite_filters(seed=0) -> LawReport:
    def unit_for(n):
        def unit():
            carrier = FinSet("p%d" % i for i in range(1, n + 1))
            out = LawReport("filters[%d]" % n)
            out.merge(settools.ultrafilter_suite(carrier))
            filters = settools.enumerate_filters(carrier)
            minimal_ok, principal_ok = True, True
            for F in filters:
                meet = settools.inter_of(F.members, carrier)
                if F.members != settools.principal_filter(carrier, meet).members:
                    principal_ok = False
                gen = settools.generate_filter(F)
                if gen.members != F.members:
                    minimal_ok = False
            out.add("fl-principal-%d", principal_ok, ids=(n,), counts=(len(filters),))
            out.add("fl-minimal-%d", minimal_ok, ids=(n,))
            return out

        return unit

    return _run_units("suite-filters", [unit_for(n) for n in (1, 2, 3, 4)])


# ---------------------------------------------------------------------------
# 12. sigma-algebras


def suite_sigma(seed=0) -> LawReport:
    def unit():
        carrier = finset("a", "b", "c")
        subs = [s for s in carrier.subsets()]
        out = LawReport("sigma[3]")
        total = 0
        ok = True
        for k in range(len(subs) + 1):
            for combo in itertools.combinations(subs, k):
                total += 1
                fam = settools.Family(carrier, combo)
                generated = settools.sigma_generate(carrier, fam)
                if generated != settools.sigma_by_partitions(carrier, fam):
                    ok = False
        out.add("sg-all-families", ok, counts=(total,))
        return out

    return _run_units("suite-sigma", [unit])


# ---------------------------------------------------------------------------
# 13. topology


def _strict_passes(subs: list, cl: list) -> bool:
    """The mask table ``cl`` passes every strict closure law."""
    return all(bad is None for _, bad in top._closure_laws(subs, cl, strict=True))


def suite_topology(seed=0) -> LawReport:
    def count_and_equivalence():
        out = LawReport("topology-29")
        carrier = finset("a", "b", "c")
        tops = top.enumerate_topologies(carrier)
        out.add("tp-count", len(tops) == 29, (len(tops),))
        ok = True
        for fam in tops:
            T = top.check_topology(carrier, fam)
            B = settools.Family(carrier, [s for s in fam.members if len(s) > 0])
            via_base = top.base_ops(carrier, B)["closure"]
            via_closed = top.closure_from_closed(carrier, top.open_duality(T))
            if via_base != via_closed:
                ok = False
        out.add("tp-closure-agree", ok)
        return out

    def strict_closure():
        # every table is a list of masks: entry m is the closure of the
        # subset with mask m, and the discrete model is the identity list
        out = LawReport("topology-strict")
        ok_small = True
        for labels in (("a",), ("a", "b")):
            subs = core.subset_masks(finset(*labels))
            winners = 0
            for values in itertools.product(subs, repeat=len(subs)):
                cl = [0] * len(subs)
                for m, v in zip(subs, values):
                    cl[m] = v
                if _strict_passes(subs, cl):
                    winners += 1
                    if cl != list(range(len(subs))):
                        ok_small = False
            if winners != 1:
                ok_small = False
        out.add("tp-strict-small", ok_small)
        carrier = finset("a", "b", "c")
        ok3 = top.closure_check(top.discrete_closure(carrier)).passed
        rng = random.Random(seed + 13)
        subs = core.subset_masks(carrier)
        for _ in range(2000):
            cl = list(range(len(subs)))
            A = rng.choice(subs)
            B = rng.choice(subs)
            cl[A] = B
            if A == B:
                continue
            if _strict_passes(subs, cl):
                ok3 = False
        out.add("tp-strict-three", ok3)
        return out

    return _run_units("suite-topology", [count_and_equivalence, strict_closure])


# ---------------------------------------------------------------------------
# 14. cli


def suite_cli(seed=0) -> LawReport:
    import contextlib
    import io

    # the one library import in a body: ``python -m structa.cli`` runs
    # cli.py as __main__, and runpy warns on stderr when ``import
    # structa`` has already loaded structa.cli
    from . import cli

    def roundtrip():
        out = LawReport("cli-roundtrip")
        paths = sorted(fixtures_dir().glob("*.json"))
        bad = []
        for p in paths:
            text = p.read_text(encoding="utf-8")
            if docs.render(docs.parse_text(text)) != text:
                bad.append(p.name)
        out.add(
            "cli-corpus",
            len(paths) >= 30 and not bad,
            tuple(bad) or None,
            counts=(len(paths),),
        )
        return out

    def determinism():
        out = LawReport("cli-determinism")
        paths = [str(p) for p in sorted(fixtures_dir().glob("*.json"))][:8]

        def run(jobs_n):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["check", "--jobs", str(jobs_n), *paths])
            return code, buf.getvalue()

        c1, t1 = run(1)
        c8, t8 = run(8)
        out.add("cli-jobs", c1 == c8 and t1 == t8)
        return out

    def exit_codes():
        out = LawReport("cli-exit-codes")

        def run(args):
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                return cli.main(args)

        good = str(fixtures_dir() / "group_z4.json")
        bad = str(fixtures_dir() / "category_neg_assoc_1.json")
        broken = str(fixtures_dir() / "bad" / "parse_error.json")
        nontotal = str(fixtures_dir() / "bad" / "missing_cell.json")
        out.add("cli-exit-pass", run(["check", good]) == 0)
        out.add("cli-exit-fail", run(["check", bad]) == 1)
        out.add("cli-exit-parse", run(["check", broken]) == 2)
        out.add("cli-exit-schema", run(["check", nontotal]) == 2)
        return out

    return _run_units("suite-cli", [roundtrip, determinism, exit_codes])


SUITES = {
    "functions": suite_functions,
    "categories": suite_categories,
    "interchange": suite_interchange,
    "yoneda": suite_yoneda,
    "integers": suite_integers,
    "rationals": suite_rationals,
    "lattices": suite_lattices,
    "zorn": suite_zorn,
    "groups": suite_groups,
    "actions": suite_actions,
    "filters": suite_filters,
    "sigma": suite_sigma,
    "topology": suite_topology,
    "cli": suite_cli,
}


def run_suite(name: str, seed=0, jobs=1) -> LawReport:
    """Run the named suite. ``jobs`` is accepted and ignored: suites run
    serially, and the parameter stays only because perfbench passes it."""
    if name not in SUITES:
        raise SchemaError("unknown suite %r; known: %s" % (name, sorted(SUITES)))
    return SUITES[name](seed=seed)
