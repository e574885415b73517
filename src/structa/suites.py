"""Named acceptance bundles.

Each suite is a list of independent units; a unit returns a LawReport.
Units run serially and their reports are merged in unit order; an error
raised inside a unit becomes a failed check of that unit. Randomized
suites take a ``seed`` and are deterministic for a fixed seed.

Each suite imports the library functions it uses inside its own body.
Tests replace a library function on its module with monkeypatch, and a
module-level ``from .x import f`` would bind the original, so the suite
would not see the replacement. Error classes, which nothing replaces,
are imported at the top.
"""

from __future__ import annotations

import itertools
import operator
import random
from pathlib import Path

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
            r.add("unit-error", "the unit ran without a structure error", False, (i, str(e)))
    return r


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


def suite_functions(seed=0) -> LawReport:
    from .core import _family_masks, _image_laws, classify, mask_of
    from .core import fiber_union_check, image_calculus

    doms = [FinSet("a%d" % i for i in range(m)) for m in range(4)]
    cods = [FinSet("b%d" % i for i in range(n)) for n in range(4)]
    passed_of = operator.itemgetter(1)
    volumes = []  # per unit: the individual checks performed

    def unit_for(dom, cod):
        def instance(tag, A, B, *families):
            masks = [_family_masks(dom, cod, fam) for fam in families]
            return tag, A, B, families, mask_of(dom, A), mask_of(cod, B), masks

        def unit():
            checks = 0
            failures = []
            subsA = list(dom.subsets())
            subsB = list(cod.subsets())
            product = itertools.product
            scan = [instance("img", A, B, [A], [B]) for A in subsA for B in subsB]
            scan += [instance("img-fam", dom, cod, X) for X in product(subsA, repeat=2)]
            scan += [instance("pre-fam", dom, cod, Y) for Y in product(subsB, repeat=2)]
            if len(dom) == 3:
                scan += [instance("img-fam3", dom, cod, X) for X in product(subsA, repeat=3)]
            for f in all_maps(dom, cod):
                p, bij, incl = decompose(f)
                if compose(incl, compose(bij, p)) != f:
                    failures.append(("decompose", f))
                checks += 1
                c = classify(f)
                # each image and preimage is computed once per map
                images, preimages = _image_tables(f)
                img, pre = images.__getitem__, preimages.__getitem__
                for tag, A, B, families, a, b, masks in scan:
                    laws = _image_laws(f, c, a, b, masks, img, pre)
                    checks += len(laws)
                    # only a failing instance gets a report, for its witnesses
                    if not all(map(passed_of, laws)):
                        rep = image_calculus(f, A, B, families)
                        failures.extend((tag, x.law, x.witness) for x in rep.failures)
                    if tag == "img":
                        rep = fiber_union_check(f, A, B)
                        checks += len(rep.checks)
                        failures.extend(("fib", x.law, x.witness) for x in rep.failures)
            volumes.append(checks)
            out = LawReport("functions[%d,%d]" % (len(dom), len(cod)))
            out.add(
                "fn-laws-%d-%d" % (len(dom), len(cod)),
                "image/preimage laws, fibers, and decompose-recompose "
                "hold on every map (%d checks)" % checks,
                not failures,
                tuple(str(x) for x in failures[:1]) or None,
            )
            return out

        return unit

    units = [unit_for(d, c) for d in doms for c in cods]
    r = _run_units("suite-functions", units)
    total = sum(volumes)
    r.add(
        "fn-volume",
        "the exhaustive scan performed at least 100000 individual checks",
        total >= 100000,
        (total,),
    )
    return r


# ---------------------------------------------------------------------------
# 2. category constructors + planted defects


def _seed_categories():
    from .category import (
        arrow_category,
        bridge_category,
        discrete,
        from_group,
        from_poset,
        functor_category,
        opposite_cat,
        product_cat,
    )
    from .group import cyclic_group, klein_four, symmetric_group_3
    from .order import antichain_poset, chain_poset, diamond_poset, powerset_poset

    chains = {n: from_poset(chain_poset(["c%d" % i for i in range(n)])) for n in (1, 2, 3, 4)}
    seeds = [("chain-%d" % n, C) for n, C in chains.items()]
    seeds.append(("diamond", from_poset(diamond_poset())))
    seeds.append(("antichain-3", from_poset(antichain_poset(["x", "y", "z"]))))
    seeds.append(("powerset-2", from_poset(powerset_poset(finset("a", "b")))))
    for n in (1, 2, 3, 4):
        G = cyclic_group(n)
        seeds.append(("cyclic-%d" % n, from_group(G.op, G.carrier)))
    K = klein_four()
    seeds.append(("klein", from_group(K.op, K.carrier)))
    S3, _ = symmetric_group_3()
    seeds.append(("sym-3", from_group(S3.op, S3.carrier)))
    seeds.append(("discrete-3", discrete(finset("u", "v", "w"))))
    C2 = chains[2]
    G2 = cyclic_group(2)
    Z2 = from_group(G2.op, G2.carrier)
    seeds.append(("product-c2-c2", product_cat(C2, C2)))
    seeds.append(("product-c2-z2", product_cat(C2, Z2)))
    seeds.append(("opposite-diamond", opposite_cat(from_poset(diamond_poset()))))
    seeds.append(("functor-cat-c2-c2", functor_category(C2, C2)))
    seeds.append(("functor-cat-c2-c3", functor_category(C2, chains[3])))
    # a bridge between two monotone maps chain2 -> chain3, and an arrow category
    from .category import FunctorData

    C3 = chains[3]
    lo = FunctorData(C2, C3, {"c0": "c0", "c1": "c1"}, _poset_on_arr(C2, C3, {"c0": "c0", "c1": "c1"}))
    hi = FunctorData(C2, C3, {"c0": "c1", "c1": "c2"}, _poset_on_arr(C2, C3, {"c0": "c1", "c1": "c2"}))
    tau = {x: C3.hom(lo.on_obj[x], hi.on_obj[x])[0] for x in C2.objects}
    seeds.append(("bridge-c2-c3", bridge_category(tau, lo, hi)))
    seeds.append(("arrow-cat-c2-c2", arrow_category(lo, lo)))
    return seeds


def _poset_on_arr(C, D, on_obj):
    return {
        f: D.hom(on_obj[C.src[f]], on_obj[C.tgt[f]])[0] for f in C.arrow_names
    }


def suite_categories(seed=0) -> LawReport:
    from .category import check_category
    from .docs import parse, run_check

    def positives():
        seeds = _seed_categories()
        out = LawReport("categories-positive")
        bad = [name for name, C in seeds if not check_category(C).passed]
        out.add(
            "cat-seeds",
            "all %d constructor-built seed categories pass the category laws"
            % len(seeds),
            len(seeds) >= 20 and not bad,
            tuple(bad) or None,
        )
        return out

    def negatives():
        out = LawReport("categories-negative")
        paths = sorted(fixtures_dir().glob("category_neg_assoc_*.json"))
        found = []
        for p in paths:
            rep = run_check(parse(str(p)))
            c = rep["cat-assoc"]
            found.append((p.name, (not c.passed) and c.witness is not None))
        out.add(
            "cat-planted",
            "the associativity witness search finds the planted defect in "
            "each of the %d negative fixtures" % len(paths),
            len(paths) == 5 and all(ok for _, ok in found),
            tuple(name for name, ok in found if not ok) or None,
        )
        return out

    return _run_units("suite-categories", [positives, negatives])


# ---------------------------------------------------------------------------
# 3. interchange


def _hcompose_formulas_agree(alpha, tau) -> bool:
    """The components of ``hcompose(α, τ)`` (the formula α_{Gx} ∘ J τ_x,
    for τ: F→G and α: J→K) agree at every object x with the other
    defining formula, K τ_x ∘ α_{Fx}. Only the components are compared,
    so the composite functors are not built."""
    from .category import _hcompose_components

    E, K = alpha.F.tgt, alpha.G
    comp = _hcompose_components(alpha, tau)
    return all(
        comp[x]
        == E.compose(K.on_arr[tau.component[x]], alpha.component[tau.F.on_obj[x]])
        for x in tau.F.src.objects
    )


def suite_interchange(seed=0) -> LawReport:
    from .category import from_group, from_poset, functor_category, interchange_check, vcompose
    from .group import cyclic_group
    from .order import chain_poset

    C2 = from_poset(chain_poset(["c0", "c1"]))
    C3 = from_poset(chain_poset(["c0", "c1", "c2"]))
    # one object, so not thin: the two formulas of hcompose can differ here
    Z2 = from_group(cyclic_group(2))

    def vertical_pairs(FC):
        return [
            (FC.meta["nats"][s], FC.meta["nats"][t])
            for s in FC.arrow_names
            for t in FC.arrow_names
            if FC.meta["nats"][s].F == FC.meta["nats"][t].G
        ]

    grids = []  # per unit: grids sampled, and whether both formulas agreed

    def unit_for(C, D, E, sub_seed):
        def unit():
            rng = random.Random(sub_seed)
            vert_cd = vertical_pairs(functor_category(C, D))
            vert_de = vertical_pairs(functor_category(D, E))
            total, bad = 0, 0
            formulas_ok = True
            for _ in range(400):
                sigma, tau = rng.choice(vert_cd)
                beta, alpha = rng.choice(vert_de)
                if not interchange_check(alpha, beta, sigma, tau).passed:
                    bad += 1
                formulas_ok = formulas_ok and all(
                    _hcompose_formulas_agree(a, t)
                    for a, t in (
                        (vcompose(beta, alpha), vcompose(sigma, tau)),
                        (beta, sigma),
                        (alpha, tau),
                    )
                )
                total += 1
            grids.append((total, formulas_ok))
            out = LawReport("interchange[%d,%d,%d]" % tuple(len(X.objects) for X in (C, D, E)))
            out.add(
                "ic-grid-%d%d%d" % tuple(len(X.objects) for X in (C, D, E)),
                "interchange holds on %d random 2x2 grids" % total,
                bad == 0,
                (bad,) if bad else None,
            )
            return out

        return unit

    units = [
        unit_for(C, D, E, seed * 1000 + i)
        for i, (C, D, E) in enumerate([(C2, C2, C2), (C2, C2, C3), (C2, C3, C2), (Z2, Z2, Z2)])
    ]
    r = _run_units("suite-interchange", units)
    r.add(
        "ic-volume",
        "at least 1000 grids were sampled and both defining formulas of "
        "horizontal composition agreed on every instance",
        sum(n for n, _ in grids) >= 1000 and all(ok for _, ok in grids),
    )
    return r


# ---------------------------------------------------------------------------
# 4. Yoneda


def _yoneda_corpus():
    from .category import FinCat, from_group, from_poset
    from .group import cyclic_group
    from .order import chain_poset

    cats = []
    for n in (1, 2, 3, 4):
        cats.append(("chain-%d" % n, from_poset(chain_poset(["c%d" % i for i in range(n)]))))
    for n in (1, 2, 3, 4):
        G = cyclic_group(n)
        cats.append(("cyclic-%d" % n, from_group(G.op, G.carrier)))
    # hand-built: the parallel pair with a cap
    pp = FinCat(
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
    idem = FinCat(
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
    """φ from ``yoneda(C, a, F)`` is a bijection onto F a, and the inverse
    x ↦ τ_x, with τ_x c(f) = F f(x), hits exactly the transformation
    that φ sends to x. Every transformation in ``res`` runs from L_a to
    F, so τ_x is matched by its components."""
    from .category import hom_set
    from .core import classify

    phi, by_name = res["phi"], res["by_name"]
    if not classify(phi)["bijective"]:
        return False
    for x in F.on_obj[a]:
        tau_x = {
            c: FinMap(hom_set(C, a, c), F.on_obj[c], {f: F.on_arr[f](x) for f in C.hom(a, c)})
            for c in C.objects
        }
        match = [name for name, n in by_name.items() if n.component == tau_x]
        if len(match) != 1 or phi(match[0]) != x:
            return False
    return True


def suite_yoneda(seed=0) -> LawReport:
    from .category import _covariant_hom, _yoneda, yoneda_embedding

    def unit_for(name, C):
        def unit():
            out = LawReport("yoneda[%s]" % name)
            pairs = 0
            ok = True
            Ls = {x: _covariant_hom(C, x) for x in sorted(C.objects)}
            for a in sorted(C.objects):
                for L in Ls.values():
                    res = _yoneda(C, a, Ls[a], L)
                    pairs += 1
                    count_ok = len(res["nat_set"]) == len(L.on_obj[a])
                    if not (count_ok and _yoneda_round_trip(C, a, L, res)):
                        ok = False
            out.add(
                "yo-count-%s" % name,
                "|Nat(L_a, F)| equals |F a| with exact round-trip on %d "
                "object/functor pairs" % pairs,
                ok,
            )
            emb = yoneda_embedding(C)
            out.add(
                "yo-embedding-%s" % name,
                "the Yoneda embedding is full and faithful",
                emb.passed,
            )
            return out

        return unit

    units = [unit_for(name, C) for name, C in _yoneda_corpus()]
    return _run_units("suite-yoneda", units)


# ---------------------------------------------------------------------------
# 5. integers


def suite_integers(seed=0) -> LawReport:
    from .numbers import _shift_maps, _sym, build_discrete, int_add, int_mul

    def exhaustive():
        out = LawReport("integers-exhaustive")
        bad = sum(
            1
            for a in range(-30, 31)
            for b in range(-30, 31)
            if int_add(a, b, N=61) != a + b
        )
        out.add(
            "int-add-exhaustive",
            "window addition equals integer addition for all |a|,|b| <= 30",
            bad == 0,
            (bad,) if bad else None,
        )
        return out

    def randomized():
        out = LawReport("integers-random")
        rng = random.Random(seed + 5)
        shifts = _shift_maps(build_discrete(201), 100)
        bad = 0
        for _ in range(10000):
            a = rng.randint(-100, 100)
            b = rng.randint(-100, 100)
            if int(shifts[b](_sym(a))) != a + b:
                bad += 1
        # the packaged entry point agrees on a subsample
        for _ in range(500):
            a = rng.randint(-100, 100)
            b = rng.randint(-100, 100)
            if int_add(a, b, N=201) != a + b:
                bad += 1
        out.add(
            "int-add-random",
            "functor-composition addition equals integer addition on 10000 "
            "random pairs with |a|,|b| <= 100",
            bad == 0,
            (bad,) if bad else None,
        )
        return out

    def products():
        out = LawReport("integers-product")
        rng = random.Random(seed + 6)
        bad = 0
        for _ in range(10000):
            a = rng.randint(-100, 100)
            b = rng.randint(-100, 100)
            if int_mul(a, b) != a * b:
                bad += 1
        out.add(
            "int-mul-recursion",
            "recursion product equals direct product on 10000 random pairs",
            bad == 0,
            (bad,) if bad else None,
        )
        return out

    def laws():
        out = LawReport("integers-laws")
        rng = random.Random(seed + 7)
        bad = 0
        for _ in range(10000):
            a, b, c = (rng.randint(-50, 50) for _ in range(3))
            if int_mul(a, b + c) != int_mul(a, b) + int_mul(a, c):
                bad += 1
            if int_mul(a, b) != int_mul(b, a):
                bad += 1
            if int_mul(int_mul(a, b), c) != int_mul(a, int_mul(b, c)):
                bad += 1
        out.add(
            "int-ring-laws",
            "distributivity, commutativity, and associativity hold on "
            "10000 random triples",
            bad == 0,
            (bad,) if bad else None,
        )
        return out

    return _run_units("suite-integers", [exhaustive, randomized, products, laws])


# ---------------------------------------------------------------------------
# 6. rationals


def suite_rationals(seed=0) -> LawReport:
    from .numbers import (
        Rat,
        embed_int,
        embedding_check,
        rat_add,
        rat_canon,
        rat_eq,
        rat_inv,
        rat_le,
        rat_mul,
        rat_neg,
    )

    grid = [
        Rat(n, d)
        for n in range(-6, 7)
        for d in list(range(-6, 0)) + list(range(1, 7))
    ]
    reps = {}
    for p in grid:
        reps.setdefault(rat_canon(p), p)
    classes = sorted(reps.values(), key=lambda p: (p.num, p.den))

    def order_laws():
        out = LawReport("rationals-order")
        total_ok = all(
            rat_le(p, q) or rat_le(q, p) for p in grid for q in grid
        )
        out.add("rat-total", "any two window rationals compare", total_ok)
        le = {
            (i, j): rat_le(p, q)
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
        out.add("rat-trans", "the order is transitive on the window", trans_ok)
        anti_ok = all(
            not (le[(i, j)] and le[(j, i)]) or i == j
            for i in range(n)
            for j in range(n)
        )
        out.add(
            "rat-antisym",
            "mutual comparison forces equality of classes",
            anti_ok,
        )
        return out

    def additive_group():
        out = LawReport("rationals-add")
        zero = Rat(0, 1)
        # each pair's sum once; a triple then adds twice, (p + q) + r and
        # p + (q + r), reading p + q and q + r off s
        s = [[rat_add(p, q) for q in classes] for p in classes]
        assoc = all(
            rat_eq(rat_add(s[i][j], r), rat_add(p, s[j][k]))
            for i, p in enumerate(classes)
            for j in range(len(classes))
            for k, r in enumerate(classes)
        )
        out.add("rat-add-assoc", "addition is associative on the window", assoc)
        out.add(
            "rat-add-unit",
            "zero is neutral",
            all(rat_eq(rat_add(p, zero), p) for p in classes),
        )
        out.add(
            "rat-add-inverse",
            "negation inverts addition",
            all(rat_eq(rat_add(p, rat_neg(p)), zero) for p in classes),
        )
        out.add(
            "rat-add-comm",
            "addition is commutative",
            all(rat_eq(rat_add(p, q), rat_add(q, p)) for p in classes for q in classes),
        )
        return out

    def multiplicative_group():
        out = LawReport("rationals-mul")
        one = Rat(1, 1)
        nz = [p for p in classes if p.num != 0]
        # each pair's product once, as for rat-add-assoc
        m = [[rat_mul(p, q) for q in nz] for p in nz]
        out.add(
            "rat-mul-assoc",
            "multiplication is associative on the nonzero window",
            all(
                rat_eq(rat_mul(m[i][j], r), rat_mul(p, m[j][k]))
                for i, p in enumerate(nz)
                for j in range(len(nz))
                for k, r in enumerate(nz)
            ),
        )
        out.add(
            "rat-mul-unit",
            "one is neutral",
            all(rat_eq(rat_mul(p, one), p) for p in nz),
        )
        out.add(
            "rat-mul-inverse",
            "reciprocals invert multiplication",
            all(rat_eq(rat_mul(p, rat_inv(p)), one) for p in nz),
        )
        out.add(
            "rat-mul-comm",
            "multiplication is commutative",
            all(rat_eq(rat_mul(p, q), rat_mul(q, p)) for p in nz for q in nz),
        )
        return out

    def embedding():
        out = LawReport("rationals-embedding")
        rep = embedding_check(6)
        out.merge(rep)
        out.add(
            "rat-embed-grid",
            "the embedded integers agree with window rationals of "
            "denominator one",
            all(rat_eq(embed_int(a), Rat(a, 1)) for a in range(-6, 7)),
        )
        return out

    return _run_units(
        "suite-rationals",
        [order_laws, additive_group, multiplicative_group, embedding],
    )


# ---------------------------------------------------------------------------
# 7. lattices


def suite_lattices(seed=0) -> LawReport:
    from .order import (
        enumerate_posets,
        lattice_from_poset,
        lattice_laws,
        order_from_semilattice,
    )

    def unit_for(n):
        def unit():
            carrier = FinSet("x%d" % i for i in range(n))
            out = LawReport("lattices[%d]" % n)
            total, lattices = 0, 0
            ok_iff, ok_round, ok_laws = True, True, True
            for P in enumerate_posets(carrier):
                total += 1
                pairwise = all(
                    P.sup(finset(x, y)) is not None
                    and P.inf(finset(x, y)) is not None
                    for x in carrier
                    for y in carrier
                )
                try:
                    lt = lattice_from_poset(P)
                except NotALattice:
                    lt = None
                if (lt is not None) != pairwise:
                    ok_iff = False
                if lt is None:
                    continue
                lattices += 1
                if order_from_semilattice(lt.join, carrier, "join") != P:
                    ok_round = False
                if order_from_semilattice(lt.meet, carrier, "meet") != P:
                    ok_round = False
                if not lattice_laws(lt).passed:
                    ok_laws = False
            out.add(
                "lat-iff-%d" % n,
                "lattice_from_poset succeeds exactly when pairwise sups and "
                "infs exist (%d posets, %d lattices)" % (total, lattices),
                ok_iff,
            )
            out.add(
                "lat-roundtrip-%d" % n,
                "the dual semilattice tables reconstruct the original order",
                ok_round,
            )
            out.add(
                "lat-laws-%d" % n,
                "absorption, idempotence, and monotonicity hold on every lattice",
                ok_laws,
            )
            return out

        return unit

    return _run_units("suite-lattices", [unit_for(n) for n in (1, 2, 3, 4)])


# ---------------------------------------------------------------------------
# 8. Zorn


def suite_zorn(seed=0) -> LawReport:
    from .order import _zorn_chain, enumerate_posets

    def unit_for(n):
        def unit():
            carrier = FinSet("x%d" % i for i in range(n))
            out = LawReport("zorn[%d]" % n)
            total = 0
            ok_max, ok_chain = True, True
            for P in enumerate_posets(carrier):
                total += 1
                # one greedy chain serves both laws: its top is zorn_maximal(P)
                chain, m = _zorn_chain(P)
                if any(P.le(m, y) and m != y for y in carrier):
                    ok_max = False
                elems = set(chain.elements)
                if any(
                    c not in elems and all(P.comparable(c, x) for x in elems)
                    for c in carrier
                ):
                    ok_chain = False
            out.add(
                "zorn-maximal-%d" % n,
                "zorn_maximal returns a scan-verified maximal element on "
                "all %d posets" % total,
                ok_max,
            )
            out.add(
                "zorn-chain-%d" % n,
                "extend_chain output is maximal as a chain by scan",
                ok_chain,
            )
            return out

        return unit

    return _run_units("suite-zorn", [unit_for(n) for n in (1, 2, 3, 4, 5)])


# ---------------------------------------------------------------------------
# 9. groups


def suite_groups(seed=0) -> LawReport:
    from .core import classify
    from .group import (
        abelianization_check,
        as_group,
        center,
        commutant,
        cosets,
        cyclic_group,
        enumerate_groups,
        enumerate_homs,
        first_iso,
        group_axioms,
        hom_check,
        inner_automorphisms,
        is_normal,
        kernel,
        subgroup_check,
        symmetric_group_3,
    )

    def catalog_criteria():
        out = LawReport("groups-catalog")
        total_subsets, subgroups = 0, 0
        agree = True
        catalog = [G for n in range(1, 7) for G in enumerate_groups(n)]
        for G in catalog:
            for sub in G.carrier.subsets():
                if len(sub) == 0:
                    continue
                total_subsets += 1
                # criterion 1: closure + unit + inverses (subgroup_check)
                try:
                    H = subgroup_check(G, sub)
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
                by_table = len(restricted) == len(sub) ** 2 and group_axioms(
                    restricted, sub
                ).passed
                if not (by_axioms == by_division == by_table):
                    agree = False
                if by_axioms:
                    subgroups += 1
                    # normality criteria: conjugation closure, coset
                    # equality, and conjugate-set equality
                    n1 = is_normal(G, H)
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
        out.add(
            "grp-criteria",
            "subgroup and normality criteria agree on all %d subsets "
            "(%d subgroups) of the order <= 6 catalog" % (total_subsets, subgroups),
            agree,
        )
        return out

    def first_iso_holds(h):
        """The induced map G/ker h -> Im h is a bijective homomorphism
        through which h factors."""
        try:
            iso = first_iso(h)
        except StructaError:
            return False
        block = {x: b.name() for b in cosets(h.src, kernel(h)).blocks for x in b}
        return classify(iso.map)["bijective"] and all(
            iso.map(block[x]) == h.map(x) for x in h.src.carrier
        )

    def first_iso_sweep():
        out = LawReport("groups-first-iso")
        catalog = [G for n in range(1, 5) for G in enumerate_groups(n)]
        homs = 0
        ok = True
        for G in catalog:
            for H in catalog:
                for h in enumerate_homs(G, H):
                    homs += 1
                    if not first_iso_holds(h):
                        ok = False
        out.add(
            "grp-first-iso",
            "the first isomorphism theorem holds for all %d homomorphisms "
            "between order <= 4 catalog members" % homs,
            ok,
        )
        S3, perms = symmetric_group_3()
        Z2 = cyclic_group(2)

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
        sign_ok = first_iso_holds(hom_check(S3, Z2, f))
        out.add(
            "grp-sign-hom",
            "the first isomorphism theorem holds for the sign "
            "homomorphism from the symmetric group on three letters",
            sign_ok,
        )
        return out

    def s3_facts():
        out = LawReport("groups-s3")
        S3, _ = symmetric_group_3()
        D = commutant(S3)
        out.add("grp-s3-commutant", "the commutant has order three", len(D.members) == 3)
        Z = center(S3)
        out.add(
            "grp-s3-center",
            "the center is trivial",
            Z.members == finset(S3.unit),
        )
        inner, _ = inner_automorphisms(S3)
        out.add(
            "grp-s3-inner",
            "there are six inner automorphisms",
            inner.order() == 6,
        )
        rep = abelianization_check(S3, D)
        q = as_group(D)  # touch the subgroup-as-group view
        out.add(
            "grp-s3-abelianization",
            "the quotient by the commutant is abelian of order two",
            rep.passed and len(S3.carrier) // len(D.members) == 2 and q.order() == 3,
        )
        return out

    return _run_units("suite-groups", [catalog_criteria, first_iso_sweep, s3_facts])


# ---------------------------------------------------------------------------
# 10. actions


def suite_actions(seed=0) -> LawReport:
    from .group import (
        action_check,
        action_nucleus,
        coset_action,
        cosets,
        cyclic_subgroup,
        is_transitive,
        stabilizer_suite,
        symmetric_group_3,
    )

    S3, perms = symmetric_group_3()

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
            H = cyclic_subgroup(S3, gen)
            A = coset_action(S3, H)
            rep = action_check(A)
            out.add(
                "act-%s-laws" % label,
                "the coset action satisfies the action laws",
                rep.passed,
            )
            out.add(
                "act-%s-transitive" % label,
                "the coset action is transitive",
                is_transitive(A),
            )
            fixed_ok = True
            blocks = cosets(S3, H, side="left")
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
            out.add(
                "act-%s-fixed-coset" % label,
                "g fixes the coset xH exactly when x^-1 g x lies in H",
                fixed_ok,
            )
            nucleus = action_nucleus(A)
            conj_core = FinSet(
                h
                for h in S3.carrier
                if all(
                    S3.op[(S3.op[(x, h)], S3.inv[x])] in H.members
                    for x in S3.carrier
                )
            )
            out.add(
                "act-%s-nucleus" % label,
                "the nucleus is the intersection of the conjugate subgroups",
                nucleus == conj_core,
            )
        return out

    def stabilizers():
        out = LawReport("actions-stabilizers")
        # S3 acting on the three letters it permutes
        letters = finset("1", "2", "3")
        from .group import GroupAction

        A = GroupAction(S3, letters, {g: perms[g] for g in S3.carrier})
        ok = action_check(A).passed
        out.add("act-letters", "the defining action satisfies the action laws", ok)
        sim_ok = True
        for a in letters:
            rep = stabilizer_suite(A, a)
            if not rep.passed:
                sim_ok = False
        out.add(
            "act-stabilizer-similarity",
            "the action is similar to the coset action of each stabilizer",
            sim_ok,
        )
        return out

    return _run_units("suite-actions", [coset_shapes, stabilizers])


# ---------------------------------------------------------------------------
# 11. filters


def suite_filters(seed=0) -> LawReport:
    from .settools import (
        enumerate_filters,
        generate_filter,
        inter_of,
        principal_filter,
        ultrafilter_suite,
    )

    def unit_for(n):
        def unit():
            carrier = FinSet("p%d" % i for i in range(1, n + 1))
            out = LawReport("filters[%d]" % n)
            out.merge(ultrafilter_suite(carrier))
            filters = enumerate_filters(carrier)
            minimal_ok, principal_ok = True, True
            for F in filters:
                core = inter_of(F.members, carrier)
                if F.members != principal_filter(carrier, core).members:
                    principal_ok = False
                gen = generate_filter(F)
                if gen.members != F.members:
                    minimal_ok = False
            out.add(
                "fl-principal-%d" % n,
                "every one of the %d filters is principal over its core"
                % len(filters),
                principal_ok,
            )
            out.add(
                "fl-minimal-%d" % n,
                "generating from a filter returns the filter itself",
                minimal_ok,
            )
            return out

        return unit

    return _run_units("suite-filters", [unit_for(n) for n in (1, 2, 3, 4)])


# ---------------------------------------------------------------------------
# 12. sigma-algebras


def suite_sigma(seed=0) -> LawReport:
    from .settools import Family, sigma_by_partitions, sigma_generate

    def unit():
        carrier = finset("a", "b", "c")
        subs = [s for s in carrier.subsets()]
        out = LawReport("sigma[3]")
        total = 0
        ok = True
        for k in range(len(subs) + 1):
            for combo in itertools.combinations(subs, k):
                total += 1
                fam = Family(carrier, combo)
                if sigma_generate(carrier, fam) != sigma_by_partitions(carrier, fam):
                    ok = False
        out.add(
            "sg-all-families",
            "closure iteration equals the intersection of enclosing "
            "sigma-algebras for all %d families on three points" % total,
            ok,
        )
        return out

    return _run_units("suite-sigma", [unit])


# ---------------------------------------------------------------------------
# 13. topology


def _strict_passes(subs: list, cl: list) -> bool:
    """The mask table ``cl`` passes every strict closure law."""
    from .top import _closure_laws

    return all(bad is None for _, bad in _closure_laws(subs, cl, strict=True))


def suite_topology(seed=0) -> LawReport:
    from .core import subset_masks
    from .settools import Family
    from .top import (
        base_ops,
        check_topology,
        closure_check,
        closure_from_closed,
        discrete_closure,
        enumerate_topologies,
        open_duality,
    )

    def count_and_equivalence():
        out = LawReport("topology-29")
        carrier = finset("a", "b", "c")
        tops = enumerate_topologies(carrier)
        out.add(
            "tp-count",
            "brute force finds exactly 29 topologies on three points",
            len(tops) == 29,
            (len(tops),),
        )
        ok = True
        for fam in tops:
            T = check_topology(carrier, fam)
            B = Family(carrier, [s for s in fam.members if len(s) > 0])
            via_base = base_ops(carrier, B)["closure"]
            via_closed = closure_from_closed(carrier, open_duality(T))
            if via_base != via_closed:
                ok = False
        out.add(
            "tp-closure-agree",
            "base-derived and closed-family closures are table-identical "
            "on every topology",
            ok,
        )
        return out

    def strict_closure():
        # every table is a list of masks: entry m is the closure of the
        # subset with mask m, and the discrete model is the identity list
        out = LawReport("topology-strict")
        ok_small = True
        for labels in (("a",), ("a", "b")):
            subs = subset_masks(finset(*labels))
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
        out.add(
            "tp-strict-small",
            "exhaustively, the only strict closure model on one or two "
            "points is the discrete one",
            ok_small,
        )
        carrier = finset("a", "b", "c")
        ok3 = closure_check(discrete_closure(carrier)).passed
        rng = random.Random(seed + 13)
        subs = subset_masks(carrier)
        for _ in range(2000):
            cl = list(range(len(subs)))
            A = rng.choice(subs)
            B = rng.choice(subs)
            cl[A] = B
            if A == B:
                continue
            if _strict_passes(subs, cl):
                ok3 = False
        # constructive argument: point fixing pins singletons, additivity
        # then pins every other value as the union of its singletons
        for A in carrier.subsets():
            if len(A) > 1:
                parts = [finset(x) for x in A]
                union = FinSet(x for p in parts for x in p)
                if union != A:
                    ok3 = False
        out.add(
            "tp-strict-three",
            "on three points the discrete model passes and sampled "
            "perturbations plus the additivity argument exclude all others",
            ok3,
        )
        return out

    return _run_units("suite-topology", [count_and_equivalence, strict_closure])


# ---------------------------------------------------------------------------
# 14. cli


def suite_cli(seed=0) -> LawReport:
    import contextlib
    import io

    from . import cli
    from .docs import parse_text, render

    def roundtrip():
        out = LawReport("cli-roundtrip")
        paths = sorted(fixtures_dir().glob("*.json"))
        bad = []
        for p in paths:
            text = p.read_text(encoding="utf-8")
            if render(parse_text(text)) != text:
                bad.append(p.name)
        out.add(
            "cli-corpus",
            "all %d corpus documents round-trip through parse and render "
            "byte-identically" % len(paths),
            len(paths) >= 30 and not bad,
            tuple(bad) or None,
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
        out.add(
            "cli-jobs",
            "report output is byte-identical across one and eight workers",
            c1 == c8 and t1 == t8,
        )
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
        out.add("cli-exit-pass", "a passing document exits zero", run(["check", good]) == 0)
        out.add("cli-exit-fail", "a failing law exits one", run(["check", bad]) == 1)
        out.add(
            "cli-exit-parse",
            "a syntax error exits two",
            run(["check", broken]) == 2,
        )
        out.add(
            "cli-exit-schema",
            "a non-total table exits two",
            run(["check", nontotal]) == 2,
        )
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
