"""Closure operators, topologies, and bases on finite carriers.

Two closure constructions are shipped side by side: the strict
axiom checker (point-fixing plus additivity, which on a finite carrier
admits only the discrete model) and the closed-family machinery, where
closure is intersection of enclosing closed sets. The tension between
them is deliberate and documented in the reports, not papered over.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from .core import FinSet, Frozen, generated, mask_of, set_of, subset_masks, union_of
from .errors import BadStructure, CarrierMismatch, NotClosedFamily, NotCovering, TooLarge
from .report import LawReport
from .settools import Family, closure_witness, inter_of, unclosed_pair, upward_closure


class ClosureOp(Frozen):
    """A total table sending each subset of the carrier to a subset."""

    __slots__ = ("carrier", "table")
    _fields = ("carrier", "table")

    def __init__(self, carrier: FinSet, table):
        table = dict(table)
        if set(table) != set(carrier.subsets()):
            raise CarrierMismatch("closure table must cover the whole power set")
        for a, b in table.items():
            if not b <= carrier:
                raise CarrierMismatch("closure value escapes the carrier", witness=(a.name(),))
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "table", table)

    def __eq__(self, other):
        return (
            isinstance(other, ClosureOp)
            and self.carrier == other.carrier
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.carrier, tuple(sorted(self.table.items(), key=lambda kv: kv[0].elements))))

    def __call__(self, A: FinSet) -> FinSet:
        return self.table[A]


def discrete_closure(carrier: FinSet) -> ClosureOp:
    return ClosureOp(carrier, {A: A for A in carrier.subsets()})


def _mask_table(op: ClosureOp) -> list:
    """The closure as a list: entry m is the mask of the closure of the
    subset with mask m, over the carrier."""
    carrier = op.carrier
    table = [0] * (1 << len(carrier.elements))
    for A, B in op.table.items():
        table[mask_of(carrier, A)] = mask_of(carrier, B)
    return table


def _closure_laws(subs: list, cl: list, strict: bool) -> list:
    """The closure laws of the mask table ``cl`` as (law id, witness)
    pairs in report order: the six lenient laws, then, when ``strict``,
    ``cls-additive`` and ``cls-points``. ``subs`` lists the
    carrier's subset masks in ``subsets()`` order, and every scan follows
    it, so each witness is the first counterexample, as masks; a point is
    given as its singleton's mask. A passing law has the witness None, a
    failing law that names no counterexample has (). No ``Check`` or
    ``FinSet`` is built.

    ``clx-closed-inter`` scans pairs of closed sets only. That decides
    closure under every non-empty finite intersection: if the closed
    sets are closed under meeting two of them, then by induction on k,
    a1 ∩ … ∩ ak = (a1 ∩ … ∩ ak-1) ∩ ak is closed for every k ≥ 1. So the
    verdict equals that of the scan over all combinations, which the
    tests keep as a reference."""
    laws = [("clx-empty", None if cl[0] == 0 else ())]
    bad = next(((a,) for a in subs if a & ~cl[a]), None)
    laws.append(("clx-extensive", bad))
    bad = next(
        ((a, b) for a in subs for b in subs if not a & ~b and cl[a] & ~cl[b]), None
    )
    laws.append(("clx-monotone", bad))
    bad = next(((a,) for a in subs if cl[cl[a]] != cl[a]), None)
    laws.append(("clx-idempotent", bad))
    closed = [a for a in subs if cl[a] == a]
    bad = unclosed_pair(closed, operator.or_)
    if bad is not None:
        bad = (closed[bad[0]], closed[bad[1]])
    laws.append(("clx-closed-union", bad))
    bad = unclosed_pair(closed, operator.and_)
    laws.append(("clx-closed-inter", None if bad is None else ()))
    if strict:
        bad = next(((a, b) for a in subs for b in subs if cl[a | b] != cl[a] | cl[b]), None)
        laws.append(("cls-additive", bad))
        # subs holds 2^n masks, and the n singletons follow the empty set
        points = subs[1 : len(subs).bit_length()]
        bad = next(((p,) for p in points if cl[p] != p), None)
        laws.append(("cls-points", bad))
    return laws


def _closure_report(name: str, op: ClosureOp, strict: bool) -> LawReport:
    """The kernel's verdicts on ``op`` as a report, each witness named:
    a subset by its name, the point of ``cls-points`` by itself."""
    carrier = op.carrier
    r = LawReport(name)
    for law, bad in _closure_laws(subset_masks(carrier), _mask_table(op), strict):
        if bad:
            if law == "cls-points":
                bad = set_of(carrier, bad[0]).elements
            else:
                bad = tuple(set_of(carrier, m).name() for m in bad)
        r.add(law, bad is None, bad)
    return r


def closure_laws(op: ClosureOp) -> LawReport:
    """The lenient law set shared by both constructions: empty set,
    extensivity, monotonicity, idempotence, and the closed-family
    theorems."""
    return _closure_report("closure-laws", op, strict=False)


def closure_check(op: ClosureOp) -> LawReport:
    """The strict functor-style axioms: unit and union preservation,
    point fixing, idempotence, plus the derived laws."""
    return _closure_report("closure-strict", op, strict=True)


def closure_from_closed(carrier: FinSet, C: Family) -> ClosureOp:
    """Closure as intersection of enclosing closed sets."""
    if C.carrier != carrier:
        raise CarrierMismatch("closed family lives over a different carrier")
    if FinSet() not in C.members or carrier not in C.members:
        raise NotClosedFamily("the empty set and the carrier must be closed")
    bad = closure_witness(C, FinSet.inter)
    if bad is not None:
        raise NotClosedFamily("family is not intersection closed", witness=bad)
    bad = closure_witness(C, FinSet.union)
    if bad is not None:
        raise NotClosedFamily("family is not union closed", witness=bad)
    table = {
        A: inter_of((D for D in C.members if A <= D), carrier)
        for A in carrier.subsets()
    }
    return ClosureOp(carrier, table)


class Topology(Frozen):
    __slots__ = _fields = ("carrier", "opens")


def check_topology(carrier: FinSet, opens: Family) -> Topology:
    if opens.carrier != carrier:
        raise CarrierMismatch("open family lives over a different carrier")
    shut = next((s for s in (FinSet(), carrier) if s not in opens), None)
    if shut is not None:
        raise BadStructure("the empty set and the carrier must be open", witness=(shut.name(),))
    bad = closure_witness(opens, FinSet.union)
    if bad is not None:
        raise BadStructure("opens are not union closed", witness=bad)
    bad = closure_witness(opens, FinSet.inter)
    if bad is not None:
        raise BadStructure("opens are not intersection closed", witness=bad)
    # on a finite carrier, unions of subfamilies reduce to pairwise ones
    return Topology(carrier, opens)


def open_duality(T: Topology) -> Family:
    """The closed sets: complements of the opens."""
    return Family(T.carrier, [s.complement_in(T.carrier) for s in T.opens.members])


def neighborhoods(T: Topology, x) -> Family:
    """The sets N ⊇ V ∋ x for some open V: the upward closure of those V."""
    if x not in T.carrier:
        raise CarrierMismatch("point outside the carrier", witness=(x,))
    return upward_closure(T.carrier, [mask_of(T.carrier, V) for V in T.opens.members if x in V])


def neighborhood_laws(T: Topology) -> LawReport:
    r = LawReport("neighborhoods")
    nbhd = {x: neighborhoods(T, x).members for x in T.carrier}
    bad = next(
        (
            (V.name(),)
            for V in T.carrier.subsets()
            if (V in T.opens.members) != all(V in nbhd[x] for x in V)
        ),
        None,
    )
    r.add("nb-open-iff", bad is None, bad)
    r.add(
        "nb-superset",
        all(
            all(
                N2 in nbhd[x]
                for N in nbhd[x]
                for N2 in T.carrier.subsets()
                if N <= N2
            )
            for x in T.carrier
        ),
    )
    return r


def point_base_check(T: Topology, x, Bx: Family) -> bool:
    """Bx is a point base of x: a family of open sets such that every
    neighborhood of x swallows a member through x."""
    if not Bx.members <= T.opens.members:
        return False
    nbhd = neighborhoods(T, x).members
    return all(any(x in U and U <= N for U in Bx.members) for N in nbhd)


def base_ops(carrier: FinSet, B: Family) -> dict:
    """The topology a base generates (with ∅ and the carrier, closed under
    ∪ and ∩, so a subbase works too), the base criterion report, and the
    closure operator read off the base, which ``bs-closure-equivalence``
    compares with the closed-family construction."""
    if B.carrier != carrier:
        raise CarrierMismatch("base lives over a different carrier")
    uncovered = next((x for x in carrier if not any(x in U for U in B.members)), None)
    if uncovered is not None:
        raise NotCovering("a point lies in no base member", witness=(uncovered,))
    seed = [mask_of(carrier, U) for U in B.members] + [0, mask_of(carrier, carrier)]
    opens = generated(seed, binary=[operator.or_, operator.and_])
    T = check_topology(carrier, Family(carrier, [set_of(carrier, m) for m in opens]))
    r = LawReport("base")
    point_form = all(
        any(x in U and U <= V for U in B.members)
        for V in T.opens.members
        for x in V
    )
    union_form = all(
        V == union_of(U for U in B.members if U <= V)
        for V in T.opens.members
        if len(V) > 0
    )
    r.add("bs-criterion-agree", point_form == union_form)
    r.add("bs-members-open", B.members <= T.opens.members)
    table = {}
    for A in carrier.subsets():
        table[A] = FinSet(
            x
            for x in carrier
            if all(U.inter(A) for U in B.members if x in U)
        )
    cl = ClosureOp(carrier, table)
    if point_form:
        r.add("bs-point-base", all(point_base_check(T, x, B) for x in carrier))
        closed = open_duality(T)
        from_closed = closure_from_closed(carrier, closed)
        r.add("bs-closure-equivalence", cl == from_closed)
    else:
        r.add("bs-subbase-only", True)
    return {"topology": T, "criterion": r, "closure": cl, "is_base": point_form}


@lru_cache(maxsize=None)
def _enumerate_topologies_cached(carrier: FinSet) -> tuple:
    subs = [s for s in carrier.subsets() if len(s) not in (0, len(carrier))]
    out = []
    for k in range(len(subs) + 1):
        for combo in itertools.combinations(subs, k):
            fam = Family(carrier, set(combo) | {FinSet(), carrier})
            if (
                closure_witness(fam, FinSet.union) is None
                and closure_witness(fam, FinSet.inter) is None
            ):
                out.append(fam)
    return tuple(out)


def enumerate_topologies(carrier: FinSet) -> list:
    if len(carrier) > 4:
        raise TooLarge("topology enumeration capped at 4 points", witness=(len(carrier),))
    return list(_enumerate_topologies_cached(carrier))
