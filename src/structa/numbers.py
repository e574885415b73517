"""Exact integers and rationals.

Runtime arithmetic is native: integers are plain arbitrary-precision
ints and rationals multiply them with ``*``. The successor-automorphism
construction of addition and the recursion product are what the laws
verify, on bounded windows, against that native arithmetic. Rationals
are pairs with a cross-multiplication equality and a sign-split order.

The checked constructions keep their steps and leave out repeated
interpreter work: the recursion product is one native left fold over
its |b| additions; the shift maps are built in order of |b|, each one
successor step (or inverse step) past the map before it, on carriers
that are the previous map's less one point, found by bisection; the window
laws follow from one translation certificate, that every shift table
is x ↦ x + b on its interval and the window's order is that of ints,
checked in O(N²); only when it fails do they scan, and then only the
interval of x whose every step stays in the window, computed from the
offsets, as C-level ``map`` chains that still read each step from the
shift tables; the window's order-embedding check compares one
up-set mask per point; and the sign dualities of the rationals read one
table of ``rat_le`` on each ordered pair of their grid, each sign
involution being a permutation of the grid's positions. The
associativity of a rational operation combines each distinct partial
result, by its ints, with every element once on either side, and
compares the triples from those rows. A ``Rat`` is an immutable
two-slot object.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, compress, repeat

from .core import FinMap, FinSet, Frozen, classify
from .errors import BadStructure, WindowOverflow, ZeroDenominator
from .order import Poset
from .report import LawReport

ExactInt = int


def _sym(i: int) -> str:
    return str(i)


class IntWindow(Frozen):
    __slots__ = _fields = ("N", "poset", "succ", "pred")


@lru_cache(maxsize=8)
def build_discrete(N: int) -> IntWindow:
    """The window [-N, N] with its natural order and the successor map
    on [-N, N-1], checked to be an order embedding onto the shifted
    window, together with its inverse.

    The embedding check asks, for every pair (x, y) of the interior
    [-N, N-1], that x <= y exactly when x + 1 <= y + 1 in the poset's
    pairs. It compares row masks over the points in numeric order: bit
    k of up[x] is set when x <= y for the k-th point y of [-N, N], so
    the successor moves bit k to bit k + 1, the interior is bits 0..2N-1
    (``inner_bits``) and the shifted window bits 1..2N
    (``shifted_bits``). For one x and the k-th point y, bit k + 1 of
    (up[x] & inner_bits) << 1 is set exactly when y is interior and
    x <= y, and bit k + 1 of up[x + 1] & shifted_bits exactly when y is
    interior and x + 1 <= y + 1. Neither mask has a bit outside 1..2N,
    so they are equal exactly when the pair test holds for x and every
    interior y, and the 2N row tests decide the same predicate as the
    (2N)^2 pair tests. The witness is the first failing pair of that
    scan in its order, x before y, both in numeric order: x is the first
    row k whose masks differ, and y the interior point j whose bit j + 1
    is the lowest set bit of their XOR."""
    if N < 1:
        raise ValueError("the window needs at least -1, 0, 1")
    # syms[i + N] names i, so i <= j exactly when syms[i + N] comes no
    # later than syms[j + N]
    syms = [_sym(i) for i in range(-N, N + 1)]
    carrier = FinSet(syms)
    le = chain.from_iterable(zip(repeat(x), syms[k:]) for k, x in enumerate(syms))
    # the natural order of ints is a total order; tests run check_order on it
    poset = Poset._trusted(carrier, le)
    interior = FinSet(syms[:-1])
    shifted = FinSet(syms[1:])
    succ = FinMap(interior, shifted, dict(zip(syms, syms[1:])))
    if not classify(succ)["bijective"]:
        raise BadStructure("successor must be a bijection onto the shifted window")
    pairs = poset.pairs
    bits = [1 << k for k in range(len(syms))]
    up = [sum(compress(bits, map(pairs.__contains__, zip(repeat(x), syms)))) for x in syms]
    inner_bits = (1 << 2 * N) - 1
    shifted_bits = inner_bits << 1
    for k in range(2 * N):
        diff = ((up[k] & inner_bits) << 1) ^ (up[k + 1] & shifted_bits)
        if diff:
            j = (diff & -diff).bit_length() - 2
            raise BadStructure("successor must be an order embedding", witness=(syms[k], syms[j]))
    pred = FinMap(shifted, interior, {y: x for x, y in succ.assign.items()})
    return IntWindow(N, poset, succ, pred)


def _walk(w: IntWindow, x: str, b: int) -> str:
    """The b-fold composite of successor steps (inverse steps for b < 0)
    at the point x."""
    step = w.succ.assign if b >= 0 else w.pred.assign
    for _ in range(abs(b)):
        x = step[x]
    return x


def _shift_maps(w: IntWindow, m: int) -> dict:
    """The +b automorphisms for b = 0, ±1, ..., ±m, each on the partial
    window where it stays in range, by offset. They are built in order
    of |b|: the map for b > 0 is the map for b - 1 followed by one
    successor step, and the map for b < 0 is the map for b + 1 followed
    by one inverse step, so every value is still read off the successor
    table, with one step per point and map. The domain of the map for b
    lies inside that of the map before it, whose values there stay in
    the step's domain.

    +k maps [-N, N - k] onto [-N + k, N] and -k maps them back, so the
    two carriers of step k are those of step k - 1 less one point each:
    N - k + 1, which +k moves past N, and -N + k - 1, which -k moves
    past -N. Both are found by bisection in the sorted element tuple.
    ``FinMap`` still checks each assignment against its carriers."""
    N = w.N
    carrier = w.poset.carrier
    succ, pred = w.succ.assign, w.pred.assign
    # syms[i + N] names i
    syms = [_sym(i) for i in range(-N, N + 1)]
    maps = {0: FinMap(carrier, carrier, dict(zip(syms, syms)))}
    # +k maps left onto right; -k maps right onto left
    left = right = carrier
    for k in range(1, m + 1):
        if k <= 2 * N + 1:  # past it, both carriers are empty
            left, right = _less(left, syms[2 * N + 1 - k]), _less(right, syms[k - 1])
        for b, back, step, dom, cod in (
            (k, maps[k - 1].assign, succ, left, right),
            (-k, maps[1 - k].assign, pred, right, left),
        ):
            # +b stays in range on n points, from position lo
            n, lo = max(2 * N + 1 - k, 0), max(0, -b)
            maps[b] = FinMap(dom, cod, {x: step[back[x]] for x in syms[lo : lo + n]})
    return maps


def _less(s: FinSet, x: str) -> FinSet:
    """The set s without its element x."""
    e = s.elements
    i = bisect_left(e, x)
    return FinSet._ordered(e[:i] + e[i + 1 :])


def int_add(a: ExactInt, b: ExactInt, N: int | None = None) -> ExactInt:
    """Addition by b-fold successor composition on a verified window,
    evaluated at the one point a: |b| steps along the window's successor
    map, or its inverse for negative b. Runtime code adds natively; this
    is the construction the integer laws check against ``+``."""
    if N is None:
        N = abs(a) + abs(b) + 1
    if abs(a) > N or abs(b) > N or abs(a + b) > N:
        raise WindowOverflow("operands escape the window", witness=(a, b, N))
    return int(_walk(build_discrete(N), _sym(a), b))


def int_group_check(N: int) -> LawReport:
    """Window verification of the additive group laws and the pointwise
    comparison of shift maps.

    After ``int-unit``, the shift maps' assignments and the window's
    order are read once into int tables, ``t`` by offset and ``le``.
    One translation certificate, ``_translates``, then asks that each
    t[b] is x ↦ x + b on [max(-N, -N - b), min(N, N - b)] and that le is
    the pairs -N ≤ x ≤ y ≤ N. That is O(N²) dict and set equalities. If
    it holds, the four scanned laws follow from it and are added as
    passed:

    - inverse: t[b] sends x to y = x + b, and where y is a key of
      t[-b], t[-b][y] = y - b = x;
    - commutative: every x that ``_commute`` visits keeps x, x + a,
      x + b and x + a + b in the window, so each lookup is a key of its
      table, and both chains give x + a + b;
    - associative: likewise, every x that ``_stack`` visits keeps its
      partial sums in the window, and the chain gives x + a + b + c;
    - nat-order: for |a|, |b| ≤ N // 2 the common interval
      [max(-N, -N - a, -N - b), min(N, N - a, N - b)] holds at least
      [-N + N // 2, N - N // 2], which is not empty, and each of its x
      is a key of both tables. So the scan compares (x + a, x + b) with
      le there, and passes exactly when a ≤ b.

    No scan can raise on such tables, and each gives True. If the
    certificate fails, the scans run as they are, so every verdict and
    every error on a broken table is the one they give."""
    r = LawReport("int-group")
    w = build_discrete(N)
    half = N // 2
    shifts = _shift_maps(w, half)
    r.add("int-unit", shifts[0] == FinMap.identity(w.poset.carrier))
    # the laws below compose the shift maps' own assignments, read once
    # into int tables; the window's order is read the same way
    t = {b: {int(x): int(y) for x, y in m.assign.items()} for b, m in shifts.items()}
    le = {(int(x), int(y)) for x, y in w.poset.pairs}
    if _translates(t, le, N):
        ok_inv = ok_comm = ok_assoc = ok_nat = True
    else:
        ok_inv, ok_comm, ok_assoc, ok_nat = _scan_laws(t, le, N)
    r.add("int-inverse", ok_inv)
    r.add("int-commutative", ok_comm)
    r.add("int-associative", ok_assoc)
    r.add("int-nat-order", ok_nat)
    return r


def _translates(t: dict, le: set, N: int) -> bool:
    """The translation certificate of ``int_group_check``: every shift
    table is the native translation on its interval, and le is the
    order of ints on the window."""
    return all(
        tb == {x: x + b for x in range(max(-N, -N - b), min(N, N - b) + 1)} for b, tb in t.items()
    ) and le == {(x, y) for x in range(-N, N + 1) for y in range(x, N + 1)}


def _scan_laws(t: dict, le: set, N: int) -> tuple:
    """The verdicts of int-inverse, int-commutative, int-associative and
    int-nat-order, each scanned on the tables t (by offset, -N // 2 to
    N // 2) and le."""
    half = N // 2
    ok_inv = all(
        all(t[-b][y] == x for x, y in t[b].items() if y in t[-b])
        for b in range(-half, half + 1)
    )
    ok_comm = all(
        _commute(t[a], t[b], a, b, N)
        for a in range(-half, half + 1)
        for b in range(-half, half + 1)
    )
    ok_assoc = all(
        _stack(t[a], t[b], t[c], a, b, c, N)
        for a in range(-half // 2 + 1, half // 2 + 1) if half >= 2
        for b in range(-half // 2 + 1, half // 2 + 1)
        for c in range(-half // 2 + 1, half // 2 + 1)
    )
    # a natural comparison +a → +b exists exactly when a ≤ b:
    # componentwise, x+a ≤ x+b on the common domain
    ok_nat = all(
        (a <= b)
        == all(
            (t[a][x], t[b][x]) in le
            for x in range(max(-N, -N - a, -N - b), min(N, N - a, N - b) + 1)
            if x in t[a] and x in t[b]
        )
        for a in range(-half, half + 1)
        for b in range(-half, half + 1)
    )
    return ok_inv, ok_comm, ok_assoc, ok_nat


# Inner loops of _scan_laws, with the shift tables of one pair or
# triple of offsets bound once. The x in [-N, N] that keep every partial
# sum in the window form one interval: -N <= x + s <= N for each partial
# sum s gives lo = max(-N - s) and hi = min(N - s), s = 0 included. So
# each scan visits exactly the x the window guards admit, in increasing
# order, as a lazy chain of C-level maps: ``all`` pulls one x at a time
# through the same lookups, in the same order, as a generator would, and
# stops at the same x.


def _commute(ta: dict, tb: dict, a: int, b: int, N: int) -> bool:
    """+a and +b commute at every x where x+a, x+b and x+a+b stay in the
    window."""
    lo = max(-N, -N - a, -N - b, -N - a - b)
    hi = min(N, N - a, N - b, N - a - b)
    xs = range(lo, hi + 1)
    get_a, get_b = ta.__getitem__, tb.__getitem__
    return all(map(operator.eq, map(get_b, map(get_a, xs)), map(get_a, map(get_b, xs))))


def _stack(ta: dict, tb: dict, tc: dict, a: int, b: int, c: int, N: int) -> bool:
    """+a, then +b, then +c moves x by a+b+c wherever each step is
    defined.

    The tables are shift tables, whose keys cover their intervals, so
    the guards x in ta, x + a in tb and x + a + b in tc hold at every x
    of [lo, hi] and the chain reads tc[tb[ta[x]]] without them."""
    lo = max(-N, -N - a, -N - a - b, -N - a - b - c)
    hi = min(N, N - a, N - a - b, N - a - b - c)
    moved = map(tc.__getitem__, map(tb.__getitem__, map(ta.__getitem__, range(lo, hi + 1))))
    return all(map(operator.eq, moved, range(lo + a + b + c, hi + a + b + c + 1)))


def int_mul(a: ExactInt, b: ExactInt) -> ExactInt:
    """Product by the recursion a·(x+1) = a·x + a (and the x-1 branch
    for negative multipliers). This is the construction the integer
    laws verify against ``*``; runtime code, rational arithmetic
    included, multiplies natively.

    The recursion runs as one native left fold: ``sum`` starts from
    acc₀ = 0 and forms acc_{k+1} = acc_k + a (acc_k - a when b < 0) for
    k < |b|, the same |b| additions in the same order as stepping x
    from 0 to b one unit at a time."""
    return sum(repeat(a if b > 0 else -a, abs(b)))


def int_add_direct(a: ExactInt, b: ExactInt) -> ExactInt:
    """One product step; ``int_mul`` folds natively, so perfbench's count of these calls reads 0."""
    return a + b


class Rat(Frozen):
    """A numerator and a nonzero denominator. Equality and hashing are
    those of the pair, so 1/2 and 2/4 differ here; ``rat_eq`` compares
    values."""

    __slots__ = ("num", "den")
    _fields = ("num", "den")

    def __init__(self, num: ExactInt, den: ExactInt):
        if den == 0:
            raise ZeroDenominator("a rational needs a nonzero denominator", witness=(num,))
        _set_num(self, num)
        _set_den(self, den)

    def __str__(self):
        return "%d/%d" % (self.num, self.den)


_set_num = Rat.num.__set__
_set_den = Rat.den.__set__


class RatClass(Frozen):
    """A reduced representative with a positive denominator, as
    ``rat_canon`` builds it."""

    __slots__ = _fields = ("rep",)


def rat_eq(p: Rat, q: Rat) -> bool:
    return p.num * q.den == q.num * p.den


def rat_canon(p: Rat) -> RatClass:
    """Reduced representative with a positive denominator."""
    g = math.gcd(p.num, p.den)
    num, den = p.num // g, p.den // g
    if den < 0:
        num, den = -num, -den
    if num == 0:
        den = 1
    return RatClass(Rat(num, den))


def rat_mul(p: Rat, q: Rat) -> Rat:
    return Rat(p.num * q.num, p.den * q.den)


def rat_add(p: Rat, q: Rat) -> Rat:
    return Rat(p.num * q.den + q.num * p.den, p.den * q.den)


def rat_neg(p: Rat) -> Rat:
    return Rat(-p.num, p.den)


def rat_inv(p: Rat) -> Rat:
    if p.num == 0:
        raise ZeroDenominator("zero has no multiplicative inverse", witness=(str(p),))
    return Rat(p.den, p.num)


def rat_le(p: Rat, q: Rat) -> bool:
    """Order by cross multiplication, with the sign of the denominator
    product deciding the direction of the comparison."""
    a, c, b, d = p.num, p.den, q.num, q.den
    if c * d > 0:
        return a * d <= b * c
    return b * c <= a * d


def embed_int(a: ExactInt) -> Rat:
    return Rat(a, 1)


def _le_table(grid: list) -> list:
    """``rat_le`` on each ordered pair of the grid, once: row i is the
    tuple of rat_le(grid[i], q) over q in grid order."""
    return [tuple(map(rat_le, repeat(p), grid)) for p in grid]


def _assoc_holds(elems: list, table: list, op) -> bool:
    """Whether op(op(p, q), r) and op(p, op(q, r)) are ``rat_eq`` for
    every triple of elems, where table[i][j] = op(elems[i], elems[j]).

    Each distinct partial result x_u, keyed by its ints, is combined
    with every r once, left[u][k] = op(x_u, elems[k]), and every p with
    it once, right[i][u] = op(elems[i], x_u). With at[i][j] the position
    of the ints of table[i][j], the triple (i, j, k) compares
    left[at[i][j]][k] with right[i][at[j][k]]. The comparisons run in
    (i, j, k) order as C-level ``map`` chains: the rows left[at[i][j]]
    on one side, and right[i] read at the positions at[j] on the other.

    This gives the verdict of calling op twice on every triple. Let op
    and ``rat_eq`` be functions of the ints of their arguments, op
    return a value without raising and ``rat_eq`` return a bool. x_u
    has the ints of table[i][j], so left[at[i][j]][k] has those of the
    op(table[i][j], elems[k]) the triple computed, and right[i][at[j][k]]
    those of its op(elems[i], table[j][k]). So ``rat_eq`` returns for
    every triple what it returned before, and the conjunction is the
    same; the law carries no witness, so only the conjunction matters.
    It costs 2·n·d calls of op for d distinct partial results, where the
    triples cost 2·n³. ``rat_eq`` is looked up on the module at call
    time; the caller passes op as it looks it up."""
    key = operator.attrgetter("num", "den")
    # a cell for each distinct pair of ints, in order of first occurrence,
    # and at[i][j] the position of table[i][j]'s ints among them
    reps = {key(x): x for x in chain.from_iterable(table)}
    pos = {k: u for u, k in enumerate(reps)}
    at = [[pos[key(x)] for x in row] for row in table]
    left = [list(map(op, repeat(x), elems)) for x in reps.values()]
    right = [list(map(op, repeat(p), reps.values())) for p in elems]
    lefts = chain.from_iterable(map(left.__getitem__, chain.from_iterable(at)))
    rights = chain.from_iterable(
        chain.from_iterable(map(map, repeat(row.__getitem__), at)) for row in right
    )
    return all(map(rat_eq, lefts, rights))


def dual_order_checks(N: int) -> LawReport:
    """Row/column duality and the three sign involutions on a window of
    rationals.

    Every ``rat_le`` comparison is read off one table L of the grid
    (``_le_table``), with L[i][j] = rat_le(grid[i], grid[j]) and T its
    transpose. Negating the numerator, the denominator or both keeps
    |a| <= N and 0 < |c| <= N, so each involution is a permutation s of
    the grid's positions. It reverses the order when L[i][j] equals
    L[s[j]][s[i]] = T[s[i]][s[j]] for all i, j, that is when row i of L
    equals row s[i] of T read at the positions s; it preserves it when
    row i of L equals row s[i] of L read at s. For positive a, c and x
    the points x/c and a/x are grid points too, so ``dual-row-column``
    reads the same table.

    The table gives the verdicts of comparing the pairs one call at a
    time. Each row is added as a boolean with no witness, so only
    whether every compared pair agrees matters, not which pair is seen
    first. ``rat_le`` is a function of the ints of its two arguments,
    and the table calls it on every ordered pair of the grid, so each
    cell is the value the call it replaces would return. Every verdict
    is therefore the same for any ``rat_le`` that returns a bool, a
    wrong one included. It costs ((2N + 1)·2N)² calls, where comparing
    the pairs one at a time cost six times as many and 2N⁴ more."""
    r = LawReport("dual-orders")
    grid = [Rat(a, c) for a in range(-N, N + 1) for c in range(-N, N + 1) if c != 0]
    L = _le_table(grid)
    T = list(zip(*L))
    at = {(p.num, p.den): i for i, p in enumerate(grid)}

    def read(table, idx):
        # row idx[i] of table at the positions idx, for each i; one
        # position reads bare cells, on both sides of a comparison alike
        if not idx:
            return []
        return list(map(operator.itemgetter(*idx), map(table.__getitem__, idx)))

    r.add("dual-den-reverses", L == read(T, [at[p.num, -p.den] for p in grid]))
    r.add("dual-num-reverses", L == read(T, [at[-p.num, p.den] for p in grid]))
    r.add("dual-both-preserves", L == read(L, [at[-p.num, -p.den] for p in grid]))
    neg_both = lambda p: Rat(-p.num, -p.den)
    r.add("dual-involution", all(neg_both(neg_both(p)) == p for p in grid))
    r.add("dual-sign-classes", all(rat_eq(neg_both(p), p) for p in grid))
    # rows x/c against columns a/x under x/c ↦ a/x, for positive a, c:
    # rat_le(x1/c, x2/c) == rat_le(a/x2, a/x1) for all x1, x2, so row
    # x1/c of L read at the row c equals row a/x1 of T read at column a
    xs = range(1, N + 1)
    rows = [read(L, [at[x, c] for x in xs]) for c in xs]
    cols = [read(T, [at[a, x] for x in xs]) for a in xs]
    r.add("dual-row-column", all(row == col for row in rows for col in cols))
    return r


def embedding_check(N: int) -> LawReport:
    """The inclusion of the integers as x/1 respects both operations and
    the order."""
    r = LawReport("int-embedding")
    xs = range(-N, N + 1)
    r.add(
        "emb-add",
        all(rat_eq(rat_add(embed_int(a), embed_int(b)), embed_int(a + b)) for a in xs for b in xs),
    )
    r.add(
        "emb-mul",
        all(rat_eq(rat_mul(embed_int(a), embed_int(b)), embed_int(a * b)) for a in xs for b in xs),
    )
    r.add("emb-order", all((a <= b) == rat_le(embed_int(a), embed_int(b)) for a in xs for b in xs))
    r.add(
        "emb-monic",
        all(
            rat_eq(embed_int(a), embed_int(b)) == (a == b) for a in xs for b in xs
        ),
    )
    return r
