"""Numbers module tests.

Oracles: Python's arbitrary-precision arithmetic, the Fraction type for
rational identities, and exhaustive divisor search for gcd.
"""

import copy
import dataclasses
import functools
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import structa
from structa import numbers
from structa.core import FinMap, classify
from structa.errors import BadStructure, WindowOverflow, ZeroDenominator
from structa.order import check_order
from structa.suites import run_suite
from structa.numbers import (
    Rat,
    build_discrete,
    dual_order_checks,
    embed_int,
    embedding_check,
    int_add,
    int_add_direct,
    int_group_check,
    int_mul,
    rat_add,
    rat_canon,
    rat_eq,
    rat_inv,
    rat_le,
    rat_mul,
    rat_neg,
)


def frac(p: Rat) -> Fraction:
    return Fraction(p.num, p.den)


def stepwise_int_mul(a, b):
    """Reference: the recursion a·(x+1) = a·x + a (a·(x-1) = a·x - a for
    negative b), stepping x from 0 to b one unit at a time."""
    acc = 0
    x = 0
    while x != b:
        if b > 0:
            acc = int_add_direct(acc, a)
            x += 1
        else:
            acc = int_add_direct(acc, -a)
            x -= 1
    return acc


def reference_commute(ta, tb, a, b, N):
    """Reference: _commute testing every x of [-N, N] against the guards."""
    return all(
        tb[ta[x]] == ta[tb[x]]
        for x in range(-N, N + 1)
        if -N <= x + a <= N and -N <= x + b <= N and -N <= x + a + b <= N
    )


def reference_stack(ta, tb, tc, a, b, c, N):
    """Reference: _stack testing every x of [-N, N] against the guards."""
    return all(
        tc[tb[ta[x]]] == x + a + b + c
        for x in range(-N, N + 1)
        if -N <= x + a <= N and -N <= x + a + b <= N and -N <= x + a + b + c <= N
        and x in ta
        and x + a in tb
        and x + a + b in tc
    )


def walked_shift_map(w, b):
    """Reference: the +b map on the partial window where it stays in
    range, walking |b| steps from each of its points."""
    N = w.N
    lo, hi = max(-N, -N - b), min(N, N - b)
    carrier = w.poset.carrier
    dom = carrier.inter({str(i) for i in range(lo, hi + 1)})
    cod = carrier.inter({str(i + b) for i in range(lo, hi + 1)})
    return FinMap(dom, cod, {x: numbers._walk(w, x, b) for x in dom})


def embedding_witness_reference(syms, pairs):
    """Reference: build_discrete's full pair scan, giving the first
    interior pair (x, y) ordered unlike (x + 1, y + 1), or None."""
    for x, sx in zip(syms, syms[1:]):
        for y, sy in zip(syms, syms[1:]):
            if ((sx, sy) in pairs) != ((x, y) in pairs):
                return (x, y)
    return None


# the int-group laws after int-unit, in the order int_group_check adds them
SCANNED = ["int-inverse", "int-commutative", "int-associative", "int-nat-order"]


def outcome(scan, *args):
    """A scan's verdict, or the exception class a wrong table makes it raise."""
    try:
        return scan(*args)
    except KeyError:
        return KeyError


# reference for Rat's equality, hash and repr: the same two fields as a
# frozen dataclass named Rat
DataclassRat = dataclasses.make_dataclass("Rat", [("num", int), ("den", int)], frozen=True)



def _gcd_oracle(a: int, b: int) -> int:
    """Largest common divisor by exhaustive search (small inputs only)."""
    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    return max(d for d in range(1, min(a, b) + 1) if a % d == 0 and b % d == 0)

class TestDiscrete:
    def test_smallest_window(self):
        w = build_discrete(1)
        assert w.poset.le("-1", "0") and w.poset.le("0", "1")
        assert w.succ("-1") == "0" and w.succ("0") == "1"

    def test_succ_monotone_and_monic(self):
        w = build_discrete(5)
        flags = classify(w.succ)
        assert flags["monic"] and flags["onto"]
        for a in range(-5, 5):
            for b in range(-5, 5):
                if a < b:
                    assert w.poset.le(w.succ(str(a)), w.succ(str(b)))

    def test_window_precondition(self):
        with pytest.raises(ValueError):
            build_discrete(0)

    def test_window_order_passes_check_order(self):
        # the window builds its order unchecked; this is the check
        for N in range(1, 13):
            P = build_discrete(N).poset
            rep = check_order(P.carrier, P.pairs)
            assert rep.passed, (N, rep.failures)

    def test_mask_check_matches_the_pair_scan(self, monkeypatch):
        # planted orders: one pair dropped or added anywhere in the window,
        # and one dropped at each end of the interior; the window is
        # rejected exactly when the scan finds a pair, with its witness
        real = numbers.Poset._trusted
        for N in (1, 2, 3, 5):
            syms = [str(i) for i in range(-N, N + 1)]
            honest = {(x, y) for k, x in enumerate(syms) for y in syms[k:]}
            plants = [honest - {p} for p in sorted(honest)]
            plants += [honest | {(y, x)} for x, y in sorted(honest) if x != y]
            plants += [honest - {(syms[0], y) for y in syms}, honest - {(x, syms[-1]) for x in syms}]
            for planted in plants:
                monkeypatch.setattr(
                    numbers.Poset, "_trusted", lambda carrier, le: real(carrier, planted)
                )
                build_discrete.cache_clear()
                try:
                    build_discrete(N)
                    got = None
                except BadStructure as err:
                    assert str(err).startswith("successor must be an order embedding")
                    got = err.witness
                finally:
                    build_discrete.cache_clear()
                assert got == embedding_witness_reference(syms, planted), (N, planted ^ honest)
        monkeypatch.undo()
        assert build_discrete(3).poset.pairs == frozenset(
            (str(i), str(j)) for i in range(-3, 4) for j in range(i, 4)
        )

    def test_broken_order_is_rejected(self, monkeypatch):
        # drop 0 <= 1: -1 <= 0 still holds, so the successor no longer
        # embeds the order
        real = numbers.Poset._trusted

        def broken(carrier, le):
            return real(carrier, set(le) - {("0", "1")})

        monkeypatch.setattr(numbers.Poset, "_trusted", broken)
        build_discrete.cache_clear()
        try:
            with pytest.raises(BadStructure, match="order embedding") as err:
                build_discrete(3)
            assert err.value.witness == ("-1", "0")
        finally:
            build_discrete.cache_clear()


class TestIntAdd:
    def test_small_sums_match_oracle(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert int_add(a, b) == a + b

    def test_rectangle_example(self):
        assert int_add(2, 3) == 5

    def test_zero_is_neutral(self):
        for x in range(-10, 11):
            assert int_add(x, 0) == x
            assert int_add(0, x) == x

    def test_overflow_guard(self):
        with pytest.raises(WindowOverflow):
            int_add(5, 5, N=6)

    def test_group_laws_on_window(self):
        rep = int_group_check(8)
        assert rep.passed, rep.render_text()

    def test_fuzz_against_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randint(-100, 100)
            b = rng.randint(-100, 100)
            assert int_add(a, b, N=201) == a + b

    def test_shift_maps_are_the_walked_maps(self):
        # every offset up to N, and past 2N where the maps are empty; a
        # walked map's keys cover its whole interval, as _stack assumes
        for N in range(1, 13):
            w = build_discrete(N)
            for m in (N, 2 * N + 2):
                maps = numbers._shift_maps(w, m)
                assert sorted(maps) == list(range(-m, m + 1))
                for b, got in maps.items():
                    assert got == walked_shift_map(w, b), (N, b)

    def test_group_laws_read_the_shift_maps(self, monkeypatch):
        # +1 sends 0 to 2 instead of 1; laws that composed offsets
        # arithmetically instead of the maps would not notice
        real = numbers._shift_maps

        def off_by_one(w, m):
            maps = real(w, m)
            p = maps[1]
            maps[1] = FinMap(p.dom, p.cod, {**p.assign, "0": "2"})
            return maps

        monkeypatch.setattr(numbers, "_shift_maps", off_by_one)
        rep = int_group_check(8)
        failed = {c.law for c in rep.checks if not c.passed}
        assert {"int-inverse", "int-commutative", "int-associative"} <= failed
        assert rep["int-unit"].passed

    def test_honest_windows_pass_on_the_certificate(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned an honest window")

        monkeypatch.setattr(numbers, "_commute", no_scan)
        monkeypatch.setattr(numbers, "_stack", no_scan)
        for N in [*range(1, 13), 40]:
            rep = int_group_check(N)
            assert rep.passed, (N, rep.render_text())
            assert [c.law for c in rep.checks] == ["int-unit", *SCANNED]

    def test_a_failed_certificate_gives_the_scan_verdicts(self, monkeypatch):
        # each shift table holds one wrong value at the low end of its
        # domain, or each at the high end; or the order lacks 0 <= 1
        real_maps, real_build = numbers._shift_maps, numbers.build_discrete

        def planted(end):
            def shift_maps(w, m):
                maps = real_maps(w, m)
                for d, p in maps.items():
                    x = end(p.assign, key=int)
                    y = int(p.assign[x])
                    value = str(y + 1 if y < w.N else y - 1)
                    maps[d] = FinMap(p.dom, w.poset.carrier, {**p.assign, x: value})
                return maps

            monkeypatch.setattr(numbers, "_shift_maps", shift_maps)

        def no_zero_one():
            # build_discrete refuses that order, so the window is assembled
            # from the honest one
            def window(N):
                w = real_build(N)
                poset = numbers.Poset._trusted(w.poset.carrier, w.poset.pairs - {("0", "1")})
                return numbers.IntWindow(N, poset, w.succ, w.pred)

            monkeypatch.setattr(numbers, "build_discrete", window)

        for plant in (lambda: planted(min), lambda: planted(max), no_zero_one):
            plant()
            for N in range(1, 13):
                w = numbers.build_discrete(N)
                maps = numbers._shift_maps(w, N // 2)
                t = {b: {int(x): int(y) for x, y in m.assign.items()} for b, m in maps.items()}
                le = {(int(x), int(y)) for x, y in w.poset.pairs}
                assert not numbers._translates(t, le, N), N
                want = outcome(numbers._scan_laws, t, le, N)
                got = outcome(int_group_check, N)
                if want is not KeyError:
                    want = list(zip(SCANNED, want))
                    got = [(c.law, c.passed) for c in got.checks[1:]]
                assert got == want, N
            monkeypatch.undo()

    def test_scans_match_the_guarded_references(self):
        # every pair and triple of offsets |d| <= N, on the honest shift
        # tables, and on tables that each hold one wrong value at the low
        # end of their domain, or each at the high end
        for N in range(1, 13):
            w = build_discrete(N)
            offsets = range(-N, N + 1)
            honest = {
                d: {int(x): int(y) for x, y in walked_shift_map(w, d).assign.items()}
                for d in offsets
            }
            cases = [honest]
            for end in (min, max):
                planted = {}
                for d, t in honest.items():
                    x = end(t)
                    planted[d] = {**t, x: t[x] + 1 if t[x] < N else t[x] - 1}
                cases.append(planted)
            for t in cases:
                for a, b in itertools.product(offsets, repeat=2):
                    args = (t[a], t[b], a, b, N)
                    assert outcome(numbers._commute, *args) == outcome(
                        reference_commute, *args
                    ), (N, a, b)
                for a, b, c in itertools.product(offsets, repeat=3):
                    args = (t[a], t[b], t[c], a, b, c, N)
                    assert outcome(numbers._stack, *args) == outcome(
                        reference_stack, *args
                    ), (N, a, b, c)


class TestRationalSuite:
    """The associativity and transitivity laws of ``suite rationals``
    read ``rat_add``, ``rat_mul`` and ``rat_le`` on every triple."""

    @staticmethod
    def verdicts(monkeypatch, name, wrong):
        real = getattr(numbers, name)
        monkeypatch.setattr(numbers, name, lambda p, q: wrong(real, p, q))
        rep = run_suite("rationals")
        return {c.law: c.passed for c in rep.checks}

    def test_add_assoc_fails_on_one_wrong_sum(self, monkeypatch):
        # 1/2 + 1/3 comes out one too large, for every pair of those values
        def wrong(real, p, q):
            s = real(p, q)
            if (frac(p), frac(q)) == (Fraction(1, 2), Fraction(1, 3)):
                return Rat(s.num + s.den, s.den)
            return s

        got = self.verdicts(monkeypatch, "rat_add", wrong)
        assert not got["rat-add-assoc"]
        assert got["rat-mul-assoc"]

    def test_mul_assoc_fails_on_one_wrong_product(self, monkeypatch):
        def wrong(real, p, q):
            m = real(p, q)
            if (frac(p), frac(q)) == (Fraction(2, 3), Fraction(-3, 5)):
                return Rat(m.num + m.den, m.den)
            return m

        got = self.verdicts(monkeypatch, "rat_mul", wrong)
        assert not got["rat-mul-assoc"]
        assert got["rat-add-assoc"]

    def test_trans_reads_the_order(self, monkeypatch):
        # honest, the order is transitive; with -6 <= 6 refused it is not,
        # since -6 <= 0 <= 6 still hold
        assert run_suite("rationals")["rat-trans"].passed

        def wrong(real, p, q):
            if (frac(p), frac(q)) == (-6, 6):
                return False
            return real(p, q)

        got = self.verdicts(monkeypatch, "rat_le", wrong)
        assert not got["rat-trans"]
        assert got["rat-antisym"]


def test_check_output_is_the_same_under_optimize():
    fixture = Path(structa.__file__).parent / "fixtures" / "ratwindow_small.json"
    env = dict(os.environ, PYTHONPATH=str(Path(structa.__file__).parents[1]))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "structa.cli", "check", str(fixture)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "0 failed" in outs[0]


class TestIntMul:
    def test_unit_zero_negation(self):
        for x in range(-10, 11):
            assert int_mul(x, 1) == x
            assert int_mul(x, 0) == 0
            assert int_mul(x, -1) == -x

    def test_recursion_matches_oracle(self):
        assert int_mul(3, 4) == 12
        for a in range(-8, 9):
            for b in range(-8, 9):
                assert int_mul(a, b) == a * b

    def test_matches_the_stepwise_references(self):
        for a in range(-30, 31):
            for b in range(-30, 31):
                step = a if b > 0 else -a
                fold = functools.reduce(int_add_direct, itertools.repeat(step, abs(b)), 0)
                assert int_mul(a, b) == stepwise_int_mul(a, b) == fold, (a, b)

    def test_ring_laws_fuzz(self):
        rng = random.Random(11)
        for _ in range(10_000):
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50)
            c = rng.randint(-50, 50)
            assert int_mul(a, b + c) // 1 == int_mul(a, b) + int_mul(a, c)
            assert int_mul(a, b) == int_mul(b, a)
        for _ in range(200):
            a = rng.randint(-12, 12)
            b = rng.randint(-12, 12)
            c = rng.randint(-12, 12)
            assert int_mul(int_mul(a, b), c) == int_mul(a, int_mul(b, c))


class TestRatEquality:
    def test_cross_multiplication(self):
        assert rat_eq(Rat(1, 2), Rat(2, 4))
        assert rat_eq(Rat(-1, 2), Rat(1, -2))
        assert not rat_eq(Rat(1, 2), Rat(1, 3))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            Rat(1, 0)
        with pytest.raises(ZeroDenominator) as err:
            Rat(3, 0)
        assert err.value.witness == (3,)

    def test_equivalence_laws_exhaustive(self):
        rats = [Rat(a, c) for a in range(-4, 5) for c in range(-4, 5) if c != 0]
        for p in rats:
            assert rat_eq(p, p)
        for p, q in itertools.combinations(rats, 2):
            assert rat_eq(p, q) == rat_eq(q, p)
        # transitivity fuzz over small denominators
        rng = random.Random(3)
        pool = [Rat(a, c) for a in range(-9, 10) for c in range(1, 10)]
        for _ in range(3000):
            p, q, r = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            if rat_eq(p, q) and rat_eq(q, r):
                assert rat_eq(p, r)

    def test_canon_agrees_with_fraction(self):
        for a in range(-9, 10):
            for c in range(-9, 10):
                if c == 0:
                    continue
                rep = rat_canon(Rat(a, c)).rep
                f = Fraction(a, c)
                assert (rep.num, rep.den) == (f.numerator, f.denominator)

    def test_canon_gives_the_reduced_class_invariant(self):
        for a in range(-12, 13):
            for c in range(-12, 13):
                if c == 0:
                    continue
                p = Rat(a, c)
                rep = rat_canon(p).rep
                assert rep.den > 0 and math.gcd(rep.num, rep.den) == 1
                assert rat_eq(rep, p)

    def test_canon_idempotent_and_respects_eq(self):
        rats = [Rat(a, c) for a in range(-5, 6) for c in range(-5, 6) if c != 0]
        for p in rats:
            cp = rat_canon(p)
            assert rat_canon(cp.rep) == cp
        for p, q in itertools.combinations(rats, 2):
            assert rat_eq(p, q) == (rat_canon(p) == rat_canon(q))

    def test_gcd_oracle_vs_stdlib(self):
        for a in range(0, 50):
            for b in range(0, 50):
                if a == b == 0:
                    continue
                assert _gcd_oracle(a, b) == math.gcd(a, b)
        rng = random.Random(5)
        for _ in range(500):
            a = rng.randint(1, 1000)
            b = rng.randint(1, 1000)
            assert _gcd_oracle(a, b) == math.gcd(a, b)


class TestRatSemantics:
    def test_equality_hash_and_repr_match_the_dataclass(self):
        pairs = [(a, c) for a in range(-3, 4) for c in range(-3, 4) if c != 0]
        for p in pairs:
            assert hash(Rat(*p)) == hash(DataclassRat(*p))
            assert repr(Rat(*p)) == repr(DataclassRat(*p))
            assert repr(Rat(num=p[0], den=p[1])) == "Rat(num=%d, den=%d)" % p
            for q in pairs:
                assert (Rat(*p) == Rat(*q)) == (DataclassRat(*p) == DataclassRat(*q))
                assert (Rat(*p) != Rat(*q)) == (DataclassRat(*p) != DataclassRat(*q))

    def test_other_classes_are_not_equal(self):
        assert Rat(1, 2) != (1, 2)
        assert Rat(1, 2).__eq__((1, 2)) is NotImplemented
        assert Rat(1, 2) != DataclassRat(1, 2)
        assert Rat(1, 2) != Fraction(1, 2)

    def test_fields_cannot_change(self):
        p = Rat(1, 2)
        for field in ("num", "den", "other"):
            with pytest.raises(AttributeError):
                setattr(p, field, 5)
            with pytest.raises(AttributeError):
                delattr(p, field)
        assert (p.num, p.den) == (1, 2)

    def test_copies_and_pickles_equal_the_original(self):
        p = Rat(-3, 4)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and type(q) is Rat
        assert copy.deepcopy(rat_canon(Rat(2, -4))) == rat_canon(Rat(-1, 2))


class TestRatArithmetic:
    def test_inverse_pair(self):
        assert rat_eq(rat_mul(Rat(1, 2), Rat(2, 1)), Rat(1, 1))

    def test_textbook_sum(self):
        assert rat_eq(rat_add(Rat(1, 2), Rat(1, 3)), Rat(5, 6))

    def test_zero_addends(self):
        p = Rat(3, 7)
        for x in range(1, 10):
            assert rat_eq(rat_add(p, Rat(0, x)), p)

    def test_matches_fraction_oracle(self):
        pool = [Rat(a, c) for a in range(-4, 5) for c in range(-4, 5) if c != 0]
        for p in pool:
            for q in pool:
                assert frac(rat_add(p, q)) == frac(p) + frac(q)
                assert frac(rat_mul(p, q)) == frac(p) * frac(q)

    def test_group_laws(self):
        pool = [Rat(a, c) for a in range(-3, 4) for c in range(1, 4)]
        one, zero = Rat(1, 1), Rat(0, 1)
        for p in pool:
            assert rat_eq(rat_add(p, rat_neg(p)), zero)
            if p.num != 0:
                assert rat_eq(rat_mul(p, rat_inv(p)), one)
        for p in pool:
            for q in pool:
                assert rat_eq(rat_add(p, q), rat_add(q, p))
                assert rat_eq(rat_mul(p, q), rat_mul(q, p))

    def test_well_defined_on_classes(self):
        pairs = [
            (Rat(1, 2), Rat(2, 4)),
            (Rat(-1, 3), Rat(1, -3)),
            (Rat(0, 5), Rat(0, -2)),
        ]
        probe = Rat(3, 7)
        for p, p2 in pairs:
            assert rat_eq(p, p2)
            assert rat_eq(rat_add(p, probe), rat_add(p2, probe))
            assert rat_eq(rat_mul(p, probe), rat_mul(p2, probe))

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDenominator):
            rat_inv(Rat(0, 3))


class TestRatOrder:
    def test_examples(self):
        assert rat_le(Rat(1, 2), Rat(1, 1))
        assert rat_le(Rat(1, 2), Rat(1, 2))
        assert not rat_le(Rat(1, 1), Rat(1, 2))

    def test_matches_fraction_order_all_signs(self):
        pool = [Rat(a, c) for a in range(-6, 7) for c in range(-6, 7) if c != 0]
        for p in pool:
            for q in pool:
                assert rat_le(p, q) == (frac(p) <= frac(q))

    def test_total_order_on_grid(self):
        pool = [Rat(a, c) for a in range(-6, 7) for c in range(1, 7)]
        for p in pool:
            for q in pool:
                assert rat_le(p, q) or rat_le(q, p)
                if rat_le(p, q) and rat_le(q, p):
                    assert rat_eq(p, q)
        rng = random.Random(17)
        for _ in range(3000):
            p, q, r = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            if rat_le(p, q) and rat_le(q, r):
                assert rat_le(p, r)

    def test_scaling_leaves_order_alone(self):
        pool = [Rat(a, c) for a in range(-4, 5) for c in range(1, 5)]
        for p in pool:
            for q in pool:
                for x in range(1, 5):
                    scaled = Rat(p.num * x, p.den * x)
                    assert rat_le(scaled, q) == rat_le(p, q)

    def test_signed_multiplier_monotonicity(self):
        pool = [Rat(a, c) for a in range(-3, 4) for c in range(1, 4)]
        for p in pool:
            for q in pool:
                for m in pool:
                    if not rat_le(p, q):
                        continue
                    if rat_le(Rat(0, 1), m):
                        assert rat_le(rat_mul(m, p), rat_mul(m, q))
                    else:
                        assert rat_le(rat_mul(m, q), rat_mul(m, p))


class TestEmbeddingAndDuality:
    def test_embedding_report(self):
        rep = embedding_check(8)
        assert rep.passed, rep.render_text()

    def test_embedding_example(self):
        assert rat_eq(rat_add(embed_int(2), embed_int(3)), embed_int(5))

    def test_dual_orders_report(self):
        rep = dual_order_checks(5)
        assert rep.passed, rep.render_text()

    def test_double_negation_pointwise(self):
        for a in range(-5, 6):
            for c in range(1, 6):
                p = Rat(a, c)
                assert Rat(-(-p.num), -(-p.den)) == p
