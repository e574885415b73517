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
from structa.errors import BadStructure, CarrierMismatch, WindowOverflow, ZeroDenominator
from structa.order import check_order
from structa.report import LawReport
from structa.suites import _BLOCK, _randints, run_suite
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
        # 1/3 + 1/2 is right, so the sum is not commutative either
        assert not got["rat-add-comm"]

    def test_mul_assoc_fails_on_one_wrong_product(self, monkeypatch):
        def wrong(real, p, q):
            m = real(p, q)
            if (frac(p), frac(q)) == (Fraction(2, 3), Fraction(-3, 5)):
                return Rat(m.num + m.den, m.den)
            return m

        got = self.verdicts(monkeypatch, "rat_mul", wrong)
        assert not got["rat-mul-assoc"]
        assert got["rat-add-assoc"]
        assert not got["rat-mul-comm"]

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

    def test_total_reads_the_order_on_every_grid_pair(self, monkeypatch):
        # 1/2 and 2/3 are not the first points of their classes (-3/-6 and
        # -4/-6 are), so refusing them both ways breaks totality only
        honest = {c.law: c.passed for c in run_suite("rationals").checks}
        assert honest["rat-total"]

        def wrong(real, p, q):
            if {(p.num, p.den), (q.num, q.den)} == {(1, 2), (2, 3)}:
                return False
            return real(p, q)

        got = self.verdicts(monkeypatch, "rat_le", wrong)
        assert not got["rat-total"]
        assert got == {**honest, "rat-total": False}


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


# ---------------------------------------------------------------------------
# The sign dualities on one rat_le table, against the pairwise comparisons.


def pairwise_dual_order_checks(N):
    """Reference: the six dual rows with ``rat_le`` called on each compared
    pair, looked up on the module at call time."""
    le = numbers.rat_le
    r = LawReport("dual-orders")
    grid = [Rat(a, c) for a in range(-N, N + 1) for c in range(-N, N + 1) if c != 0]
    neg_den = lambda p: Rat(p.num, -p.den)
    neg_num = lambda p: Rat(-p.num, p.den)
    neg_both = lambda p: Rat(-p.num, -p.den)
    pairs = list(itertools.product(grid, repeat=2))
    r.add("dual-den-reverses", all(le(p, q) == le(neg_den(q), neg_den(p)) for p, q in pairs))
    r.add("dual-num-reverses", all(le(p, q) == le(neg_num(q), neg_num(p)) for p, q in pairs))
    r.add("dual-both-preserves", all(le(p, q) == le(neg_both(p), neg_both(q)) for p, q in pairs))
    r.add("dual-involution", all(neg_both(neg_both(p)) == p for p in grid))
    r.add("dual-sign-classes", all(rat_eq(neg_both(p), p) for p in grid))
    xs = range(1, N + 1)
    r.add(
        "dual-row-column",
        all(
            le(Rat(x1, c), Rat(x2, c)) == le(Rat(a, x2), Rat(a, x1))
            for c in xs
            for a in xs
            for x1 in xs
            for x2 in xs
        ),
    )
    return r


def flipped_at(p0, q0):
    """rat_le with the one ordered pair (p0, q0) answered wrongly."""
    def le(p, q):
        a, c, b, d = p.num, p.den, q.num, q.den
        right = a * d <= b * c if c * d > 0 else b * c <= a * d
        return right != ((a, c, b, d) == (p0.num, p0.den, q0.num, q0.den))
    return le


def den_sign_blind(p, q):
    """rat_le reading a/c as a/|c|."""
    return p.num * abs(q.den) <= q.num * abs(p.den)


def strict(p, q):
    """rat_le with < in place of <=."""
    a, c, b, d = p.num, p.den, q.num, q.den
    return a * d < b * c if c * d > 0 else b * c < a * d


SIGN_ROWS = ["dual-den-reverses", "dual-num-reverses", "dual-both-preserves"]

# each planted rat_le with the rows it fails at N = 6, so the parity covers
# failing rows too: a flipped pair breaks all three sign rows, a/|c| the two
# that negate a denominator, and < is as dual as <=
PLANTED_LE = {
    "honest": (rat_le, []),
    "flipped-1/2-2/3": (flipped_at(Rat(1, 2), Rat(2, 3)), SIGN_ROWS),
    "flipped-1/-2-1/3": (flipped_at(Rat(1, -2), Rat(1, 3)), SIGN_ROWS),
    "den-sign-blind": (den_sign_blind, ["dual-den-reverses", "dual-both-preserves"]),
    "strict": (strict, []),
}


class TestDualTable:
    @pytest.mark.parametrize("name", list(PLANTED_LE))
    def test_verdicts_match_the_pairwise_comparisons(self, monkeypatch, name):
        le, failing = PLANTED_LE[name]
        monkeypatch.setattr(numbers, "rat_le", le)
        for N in range(1, 7):
            want = [(c.law, c.passed) for c in pairwise_dual_order_checks(N).checks]
            got = [(c.law, c.passed) for c in dual_order_checks(N).checks]
            assert got == want, (name, N)
        assert [law for law, passed in got if not passed] == failing

    @staticmethod
    def counted_calls(monkeypatch, run):
        calls = []

        def counting(p, q):
            calls.append(None)
            return rat_le(p, q)

        monkeypatch.setattr(numbers, "rat_le", counting)
        run()
        return len(calls)

    def test_each_ordered_pair_of_the_grid_is_compared_once(self, monkeypatch):
        for N in range(1, 7):
            n = self.counted_calls(monkeypatch, lambda: dual_order_checks(N))
            assert n == ((2 * N + 1) * 2 * N) ** 2, N
        assert n == 24336

    def test_suite_rationals_reads_one_table(self, monkeypatch):
        # the 156-point grid's table and embedding_check(6)'s 13 × 13 pairs
        n = self.counted_calls(monkeypatch, lambda: run_suite("rationals", seed=0))
        assert n == 156 ** 2 + 13 * 13 == 24505


# ---------------------------------------------------------------------------
# The rational group laws once per distinct partial result, against the
# triple scans, and the integer ring laws with a·b computed once.


def triple_group_laws(name):
    """Reference: the four (law, passed) rows of ``suite rationals``' unit
    for ``rat_add`` or ``rat_mul``, with the operation called twice on
    every triple and on both orders of every pair, looked up on the module
    at call time."""
    op, eq = getattr(numbers, name), numbers.rat_eq
    grid = [Rat(n, d) for n in range(-6, 7) for d in list(range(-6, 0)) + list(range(1, 7))]
    reps = {}
    for p in grid:
        reps.setdefault(rat_canon(p), p)
    elems = sorted(reps.values(), key=lambda p: (p.num, p.den))
    if name == "rat_add":
        law, unit, inverse = "add", Rat(0, 1), rat_neg
    else:
        law, unit, inverse = "mul", Rat(1, 1), rat_inv
        elems = [p for p in elems if p.num != 0]
    return [
        ("rat-%s-assoc" % law, triple_assoc(elems, op)),
        ("rat-%s-unit" % law, all(eq(op(p, unit), p) for p in elems)),
        ("rat-%s-inverse" % law, all(eq(op(p, inverse(p)), unit) for p in elems)),
        ("rat-%s-comm" % law, all(eq(op(p, q), op(q, p)) for p in elems for q in elems)),
    ]


def triple_assoc(elems, op):
    """Reference: op(op(p, q), r) against op(p, op(q, r)) on every triple."""
    eq = numbers.rat_eq
    return all(eq(op(op(p, q), r), op(p, op(q, r))) for p in elems for q in elems for r in elems)


def wrong_at(real, hit):
    """real, with the result one too large wherever hit(p, q) holds."""
    def op(p, q):
        v = real(p, q)
        return Rat(v.num + v.den, v.den) if hit(p, q) else v
    return op


# (-3/-6) + (-4/-6) and (-3/-6)·(-4/-6), as the table writes them: 42/36
# and 12/36 are no class of the grid, so only a partial result meets them
PLANTED_OPS = {
    "add-honest": ("rat_add", rat_add, []),
    "add-1/2+1/3": (
        "rat_add",
        wrong_at(rat_add, lambda p, q: (frac(p), frac(q)) == (Fraction(1, 2), Fraction(1, 3))),
        ["rat-add-assoc", "rat-add-comm"],
    ),
    "add-42/36-left": (
        "rat_add",
        wrong_at(rat_add, lambda p, q: (p.num, p.den) == (42, 36)),
        ["rat-add-assoc"],
    ),
    "add-42/36-right": (
        "rat_add",
        wrong_at(rat_add, lambda p, q: (q.num, q.den) == (42, 36)),
        ["rat-add-assoc"],
    ),
    "add-as-sub": (
        "rat_add",
        lambda p, q: Rat(p.num * q.den - q.num * p.den, p.den * q.den),
        ["rat-add-assoc", "rat-add-inverse", "rat-add-comm"],
    ),
    "mul-honest": ("rat_mul", rat_mul, []),
    "mul-2/3*-3/5": (
        "rat_mul",
        wrong_at(rat_mul, lambda p, q: (frac(p), frac(q)) == (Fraction(2, 3), Fraction(-3, 5))),
        ["rat-mul-assoc", "rat-mul-comm"],
    ),
    "mul-12/36-left": (
        "rat_mul",
        wrong_at(rat_mul, lambda p, q: (p.num, p.den) == (12, 36)),
        ["rat-mul-assoc"],
    ),
    "mul-as-p*p*q": (
        "rat_mul",
        lambda p, q: Rat(p.num * p.num * q.num, p.den * p.den * q.den),
        ["rat-mul-assoc", "rat-mul-unit", "rat-mul-inverse", "rat-mul-comm"],
    ),
}


class TestRationalGroupLaws:
    @pytest.mark.parametrize("case", list(PLANTED_OPS))
    def test_verdicts_match_the_triple_scans(self, monkeypatch, case):
        name, op, failing = PLANTED_OPS[case]
        monkeypatch.setattr(numbers, name, op)
        want = triple_group_laws(name)
        laws = {law for law, _ in want}
        rep = run_suite("rationals", seed=0)
        got = [(c.law, c.passed) for c in rep.checks if c.law in laws]
        assert got == want
        assert [law for law, passed in got if not passed] == failing

    @pytest.mark.parametrize("n", range(5))
    def test_short_lists_match_the_triple_scan(self, n):
        # the empty list, a one-element list with its 1 × 1 table, and longer
        elems = [Rat(1, 2), Rat(-2, 3), Rat(3, -4), Rat(2, 4)][:n]
        wrong = wrong_at(rat_add, lambda p, q: (p.num, p.den) == (2, 4))
        for op in (rat_add, rat_mul, wrong, lambda p, q: Rat(p.num - q.num, p.den)):
            table = [[op(p, q) for q in elems] for p in elems]
            assert numbers._assoc_holds(elems, table, op) == triple_assoc(elems, op), (n, op)
        assert numbers._assoc_holds([Rat(1, 2)], [[Rat(1, 1)]], rat_add)
        assert not numbers._assoc_holds([Rat(2, 4)], [[wrong(Rat(2, 4), Rat(2, 4))]], wrong)

    @staticmethod
    def counted_calls(monkeypatch, suite, names):
        calls = dict.fromkeys(names, 0)

        def counting(name, real):
            def f(*args):
                calls[name] += 1
                return real(*args)
            return f

        for name in names:
            monkeypatch.setattr(numbers, name, counting(name, getattr(numbers, name)))
        run_suite(suite, seed=0)
        return calls

    def test_each_distinct_partial_result_is_combined_once(self, monkeypatch):
        # addition: 47² cells, 852 distinct sums each combined with the 47
        # classes on both sides, unit and inverse, and embedding_check(6)'s
        # 13²; multiplication likewise with 46 classes and 410 products.
        # rat_eq still compares every triple and every pair.
        calls = self.counted_calls(monkeypatch, "rationals", ["rat_add", "rat_mul", "rat_eq"])
        assert calls["rat_add"] == 47 ** 2 + 2 * 47 * 852 + 2 * 47 + 169 == 82560
        assert calls["rat_mul"] == 46 ** 2 + 2 * 46 * 410 + 2 * 46 + 169 == 40097
        assert calls["rat_eq"] == 206190

    def test_suite_integers_multiplies_a_and_b_once(self, monkeypatch):
        # the ring laws' table of a·b on [-50, 50]², 101² = 10,201 cells,
        # which gives a·b, b·a, a·c and b·c; int-mul-recursion's 10,000
        # products; and per ring-law sample a·(b + c), (a·b)·c and a·(b·c)
        calls = self.counted_calls(monkeypatch, "integers", ["int_mul"])
        assert calls["int_mul"] == 101 ** 2 + 10000 + 3 * 10000 == 50201


def nine_call_ring_laws(seed):
    """Reference: ``suite integers``' ring-law count with int_mul called
    nine times per sample, looked up on the module at call time."""
    rng = random.Random(seed + 7)
    mul = numbers.int_mul
    bad = 0
    for _ in range(10000):
        a, b, c = (rng.randint(-50, 50) for _ in range(3))
        if mul(a, b + c) != mul(a, b) + mul(a, c):
            bad += 1
        if mul(a, b) != mul(b, a):
            bad += 1
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            bad += 1
    return bad == 0, (bad,) if bad else None


class TestIntegerRingLaws:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_verdict_and_witness_match_the_nine_call_loop(self, monkeypatch, seed):
        rep = run_suite("integers", seed=seed)["int-ring-laws"]
        assert (rep.passed, rep.witness) == nine_call_ring_laws(seed) == (True, None)
        # 3·4 comes out one too large; 4·3 is right
        monkeypatch.setattr(numbers, "int_mul", lambda a, b: int_mul(a, b) + ((a, b) == (3, 4)))
        rep = run_suite("integers", seed=seed)["int-ring-laws"]
        want = nine_call_ring_laws(seed)
        assert not want[0]
        assert (rep.passed, rep.witness) == want


class TestSampler:
    @staticmethod
    def randints(seed, lo, hi, n):
        return list(itertools.islice(_randints(random.Random(seed), lo, hi), n))

    @staticmethod
    def reference(seed, lo, hi, n):
        rng = random.Random(seed)
        return [rng.randint(lo, hi) for _ in range(n)]

    @pytest.mark.parametrize("lo, hi", [(-100, 100), (-50, 50)])
    @pytest.mark.parametrize("seed", [0, 1, 5, 6, 7])
    def test_draws_what_randint_draws(self, seed, lo, hi):
        # 30,000 draws read about 38,000 words, 13 blocks; 7,001 ends
        # inside one
        for n in (30000, 7001):
            assert self.randints(seed, lo, hi, n) == self.reference(seed, lo, hi, n), n

    @pytest.mark.parametrize("lo, hi", [(-100, 100), (-50, 50)])
    def test_a_rejection_on_a_block_boundary(self, lo, hi):
        # a seed whose last word of the first block is rejected, and one
        # whose first word of the second is; randint draws again either way
        span = hi - lo + 1
        drop = 32 - span.bit_length()

        def rejected(seed, i):
            rng = random.Random(seed)
            words = [rng.getrandbits(32) for _ in range(i + 1)]
            return words[i] >> drop >= span

        for i in (_BLOCK - 1, _BLOCK):
            seed = next(s for s in range(100) if rejected(s, i))
            n = _BLOCK + 100
            assert self.randints(seed, lo, hi, n) == self.reference(seed, lo, hi, n), i

    @pytest.mark.parametrize("lo, hi", [(0, 0), (3, 4), (-128, 126), (-127, 127)])
    def test_other_spans(self, lo, hi):
        # one value, two, and the widest spans a signed byte holds
        assert self.randints(9, lo, hi, 7001) == self.reference(9, lo, hi, 7001)

    @pytest.mark.parametrize("lo, hi", [(-129, 0), (0, 128), (-128, 127), (1, 0)])
    def test_spans_past_a_signed_byte_are_refused(self, lo, hi):
        # every value a signed byte, and the span 255 or less
        with pytest.raises(ValueError):
            _randints(random.Random(0), lo, hi)

    def test_suite_integers_calls_no_randint(self, monkeypatch):
        calls = []
        real = random.Random.randint

        def counting(self, a, b):
            calls.append((a, b))
            return real(self, a, b)

        monkeypatch.setattr(random.Random, "randint", counting)
        rep = run_suite("integers", seed=0)
        assert rep.passed
        assert calls == []


def loop_integer_units(seed):
    """Reference: ``suite integers``' four units as one loop each, with
    every draw from ``randint`` and every call made per sample, looked up
    on the module at call time. {law: (passed, witness)}."""
    out = {}

    def add(law, bad):
        out[law] = (bad == 0, (bad,) if bad else None)

    bad = sum(
        1
        for a in range(-30, 31)
        for b in range(-30, 31)
        if numbers.int_add(a, b, N=61) != a + b
    )
    add("int-add-exhaustive", bad)

    rng = random.Random(seed + 5)
    shifts = numbers._shift_maps(numbers.build_discrete(201), 100)
    bad = 0
    for _ in range(10000):
        a = rng.randint(-100, 100)
        b = rng.randint(-100, 100)
        if int(shifts[b](numbers._sym(a))) != a + b:
            bad += 1
    for _ in range(500):
        a = rng.randint(-100, 100)
        b = rng.randint(-100, 100)
        if numbers.int_add(a, b, N=201) != a + b:
            bad += 1
    add("int-add-random", bad)

    rng = random.Random(seed + 6)
    bad = 0
    for _ in range(10000):
        a = rng.randint(-100, 100)
        b = rng.randint(-100, 100)
        if numbers.int_mul(a, b) != a * b:
            bad += 1
    add("int-mul-recursion", bad)

    rng = random.Random(seed + 7)
    mul = numbers.int_mul
    bad = 0
    for _ in range(10000):
        a, b, c = (rng.randint(-50, 50) for _ in range(3))
        ab = mul(a, b)
        if mul(a, b + c) != ab + mul(a, c):
            bad += 1
        if ab != mul(b, a):
            bad += 1
        if mul(ab, c) != mul(a, mul(b, c)):
            bad += 1
    add("int-ring-laws", bad)
    return out


def wrong_on(real, pairs):
    """``real``, one too large on each of the argument pairs."""
    return lambda a, b: real(a, b) + ((a, b) in pairs)


def first_ring_law_sample_off_the_grid(seed):
    """(a, b·c) for the first ring-law sample with |b·c| > 50."""
    rng = random.Random(seed + 7)
    while True:
        a, b, c = (rng.randint(-50, 50) for _ in range(3))
        if abs(b * c) > 50:
            return a, b * c


def first_subsample_pair(seed):
    """The first (a, b) of ``int-add-random``'s 500-pair subsample."""
    rng = random.Random(seed + 5)
    for _ in range(20000):
        rng.randint(-100, 100)
    return rng.randint(-100, 100), rng.randint(-100, 100)


def plant_integer_fault(monkeypatch, fault, seed):
    """Plant ``fault`` on the numbers module; the laws it must fail,
    among others it may."""
    if fault == "mul-on-the-grid":
        monkeypatch.setattr(numbers, "int_mul", wrong_on(int_mul, {(3, 4)}))
        return {"int-ring-laws"}
    if fault == "mul-off-the-grid":
        pair = first_ring_law_sample_off_the_grid(seed)
        monkeypatch.setattr(numbers, "int_mul", wrong_on(int_mul, {pair}))
        return {"int-ring-laws"}
    if fault == "shift-map-cell":
        # the first shift-map sample's cell sends a to a wrong point of
        # the codomain
        rng = random.Random(seed + 5)
        a, b = str(rng.randint(-100, 100)), rng.randint(-100, 100)
        real = numbers._shift_maps

        def one_wrong_cell(w, m):
            maps = real(w, m)
            f = maps[b]
            y = next(y for y in f.cod if y != f.assign[a])
            maps[b] = FinMap(f.dom, f.cod, {**f.assign, a: y})
            return maps

        monkeypatch.setattr(numbers, "_shift_maps", one_wrong_cell)
        return {"int-add-random"}
    if fault == "add-on-the-subsample":
        pair = first_subsample_pair(seed)
        monkeypatch.setattr(
            numbers, "int_add", lambda a, b, N=None: int_add(a, b, N) + ((a, b) == pair)
        )
        return {"int-add-random"}
    assert fault == "honest"
    return set()


class TestIntegerUnits:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "fault",
        ["honest", "mul-on-the-grid", "mul-off-the-grid", "shift-map-cell", "add-on-the-subsample"],
    )
    def test_verdicts_and_witnesses_match_the_loops(self, monkeypatch, fault, seed):
        failing = plant_integer_fault(monkeypatch, fault, seed)
        want = loop_integer_units(seed)
        rep = run_suite("integers", seed=seed)
        got = {c.law: (c.passed, c.witness) for c in rep.checks}
        assert got == want
        failed = {law for law, (passed, _) in got.items() if not passed}
        assert failing <= failed
        assert bool(failed) == (fault != "honest")


def inter_carriers(w, b):
    """Reference: the carriers of the +b map as ``FinSet.inter`` scans of
    the window's carrier."""
    N = w.N
    lo, hi = max(-N, -N - b), min(N, N - b)
    carrier = w.poset.carrier
    dom = carrier.inter({str(i) for i in range(lo, hi + 1)})
    return dom, carrier.inter({str(i + b) for i in range(lo, hi + 1)})


class TestShiftMapCarriers:
    def test_carriers_are_the_inter_scans(self):
        for N in range(1, 13):
            w = build_discrete(N)
            # the callers ask for m <= N; from m = 2N + 1 on, the maps
            # past ±2N are empty
            for m in range(2 * N + 3):
                for b, f in numbers._shift_maps(w, m).items():
                    assert (f.dom, f.cod) == inter_carriers(w, b), (N, m, b)
                    assert (f.dom.elements, f.cod.elements) == tuple(
                        s.elements for s in inter_carriers(w, b)
                    )

    @pytest.mark.parametrize("x", ["-3", "0", "2"])
    def test_a_wrong_successor_is_refused(self, x):
        # the successor sends x to -4, which no +1 map reaches
        w = build_discrete(4)
        succ = FinMap(w.succ.dom, w.poset.carrier, {**w.succ.assign, x: "-4"})
        bent = numbers.IntWindow(w.N, w.poset, succ, w.pred)
        with pytest.raises(CarrierMismatch) as e:
            numbers._shift_maps(bent, 2)
        assert e.value.witness == (x, "-4")
