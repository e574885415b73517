"""Law reports: the uniform result type of every checking operation.

A report is a list of named checks. A failed check carries the
lexicographically least witness found. Reports render deterministically
(sorted by law id, then witness) in both text and JSON form.

Every law id has one row in ``LAWS``, which holds its statement, and
``LawReport.add`` reads the statement from there. ``structa formats``
prints the table.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BadStructure

# a law id, its statement, the verdict, and the witness of a failure
Check = namedtuple("Check", ("law", "statement", "passed", "witness"), defaults=(None,))

# The kinds of row. A law is evaluated and may fail. A check that holds
# by construction, or a recorded skip, is added only as passed: the step
# that enforces it raises instead of recording a failure. A
# by-construction row may also be a theorem of earlier rows that passed
# in the same report, and is then not evaluated. An info row
# records an observation: it always passes, its verdict picks the first
# or the second of its two texts, and a witness is written into the
# second. A unit row is an acceptance check of a ``structa suite``
# bundle; ``formats`` leaves these out.
LAW, BY_CONSTRUCTION, SKIP, INFO, UNIT = "law", "by-construction", "skip", "info", "unit"

# law id -> (kind, statement), grouped by the module that emits the id.
# A family of ids has one row keyed by its pattern: ``add``'s ``ids``
# fill the ``%`` fields of the key, and its ``counts`` fill those of the
# statement.
LAWS = {
    # core
    "img-adjoint": (LAW, "fA ⊆ B iff A ⊆ f⁻¹B"),
    "img-unit": (LAW, "A ⊆ f⁻¹fA"),
    "img-unit-monic": (LAW, "monic: f⁻¹fA = A"),
    "img-counit": (LAW, "ff⁻¹B ⊆ B"),
    "img-counit-onto": (LAW, "onto: ff⁻¹B = B"),
    "img-restrict": (LAW, "f|A⁻¹B = A ∩ f⁻¹B"),
    "img-union": (LAW, "f(⋃X) = ⋃fX"),
    "img-inter": (LAW, "f(⋂X) ⊆ ⋂fX"),
    "img-inter-monic": (LAW, "monic: f(⋂X) = ⋂fX"),
    "pre-union": (LAW, "f⁻¹(⋃Y) = ⋃f⁻¹Y"),
    "pre-inter": (LAW, "f⁻¹(⋂Y) = ⋂f⁻¹Y"),
    "pre-diff": (LAW, "f⁻¹(Y0 − Y1) = f⁻¹Y0 − f⁻¹Y1"),
    "fib-prop": (LAW, "monic: fA = B iff A = ⋃ fibers of B"),
    "fib-prop-onedir": (LAW, "fA = B implies A ⊆ ⋃ fibers of B"),
    # order
    "refl": (LAW, "x ≤ x for all x"),
    "antisym": (LAW, "x ≤ y and y ≤ x imply x = y"),
    "trans": (LAW, "x ≤ y and y ≤ z imply x ≤ z"),
    "total": (LAW, "every pair is comparable"),
    "lat-order": (LAW, "x ≤ y iff x∨y = y iff x∧y = x"),
    "lat-comm": (LAW, "∨ and ∧ are commutative"),
    "lat-assoc": (LAW, "∨ and ∧ are associative"),
    "lat-idem": (LAW, "every element is idempotent for ∨ and ∧"),
    "lat-absorb": (LAW, "x∨(x∧y) = x = x∧(x∨y)"),
    "lat-monotone": (LAW, "∨ and ∧ preserve the order in each slot"),
    "lat-finite-sup": (LAW, "sup of a union is the join of the sups"),
    "semi-comm": (LAW, "x⋄y = y⋄x"),
    "semi-assoc": (LAW, "(x⋄y)⋄z = x⋄(y⋄z)"),
    "semi-idem": (LAW, "x⋄x = x"),
    # category
    "cat-comp-total": (LAW, "composition is defined exactly on the composable pairs"),
    "cat-endpoints": (LAW, "g∘f runs from the source of f to the target of g"),
    "cat-unit": (LAW, "every object has a two-sided unit arrow"),
    "cat-assoc": (LAW, "composition is associative on every composable triple"),
    "cat-discernible": (INFO, (
        "observational arrow equality refines to named equality",
        "warning: distinct named arrows are observationally equal, e.g. %s",
    )),
    "fun-objects": (LAW, "the object function lands in the target objects"),
    "fun-arrows": (LAW, "the arrow function lands in the target arrows"),
    "fun-endpoints": (LAW, "arrows keep their endpoints under the functor"),
    "fun-unit": (LAW, "unit arrows map to unit arrows"),
    "fun-comp": (LAW, "F(g∘f) = F g ∘ F f"),
    "sr-total": (LAW, "both component functions are total"),
    "sr-endpoints": (LAW, "arrow images connect the right carriers"),
    "sr-unit": (LAW, "unit arrows become identity maps"),
    "sr-comp": (LAW, "F(g∘f) = F g ∘ F f as set maps"),
    "nt-bridge": (LAW, "each component runs from F a to G a"),
    "nt-natural": (LAW, "every naturality square commutes"),
    "ic-interchange": (LAW, "vertical-then-horizontal equals horizontal-then-vertical"),
    "ye-faithful": (LAW, "distinct arrows give distinct transformations"),
    "ye-full": (LAW, "every transformation L_a → L_b comes from an arrow b → a"),
    # group
    "grp-total": (LAW, "the table covers every pair"),
    "grp-closed": (LAW, "products stay in the carrier"),
    "grp-assoc": (LAW, "(ab)c = a(bc)"),
    "grp-unit": (LAW, "a two-sided unit exists"),
    "grp-inverse": (LAW, "every element has a two-sided inverse"),
    "grp-inv-invol": (BY_CONSTRUCTION, "(a⁻¹)⁻¹ = a"),
    "grp-unique-solutions": (BY_CONSTRUCTION, "ax = b and ya = b have unique solutions"),
    "grp-cancel": (BY_CONSTRUCTION, "ab = ac implies b = c, ba = ca implies b = c"),
    "ab-quotient": (LAW, "G modulo its commutant is abelian"),
    "ab-minimal": (LAW, "G/N abelian iff the commutant lies in N"),
    "act-hom": (LAW, "(ab) acts as a then b composed"),
    "act-nul-subgroup": (BY_CONSTRUCTION, "the nucleus of non-effectivity is a subgroup"),
    "act-transitive-flag": (INFO, (
        "every point reaches every point",
        "not transitive (informational)",
    )),
    "stab-subgroup": (BY_CONSTRUCTION, "the stabilizer is a subgroup"),
    "stab-nucleus": (LAW, "the nucleus is the intersection of all stabilizers"),
    "stab-cosets": (LAW, "transporter sets are exactly the left cosets of the stabilizer"),
    "stab-bijection": (LAW, "point ↦ transporter coset is a bijection onto the cosets"),
    "stab-similar": (LAW, "the action is similar to the coset action"),
    "stab-conjugate": (LAW, "stabilizers along a transporter are conjugate"),
    # numbers
    "int-unit": (LAW, "shifting by zero is the identity on the window"),
    "int-inverse": (LAW, "shifting by -b undoes shifting by b"),
    "int-commutative": (LAW, "the two stacking orders of shifts agree wherever both are defined"),
    "int-associative": (LAW, "stacked shifts add their offsets"),
    "int-nat-order": (LAW, "componentwise comparison of shifts mirrors a ≤ b"),
    "dual-den-reverses": (LAW, "negating the denominator reverses the order"),
    "dual-num-reverses": (LAW, "negating the numerator reverses the order"),
    "dual-both-preserves": (LAW, "negating both preserves the order"),
    "dual-involution": (LAW, "the double negation is an involution"),
    "dual-sign-classes": (LAW, "negating both lands in the same class"),
    "dual-row-column": (LAW, "row windows map contravariantly onto column windows"),
    "emb-add": (LAW, "ι(a) + ι(b) equals ι(a+b)"),
    "emb-mul": (LAW, "ι(a) · ι(b) equals ι(a·b)"),
    "emb-order": (LAW, "ι preserves and reflects the order"),
    "emb-monic": (LAW, "ι separates distinct integers"),
    # settools
    "uf-maximal": (LAW, "ultra means maximal under refinement"),
    "uf-union-prime": (LAW, "ultra means union-prime"),
    "uf-points": (LAW, "point filters are ultra"),
    "uf-principal": (LAW, "every ultrafilter here is a point filter"),
    "uf-count": (LAW, "one ultrafilter per point"),
    "uf-union-absorb": (LAW, "a filter union is ultra exactly under the absorption theorem"),
    # top
    "clx-empty": (LAW, "the empty set is closed"),
    "clx-extensive": (LAW, "every set sits inside its closure"),
    "clx-monotone": (LAW, "closure preserves inclusion"),
    "clx-idempotent": (LAW, "closing twice adds nothing"),
    "clx-closed-union": (LAW, "finite unions of closed sets are closed"),
    "clx-closed-inter": (LAW, "intersections of closed sets are closed"),
    "cls-additive": (LAW, "closure of a union is the union of closures"),
    "cls-points": (LAW, "singletons are their own closures"),
    "nb-open-iff": (LAW, "a set is open exactly when it neighbors each of its points"),
    "nb-superset": (LAW, "supersets of neighborhoods are neighborhoods"),
    "bs-criterion-agree": (LAW, "the union form and the pointwise form of the base criterion "
                                "agree"),
    "bs-members-open": (LAW, "base members are open"),
    "bs-point-base": (LAW, "a base is a point base of every point"),
    "bs-closure-equivalence": (LAW, "closure via base neighborhoods matches closure via closed "
                                    "sets"),
    "bs-subbase-only": (SKIP, "the family fails the base criterion; base-only laws are skipped"),
    # docs
    "set-elements": (BY_CONSTRUCTION, "elements are distinct well-formed symbols"),
    "set-subset-count": (LAW, "a finite set has 2^n subsets"),
    "map-total": (BY_CONSTRUCTION, "the assignment covers exactly the domain"),
    "map-classify": (BY_CONSTRUCTION, "monic and onto together are equivalent to bijective"),
    "hom-mult": (LAW, "f(ab) equals f(a)f(b)"),
    "hom-unit": (LAW, "f sends unit to unit"),
    "fam-sigma-extends": (LAW, "the generated sigma-algebra contains the family"),
    "fam-sigma-fixed": (LAW, "the generated sigma-algebra is a fixed point"),
    "fb-base": (LAW, "pairwise intersections swallow a member"),
    "fb-filter": (LAW, "the generated family is a filter"),
    "fb-extends": (LAW, "the generated filter contains the base"),
    "top-axioms": (LAW, "opens contain endpoints, unions, intersections"),
    "bs-covering": (LAW, "every point lies in a base member"),
    # suites
    "unit-error": (UNIT, "the unit ran without a structure error"),
    "fn-laws-%d-%d": (UNIT, "image/preimage laws, fibers, and decompose-recompose hold on every "
                            "map (%d checks)"),
    "fn-volume": (UNIT, "the exhaustive scan performed at least 100000 individual checks"),
    "cat-seeds": (UNIT, "all %d constructor-built seed categories pass the category laws"),
    "cat-planted": (UNIT, "the associativity witness search finds the planted defect in each of "
                          "the %d negative fixtures"),
    "ic-grid-%d%d%d": (UNIT, "interchange holds on %d random 2x2 grids"),
    "ic-volume": (UNIT, "at least 1000 grids were sampled and both defining formulas of "
                        "horizontal composition agreed on every instance"),
    "yo-count-%s": (UNIT, "|Nat(L_a, F)| equals |F a| with exact round-trip on %d "
                          "object/functor pairs"),
    "yo-embedding-%s": (UNIT, "the Yoneda embedding is full and faithful"),
    "int-add-exhaustive": (UNIT, "window addition equals integer addition for all |a|,|b| <= 30"),
    "int-add-random": (UNIT, "functor-composition addition equals integer addition on 10000 "
                             "random pairs with |a|,|b| <= 100"),
    "int-mul-recursion": (UNIT, "recursion product equals direct product on 10000 random pairs"),
    "int-ring-laws": (UNIT, "distributivity, commutativity, and associativity hold on 10000 "
                            "random triples"),
    "rat-total": (UNIT, "any two window rationals compare"),
    "rat-trans": (UNIT, "the order is transitive on the window"),
    "rat-antisym": (UNIT, "mutual comparison forces equality of classes"),
    "rat-add-assoc": (UNIT, "addition is associative on the window"),
    "rat-add-unit": (UNIT, "zero is neutral"),
    "rat-add-inverse": (UNIT, "negation inverts addition"),
    "rat-add-comm": (UNIT, "addition is commutative"),
    "rat-mul-assoc": (UNIT, "multiplication is associative on the nonzero window"),
    "rat-mul-unit": (UNIT, "one is neutral"),
    "rat-mul-inverse": (UNIT, "reciprocals invert multiplication"),
    "rat-mul-comm": (UNIT, "multiplication is commutative"),
    "rat-embed-grid": (UNIT, "the embedded integers agree with window rationals of denominator "
                             "one"),
    "lat-iff-%d": (UNIT, "lattice_from_poset succeeds exactly when pairwise sups and infs exist "
                         "(%d posets, %d lattices)"),
    "lat-roundtrip-%d": (UNIT, "the dual semilattice tables reconstruct the original order"),
    "lat-laws-%d": (UNIT, "absorption, idempotence, and monotonicity hold on every lattice"),
    "zorn-maximal-%d": (UNIT, "zorn_maximal returns a scan-verified maximal element on all %d "
                              "posets"),
    "zorn-chain-%d": (UNIT, "extend_chain output is maximal as a chain by scan"),
    "grp-criteria": (UNIT, "subgroup and normality criteria agree on all %d subsets (%d "
                           "subgroups) of the order <= 6 catalog"),
    "grp-first-iso": (UNIT, "the first isomorphism theorem holds for all %d homomorphisms "
                            "between order <= 4 catalog members"),
    "grp-sign-hom": (UNIT, "the first isomorphism theorem holds for the sign homomorphism from "
                           "the symmetric group on three letters"),
    "grp-s3-commutant": (UNIT, "the commutant has order three"),
    "grp-s3-center": (UNIT, "the center is trivial"),
    "grp-s3-inner": (UNIT, "there are six inner automorphisms"),
    "grp-s3-abelianization": (UNIT, "the quotient by the commutant is abelian of order two"),
    "act-%s-laws": (UNIT, "the coset action satisfies the action laws"),
    "act-%s-transitive": (UNIT, "the coset action is transitive"),
    "act-%s-fixed-coset": (UNIT, "g fixes the coset xH exactly when x^-1 g x lies in H"),
    "act-%s-nucleus": (UNIT, "the nucleus is the intersection of the conjugate subgroups"),
    "act-letters": (UNIT, "the defining action satisfies the action laws"),
    "act-stabilizer-similarity": (UNIT, "the action is similar to the coset action of each "
                                        "stabilizer"),
    "fl-principal-%d": (UNIT, "every one of the %d filters is principal over its core"),
    "fl-minimal-%d": (UNIT, "generating from a filter returns the filter itself"),
    "sg-all-families": (UNIT, "closure iteration equals the intersection of enclosing "
                              "sigma-algebras for all %d families on three points"),
    "tp-count": (UNIT, "brute force finds exactly 29 topologies on three points"),
    "tp-closure-agree": (UNIT, "base-derived and closed-family closures are table-identical on "
                               "every topology"),
    "tp-strict-small": (UNIT, "exhaustively, the only strict closure model on one or two points "
                              "is the discrete one"),
    "tp-strict-three": (UNIT, "on three points the discrete model passes and sampled "
                              "perturbations plus the additivity argument exclude all others"),
    "cli-corpus": (UNIT, "all %d corpus documents round-trip through parse and render "
                         "byte-identically"),
    "cli-jobs": (UNIT, "report output is byte-identical across one and eight workers"),
    "cli-exit-pass": (UNIT, "a passing document exits zero"),
    "cli-exit-fail": (UNIT, "a failing law exits one"),
    "cli-exit-parse": (UNIT, "a syntax error exits two"),
    "cli-exit-schema": (UNIT, "a non-total table exits two"),
}


def _witness_key(w):
    return tuple(str(x) for x in w) if w else ()


def _check_key(c):
    return (c.law, _witness_key(c.witness))


class LawReport:
    """A suite name and its checks in the order they were added. Each
    report owns its ``checks`` list, a new one unless one is given.
    Reports with the same name and checks are equal; being mutable, a
    report is unhashable."""

    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: list[Check] | None = None):
        self.suite = suite
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.checks) == (other.suite, other.checks)

    def __repr__(self):
        return "LawReport(suite=%r, checks=%r)" % (self.suite, self.checks)

    def add(self, law, passed, witness=None, *, ids=(), counts=()):
        """Record a check of ``law``, a key of ``LAWS``, with the row's
        statement; ``ids`` fill the ``%`` fields of a family key and
        ``counts`` those of the statement. A passed check has no
        witness; a failed one without a witness gets the empty one. An
        info row passes: ``passed`` picks its text and a witness goes
        into it. An unknown id raises KeyError."""
        row = LAWS.get(law)
        if row is None:
            raise KeyError("no law %r in report.LAWS" % (law,))
        kind, statement = row
        if kind == INFO:
            text = statement[0] if passed else statement[1]
            statement = text if witness is None else text % (witness,)
            passed = True
        if counts:
            statement %= counts
        if ids:
            law %= ids
        if passed:
            witness = None
        elif witness is None:
            witness = ()
        self.checks.append(Check(law, statement, bool(passed), witness))

    def merge(self, other: "LawReport"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return sorted((c for c in self.checks if not c.passed), key=_check_key)

    def __getitem__(self, law: str) -> Check:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    def require(self):
        """Raise if any check failed; convenient for constructions."""
        bad = self.failures
        if bad:
            c = bad[0]
            raise BadStructure(
                "%s: %s failed (%s)" % (self.suite, c.law, c.statement),
                witness=c.witness,
            )
        return self

    def sorted_checks(self) -> list[Check]:
        return sorted(self.checks, key=_check_key)

    def counts(self):
        ok = sum(1 for c in self.checks if c.passed)
        return ok, len(self.checks) - ok

    def to_json(self):
        ok, bad = self.counts()
        return {
            "suite": self.suite,
            "checks": [
                {
                    "law": c.law,
                    "statement": c.statement,
                    "passed": c.passed,
                    **({} if c.witness is None else {"witness": [str(x) for x in c.witness]}),
                }
                for c in self.sorted_checks()
            ],
            "summary": {"passed": ok, "failed": bad},
        }

    def render_text(self) -> str:
        lines = ["suite: %s" % self.suite]
        width = max((len(c.law) for c in self.checks), default=0)
        for c in self.sorted_checks():
            mark = "PASS" if c.passed else "FAIL"
            line = "  %s  %-*s  %s" % (mark, width, c.law, c.statement)
            if c.witness is not None:
                line += "  witness=%s" % (tuple(str(x) for x in c.witness),)
            lines.append(line)
        ok, bad = self.counts()
        lines.append("  %d passed, %d failed" % (ok, bad))
        return "\n".join(lines)
