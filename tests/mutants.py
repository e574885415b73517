"""Mutation gate: each row breaks one spot of structa on purpose and names
the test that must then fail.

    python3 tests/mutants.py        (from the root of a checkout)

For every row the script copies ``src/structa`` into a temporary
directory, replaces the row's source fragment, which must occur exactly
once in its module, and runs the row's pytest node in a fresh process
with the copy first on ``PYTHONPATH``. The mutant is killed when the node
fails, or when it runs longer than ``TIMEOUT`` seconds. The script prints
one line per row and exits 1 when a mutant survives, when a fragment is
missing or ambiguous, or when the node does not run; otherwise it exits
0. It needs only the standard library and pytest, and it is not
collected by pytest itself.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "structa"

# (module, fragment, replacement, pytest node that must fail)
MUTANTS = [
    (
        "group.py",
        "G.op[(G.op[(x, n)], G.inv[x])]",
        "G.op[(G.op[(G.inv[x], n)], x)]",
        "tests/test_group.py::TestWitnessSearches::test_normality_witness_conjugates_as_x_n_x_inverse",
    ),
    (
        "core.py",
        "for z in (op(x, y), op(y, x))",
        "for z in (op(x, y),)",
        "tests/test_core.py::TestGenerated::test_matches_the_naive_closure_on_random_tables",
    ),
    (
        "group.py",
        "return left is not None and right is not None and left != right",
        "return left != right",
        "tests/test_group.py::TestEnumeration::test_pruned_search_matches_the_filtered_reference",
    ),
    (
        "order.py",
        "                    if not a & ~bounds[b]:\n",
        "                    if True:\n",
        "tests/test_order.py::TestEnumeratePosets::test_pruned_search_matches_the_filtered_reference",
    ),
    (
        "order.py",
        "[d << 1 | a >> i & 1 for i, d in enumerate(down)]",
        "[d << 1 | b >> i & 1 for i, d in enumerate(down)]",
        "tests/test_order.py::TestEnumeratePosets::test_handed_over_masks_are_the_masks_of_the_pairs",
    ),
    (
        "settools.py",
        "            if not ones[i] & ~fmask:\n",
        "            if True:\n",
        "tests/test_masks.py::TestLawReportsMatchTupleDefinitions::test_filter_enumeration[3]",
    ),
    (
        "order.py",
        "if (up[c] | down[c]) & m == m:",
        "if up[c] & m == m:",
        "tests/test_order.py::TestChainsAndZorn::test_chain_methods_match_their_pair_definitions",
    ),
    (
        "numbers.py",
        "return sum(repeat(a if b > 0 else -a, abs(b)))",
        "return sum(repeat(a if b > 0 else -a, abs(b) - 1))",
        "tests/test_numbers.py::TestIntMul::test_matches_the_stepwise_references",
    ),
    (
        "numbers.py",
        "        if den == 0:\n"
        "            raise ZeroDenominator(\"a rational needs a nonzero denominator\", witness=(num,))\n",
        "",
        "tests/test_numbers.py::TestRatEquality::test_zero_denominator_rejected",
    ),
    (
        "numbers.py",
        "lo = max(-N, -N - a, -N - a - b, -N - a - b - c)",
        "lo = max(-N, -N - a, -N - a - b, -N - a - b - c) + 1",
        "tests/test_numbers.py::TestIntAdd::test_scans_match_the_guarded_references",
    ),
    (
        "numbers.py",
        "        if diff:\n",
        "        if False:\n",
        "tests/test_numbers.py::TestDiscrete::test_broken_order_is_rejected",
    ),
    (
        "core.py",
        "pre(m0 & ~m1) == pre(m0) & ~pre(m1)",
        "pre(m1 & ~m0) == pre(m0) & ~pre(m1)",
        "tests/test_masks.py::TestLawReportsMatchTupleDefinitions::test_image_calculus_exhaustive_two_points",
    ),
    (
        "suites.py",
        '            scan += [instance("pre-fam", dom, cod, Y) for Y in product(subsB, repeat=2)]\n',
        "",
        "tests/test_acceptance.py::test_acceptance_criterion[01-functions]",
    ),
    (
        "category.py",
        "for (g, f), v in sorted(C.comp.items())\n",
        "for (g, f), v in sorted(C.comp.items(), reverse=True)\n",
        "tests/test_category.py::TestVarianceDuality::test_seed_functors_and_planted_defects",
    ),
    (
        "core.py",
        "(lambda self: get(self)) if",
        "(lambda self: get(self)[:-1]) if",
        "tests/test_core.py::test_copy_and_pickle_round_trips",
    ),
    (
        "core.py",
        "    def __delattr__(self, name):\n"
        "        raise AttributeError(\"%s is immutable\" % type(self).__name__)\n",
        "    def __delattr__(self, name):\n"
        "        object.__delattr__(self, name)\n",
        "tests/test_core.py::test_copy_and_pickle_round_trips",
    ),
    (
        "group.py",
        '    r.add("grp-unit", e is not None)\n',
        '    r.add("grp-unit", e is not None)\n'
        '    r.add("grp-inv-invol", True)\n'
        '    r.add("grp-unique-solutions", True)\n'
        '    r.add("grp-cancel", True)\n',
        "tests/test_hygiene.py::test_each_theorem_row_follows_its_premises_in_its_report",
    ),
    (
        "core.py",
        "for a in _greedy_generators(T):",
        "for a in _greedy_generators(T)[:-1]:",
        "tests/test_core.py::TestTableWitnesses::test_a_failure_at_the_last_generator_falls_back",
    ),
    (
        "core.py",
        "        if inside[g]:\n",
        "        if inside[g] or g == len(T) - 1:\n",
        "tests/test_core.py::TestGreedyGenerators::test_left_zero_and_max_pick_every_element",
    ),
    (
        "core.py",
        "            if T[rx[a]] != [rx[v] for v in row]:\n"
        "                return _associativity_scan(T, xs)\n",
        "            if T[rx[a]] != [rx[v] for v in row]:\n"
        "                return (x, xs[a], xs[next(y for y, v in enumerate(row) if T[rx[a]][y] != rx[v])])\n",
        "tests/test_core.py::TestTableWitnesses::test_a_failing_generator_gives_the_scan_witness",
    ),
    (
        "core.py",
        "if lhs != rhs and lhs is not None and rhs is not None:",
        "if lhs != rhs:",
        "tests/test_category.py::TestOneAssociativityKernel::test_partial_tables_match_the_category_scan",
    ),
    (
        "core.py",
        "if any(None in row for row in T):",
        "if any(None in row for row in T[:-1]):",
        "tests/test_core.py::TestTableWitnesses::test_an_undefined_cell_never_reaches_the_generators",
    ),
    (
        "category.py",
        "bad = associativity_witness(C.comp, names)",
        "bad = None",
        "tests/test_category.py::TestCheckCategory::test_broken_associativity_witnessed",
    ),
    (
        "docs.py",
        "seen.add(_symbol(x, where))",
        "seen.add(x)",
        "tests/test_docs.py::TestSymbolMemo::test_a_bad_symbol_is_refused_on_its_first_occurrence",
    ),
    (
        "docs.py",
        "for key in sorted(v):",
        "for key in v:",
        "tests/test_docs.py::TestRenderIsJsonDumps::test_nested_document_by_hand",
    ),
    (
        "docs.py",
        "text = self[s] = encode_basestring(s)",
        "text = self[s] = '\"%s\"' % s",
        "tests/test_docs.py::TestRenderIsJsonDumps::test_escaped_text_by_hand",
    ),
    (
        "docs.py",
        "len(cells) == len(rows) == len(left_set) * len(right_set)",
        "len(cells) == len(rows)",
        "tests/test_docs.py::TestTableCertificate::test_every_bad_fixture[missing_cell.json]",
    ),
    (
        "docs.py",
        "                            append(row_comma)\n",
        "",
        "tests/test_docs.py::TestRenderOfAnyJson::test_rows_with_nested_entries_by_hand",
    ),
    (
        "docs.py",
        "            check_symbol(x)\n",
        "            pass\n",
        "tests/test_docs.py::TestSymbolMemo::test_a_bad_symbol_is_refused_on_its_first_occurrence",
    ),
    (
        "top.py",
        'laws.append(("cls-additive", bad))',
        'laws.append(("cls-additive", None))',
        "tests/test_masks.py::TestSuiteFastPaths::test_closure_kernel_on_a_planted_cell",
    ),
    (
        "suites.py",
        "list(map(f.image_mask, range(1 << len(f.dom.elements)))),",
        "list(map(f.preimage_mask, range(1 << len(f.dom.elements)))),",
        "tests/test_masks.py::TestSuiteFastPaths::test_image_tables_match_the_mask_methods",
    ),
    (
        "order.py",
        "return chain, chain.elements[-1]",
        "return chain, chain.elements[0]",
        "tests/test_order.py::TestChainsAndZorn::test_zorn_maximal_is_the_top_of_the_chain_helper",
    ),
    (
        "order.py",
        "        up = self._masks()[0]\n"
        "        return self._extreme(self._common(A, up), up)",
        "        up = self._masks()[1]\n"
        "        return self._extreme(self._common(A, up), up)",
        "tests/test_order.py::TestBoundsOnMasks::"
        "test_match_the_pair_scans_on_every_poset_up_to_four_points",
    ),
    (
        "category.py",
        "x: E.compose(alpha.component[G.on_obj[x]], J.on_arr[tau.component[x]])",
        "x: alpha.component[G.on_obj[x]]",
        "tests/test_category.py::TestHorizontalComposition::"
        "test_formulas_agree_on_non_thin_categories[Z2-Z2-Z2]",
    ),
    (
        "category.py",
        "{h: C.comp[(C.comp[(g, h)], f)] for h in dom}",
        "{h: C.comp[(C.comp[(f, h)], g)] for h in dom}",
        "tests/test_category.py::TestOneHomFormula::test_hom_functors_are_slices_of_hom",
    ),
    (
        "category.py",
        "out = [n for n in names if n not in assign or not inside(assign[n])]",
        "out = [n for n in names if n not in assign]",
        "tests/test_category.py::TestVarianceDuality::test_value_outside_the_target_fails_totality",
    ),
    (
        "category.py",
        'r.add("fun-arrows", not bad, bad)',
        'r.add("fun-arrows", not bad)',
        "tests/test_category.py::TestVarianceDuality::test_value_outside_the_target_fails_totality",
    ),
    (
        "core.py",
        "            if m & 1:\n"
        "                out |= p\n",
        "            if m & 1:\n"
        "                out |= p & ~1\n",
        "tests/test_masks.py::TestLawReportsMatchTupleDefinitions::test_image_calculus_exhaustive_two_points",
    ),
    (
        "core.py",
        "            if p & m:\n"
        "                out |= bit\n",
        "            if p & m:\n"
        "                out |= bit & ~1\n",
        "tests/test_masks.py::TestLawReportsMatchTupleDefinitions::test_image_calculus_exhaustive_two_points",
    ),
    (
        "category.py",
        "            tuple(C.comp.get((i, f)) for i in C.arrows_from(t)),\n",
        "",
        "tests/test_category.py::TestObservationalEquality::"
        "test_signature_classes_match_the_pairwise_comparison",
    ),
    (
        "numbers.py",
        "    return all(map(rat_eq, lefts, rights))\n",
        "    return all(map(rat_eq, lefts,\n"
        "                   chain.from_iterable(map(left.__getitem__, chain.from_iterable(at)))))\n",
        "tests/test_numbers.py::TestRationalSuite::test_add_assoc_fails_on_one_wrong_sum",
    ),
    (
        "numbers.py",
        'key = operator.attrgetter("num", "den")',
        'key = operator.attrgetter("num")',
        "tests/test_numbers.py::TestRationalGroupLaws::test_verdicts_match_the_triple_scans[add-honest]",
    ),
    (
        "suites.py",
        "flat(s), flat(zip(*s))",
        "flat(s), flat(s)",
        "tests/test_numbers.py::TestRationalSuite::test_add_assoc_fails_on_one_wrong_sum",
    ),
    (
        "suites.py",
        "bad += sum(map(ne, ab, cells(b, a)))",
        "bad += sum(map(ne, ab, ab))",
        "tests/test_numbers.py::TestIntegerRingLaws::"
        "test_verdict_and_witness_match_the_nine_call_loop[0]",
    ),
    (
        "suites.py",
        "not up[j] & ~up[i]",
        "not up[i] & ~up[j]",
        "tests/test_numbers.py::TestRationalSuite::test_trans_reads_the_order",
    ),
    (
        "numbers.py",
        "(k, maps[k - 1].assign, succ, left, right)",
        "(k, maps[max(k - 2, 0)].assign, succ, left, right)",
        "tests/test_numbers.py::TestIntAdd::test_shift_maps_are_the_walked_maps",
    ),
    (
        "numbers.py",
        "    for k in range(2 * N):\n        diff",
        "    for k in range(2 * N - 1):\n        diff",
        "tests/test_numbers.py::TestDiscrete::test_mask_check_matches_the_pair_scan",
    ),
    (
        "numbers.py",
        "lo = max(-N, -N - a, -N - a - b, -N - a - b - c)",
        "lo = max(-N, -N - a, -N - a - b)",
        "tests/test_numbers.py::TestIntAdd::test_group_laws_read_the_shift_maps",
    ),
    (
        "group.py",
        "        stabs[b]\n",
        "        stabilizer(A, b).members\n",
        "tests/test_group.py::TestActions::test_stabilizer_suite_builds_each_stabilizer_once",
    ),
    (
        "numbers.py",
        "tb == {x: x + b for x in",
        "tb == {x: x - b for x in",
        "tests/test_numbers.py::TestIntAdd::test_honest_windows_pass_on_the_certificate",
    ),
    (
        "numbers.py",
        "    if _translates(t, le, N):\n",
        "    if True:\n",
        "tests/test_numbers.py::TestIntAdd::test_group_laws_read_the_shift_maps",
    ),
    (
        "numbers.py",
        "L == read(T, [at[p.num, -p.den] for p in grid])",
        "L == read(L, [at[p.num, -p.den] for p in grid])",
        "tests/test_numbers.py::TestDualTable::test_verdicts_match_the_pairwise_comparisons[honest]",
    ),
    (
        "numbers.py",
        "L == read(T, [at[-p.num, p.den] for p in grid])",
        "L == read(T, [at[p.num, -p.den] for p in grid])",
        "tests/test_numbers.py::TestDualTable::"
        "test_verdicts_match_the_pairwise_comparisons[den-sign-blind]",
    ),
    (
        "numbers.py",
        "cols = [read(T, [at[a, x] for x in xs]) for a in xs]",
        "cols = [read(L, [at[a, x] for x in xs]) for a in xs]",
        "tests/test_numbers.py::TestDualTable::test_verdicts_match_the_pairwise_comparisons[honest]",
    ),
    (
        "suites.py",
        "for row, col in zip(L, zip(*L))",
        "for row, col in zip(L, L)",
        "tests/test_numbers.py::TestRationalSuite::test_total_reads_the_order_on_every_grid_pair",
    ),
    (
        "numbers.py",
        "inner_bits = (1 << 2 * N) - 1",
        "inner_bits = (1 << 2 * N + 1) - 1",
        "tests/test_numbers.py::TestDiscrete::test_smallest_window",
    ),
    (
        "core.py",
        "return self._values() == other._values()",
        "return self._values()[:1] == other._values()[:1]",
        "tests/test_core.py::test_records_have_the_dataclass_repr_equality_and_hash",
    ),
    (
        "core.py",
        "        if sorted(seen) != list(carrier):\n",
        "        if False:\n",
        "tests/test_core.py::test_partition_checks_its_blocks_in_the_constructor",
    ),
    (
        "report.py",
        "    def __init__(self, suite: str, checks: list[Check] | None = None):\n"
        "        self.suite = suite\n"
        "        self.checks = [] if checks is None else checks\n",
        "    def __init__(self, suite: str, checks: list[Check] = []):\n"
        "        self.suite = suite\n"
        "        self.checks = checks\n",
        "tests/test_core.py::test_law_reports_never_share_a_checks_list",
    ),
    (
        "report.py",
        '            raise KeyError("no law %r in report.LAWS" % (law,))\n',
        "            row = (LAW, law)\n",
        "tests/test_hygiene.py::test_an_unknown_law_id_raises",
    ),
    (
        "docs.py",
        "    return sorted(out)\n\n\ndef _symbols",
        "    return out\n\n\ndef _symbols",
        "tests/test_cli.py::TestOrderInvariance::"
        "test_check_ignores_the_order_of_every_set[nattrans_identity.json]",
    ),
    (
        "cli.py",
        "        if kind != UNIT\n",
        "",
        "tests/test_cli.py::TestFormats::test_formats_prints_schema_and_catalogue",
    ),
    (
        "group.py",
        "    return normality_witness(G, N) is None\n",
        "    return True\n",
        "tests/test_group.py::TestQuotients::test_non_normal_subgroup_rejected",
    ),
    (
        "category.py",
        "{s: tuple(ns) for s, ns in out.items()}",
        "{s: tuple(n for n in ns if n != names[0]) for s, ns in out.items()}",
        "tests/test_category.py::TestArrowIndexes::test_indexes_match_the_scans[fixtures]",
    ),
    (
        "group.py",
        "    while len({tuple(img[:m]) for img in images}) < len(images):\n",
        "    while len({tuple(img[:m + 1]) for img in images}) < len(images):\n",
        "tests/test_group.py::TestCayleyNaming::test_bijection_groups_on_up_to_four_points",
    ),
    (
        "group.py",
        "todo.extend((t, s2) for s2 in gens)",
        "todo.extend((t, s2) for s2 in gens[:-1])",
        "tests/test_group.py::TestCayleyNaming::"
        "test_planted_perm_sets_are_certified_or_get_the_spelled_error",
    ),
    (
        "group.py",
        "    if any(p != _perm_name(f.assign) for p, f in zip(names, perms)):\n        return None\n",
        "",
        "tests/test_group.py::TestCayleyNaming::test_names_that_are_not_spellings_get_the_spelled_error",
    ),
    (
        "group.py",
        "G.op[(A.elements[0], B.elements[0])]",
        "G.op[(A.elements[0], A.elements[0])]",
        "tests/test_group.py::TestQuotients::"
        "test_one_representative_per_coset_gives_the_all_representatives_table",
    ),
    (
        "group.py",
        "if row == ident and all(t[i] == k for k, t in enumerate(T))",
        "if row == ident",
        "tests/test_group.py::TestPositionTable::test_every_table_on_three_symbols_and_its_broken_cells",
    ),
    (
        "group.py",
        "    if T is None or any(None in row for row in T):\n",
        "    if T is None:\n",
        "tests/test_group.py::TestPositionTable::test_every_table_on_three_symbols_and_its_broken_cells",
    ),
    (
        "group.py",
        "list(map(A.act[a].assign.__getitem__, values[b])) != values[A.group.op[(a, b)]]",
        "list(map(A.act[a].assign.__getitem__, values[b][:1])) != values[A.group.op[(a, b)]][:1]",
        "tests/test_group.py::TestActionValueLists::test_every_assignment_of_self_maps_for_z2_and_z3",
    ),
    (
        "group.py",
        "if f.dom != A.carrier or f.cod != A.carrier:",
        "if f.dom != A.carrier and f.cod != A.carrier:",
        "tests/test_group.py::TestActions::test_a_map_into_another_set_is_no_action",
    ),
    (
        "suites.py",
        "drop = 8 - span.bit_length()",
        "drop = 7 - span.bit_length()",
        "tests/test_numbers.py::TestSampler::test_draws_what_randint_draws[0--50-50]",
    ),
    (
        "suites.py",
        "if t >> drop >= span)",
        "if t >> drop > span)",
        "tests/test_numbers.py::TestSampler::test_draws_what_randint_draws[0--100-100]",
    ),
    (
        "suites.py",
        "at = (50).__add__",
        "at = (49).__add__",
        "tests/test_numbers.py::TestIntegerUnits::test_verdicts_and_witnesses_match_the_loops[honest-0]",
    ),
    (
        "numbers.py",
        "_less(left, syms[2 * N + 1 - k])",
        "_less(left, syms[k - 1])",
        "tests/test_numbers.py::TestShiftMapCarriers::test_carriers_are_the_inter_scans",
    ),
    (
        "order.py",
        "if f.dom != P.carrier or f.cod != Q.carrier:",
        "if f.dom != P.carrier:",
        "tests/test_order.py::TestFunctorOrder::test_a_map_off_the_carriers_is_refused",
    ),
    (
        "suites.py",
        "ok_laws = False",
        "pass",
        "tests/test_order.py::TestLattices::test_lattice_laws_unit_fails_when_a_lattice_fails_its_laws",
    ),
    (
        "suites.py",
        "ok_max = False",
        "pass",
        "tests/test_order.py::TestChainsAndZorn::test_zorn_maximal_unit_fails_when_the_top_is_not_maximal",
    ),
    (
        "suites.py",
        "fixed_ok = False",
        "pass",
        "tests/test_group.py::TestActions::test_fixed_coset_unit_fails_when_the_action_fixes_every_coset",
    ),
    (
        "suites.py",
        "principal_ok = False",
        "pass",
        "tests/test_settools.py::TestFilterTheorems::test_principal_unit_fails_when_the_meet_is_wrong",
    ),
    (
        "docs.py",
        '        r.add("top-axioms", False, e.witness)\n        return r\n',
        "        return r\n",
        "tests/test_cli.py::TestFailedPremises::test_a_topology_that_fails_its_axioms",
    ),
    (
        "docs.py",
        "    if not r.passed:\n        return r\n    h = _hom(doc, src, tgt)\n",
        "    h = _hom(doc, src, tgt)\n",
        "tests/test_cli.py::TestFailedPremises::test_a_hom_whose_source_table_fails",
    ),
    (
        "docs.py",
        "    if G is None:\n        return r\n    r.merge(group.action_check(",
        "    r.merge(group.action_check(",
        "tests/test_cli.py::TestFailedPremises::test_an_action_whose_group_table_fails",
    ),
    (
        "docs.py",
        "if not isinstance(v, int) or isinstance(v, bool) or v < 1:",
        "if not isinstance(v, int) or v < 1:",
        "tests/test_cli.py::TestSchemaErrors::test_a_spoiled_document_is_one_error_line[window-true]",
    ),
    (
        "docs.py",
        "        if (g, f) in seen:\n"
        '            raise SchemaError("comp defines the cell (%s, %s) twice" % (g, f))\n',
        "",
        "tests/test_cli.py::TestSchemaErrors::test_a_spoiled_document_is_one_error_line"
        "[comp-cell-twice]",
    ),
]

# seconds that one row's pytest node may run; a mutant that makes its
# node loop is killed when this runs out
TIMEOUT = 300


def run_mutant(module, fragment, replacement, node) -> str:
    """'killed', 'killed (timeout)', 'SURVIVED', or an error naming what
    kept the row from running."""
    text = (SRC / module).read_text(encoding="utf-8")
    found = text.count(fragment)
    if found != 1:
        return "ERROR: fragment found %d times in %s" % (found, module)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "structa"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / module).write_text(text.replace(fragment, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import structa; print(structa.__file__)"],
            env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(copy)):
            return "ERROR: structa was imported from %r, not from the copy" % where
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return "ERROR: pytest exited %d\n%s" % (done.returncode, done.stdout[-2000:])


def main() -> int:
    bad = 0
    for i, (module, fragment, replacement, node) in enumerate(MUTANTS, 1):
        verdict = run_mutant(module, fragment, replacement, node)
        bad += not verdict.startswith("killed")
        print("%d. %s: %s -> %s" % (i, module, fragment.split("\n")[0], verdict), flush=True)
    print("%d of %d mutants killed" % (len(MUTANTS) - bad, len(MUTANTS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
