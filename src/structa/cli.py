"""The ``structa`` command line.

Commands: ``check`` runs a document's law suite, ``derive`` computes a
new document from an old one, ``suite`` runs a named acceptance bundle,
and ``formats`` prints the document schema and the law catalogue.

Exit codes: 0 when every check passes, 1 on a failed law, 2 on usage,
syntax, or schema errors. Output is UTF-8 whatever the locale, and
deterministic: byte-identical across runs. Checks run serially; every
subcommand accepts ``--jobs N`` for compatibility, and N changes neither
the work done nor the output.

The commands import the library at call time, for the same reason the
suites do: tests replace ``suites.run_suite`` on its module with
monkeypatch, and perfbench's worker wraps ``cli.main`` and the ``docs``
entry points (``parse``, ``run_check``, ``run_derive``, ``render``) the
same way. A module-level ``from .x import f`` would bind the original.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ParseError, SchemaError, StructaError, TooLarge
from .report import LawReport


def _law_catalogue():
    """Every law id with its statement, collected from the ``check``
    report of every shipped fixture and from representative reports of
    the laws that no fixture reaches."""
    from .core import FinMap, finset, image_calculus, fiber_union_check
    from .category import (
        check_contravariant,
        check_set_functor,
        constant_functor,
        from_poset,
        hom_functors,
        identity_functor,
        identity_nat,
        interchange_check,
        op_universe_check,
        yoneda_embedding,
    )
    from .group import (
        abelianization_check,
        cyclic_group,
        regular_action,
        stabilizer_suite,
        transfer_check,
        zp_field,
        linear_space_check,
        cyclic_subgroup,
        hom_check,
    )
    from .order import (
        chain_poset,
        check_order,
        galois_check,
        lattice_from_poset,
        lattice_laws,
        completeness_laws,
    )
    from .settools import (
        Family,
        family_image_laws,
        nest_identities,
        power_functor_check,
        refinement_laws,
        set_law_suite,
        ultrafilter_suite,
    )
    from .top import closure_check, discrete_closure
    from .docs import parse, run_check
    from .suites import fixtures_dir

    ab = finset("a", "b")
    f = FinMap(ab, ab, {"a": "b", "b": "a"})
    P2 = chain_poset(["a", "b"])
    C2 = from_poset(P2)
    Z1, Z2 = cyclic_group(1), cyclic_group(2)
    lt = lattice_from_poset(P2)
    reports = [
        image_calculus(f, ab, ab, families=([ab], [finset("a"), ab])),
        fiber_union_check(f, ab, ab),
        fiber_union_check(FinMap.constant(ab, ab, "a"), ab, ab),
        check_order(ab, P2.pairs),
        lattice_laws(lt),
        completeness_laws(P2),
        galois_check(FinMap.identity(ab), FinMap.identity(ab), P2, P2),
        check_contravariant(constant_functor(C2, C2, "a")),
        check_set_functor(hom_functors(C2, "a")[0]),
        op_universe_check([C2]),
        yoneda_embedding(C2),
        interchange_check(
            identity_nat(identity_functor(C2)),
            identity_nat(identity_functor(C2)),
            identity_nat(identity_functor(C2)),
            identity_nat(identity_functor(C2)),
        ),
        transfer_check(hom_check(Z2, Z2, FinMap.identity(Z2.carrier)), finset("g0")),
        transfer_check(hom_check(Z1, Z2, FinMap(Z1.carrier, Z2.carrier, {"g0": "g0"})), Z1.carrier),
        abelianization_check(Z2, cyclic_subgroup(Z2, "g0")),
        stabilizer_suite(regular_action(Z2), "g0"),
        linear_space_check(
            zp_field(2),
            Z2,
            {
                "k0": FinMap.constant(Z2.carrier, Z2.carrier, "g0"),
                "k1": FinMap.identity(Z2.carrier),
            },
        ),
        power_functor_check(f, f),
        family_image_laws(f, Family(ab, [finset("a")]), Family(ab, [finset("b")])),
        set_law_suite(ab, ab, ab, Family(ab, [finset("a")])),
        nest_identities([finset("a"), ab], ab),
        nest_identities([finset("a"), finset("b")], ab),
        refinement_laws(ab),
        ultrafilter_suite(ab),
        closure_check(discrete_closure(ab)),
        *(run_check(parse(str(p))) for p in sorted(fixtures_dir().glob("*.json"))),
    ]
    seen = {}
    for rep in reports:
        for c in rep.checks:
            seen.setdefault(c.law, c.statement)
    return dict(sorted(seen.items()))


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def _build_parser():
    p = argparse.ArgumentParser(
        prog="structa",
        description="exact finite structures with machine-checked laws",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads, except --jobs,
    # which every subcommand accepts and ignores
    def json_flag(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON reports")

    def jobs_flag(sp):
        sp.add_argument(
            "--jobs", type=_positive_int, default=1, metavar="N",
            help="accepted for compatibility; checks run serially, and N "
            "changes neither the work done nor the output",
        )

    ck = sub.add_parser("check", help="run a document's law suite")
    ck.add_argument("files", nargs="+", metavar="FILE")
    json_flag(ck)
    ck.add_argument(
        "--max-size", type=_positive_int, default=None, metavar="N",
        help="override enumeration guards",
    )
    jobs_flag(ck)

    dv = sub.add_parser("derive", help="compute a new document")
    dv.add_argument("op", metavar="OP")
    dv.add_argument("file", metavar="FILE")
    dv.add_argument("args", nargs="*", metavar="ARG")
    dv.add_argument("-o", "--output", default=None, metavar="OUT")
    jobs_flag(dv)

    st = sub.add_parser("suite", help="run a named acceptance bundle")
    st.add_argument("name", metavar="NAME")
    json_flag(st)
    st.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="seed for randomized checks (env: STRUCTA_SEED)",
    )
    jobs_flag(st)

    fm = sub.add_parser("formats", help="print the document schema")
    json_flag(fm)
    jobs_flag(fm)
    return p


# built once per process: parse_args returns a fresh namespace on every
# call and keeps no state in the parser
_PARSER = _build_parser()


def _emit_report(name: str, report: LawReport, as_json: bool, out):
    if as_json:
        out.write(json.dumps({"target": name, **report.to_json()},
                             sort_keys=True, indent=2) + "\n")
    else:
        out.write("== %s\n%s\n" % (name, report.render_text()))


def _cmd_check(ns, out) -> int:
    """Check each file in order. A file that cannot be checked gets one
    stderr line naming it; the others still report, and the exit code
    is the worst one."""
    from .docs import is_literal, parse, run_check

    code = 0
    for path in ns.files:
        try:
            rep = run_check(parse(path), max_size=ns.max_size)
        except StructaError as e:
            out.flush()  # keep stdout and stderr in file order when merged
            code = max(code, _report_error(e, None if is_literal(path) else path))
            continue
        _emit_report(path, rep, ns.json, out)
        code = max(code, 0 if rep.passed else 1)
    return code


def _cmd_derive(ns, out) -> int:
    from .docs import parse, render, run_derive

    doc = run_derive(parse(ns.file), ns.op, ns.args)
    text = render(doc)
    if ns.output:
        try:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print("error: cannot write %s: %s" % (ns.output, e.strerror or e), file=sys.stderr)
            return 2
    else:
        out.write(text)
    return 0


def _cmd_suite(ns, out) -> int:
    from .suites import run_suite

    seed = ns.seed
    if seed is None:
        env = os.environ.get("STRUCTA_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            print("error: STRUCTA_SEED must be an integer, got %r" % env, file=sys.stderr)
            return 2
    rep = run_suite(ns.name, seed=seed)
    _emit_report(ns.name, rep, ns.json, out)
    return 0 if rep.passed else 1


def _cmd_formats(ns, out) -> int:
    # the schema is one file, shipped with the package as the fixtures are
    with open(os.path.join(os.path.dirname(__file__), "format.md"), encoding="utf-8") as fh:
        spec = fh.read()
    catalogue = _law_catalogue()
    if ns.json:
        out.write(json.dumps({"schema": spec, "laws": catalogue},
                             sort_keys=True, indent=2) + "\n")
        return 0
    out.write(spec)
    out.write("\nLaw catalogue (law id: statement)\n")
    out.write("=================================\n\n")
    width = max(len(law) for law in catalogue)
    for law, statement in catalogue.items():
        out.write("  %-*s  %s\n" % (width, law, statement))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "derive": _cmd_derive,
    "suite": _cmd_suite,
    "formats": _cmd_formats,
}


def _report_error(e: StructaError, path=None) -> int:
    """Print one stderr line for e, prefixed with the file it concerns
    if given, and return its exit code."""
    prefix = "%s: " % path if path is not None else ""
    if isinstance(e, ParseError):
        where = ""
        if e.line is not None:
            where = " (line %s, column %s)" % (e.line, e.column)
        print("parse error: %s%s%s" % (prefix, e, where), file=sys.stderr)
        return 2
    if isinstance(e, (SchemaError, TooLarge)):
        print("error: %s%s" % (prefix, e), file=sys.stderr)
        return 2
    print("failed: %s%s" % (prefix, e), file=sys.stderr)
    return 1


def _utf8(stream):
    """Make a text stream write UTF-8, as documents are, whatever the
    locale. A stream without ``reconfigure``, such as a StringIO, holds
    text and is left alone."""
    reconfigure = getattr(stream, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(encoding="utf-8", errors=stream.errors)


def main(argv=None) -> int:
    _utf8(sys.stdout)
    _utf8(sys.stderr)
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return _COMMANDS[ns.command](ns, sys.stdout)
    except StructaError as e:
        return _report_error(e)


if __name__ == "__main__":
    sys.exit(main())
