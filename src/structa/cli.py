"""The ``structa`` command line.

Commands: ``check`` runs a document's law suite, ``derive`` computes a
new document from an old one, ``suite`` runs a named acceptance bundle,
and ``formats`` prints the document schema and the law catalogue: the
rows of ``report.LAWS`` other than the suites' unit checks.

Exit codes: 0 when every check passes, 1 on a failed law, 2 on usage,
syntax, or schema errors. Output is UTF-8 whatever the locale, and
deterministic: byte-identical across runs. Checks run serially; every
subcommand accepts ``--jobs N`` for compatibility, and N changes neither
the work done nor the output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import docs, suites
from .errors import ParseError, SchemaError, StructaError, TooLarge
from .report import INFO, LAWS, UNIT, LawReport


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
    code = 0
    for path in ns.files:
        try:
            rep = docs.run_check(docs.parse(path), max_size=ns.max_size)
        except StructaError as e:
            out.flush()  # keep stdout and stderr in file order when merged
            code = max(code, _report_error(e, None if docs.is_literal(path) else path))
            continue
        _emit_report(path, rep, ns.json, out)
        code = max(code, 0 if rep.passed else 1)
    return code


def _cmd_derive(ns, out) -> int:
    doc = docs.run_derive(docs.parse(ns.file), ns.op, ns.args)
    text = docs.render(doc)
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
    seed = ns.seed
    if seed is None:
        env = os.environ.get("STRUCTA_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            print("error: STRUCTA_SEED must be an integer, got %r" % env, file=sys.stderr)
            return 2
    rep = suites.run_suite(ns.name, seed=seed)
    _emit_report(ns.name, rep, ns.json, out)
    return 0 if rep.passed else 1


def _cmd_formats(ns, out) -> int:
    # the schema is one file, shipped with the package as the fixtures are
    with open(os.path.join(os.path.dirname(__file__), "format.md"), encoding="utf-8") as fh:
        spec = fh.read()
    # every row but the suites' unit checks; an info row shows the text
    # of its first observation
    catalogue = {
        law: text[0] if kind == INFO else text
        for law, (kind, text) in sorted(LAWS.items())
        if kind != UNIT
    }
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
