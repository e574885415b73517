"""Hygiene checks on src/structa, read from the source with ``ast`` and
from one traced run of the commands.

Every module-level import is used in its module, every import in a
function body is used in that function, no function body but one
imports a structa module (the library is imported at the top, module by
module, and called through the module, so a function replaced on its
module is seen at the call), and every class of
``errors.py`` is raised or caught somewhere in the package, so deleting
the last caller of a name cannot leave its import or its error class
behind. One run of the commands in a fresh interpreter, under a profile
hook, records which functions they call and which laws they add. Every
``def`` but a dunder (function, method or nested function) is called by
that run, or is named in ``KEPT_API`` with a reason of a fixed form (a
quote of the paper, a kept caller, the function whose failure alone
reaches it, the ROADMAP item that deletes it, or the printed law
statement that names it), so deleting the last caller of a function
cannot leave it behind either. Only ``core.Frozen`` writes the
immutable-value contract. The ids that ``LawReport.add`` calls emit
are exactly the rows of ``report.LAWS``, and each row's kind agrees with
the verdicts its call sites pass. The catalogue ids that no command of
the run adds are a pinned list, each family with its reason. Each
by-construction row that is a theorem of earlier rows is added after
those rows passed, in the same report. Each row of
``tests/mutants.py`` names a fragment found once in its module and a
test that exists. Importing structa loads none of ``dataclasses``,
``inspect`` and ``typing``.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "structa"
MODULES = sorted(SRC.glob("*.py"))


def names_used(tree) -> set:
    """Every name the module reads, with the first part of each dotted
    name, and every name listed in ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = names_used(tree)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    assert sorted(n for n in imported if n not in used) == []


def own_imports(func) -> list:
    """The names a function's import statements bind, outside the
    functions and classes nested in it."""
    out, todo = [], list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_function_level_import_is_used_in_its_function(path):
    # a nested function may use its enclosing function's import
    unused = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef):
            used = names_used(node)
            unused += [(node.name, n) for n in own_imports(node) if n not in used]
    assert sorted(unused) == []


# (module file, function, the module it imports). ``python -m
# structa.cli`` runs cli.py as __main__, and runpy warns on stderr when
# ``import structa`` has already loaded structa.cli; so the cli suite,
# which calls cli.main, imports cli when it runs.
CALL_TIME_IMPORTS = [("suites.py", "suite_cli", "cli")]


def structa_modules(node) -> list:
    """The structa modules an import statement imports from or imports:
    ``from .x import f``, ``from . import x`` or ``import structa.x``."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [node.module]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return []
    return [n for n in names if n.split(".")[0] == "structa"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_imports_a_structa_module(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef):
            found += [(path.name, node.name, m)
                      for sub in ast.walk(node) for m in structa_modules(sub)]
    assert found == [row for row in CALL_TIME_IMPORTS if row[0] == path.name]


def handled_names(tree) -> set:
    """The exception names that a ``raise`` or an ``except`` mentions."""
    out = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Raise) and node.exc is not None:
            targets.append(node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            targets.append(node.type)
        for t in targets:
            out |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
            out |= {n.attr for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    return out


def test_every_error_class_is_raised_or_caught():
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = [n.name for n in errors.body if isinstance(n, ast.ClassDef)]
    handled = set()
    for path in MODULES:
        handled |= handled_names(ast.parse(path.read_text(encoding="utf-8")))
    assert classes and sorted(c for c in classes if c not in handled) == []


FROZEN_DUNDERS = {"__setattr__", "__delattr__", "__reduce__"}


def test_only_frozen_defines_the_immutable_value_contract():
    defined = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name != "Frozen":
                defined += [(path.name, node.name, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and f.name in FROZEN_DUNDERS]
    assert defined == []


def law_sites() -> list:
    """(module file, law id, verdict node) for every ``LawReport.add``
    call: an ``.add`` with a verdict argument. A literal id is itself; a
    computed one stands for each id of the family table it reads: the
    image laws of ``core``, the closure laws of ``top`` (the ids its
    kernel returns) and the functor scan of ``category``."""
    from structa.core import _IMAGE_LAWS
    from structa.top import _closure_laws

    families = {
        "core.py": sorted(_IMAGE_LAWS),
        # the identity closure on one point, with the strict laws
        "top.py": [law for law, _ in _closure_laws([0, 1], [0, 1], strict=True)],
        "category.py": [prefix + law for prefix in ("fun", "sr")
                        for law in ("-endpoints", "-unit", "-comp")],
    }
    sites = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and len(node.args) >= 2
            ):
                continue
            law, verdict = node.args[0], node.args[1]
            if isinstance(law, ast.Constant):
                sites.append((path.name, law.value, verdict))
            else:
                assert path.name in families, (path.name, node.lineno)
                sites += [(path.name, fed, verdict) for fed in families[path.name]]
    return sites


def test_every_emitted_law_has_a_row_and_every_row_is_emitted():
    from structa.report import LAWS

    emitted = {law for _, law, _ in law_sites()}
    assert sorted(emitted - set(LAWS)) == []
    assert sorted(set(LAWS) - emitted) == []


def test_each_row_is_added_as_its_kind_says():
    # a check that holds by construction, or a skip, is added only as
    # passed; a law can fail at one call site at least; the unit rows
    # are the acceptance checks that the suites add
    from structa.report import BY_CONSTRUCTION, LAW, LAWS, SKIP, UNIT

    verdicts, modules = {}, {}
    for module, law, verdict in law_sites():
        literal = isinstance(verdict, ast.Constant) and verdict.value is True
        verdicts.setdefault(law, set()).add(literal)
        modules.setdefault(law, set()).add(module)
    kinds = {law: kind for law, (kind, _) in LAWS.items()}
    assert sorted(law for law, kind in kinds.items()
                  if kind in (BY_CONSTRUCTION, SKIP) and verdicts[law] != {True}) == []
    assert sorted(law for law, kind in kinds.items()
                  if kind == LAW and False not in verdicts[law]) == []
    assert sorted(law for law, kind in kinds.items()
                  if (kind == UNIT) != (modules[law] == {"suites.py"})) == []


def test_an_unknown_law_id_raises():
    # a real raise, so that python -O keeps it
    from structa.report import LawReport

    r = LawReport("s")
    for law in ("no-such-law", "fn-laws-1-1", "ab-minimal "):
        with pytest.raises(KeyError, match="report.LAWS"):
            r.add(law, True)
    assert r.checks == []


def test_formats_adds_no_check(monkeypatch, capsys):
    # formats prints the table; it builds no report to find the statements
    from structa import cli
    from structa.report import LawReport

    calls, add = [], LawReport.add

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(LawReport, "add", counted)
    assert cli.main(["formats"]) == 0
    assert cli.main(["formats", "--json"]) == 0
    assert "Law catalogue" in capsys.readouterr().out
    assert calls == []


# The catalogue ids (the rows that ``formats`` prints) that no command of
# ``TRACED_RUN`` adds, by the reason each family is missing. A family
# that a command comes to add leaves this list; an id joins it only when
# a command still evaluates it, in a kernel that adds no row on the
# passing path.
NEVER_ADDED = {
    "suite functions evaluates these in the column kernel core._image_laws and "
    "builds a report only for the first instance that fails": (
        "fib-prop", "fib-prop-onedir",
        "img-inter", "img-inter-monic", "img-union", "pre-diff", "pre-inter", "pre-union",
    ),
}


# One run of the commands in a fresh interpreter: every suite at seed 0
# and ``suite sigma --json``, ``formats`` in text and JSON, ``check`` on
# every fixture and one ``check --json``, every derive op on every
# fixture and the two ``quotient`` forms of each group fixture, and two
# usage errors. The profile hook is set before structa is imported, so a
# call made on import counts. The script prints, as JSON, the package
# directory, (module, first line) of each package code object that ran,
# and (report, law id, verdict) for each ``LawReport.add`` call, in call
# order, with a report given as its index.
TRACED_RUN = """
import contextlib, io, json, os, sys

code_objects = set()


def profile(frame, event, arg):
    if event == "call":
        code_objects.add(frame.f_code)


sys.setprofile(profile)
import structa
from structa import cli, docs, suites
from structa.report import LawReport

package = os.path.dirname(structa.__file__)
root = os.path.join(package, "fixtures")
fixtures = [os.path.join(root, n) for n in sorted(os.listdir(root)) if n.endswith(".json")]
fixtures += [os.path.join(root, "bad", n) for n in sorted(os.listdir(os.path.join(root, "bad")))]
runs = [["suite", name, "--seed", "0"] for name in suites.SUITES]
runs += [["suite", "sigma", "--seed", "0", "--json"], ["formats"], ["formats", "--json"]]
runs += [["check", path] for path in fixtures] + [["check", "--json", fixtures[0]]]
for path in fixtures:
    runs += [["derive", op, path] for op in sorted(docs.DERIVE_OPS)]
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError:
        continue
    if doc.get("kind") == "group":
        runs += [["derive", "quotient", path, *doc["carrier"]],
                 ["derive", "quotient", path, doc["carrier"][0]]]
runs += [["nope"], ["suite", "nope"]]

# each report is held, so no two of them share an id
reports, adds, add = {}, [], LawReport.add


def recorded(self, law, passed, *args, **kwargs):
    adds.append((reports.setdefault(id(self), (len(reports), self))[0], law, bool(passed)))
    return add(self, law, passed, *args, **kwargs)


LawReport.add = recorded
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        cli.main(argv)
sys.setprofile(None)
called = {(os.path.basename(c.co_filename)[:-3], c.co_firstlineno)
          for c in code_objects if os.path.dirname(c.co_filename) == package}
json.dump({"package": package, "called": sorted(called), "adds": adds}, sys.stdout)
"""


@pytest.fixture(scope="module")
def traced_run():
    """What ``TRACED_RUN`` prints, with ``package`` a ``Path`` and
    ``called`` a set. The fresh interpreter imports the structa that
    these tests import, such as a mutated copy first on ``PYTHONPATH``."""
    import structa

    package = Path(structa.__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert Path(run["package"]).resolve() == package
    return dict(run, package=package, called={tuple(c) for c in run["called"]})


def test_the_catalogue_ids_that_no_command_adds_are_the_pinned_ones(traced_run):
    from structa.report import LAWS, UNIT

    added = {law for _, law, _ in traced_run["adds"]}
    never = {law for law, (kind, _) in LAWS.items() if kind != UNIT} - added
    pinned = [law for ids in NEVER_ADDED.values() for law in ids]
    assert len(pinned) == len(set(pinned))
    assert sorted(never) == sorted(pinned)


# The by-construction rows that are theorems of earlier rows of their
# report, each with those rows: a checker adds it, unevaluated, only
# once its premises have passed in the same report.
GROUP_AXIOMS = ("grp-assoc", "grp-unit", "grp-inverse")
PREMISES = {
    "grp-inv-invol": GROUP_AXIOMS,
    "grp-unique-solutions": GROUP_AXIOMS,
    "grp-cancel": GROUP_AXIOMS,
    # the nucleus is the kernel of the homomorphism g -> act[g]
    "act-nul-subgroup": ("act-hom",),
}


def test_each_theorem_row_follows_its_premises_in_its_report(traced_run):
    from structa.report import BY_CONSTRUCTION, LAWS

    assert sorted(law for law in PREMISES if LAWS[law][0] != BY_CONSTRUCTION) == []
    passed, unmet, seen = {}, [], set()
    for report, law, verdict in traced_run["adds"]:
        earlier = passed.setdefault(report, set())
        if law in PREMISES:
            seen.add(law)
            unmet += [(law, p) for p in PREMISES[law] if p not in earlier]
        if verdict:
            earlier.add(law)
    assert unmet == []
    # not vacuous: every theorem row is reached
    assert sorted(seen) == sorted(PREMISES)


# The defs that no command of ``TRACED_RUN`` calls and that stay on
# purpose, each with its reason in one of the forms that
# ``test_each_kept_function_gives_a_reason_of_a_fixed_form`` accepts.
KEPT_API = {
    # the ordered group of functors: its operation and its unit
    "category.compose_functors": 'paper: "an ordered group of functors"',
    # L_pt is Cayley's embedding of a group into its permutations
    "category.hom_functors": 'paper: "as guaranteed by Cayley\'s Theorem"',
    "category.identity_functor": 'paper: "an ordered group of functors"',
    # a family is passed to image_calculus only for a witness
    "core._family_masks": "reached from suites._first_failure",
    "core.fiber_union_check": "reached from suites._first_failure",
    # the inverse of the isomorphism
    "core.inverse": 'paper: "an isomorphism from the group of integers"',
    "docs._b_action": "reached from docs.to_structure",
    "docs._b_hom": "reached from docs.to_structure",
    "docs._b_poset": "reached from docs.to_structure",
    # only perfbench calls these two
    "docs.to_structure": "item 5 deletes it",
    # n ↦ aⁿ
    "group.power": 'paper: "an isomorphism from the group of integers into the group of '
                   'automorphisms"',
    "numbers._commute": "reached from numbers._scan_laws",
    # the scans of a window whose shift tables are not translations
    "numbers._scan_laws": "fault-only: numbers._translates",
    "numbers._stack": "reached from numbers._scan_laws",
    "numbers.int_add_direct": "item 5 deletes it",
    "order.functor_order":
        'paper: "an ordered group of functors with a natural transformation between any two"',
    # suite zorn reads _zorn_chain; moving this would change a printed line
    "order.zorn_maximal": "statement of zorn-maximal-%d",
    # the witness of the first instance that fails an image or fibre law
    "suites._first_failure": "fault-only: core._image_laws",
}

# the five forms of a KEPT_API reason
REASON_FORMS = (
    re.compile(r'paper: "(?P<quote>[^"]+)"'),
    re.compile(r"reached from (?P<kept>\S+)"),
    re.compile(r"fault-only: (?P<failing>\S+)"),
    re.compile(r"item (?P<item>\d+) deletes it"),
    re.compile(r"statement of (?P<law>\S+)"),
)


def defined_functions(package) -> dict:
    """``module.qualname`` of every def of the package but a dunder, by
    (module, first line). A method is ``module.Class.name`` and a nested
    function ``module.outer.<locals>.name``, as ``__qualname__`` reads.
    The first line is a code object's: the first decorator's line for a
    decorated def. (``co_qualname`` would need no such match, but it
    needs Python 3.11.)"""
    out = {}

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out[(module, first)] = "%s.%s%s" % (module, prefix, child.name)
                visit(module, child, "%s%s.<locals>." % (prefix, child.name))
            elif isinstance(child, ast.ClassDef):
                visit(module, child, "%s%s." % (prefix, child.name))
            else:
                visit(module, child, prefix)

    for path in sorted(package.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def reach(traced_run) -> tuple:
    """(every def of the package but a dunder, the ones the run called),
    each as ``module.qualname``."""
    defs = defined_functions(traced_run["package"])
    called = {name for key, name in defs.items() if key in traced_run["called"]}
    return set(defs.values()), called


def reason_faults(name, reason, paper, items, laws, defined, called) -> list:
    """Why ``reason`` is not a valid reason for keeping ``name``: [] when
    it takes one of the five forms and what it cites holds."""
    match = next(filter(None, (form.fullmatch(reason) for form in REASON_FORMS)), None)
    if match is None:
        return ["%s: no fixed form" % name]
    cited = match.groupdict()
    if "quote" in cited and cited["quote"] not in paper:
        return ["%s: the quote is not in PAPER.md" % name]
    if "kept" in cited and cited["kept"] not in KEPT_API:
        return ["%s: %s is not kept" % (name, cited["kept"])]
    if "failing" in cited and cited["failing"] not in defined:
        return ["%s: there is no %s" % (name, cited["failing"])]
    if "failing" in cited and cited["failing"] not in called:
        return ["%s: the run never calls %s" % (name, cited["failing"])]
    if "item" in cited and cited["item"] not in items:
        return ["%s: ROADMAP.md has no item %s" % (name, cited["item"])]
    if "law" in cited and name.split(".")[-1] not in laws.get(cited["law"], (None, ""))[1]:
        return ["%s: the statement of %s does not name it" % (name, cited["law"])]
    return []


def test_every_function_has_a_library_caller(traced_run):
    defined, called = reach(traced_run)
    # the allowlist holds exactly the defs that the run never calls, so
    # it cannot go stale when one of them gains a caller or is deleted
    assert sorted(defined - called - set(KEPT_API)) == []
    assert sorted(set(KEPT_API) - (defined - called)) == []


def test_each_kept_function_gives_a_reason_of_a_fixed_form(traced_run):
    from structa.report import LAWS

    paper = (TESTS.parent / "PAPER.md").read_text(encoding="utf-8")
    roadmap = (TESTS.parent / "ROADMAP.md").read_text(encoding="utf-8")
    items = set(re.findall(r"^### (\d+)\.", roadmap, re.MULTILINE))
    cites = (paper, items, LAWS, *reach(traced_run))
    faults = []
    for name, reason in sorted(KEPT_API.items()):
        faults += reason_faults(name, reason, *cites)
    assert faults == []
    # and a reason of no form, or citing what does not hold, fails
    for reason in ("library API", 'paper: "a group of sets"', "reached from core.fold",
                   "item 99 deletes it", "statement of ab-minimal-%d",
                   'paper: "an ordered group of functors" and more',
                   "fault-only: numbers._no_such_function", "fault-only: docs.to_structure"):
        assert reason_faults("order.zorn_maximal", reason, *cites), reason


def test_each_mutant_row_has_one_fragment_and_names_a_test_that_exists():
    # checks tests/mutants.py's rows without running them, so a row that
    # a deletion made stale fails here, not only on the full gate
    spec = importlib.util.spec_from_file_location("mutants", TESTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    stale = []
    for module, fragment, _, node in mutants.MUTANTS:
        found = (SRC / module).read_text(encoding="utf-8").count(fragment)
        if found != 1:
            stale.append((node, module, "fragment found %d times" % found))
        path, *names = node.split("::")
        names[-1] = names[-1].split("[")[0]
        body = ast.parse((TESTS.parent / path).read_text(encoding="utf-8")).body
        for name in names:
            defs = [n for n in body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
            if not defs:
                stale.append((node, path, "no %s" % name))
                break
            body = defs[0].body
    assert mutants.MUTANTS
    assert stale == []


# dataclasses imports inspect (and with it ast, dis and tokenize) and
# generates code for every class it decorates; a fresh structa process
# pays for neither. report.Check is a collections.namedtuple, so typing
# stays out too.
NOT_ON_IMPORT = ("dataclasses", "inspect", "typing")


def test_importing_structa_loads_no_module_it_does_not_need():
    # -S: no site .pth file may preload a module and hide an import
    code = "\n".join([
        "import sys",
        *("import structa.%s" % p.stem for p in MODULES if p.stem != "__init__"),
        "loaded = [m for m in %r if m in sys.modules]" % (NOT_ON_IMPORT,),
        "assert loaded == [], loaded",
        "from structa import cli",
        "assert cli.main(['formats']) == 0",
    ])
    # the structa these tests import, such as a mutated copy first on PYTHONPATH
    import structa

    env = dict(os.environ, PYTHONPATH=str(Path(structa.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Law catalogue" in proc.stdout
