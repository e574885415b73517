"""Hygiene checks on src/structa, read from the source with ``ast``.

Every module-level import is used in its module, every import in a
function body is used in that function, no function body but one
imports a structa module (the library is imported at the top, module by
module, and called through the module, so a function replaced on its
module is seen at the call), and every class of
``errors.py`` is raised or caught somewhere in the package, so deleting
the last caller of a name cannot leave its import or its error class
behind. Every top-level function is reached from the CLI or the suite
runner, or is named in ``KEPT_API``, so deleting the last caller of a
function cannot leave it behind either. Only ``core.Frozen`` writes the
immutable-value contract. The ids that ``LawReport.add`` calls emit
are exactly the rows of ``report.LAWS``, and each row's kind agrees with
the verdicts its call sites pass. The catalogue ids that no suite and no
``check`` of a fixture adds are a pinned list, each family with its
reason. Each by-construction row that is a theorem of earlier rows is
added after those rows passed, in the same report. Each row of
``tests/mutants.py`` names a fragment found once in its module and a
test that exists. Importing structa loads none of ``dataclasses``,
``inspect`` and ``typing``.
"""

import ast
import contextlib
import importlib.util
import io
import os
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


# The catalogue ids (the rows that ``formats`` prints) that no suite at
# seed 0 and no ``check`` of a fixture adds, by the reason each family is
# missing. A family that a command comes to add leaves this list; no id
# may join it.
NEVER_ADDED = {
    "suite functions evaluates these through core._image_laws but adds a "
    "row only for an instance that fails": (
        "img-inter", "img-inter-monic", "img-union", "pre-diff", "pre-inter", "pre-union",
    ),
}


@pytest.fixture(scope="module")
def every_add():
    """(report, law id, verdict) for each ``LawReport.add`` call that the
    suites at seed 0 and ``check`` on every fixture make, in call order.
    Each report is held, so no two of them share an ``id``."""
    from structa import cli, suites
    from structa.report import LawReport

    calls, add = [], LawReport.add

    def recorded(self, law, passed, *args, **kwargs):
        calls.append((self, law, passed))
        return add(self, law, passed, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        patch.setattr(LawReport, "add", recorded)
        for name in suites.SUITES:
            suites.run_suite(name, seed=0)
        for path in sorted(suites.fixtures_dir().glob("**/*.json")):
            cli.main(["check", str(path)])
    return calls


def test_the_catalogue_ids_that_no_command_adds_are_the_pinned_ones(every_add):
    from structa.report import LAWS, UNIT

    added = {law for _, law, _ in every_add}
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


def test_each_theorem_row_follows_its_premises_in_its_report(every_add):
    from structa.report import BY_CONSTRUCTION, LAWS

    assert sorted(law for law in PREMISES if LAWS[law][0] != BY_CONSTRUCTION) == []
    passed, unmet, seen = {}, [], set()
    for report, law, verdict in every_add:
        earlier = passed.setdefault(id(report), set())
        if law in PREMISES:
            seen.add(law)
            unmet += [(law, p) for p in PREMISES[law] if p not in earlier]
        if verdict:
            earlier.add(law)
    assert unmet == []
    # not vacuous: every theorem row is reached
    assert sorted(seen) == sorted(PREMISES)


# Top-level functions that no CLI or suite path reaches and that stay on
# purpose: documented library API, one function that a printed law
# statement names, and two functions that only the benchmark calls.
KEPT_API = {
    "category.compare_representations": "library API",
    "category.compose_functors": "library API, reached from hcompose",
    "category.constant_functor": "library API",
    "category.dagger": "library API, reached from compare_representations",
    "category.hcompose": "library API",
    "category.hom_bifunctor": "library API",
    "category.hom_functors": "library API",
    "category.identity_functor": "library API",
    "category.slice_nat": "library API",
    "category.yoneda": "library API",
    "core.fold": "library API",
    "core.inverse": "library API",
    "core.select": "library API",
    "docs.to_structure": "perfbench calls it; item 5 deletes it",
    "group.power": "library API",
    "numbers.int_add_direct": "perfbench calls it; item 5 deletes it",
    "order.completeness_report": "library API",
    "order.functor_order": "library API",
    "order.is_directed": "library API, reached from completeness_report",
    "order.zorn_maximal":
        "the printed statement of zorn-maximal-%d names it; suite zorn reads _zorn_chain",
}


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


# the console script, and the suite runner that ``structa suite`` and
# the package export share
ENTRY_POINTS = [("cli", "main"), ("suites", "run_suite")]


def reached_functions():
    """(every top-level function as ``module.name``, the ones a fixpoint
    scan reaches). The scan starts from the entry points and from each
    module's top-level statements other than definitions and imports,
    which run on import. A reached function or class reaches every
    top-level definition that a name in its body resolves to: one of its
    module, or one a module-level ``from .m import`` brings in. It also
    reaches ``m.f`` for a module ``m`` that ``from . import m`` brings
    in."""
    defs, aliases, modules, todo = {}, {}, {}, []
    for path in MODULES:
        mod = path.stem
        aliases[mod], modules[mod] = {}, {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        modules[mod][a.asname or a.name] = a.name
                    else:
                        aliases[mod][a.asname or a.name] = (node.module, a.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.append((mod, node))

    def resolve(mod, name):
        seen = set()
        while (mod, name) not in defs and name in aliases.get(mod, {}) and (mod, name) not in seen:
            seen.add((mod, name))
            mod, name = aliases[mod][name]
        return (mod, name)

    todo += [(mod, defs[(mod, name)]) for mod, name in ENTRY_POINTS]
    reached = set(ENTRY_POINTS)
    while todo:
        mod, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                key = resolve(mod, sub.id)
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in modules[mod]
            ):
                key = resolve(modules[mod][sub.value.id], sub.attr)
            else:
                continue
            if key in defs and key not in reached:
                reached.add(key)
                todo.append((key[0], defs[key]))
    functions = {"%s.%s" % k for k, n in defs.items() if isinstance(n, ast.FunctionDef)}
    return functions, {"%s.%s" % k for k in reached}


def test_every_function_has_a_library_caller():
    functions, reached = reached_functions()
    # the allowlist holds exactly the unreached functions, so it cannot
    # go stale when one of them gains a caller or is deleted
    assert sorted(functions - reached) == sorted(KEPT_API)


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
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Law catalogue" in proc.stdout
