"""Hygiene checks on src/structa, read from the source with ``ast``.

Every module-level import is used in its module, and every class of
``errors.py`` is raised or caught somewhere in the package, so deleting
the last caller of a name cannot leave its import or its error class
behind. Every top-level function is reached from the CLI or the suite
runner, or is named in ``KEPT_API``, so deleting the last caller of a
function cannot leave it behind either. Only ``core.Frozen`` writes the
immutable-value contract, and ``structa formats`` lists every law id
that a library report can emit.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "structa"
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


def emitted_law_ids() -> set:
    """The literal law id of every ``.add(law, statement, passed, ...)``
    call outside ``suites.py``, whose unit reports are not in the
    catalogue, and the ids of the law tables that feed ``.add`` through a
    variable."""
    from structa.category import _FUNCTOR_LAWS
    from structa.core import _IMAGE_LAWS
    from structa.top import _CLOSURE_LAWS

    ids = set(_IMAGE_LAWS) | set(_CLOSURE_LAWS)
    for prefix, (_, _, comp_law, _) in _FUNCTOR_LAWS.items():
        ids |= {prefix + "-endpoints", prefix + "-unit", comp_law}
    for path in MODULES:
        if path.name == "suites.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and len(node.args) + len(node.keywords) >= 3
                and isinstance(node.args[0], ast.Constant)
            ):
                ids.add(node.args[0].value)
    return ids


def test_the_catalogue_lists_every_emitted_law():
    from structa.cli import _law_catalogue

    assert sorted(emitted_law_ids() - set(_law_catalogue())) == []


# Top-level functions that no CLI or suite path reaches and that stay on
# purpose: documented library API, and two functions that only the
# benchmark calls.
KEPT_API = {
    "category.cayley": "library API; a name-only scan mistakes docs' group.cayley for its caller",
    "category.compare_representations": "library API",
    "category.dagger": "library API, reached from compare_representations",
    "category.hcompose": "library API",
    "category.hom_bifunctor": "library API",
    "category.slice_nat": "library API",
    "category.yoneda": "library API",
    "core.fold": "library API",
    "core.inverse": "library API",
    "core.select": "library API",
    "docs.to_structure": "perfbench calls it; item 5 deletes it",
    "group.power": "library API",
    "numbers.int_add_direct": "perfbench calls it; item 5 deletes it",
    "order.functor_order": "library API",
    "order.zorn_maximal": "library API",
}

# the console script, and the suite runner that ``structa suite`` and
# the package export share
ENTRY_POINTS = [("cli", "main"), ("suites", "run_suite")]


def reached_functions():
    """(every top-level function as ``module.name``, the ones a fixpoint
    scan reaches). The scan starts from the entry points and from each
    module's top-level statements other than definitions and imports,
    which run on import. A reached function or class reaches every
    top-level definition that a name in its body resolves to: one of its
    module, one a module-level ``from .m import`` brings in, or one that
    a ``from .m import`` inside the body names."""
    defs, aliases, todo = {}, {}, []
    for path in MODULES:
        mod = path.stem
        aliases[mod] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    for a in node.names:
                        aliases[mod][a.asname or a.name] = (node.module, a.name)
            elif not isinstance(node, ast.Import):
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
                keys = [resolve(mod, sub.id)]
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
                keys = [resolve(sub.module, a.name) for a in sub.names]
            else:
                continue
            for key in keys:
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
