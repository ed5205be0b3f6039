"""List the top-level definitions of the package that no command reaches.

Usage::

    python3 scripts/unreached.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/nsympeak``.  The walk reads each module's
AST and starts from every definition and statement of ``cli.py`` and
``__main__.py`` and from every module-level statement of the other
modules that is not a definition or an import: code that runs at
import.  A top-level definition (a function, a class or a name
assigned at module level) is reached when a reached body names it: by
its own name in its module, through ``from .m import x`` (followed
through re-exports), or as ``m.x`` after ``from . import m``.  A class
is one definition, its body included.  Every name a body loads counts,
a local that happens to share a top-level name too, so the walk may
miss an unreached name but never flags a reached one.

One line is printed per unreached name, ``module.name``, followed by
the reason when the name is in ``KEPT``; dunder names such as
``__all__`` are left out.  The exit code is 1 when a name outside
``KEPT`` is unreached, or a ``KEPT`` entry is reached or gone, and 0
otherwise.
"""

import ast
import sys
from pathlib import Path

# Unreached on purpose: module.name -> why it stays in the package.
KEPT = {
    "elements.R": "the ribbon constructor of the README's entry points",
    "elements.zero": "the pair of one",
    "elements.coproduct_S": "the coproduct on S, to be folded into a general coproduct",
    "peak.rho_basis": "rho_I as an element, one of the README's entry points",
}

ROOTS = ("cli", "__main__")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _targets(stmt):
    """The names a module-level assignment binds."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


class Module:
    """One module's top-level definitions, imports and import-time code."""

    def __init__(self, name, tree):
        self.name = name
        self.defs = {}      # name -> the nodes that define it
        self.imports = {}   # local name -> (module, name), name None for a module
        self.runs = []      # module-level statements run at import
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                self.defs.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for name in _targets(stmt):
                    self.defs.setdefault(name, []).append(stmt)
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    self.imports[local] = ((stmt.module, alias.name) if stmt.module
                                           else (alias.name, None))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.runs.append(stmt)


def _uses(node):
    """Yield (name, attribute) for each name the node loads, with the
    attribute read from it when it is read as ``name.attribute``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, None
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            yield n.value.id, n.attr


def load(package):
    return {path.stem: Module(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(Path(package).glob("*.py"))}


def reached(modules):
    """The set of (module, name) definitions that the roots reach."""
    seen = set()
    todo = [(m.name, stmt) for m in modules.values() for stmt in m.runs]
    for root in ROOTS:
        for name, nodes in modules[root].defs.items():
            seen.add((root, name))
            todo += [(root, node) for node in nodes]

    def resolve(module, name, attr):
        m = modules.get(module)
        if m is None:
            return None
        if name in m.defs:
            return module, name
        if name in m.imports:
            target, imported = m.imports[name]
            if imported is None:  # ``from . import target``: read target.attr
                return resolve(target, attr, None) if attr else None
            return resolve(target, imported, attr)
        return None

    while todo:
        module, node = todo.pop()
        for name, attr in _uses(node):
            got = resolve(module, name, attr)
            if got is not None and got not in seen:
                seen.add(got)
                todo += [(got[0], n) for n in modules[got[0]].defs[got[1]]]
    return seen


def unreached(modules):
    got = reached(modules)
    return [f"{m.name}.{name}" for m in modules.values() for name in m.defs
            if (m.name, name) not in got and not name.startswith("__")]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    names = unreached(load(argv[0] if argv else "src/nsympeak"))
    bad = False
    for name in names:
        if name in KEPT:
            print(f"{name}  (kept: {KEPT[name]})")
        else:
            print(name)
            bad = True
    for name in sorted(KEPT.keys() - set(names)):
        print(f"{name}  (kept, but reached or gone)")
        bad = True
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
