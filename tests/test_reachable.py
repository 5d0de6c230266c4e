"""Every top-level function and class of the library and the scripts, and
every public method of their classes, has a caller outside the tests: a
definition only tests reach is dead code.  Likewise every defaulted
parameter is passed by some call there: one that no caller sets is a
constant."""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# kept with no caller in the library or the scripts
ALLOWED = {
    "semigroup_check": "acceptance criterion 9 pins the semigroup property with it",
    "trace_identity_defect": "acceptance criterion 9 pins the trace identity with it",
    "gamma_form": "inspects the paper's strong-convexity form that is_strongly_convex tests",
    "SpectralData.validate": "the tests' eigenpair check; verdicts report SpectralData.health",
    "SymbolSpec.axis_powers":
        "anisotropic symbols for n-dimensional verdicts (ROADMAP items 5 and 6)",
}


# defaulted parameters that no call in the library or the scripts passes
ALLOWED_DEFAULTS = {
    "main.argv": "perfbench and the tests drive the CLI in process",
    "SymbolSpec.axis_powers.weights": "axis_powers has no caller yet (see ALLOWED)",
}


def _trees():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "heatlab", "*.py"))
                   + glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    trees = {}
    for path in paths:
        if os.path.basename(path) != "__init__.py":  # a re-export is not a caller
            with open(path, encoding="utf-8") as fh:
                trees[path] = ast.parse(fh.read(), filename=path)
    return trees


def _reads(tree):
    """How often each name is read in ``tree``, bare or as an attribute."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def test_every_definition_has_a_caller_outside_the_tests():
    trees = _trees()
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unreached = {}
    for path, tree in trees.items():
        top = [node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        defs = [(node.name, node) for node in top]
        defs += [(f"{cls.name}.{node.name}", node) for cls in top
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        for name, node in defs:
            if reads[node.name] == _reads(node)[node.name]:
                unreached[name] = f"{os.path.relpath(path, ROOT)}:{node.lineno}"
    dead = [f"{where} {name}" for name, where in unreached.items() if name not in ALLOWED]
    assert not dead, "no caller outside the tests:\n" + "\n".join(dead)
    # an allowed name that gains a caller, or goes, leaves the list
    assert set(unreached) == set(ALLOWED)


def _defaulted(trees):
    """``(qualified name, called name, position, parameter, definition)`` for
    every defaulted parameter.  A method is called by its own name, and
    ``__init__`` by its class's; the position counts what a call passes, so
    a method's ``self`` or ``cls`` takes none."""
    for tree in trees.values():
        scopes = [(None, node) for node in tree.body]
        scopes += [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body]
        for cls, node in scopes:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            called = cls.name if node.name == "__init__" else node.name
            qual = node.name if cls is None else f"{cls.name}.{node.name}"
            first = len(params) - len(args.defaults)
            for i, p in enumerate(params[first:], start=first):
                yield f"{qual}.{p.arg}", called, i - bound, p.arg, node
            for p, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    yield f"{qual}.{p.arg}", called, None, p.arg, node


def _passes(call, position, name):
    """Whether the call passes the parameter, by keyword or by position."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: a ``**`` mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    trees = _trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def called(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    unset = set()
    for qual, name, position, param, node in _defaulted(trees):
        own = {id(c) for c in ast.walk(node)}  # a recursive call is not a caller
        if not any(called(c) == name and id(c) not in own and _passes(c, position, param)
                   for c in calls):
            unset.add(qual)
    dead = sorted(unset - set(ALLOWED_DEFAULTS))
    assert not dead, "defaulted parameters no caller sets:\n" + "\n".join(dead)
    # an allowed parameter that gains a caller, or goes, leaves the list
    assert unset == set(ALLOWED_DEFAULTS)
