"""Every top-level function and class of the library and the scripts, and
every public method of their classes, has a caller outside the tests: a
definition only tests reach is dead code."""

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
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "heatlab", "*.py"))
                   + glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    trees = {}
    for path in paths:
        if os.path.basename(path) != "__init__.py":  # a re-export is not a caller
            with open(path, encoding="utf-8") as fh:
                trees[path] = ast.parse(fh.read(), filename=path)
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
