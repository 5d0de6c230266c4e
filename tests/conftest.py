from collections import Counter

import numpy as np
import pytest

from heatlab import exprlang as el
from heatlab.discretize import Grid, assemble
from heatlab.heatkernel import eigendecompose
from heatlab.symbols import ExprField, SymbolSpec


def make_line_operator(m, n_pts=800, bounds=(-8.0, 8.0), a=1.0, potential=None):
    spec = SymbolSpec.isotropic(m, 1, a)
    grid = Grid.make(bounds, n_pts)
    return assemble(spec, grid, potential=potential)


@pytest.fixture(scope="session")
def line_m1_op():
    """m=1, a=1 on [-8, 8] with N=800: the whole-line proxy."""
    return make_line_operator(1)


@pytest.fixture(scope="session")
def line_m1(line_m1_op):
    return eigendecompose(line_m1_op)


@pytest.fixture(scope="session")
def line_m2_op():
    return make_line_operator(2)


@pytest.fixture(scope="session")
def line_m2(line_m2_op):
    return eigendecompose(line_m2_op)


@pytest.fixture(scope="session")
def unit_m1_400_op():
    """m=1, a=1 on [0, 1] with N=400: the potential-theory workhorse."""
    return make_line_operator(1, n_pts=400, bounds=(0.0, 1.0))


@pytest.fixture(scope="session")
def unit_m1_400(unit_m1_400_op):
    return eigendecompose(unit_m1_400_op)


@pytest.fixture(scope="session")
def singular_vminus(unit_m1_400_op):
    x = unit_m1_400_op.grid.node_coordinates()[:, 0]
    return np.minimum(x**-0.5, 1e6)


@pytest.fixture
def point_evals(monkeypatch):
    """``calls["at"]`` counts ``ExprField.at`` calls, one per expression
    evaluation at one point, while the test runs."""
    calls = Counter()
    at = ExprField.at

    def counting_at(self, x):
        calls["at"] += 1
        return at(self, x)

    monkeypatch.setattr(ExprField, "at", counting_at)
    return calls


@pytest.fixture
def solve_shapes(monkeypatch):
    """The shape of the right-hand side of each ``np.linalg.solve`` call
    while the test runs."""
    shapes = []
    solve = np.linalg.solve

    def recorded(a, b):
        shapes.append(np.shape(b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    return shapes


@pytest.fixture
def highs_solves(monkeypatch):
    """Records the HiGHS solves of ``distance_dm_1d`` while the test runs:
    ``log["hot"]`` holds one entry per solve, whether it started from a
    basis; a solve whose index is in ``log["fail"]`` reports an iteration
    limit in place of its status."""
    from scipy.optimize._highspy import _core

    log = {"hot": [], "fail": set()}

    class Recording(_core._Highs):
        def passModel(self, lp):
            log["hot"].append(False)
            return super().passModel(lp)

        def setBasis(self, basis):
            log["hot"][-1] = True
            return super().setBasis(basis)

        def getModelStatus(self):
            if len(log["hot"]) - 1 in log["fail"]:
                return _core.HighsModelStatus.kIterationLimit
            return super().getModelStatus()

    monkeypatch.setattr(_core, "_Highs", Recording)
    return log


# ---------------------------------------------------------------------------
# reference tree walk: the oracle for the compiled expressions
# ---------------------------------------------------------------------------

def walk_evaluate(e, x):
    """Evaluate ``e`` at ``x`` by recursion over the tree, node by node."""
    if isinstance(e, el.Num):
        return e.value
    if isinstance(e, el.Const):
        return el.CONSTANTS[e.name]
    if isinstance(e, el.Var):
        if e.index >= len(x):
            raise el.EvalError(f"point has dimension {len(x)}", e)
        return float(x[e.index])
    if isinstance(e, el.Neg):
        return -walk_evaluate(e.arg, x)
    if isinstance(e, el.BinOp):
        a = walk_evaluate(e.left, x)
        b = walk_evaluate(e.right, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise el.EvalError("division by zero", e)
            return a / b
        return el._power(a, b, e)
    if isinstance(e, el.Call):
        args = [walk_evaluate(a, x) for a in e.args]
        if e.name == "pow":
            return el._power(args[0], args[1], e)
        if e.name == "sqrt" and args[0] < 0.0:
            raise el.EvalError("sqrt of a negative number", e)
        try:
            return float(el.FUNCTIONS[e.name][1](*args))
        except (ValueError, OverflowError) as exc:
            raise el.EvalError(str(exc), e) from exc
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# random expression corpora (seeded, exact counts)
# ---------------------------------------------------------------------------

_UNARY_FNS = ("sin", "cos", "exp", "sqrt", "abs", "tanh")
_BINARY_FNS = ("pow", "min", "max")


def random_tree(rng, depth, n):
    """Random expression tree of depth <= ``depth`` over x1..xn."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            return el.Num(round(float(rng.uniform(0.0, 10.0)), 6))
        if kind == 1:
            return el.Const(("pi", "e")[rng.integers(0, 2)])
        return el.Var(int(rng.integers(0, n)))
    kind = rng.integers(0, 4)
    if kind == 0:
        return el.Neg(random_tree(rng, depth - 1, n))
    if kind == 1:
        op = "+-*/^"[rng.integers(0, 5)]
        return el.BinOp(op, random_tree(rng, depth - 1, n), random_tree(rng, depth - 1, n))
    if kind == 2:
        return el.Call(_UNARY_FNS[rng.integers(0, len(_UNARY_FNS))],
                       (random_tree(rng, depth - 1, n),))
    return el.Call(_BINARY_FNS[rng.integers(0, len(_BINARY_FNS))],
                   (random_tree(rng, depth - 1, n), random_tree(rng, depth - 1, n)))


def random_precedence_text(rng, max_ops=8):
    """Random infix string over {+,-,*,^} with small integer leaves.

    At most two '^' per expression keeps all intermediate values exact in
    double precision.
    """
    nops = int(rng.integers(1, max_ops + 1))
    parts = [str(int(rng.integers(1, 4)))]
    hats = 0
    for _ in range(nops):
        op = "+-*^"[rng.integers(0, 4)]
        if op == "^":
            if hats >= 2:
                op = "*"
            else:
                hats += 1
        parts.append(op)
        parts.append(str(int(rng.integers(1, 4))))
    return "".join(parts)


def shunting_yard(text):
    """Independent precedence oracle for {+,-,*,^} with integer leaves."""
    prec = {"+": 1, "-": 1, "*": 2, "^": 3}
    out, ops = [], []

    def apply(op):
        b, a = out.pop(), out.pop()
        out.append(
            a + b if op == "+" else a - b if op == "-" else a * b if op == "*" else a**b
        )

    i = 0
    while i < len(text):
        c = text[i]
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(float(text[i:j]))
            i = j
            continue
        while ops and (
            prec[ops[-1]] > prec[c] or (prec[ops[-1]] == prec[c] and c != "^")
        ):
            apply(ops.pop())
        ops.append(c)
        i += 1
    while ops:
        apply(ops.pop())
    return out[0]
