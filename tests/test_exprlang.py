import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import random_precedence_text, random_tree, shunting_yard, walk_evaluate
from heatlab import exprlang as el


def test_basic_values():
    assert el.evaluate(el.parse("x^2", 1), [3.0]) == 9.0
    assert el.evaluate(el.parse("1+0.5*sin(pi*x1)", 2), [0.5, 7.0]) == pytest.approx(1.5)
    assert el.evaluate(el.parse("exp(0)", 1), [0.0]) == 1.0
    assert el.evaluate(el.parse("abs(-2)^3", 1), [0.0]) == 8.0


def test_power_is_right_associative_and_tight():
    assert el.evaluate(el.parse("2^3^2", 1), [0.0]) == 512.0
    assert el.evaluate(el.parse("-x^2", 1), [3.0]) == -9.0
    assert el.evaluate(el.parse("2^-3", 1), [0.0]) == 0.125
    assert el.evaluate(el.parse("(2^3)^2", 1), [0.0]) == 64.0


def test_parse_error_position():
    with pytest.raises(el.ParseError) as err:
        el.parse("x1^^2", 1)
    assert err.value.offset == 3
    with pytest.raises(el.ParseError):
        el.parse("", 1)
    with pytest.raises(el.ParseError):
        el.parse("x2", 1)  # out of dimension
    with pytest.raises(el.ParseError):
        el.parse("sin(x, 1)", 1)  # wrong arity
    with pytest.raises(el.ParseError):
        el.parse("foo(1)", 1)  # unknown identifier


def test_domain_errors_report_subexpression():
    with pytest.raises(el.EvalError, match="division by zero"):
        el.evaluate(el.parse("1/(x-1)", 1), [1.0])
    with pytest.raises(el.EvalError, match="sqrt"):
        el.evaluate(el.parse("sqrt(x-2)", 1), [0.0])
    with pytest.raises(el.EvalError):
        el.evaluate(el.parse("0^(-1)", 1), [0.0])
    with pytest.raises(el.EvalError):
        el.evaluate(el.parse("(-2)^0.5", 1), [0.0])


def test_determinism_bit_identical():
    e = el.parse("sin(x1)*exp(x2)/(1+x1^2)", 2)
    vals = [el.evaluate(e, [0.3, 0.7]) for _ in range(5)]
    assert len(set(vals)) == 1


def _leaves(n):
    return st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False).map(el.Num),
        st.sampled_from(["pi", "e"]).map(el.Const),
        st.integers(0, n - 1).map(el.Var),
    )


def _trees(n):
    return st.recursive(
        _leaves(n),
        lambda ch: st.one_of(
            st.builds(el.Neg, ch),
            st.builds(el.BinOp, st.sampled_from("+-*/^"), ch, ch),
            st.builds(lambda f, a: el.Call(f, (a,)),
                      st.sampled_from(["sin", "cos", "exp", "sqrt", "abs", "tanh"]), ch),
            st.builds(lambda f, a, b: el.Call(f, (a, b)),
                      st.sampled_from(["pow", "min", "max"]), ch, ch),
        ),
        max_leaves=24,
    )


@settings(max_examples=300, deadline=None)
@given(_trees(3))
def test_roundtrip_hypothesis(tree):
    assert el.parse(el.pretty(tree), 3) == tree


def test_roundtrip_corpus_1000():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        tree = random_tree(rng, depth=6, n=2)
        assert el.parse(el.pretty(tree), 2) == tree


def _outcome(evaluate, tree, x):
    """``repr`` of the value (so -0.0 is not 0.0), or the EvalError message."""
    try:
        return repr(evaluate(tree, x))
    except el.EvalError as exc:
        return f"EvalError: {exc}"


def test_compiled_equals_tree_walk_corpus_1000():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        tree = random_tree(rng, depth=6, n=2)
        for x in rng.uniform(-3.0, 3.0, (3, 2)).tolist():
            assert _outcome(el.evaluate, tree, x) == _outcome(walk_evaluate, tree, x)


@settings(max_examples=300, deadline=None)
@given(_trees(3), st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_compiled_equals_tree_walk_hypothesis(tree, x):
    assert _outcome(el.evaluate, tree, x) == _outcome(walk_evaluate, tree, x)


def test_compiled_point_outside_dimension():
    tree = el.parse("1/x1 + x2", 2)
    for x in ([0.0], [2.0]):
        assert _outcome(el.evaluate, tree, x) == _outcome(walk_evaluate, tree, x)
    assert "point has dimension 1" in _outcome(el.evaluate, tree, [2.0])


def test_precedence_oracle_500():
    rng = np.random.default_rng(7)
    for _ in range(500):
        text = random_precedence_text(rng)
        got = el.evaluate(el.parse(text, 1), [0.0])
        assert got == shunting_yard(text)


def test_whitespace_and_scientific_notation():
    assert el.evaluate(el.parse(" 1e-3 + 2E+1 ", 1), [0.0]) == pytest.approx(20.001)
    assert el.parse("x + 1", 1) == el.parse("x+1", 1)


def test_min_max_pow_tanh():
    assert el.evaluate(el.parse("min(2, 3)", 1), [0.0]) == 2.0
    assert el.evaluate(el.parse("max(2, 3)", 1), [0.0]) == 3.0
    assert el.evaluate(el.parse("pow(2, 10)", 1), [0.0]) == 1024.0
    assert el.evaluate(el.parse("tanh(0)", 1), [0.0]) == 0.0
    assert el.evaluate(el.parse("e", 1), [0.0]) == math.e


@pytest.mark.parametrize("text, tree", [
    (" x ", el.Var(0)),
    ("\tx", el.Var(0)),
    ("1 +\n2", el.BinOp("+", el.Num(1.0), el.Num(2.0))),
    ("5.", el.Num(5.0)),
    (".5", el.Num(0.5)),
    ("00.5", el.Num(0.5)),
    ("1E+3", el.Num(1000.0)),
    ("--x", el.Neg(el.Neg(el.Var(0)))),
    ("2^-3^2", el.BinOp("^", el.Num(2.0), el.Neg(el.BinOp("^", el.Num(3.0), el.Num(2.0))))),
])
def test_accepted_forms(text, tree):
    assert el.parse(text, 1) == tree


@pytest.mark.parametrize("text", [
    "x**2", "1_0", "0x1F", "1j", "True", "abs(x,)", "(1, 2)", "+x", "x.real", "x[0]",
    "sin(x=1)", "x if 1 else 2", "1 < 2", "007",
])
def test_refused_forms(text):
    with pytest.raises(el.ParseError) as err:
        el.parse(text, 1)
    assert 0 <= err.value.offset <= len(text)


def test_readme_lists_every_function_and_constant():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Expression language", 1)[1].split("\n## ", 1)[0]
    funcs = re.search(r"^FUNC\s*=(.*)$", section, re.M).group(1)
    consts = re.search(r"^CONST\s*=(.*)$", section, re.M).group(1)
    assert set(re.findall(r"\w+", funcs)) == set(el.FUNCTIONS)
    assert set(re.findall(r"\w+", consts)) == set(el.CONSTANTS)
