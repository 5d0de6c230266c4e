import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from heatlab import exprlang
from heatlab.discretize import Grid, _ellipticity_samples, assemble
from heatlab.symbols import (
    ConstantField,
    ExprField,
    SymbolSpec,
    _ScaledField,
    _golden_min,
    as_field,
    coefficient_values,
    ellipticity_constant,
    eval_symbol,
    gamma_coefficients,
    gamma_form,
    is_strongly_convex,
    multi_indices,
    multinomial,
    sharp_constants,
    decay_constant_from_growth,
    sphere_directions,
    symbol_sum,
)

ISO4_2D = SymbolSpec.isotropic(2, 2, 1.0, domain=[(-1, 1), (-1, 1)])
AXIS4_2D = SymbolSpec.axis_powers(2, 2, domain=[(-1, 1), (-1, 1)])


def test_multi_index_enumeration_descending_lex():
    assert multi_indices(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert multi_indices(1, 4) == ((4,),)
    assert len(multi_indices(3, 2)) == 6  # C(2+3-1, 3-1)
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(4, (4, 0)) == 1


def test_eval_symbol_basic():
    s1 = SymbolSpec.isotropic(1, 1, 1.0)
    assert eval_symbol(s1, [0.0], [3.0]) == 9.0
    s2 = SymbolSpec.isotropic(2, 1, 1.0)
    assert eval_symbol(s2, [0.0], [2.0]) == 16.0
    assert eval_symbol(ISO4_2D, [0, 0], [1.0, 1.0]) == pytest.approx(4.0, rel=1e-14)


def test_eval_symbol_failure_carries_location():
    bad = SymbolSpec.isotropic(1, 1, as_field("1/x", 1))
    with pytest.raises(ValueError, match="failed at x"):
        eval_symbol(bad, [0.0], [1.0])
    # a batch names its first offending point
    bad2 = SymbolSpec.isotropic(2, 2, "1/x1")
    pts = np.array([[0.5, 0.5], [0.0, 0.25], [0.0, 0.75]])
    with pytest.raises(ValueError, match=re.escape(f"failed at x={pts[1]}")):
        eval_symbol(bad2, pts, [1.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_homogeneity_degree_2m(s, x1, x2):
    xi = np.array([x1, x2])
    if np.linalg.norm(xi) < 1e-3:
        xi = np.array([1.0, 0.5])
    base = eval_symbol(ISO4_2D, [0.3, -0.2], xi)
    scaled = eval_symbol(ISO4_2D, [0.3, -0.2], s * xi)
    assert scaled == pytest.approx(s**4 * base, rel=1e-12)


def test_gamma_coefficients_quartic_isotropic():
    g = gamma_coefficients(ISO4_2D, [0.0, 0.0])
    assert g[(4, 0)] == pytest.approx(1.0, abs=1e-14)
    assert g[(2, 2)] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert g[(3, 1)] == pytest.approx(0.0, abs=1e-14)
    g1 = gamma_coefficients(SymbolSpec.isotropic(1, 1, 1.0), [0.0])
    assert g1[(2,)] == 1.0


def test_gamma_reconstruction_roundtrip():
    rng = np.random.default_rng(3)
    for spec in (ISO4_2D, AXIS4_2D, SymbolSpec.isotropic(2, 1, "2+sin(x)")):
        x = rng.uniform(-0.9, 0.9, size=spec.n)
        g = gamma_coefficients(spec, x)
        for _ in range(100):
            xi = rng.uniform(-2, 2, size=spec.n)
            direct = eval_symbol(spec, x, xi)
            recon = sum(
                multinomial(2 * spec.m, gam) * val * np.prod(xi**np.array(gam))
                for gam, val in g.items()
            )
            assert recon == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_gamma_form_matrices():
    gf = gamma_form(ISO4_2D, [0.0, 0.0])
    assert gf.index_order == ((2, 0), (1, 1), (0, 2))
    assert np.allclose(gf.matrix, [[1, 0, 1 / 3], [0, 1 / 3, 0], [1 / 3, 0, 1]])
    assert np.allclose(gf.matrix, gf.matrix.T)
    gf1 = gamma_form(SymbolSpec.isotropic(1, 1, 1.0), [0.0])
    assert gf1.matrix.shape == (1, 1) and gf1.matrix[0, 0] == 1.0
    gf2 = gamma_form(SymbolSpec.isotropic(2, 1, 1.0), [0.5])
    assert gf2.matrix.shape == (1, 1) and gf2.matrix[0, 0] == 1.0


def test_strong_convexity_worked_examples():
    rep = is_strongly_convex(ISO4_2D, [[0.0, 0.0], [0.5, -0.5]])
    assert rep.strongly_convex and rep.min_eigenvalue == pytest.approx(1 / 3, rel=1e-12)

    rep1 = is_strongly_convex(SymbolSpec.isotropic(1, 1, 1.0), [[0.2]])
    assert rep1.strongly_convex and rep1.min_eigenvalue == pytest.approx(1.0)

    rep2 = is_strongly_convex(AXIS4_2D, [[0.1, 0.9]])
    assert rep2.strongly_convex and rep2.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    # the stacked test against the gamma form point by point
    spec = SymbolSpec.isotropic(2, 2, "1+0.3*sin(x1)*cos(x2)")
    pts = np.random.default_rng(2).uniform(-3, 3, (30, 2))
    lo = [np.linalg.eigvalsh(gamma_form(spec, x).matrix)[0] for x in pts]
    ratio = [v / (1 + np.max(np.abs(gamma_form(spec, x).matrix))) for v, x in zip(lo, pts)]
    rep3 = is_strongly_convex(spec, pts)
    assert rep3.min_eigenvalue == lo[int(np.argmin(ratio))]
    assert rep3.witness_point == tuple(pts[int(np.argmin(ratio))])


def test_psd_gamma_form_gives_nonnegative_pairing():
    # if (a_{alpha+beta}) is PSD then sum a_{alpha+beta} xi^alpha xi^beta >= 0
    rng = np.random.default_rng(11)
    for spec in (ISO4_2D, AXIS4_2D):
        gf = gamma_form(spec, [0.0, 0.0])
        assert np.linalg.eigvalsh(gf.matrix)[0] >= -1e-12
        for _ in range(200):
            xi = rng.uniform(-2, 2, size=2)
            p = np.array([xi[0] ** a[0] * xi[1] ** a[1] for a in gf.index_order])
            assert p @ gf.matrix @ p >= -1e-10


def test_sharp_constants_small_orders():
    c1 = sharp_constants(1)
    assert c1.sigma_m == 0.25 and c1.k_m == 1.0
    c2 = sharp_constants(2)
    assert c2.k_m == pytest.approx(8.0, rel=1e-14)
    assert c2.sigma_m == pytest.approx(0.23623519685528868, rel=1e-12)


def test_sigma_decreasing_in_m():
    sig = [sharp_constants(m).sigma_m for m in range(1, 7)]
    assert all(a > b for a, b in zip(sig, sig[1:]))


def minimize_over_lambda(d, t, m, km):
    """Independent two-stage log-grid scan of -l d + l^(2m) km t."""
    lam = np.geomspace(1e-6, 1e6, 2001)
    vals = -lam * d + lam ** (2 * m) * km * t
    lam0 = lam[np.argmin(vals)]
    lam = np.geomspace(lam0 / 10, lam0 * 10, 10001)
    vals = -lam * d + lam ** (2 * m) * km * t
    return float(vals.min())


def test_inf_over_lambda_identity():
    for m in (1, 2, 3, 4):
        km = sharp_constants(m).k_m
        sig = sharp_constants(m).sigma_m
        for d in np.geomspace(1e-2, 1e2, 10):
            for t in np.geomspace(1e-2, 1e2, 10):
                closed = -sig * d ** (2 * m / (2 * m - 1)) * t ** (-1 / (2 * m - 1))
                scanned = minimize_over_lambda(d, t, m, km)
                assert scanned == pytest.approx(closed, rel=1e-6)


def test_decay_constant_from_growth_inverts_k_m():
    for m in (1, 2, 3):
        c = sharp_constants(m)
        assert decay_constant_from_growth(c.k_m, m) == pytest.approx(c.sigma_m, rel=1e-12)


def test_ellipticity_constants():
    assert ellipticity_constant(SymbolSpec.isotropic(2, 1, 1.0), [[0.0]]) == pytest.approx(1.0)
    var = SymbolSpec.isotropic(2, 1, "2+cos(3*x)")
    xs = np.linspace(-2, 2, 41)[:, None]
    per_point = [eval_symbol(var, x, d) for x in xs for d in ([1.0], [-1.0])]
    assert ellipticity_constant(var, xs) == min(per_point)
    assert ellipticity_constant(ISO4_2D, [[0.0, 0.0]]) == pytest.approx(1.0, rel=1e-9)
    assert ellipticity_constant(AXIS4_2D, [[0.0, 0.0]]) == pytest.approx(0.5, rel=1e-6)


def _ellipticity_per_pair(spec, pts, sphere_samples):
    """ellipticity_constant with the coefficients evaluated at every (point,
    direction) pair: one eval_symbol over the repeated points."""
    dirs = sphere_directions(spec.n, sphere_samples)
    vals = eval_symbol(spec, np.repeat(pts, len(dirs), axis=0), np.tile(dirs, (len(pts), 1)))
    p, i = divmod(int(np.argmin(vals)), len(dirs))
    best = float(np.min(vals))
    if spec.n == 2:
        coeffs = coefficient_values(spec, pts[p:p + 1])
        f = lambda th: symbol_sum(spec, coeffs, (np.cos(th), np.sin(th)))
        th0, w = 2 * np.pi * i / len(dirs), 2 * np.pi / len(dirs)
        best = min(best, float(_golden_min(f, [th0 - w], [th0 + w])[0]))
    return best


VAR_ISO_2D = SymbolSpec.isotropic(2, 2, "1+0.3*sin(x1)*cos(x2)", domain=[(0, 1), (0, 1)])


@pytest.mark.parametrize("spec", [
    SymbolSpec.isotropic(2, 1, "2+cos(3*x)", domain=[(-2, 2)]),
    VAR_ISO_2D,
    SymbolSpec(2, 2, {((2, 0), (2, 0)): as_field("1+0.2*x1", 2),
                      ((0, 2), (0, 2)): as_field("2-x2*x1", 2),
                      ((2, 0), (0, 2)): as_field("0.3*cos(x1)", 2)}, VAR_ISO_2D.domain),
    SymbolSpec.isotropic(1, 3, "1+0.5*x1*x2*x3", domain=[(0, 1)] * 3),
], ids=["1d", "2d-iso", "2d-cross", "3d"])
def test_ellipticity_equals_per_pair_evaluation(spec):
    pts = _ellipticity_samples(Grid.make(spec.domain.bounds, 20))
    assert ellipticity_constant(spec, pts) == _ellipticity_per_pair(spec, pts, 64)


def test_ellipticity_evaluates_coefficients_once_per_point(point_evals):
    pts = _ellipticity_samples(Grid.make(VAR_ISO_2D.domain.bounds, 20))
    ellipticity_constant(VAR_ISO_2D, pts)
    assert point_evals["at"] == len(pts)  # base a once for a and 2a, 81 points, any direction count


def test_symmetric_pair_closure_and_validation():
    f = ConstantField(2.0)
    a, b = (2, 0), (0, 2)
    spec = SymbolSpec(2, 2, {(a, b): f}, None)
    assert spec.coefficients[(b, a)] is f
    with pytest.raises(ValueError, match="alpha"):
        SymbolSpec(2, 2, {((1, 0), (0, 2)): f}, None)
    with pytest.raises(ValueError):
        SymbolSpec(0, 1, {}, None)


@pytest.mark.parametrize("text", ["1", "2.5", "pi", "2*2", "2*pi", "sqrt(2)", "-exp(0)"])
def test_as_field_folds_lone_constants(text):
    fld = as_field(text, 2)
    assert isinstance(fld, ConstantField)
    assert fld.value == exprlang.evaluate(exprlang.parse(text, 2), ())
    assert np.array_equal(fld.at_many(np.zeros((3, 2))), np.full(3, fld.value))


@pytest.mark.parametrize("text, message", [
    ("1/(2-2)", "division by zero in subexpression '1.0/(2.0-2.0)'"),
    ("sqrt(-1)", "sqrt of a negative number in subexpression 'sqrt(-1.0)'"),
    ("1e308*10", "coefficient evaluated to inf"),
])
def test_as_field_refuses_a_failing_constant(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        as_field(text, 1)


@pytest.mark.parametrize("text", ["x", "1+0*x"])
def test_as_field_keeps_expressions(text):
    assert isinstance(as_field(text, 1), ExprField)


def test_expr_field_refuses_a_point_of_another_dimension():
    fld = as_field("1+x", 1)
    with pytest.raises(ValueError, match=re.escape(f"x={np.array([0.5, 100.0])}")):
        fld.at([0.5, 100.0])
    with pytest.raises(ValueError, match="coordinates"):
        fld.at_many(np.zeros((3, 2)))


def test_expr_field_compiles_once(monkeypatch, point_evals):
    compiles = []
    compile_expr = exprlang.compile_expr

    def counting(e, n):
        compiles.append(e)
        return compile_expr(e, n)

    monkeypatch.setattr(exprlang, "compile_expr", counting)
    fld = as_field("1+0.1*sin(2*pi*x)", 1)
    pts = np.linspace(0.0, 1.0, 401)[:, None]
    vals = fld.at_many(pts)
    assert len(compiles) == 1 and point_evals["at"] == 401
    assert np.array_equal(fld.at_many(pts), vals) and len(compiles) == 1


@pytest.mark.parametrize("fld", [
    _ScaledField(as_field("1+x^2", 1), 3.0),
    as_field("exp(x)", 1),
], ids=["scaled", "expr"])
def test_at_many_equals_at(fld):
    pts = np.linspace(-0.2, 1.2, 57)[:, None]
    assert np.array_equal(fld.at_many(pts), [fld.at(x) for x in pts])


def test_assemble_constant_text_equals_float():
    grid = Grid.make((0.0, 1.0), 60)
    specs = [SymbolSpec.isotropic(2, 1, a, domain=[(0, 1)]) for a in ("1", 1.0)]
    assert isinstance(specs[0].isotropic_coefficient, ConstantField)
    ops = [assemble(spec, grid) for spec in specs]
    diff = ops[0].matrix != ops[1].matrix
    assert diff.nnz == 0
