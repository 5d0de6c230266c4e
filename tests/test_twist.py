import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

import heatlab.experiments
from conftest import make_line_operator
from heatlab.config import config_from_text
from heatlab.discretize import Grid, assemble
from heatlab.experiments import _perturbed_target, operator_pieces, verify_perturbed_bound
from heatlab.kato import sample_potential
from heatlab.symbols import SymbolSpec, sharp_constants
from heatlab.twist import (
    OverflowGuardError,
    TwistProfile,
    growth_fit,
    lower_bound_k,
    twisted_form,
)


# the symbol of make_line_operator(1, bounds=(0.0, 1.0))
UNIT_M1_SPEC = SymbolSpec.isotropic(1, 1, 1.0, domain=[(0.0, 1.0)])


@pytest.fixture(scope="module")
def unit_m1():
    op = make_line_operator(1, n_pts=400, bounds=(0.0, 1.0))
    return op, TwistProfile.from_expression(op.grid, "x", 1)


@pytest.fixture(scope="module")
def unit_m2():
    op = make_line_operator(2, n_pts=800, bounds=(0.0, 1.0))
    return op, TwistProfile.from_expression(op.grid, "x", 2)


def test_profile_derivatives_and_feasibility(unit_m1):
    op, prof = unit_m1
    assert np.allclose(prof.derivatives[1], 1.0, atol=1e-10)
    assert prof.feasible_symbol(UNIT_M1_SPEC, 1.0)
    assert not TwistProfile.from_expression(op.grid, "1.01*x", 1).feasible_symbol(UNIT_M1_SPEC, 1.0)


def test_zero_twist_returns_operator(unit_m1):
    op, prof = unit_m1
    H = op.operator_matrix()
    bands = twisted_form(op, prof, 0.0)
    assert bands.shape == (op.band.shape[0], H.shape[0])
    for k in range(op.band.shape[0]):
        n = H.shape[0] - k
        assert np.array_equal(bands[k, :n], np.diagonal(H, -k))
        assert not np.any(bands[k, n:])


def test_constant_profile_conjugation_is_trivial(unit_m1):
    op, _ = unit_m1
    const = TwistProfile.from_values(op.grid, np.full(400, 3.7), 1)
    lam_min = sla.eigh(op.operator_matrix(), eigvals_only=True, subset_by_index=(0, 0))[0]
    for lam in (0.0, 5.0, 50.0):
        assert lower_bound_k(op, const, lam) == pytest.approx(-lam_min, rel=1e-12)


def test_m1_eigenvalue_shift_identity(unit_m1):
    op, prof = unit_m1
    k10 = lower_bound_k(op, prof, 10.0)
    assert k10 == pytest.approx(100.0 - np.pi**2, abs=0.05)


def test_growth_fit_m1_exact_identity(unit_m1):
    op, prof = unit_m1
    rep = growth_fit(op, prof, np.geomspace(2.0, 20.0, 40))
    assert rep.kappa == pytest.approx(1.0, abs=1e-3)
    assert rep.intercept == pytest.approx(-np.pi**2, abs=0.05)
    assert rep.reliable
    assert lower_bound_k(op, prof, 0.0) == pytest.approx(-np.pi**2, abs=0.01)


SWEEP_POTENTIAL = "20*x^2"


def _sweep_pieces():
    g = Grid.make((0.0, 1.0), 300)
    spec = SymbolSpec.isotropic(2, 1, "1+0.5*x", domain=[(0, 1)])
    v = sample_potential(SWEEP_POTENTIAL, g)
    free, with_v = assemble(spec, g), assemble(spec, g, potential=v)
    return free, with_v, TwistProfile.from_expression(g, "x", 2), np.geomspace(3.0, 30.0, 12)


def _weyl(free_k, op_v):
    v = sample_potential(SWEEP_POTENTIAL, op_v.grid)
    return [(k - np.max(v), k - np.min(v)) for k in free_k]


def test_bracketed_sweeps_equal_cold_calls():
    # extrapolated brackets, and the Weyl brackets of a potential sweep, only
    # save factorizations: every k equals the unbracketed per-lambda value
    op0, op_v, prof, lams = _sweep_pieces()
    free = growth_fit(op0, prof, lams)
    reps = ((op0, free), (op_v, growth_fit(op_v, prof, lams)),
            (op_v, growth_fit(op_v, prof, lams, brackets=_weyl(free.k_values, op_v))))
    for op, rep in reps:
        assert np.array_equal(rep.k_values, [lower_bound_k(op, prof, lam) for lam in lams])


def test_bracketed_sweep_factorization_count(monkeypatch):
    # counts measured on this sweep, bisected on the eps ||B||_max lattice:
    # 619 factorizations for 12 cold calls, 424 extrapolated, 256 with Weyl
    # brackets; a sweep factors for its lambdas only
    op0, op_v, prof, lams = _sweep_pieces()
    calls = []
    real = sla.lapack.dpbtrf

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sla.lapack, "dpbtrf", counted)
    free = growth_fit(op0, prof, lams)
    n_free = len(calls)
    growth_fit(op_v, prof, lams, brackets=_weyl(free.k_values, op_v))
    n_weyl = len(calls) - n_free
    for lam in lams:
        lower_bound_k(op_v, prof, lam)
    n_cold = len(calls) - n_free - n_weyl
    assert n_cold <= 625 and n_free <= 430 and n_weyl <= 260
    assert n_weyl < n_free < n_cold


def test_growth_fit_requires_a_decade(unit_m1):
    op, prof = unit_m1
    with pytest.raises(ValueError, match="decade"):
        growth_fit(op, prof, np.linspace(5.0, 20.0, 10))


def test_growth_fit_needs_three_lambdas_in_the_top_decade(unit_m1):
    op, prof = unit_m1
    with pytest.raises(ValueError, match="top decade holds 2 lambdas"):
        growth_fit(op, prof, [2.0, 20.0])
    with pytest.raises(ValueError, match="top decade holds 2 lambdas"):
        growth_fit(op, prof, [1.0, 1.5, 2.0, 20.0])
    assert growth_fit(op, prof, [2.0, 5.0, 20.0]).lambdas.size == 3


def test_growth_fit_m2_bounded_by_sharp_constant():
    op = make_line_operator(2, n_pts=800, bounds=(-4.0, 4.0))
    prof = TwistProfile.from_expression(op.grid, "x", 2)
    rep = growth_fit(op, prof, np.geomspace(20.0, 200.0, 40))
    assert rep.kappa <= sharp_constants(2).k_m + 0.5
    assert rep.reliable


def test_nonaffine_feasible_profile_stays_below_one(unit_m1):
    op, _ = unit_m1
    x = op.grid.node_coordinates()[:, 0]
    prof = TwistProfile.from_values(op.grid, np.sin(x), 1)  # |phi'| = cos <= 1
    assert prof.feasible_symbol(UNIT_M1_SPEC, 1.0)
    rep = growth_fit(op, prof, np.geomspace(2.0, 20.0, 40))
    assert rep.kappa <= 1.0 + 0.05


def test_growth_fit_with_potential_shifts_only_intercept(unit_m1):
    op0, prof = unit_m1
    op_v = make_line_operator(1, n_pts=400, bounds=(0.0, 1.0),
                              potential=np.full(400, -5.0))
    lambdas = np.geomspace(2.0, 20.0, 40)
    # the diagonal potential commutes with the conjugation: only c shifts
    rep_v = growth_fit(op_v, prof, lambdas)
    rep_0 = growth_fit(op0, prof, lambdas)
    assert rep_v.kappa == pytest.approx(rep_0.kappa, abs=1e-9)
    assert rep_v.intercept - rep_0.intercept == pytest.approx(5.0, abs=1e-6)

    x = op0.grid.node_coordinates()[:, 0]
    vsing = -np.minimum(x**-0.5, 1e6)
    op_s = make_line_operator(1, n_pts=400, bounds=(0.0, 1.0), potential=vsing)
    rep_s = growth_fit(op_s, prof, lambdas)
    assert rep_s.kappa == pytest.approx(1.0, rel=0.05)


def _dense_conjugate(op, prof, lam):
    """Reference E^{-1} H E with E = diag(exp(lam * phi)), formed densely."""
    e = np.exp(lam * prof.values)
    return op.operator_matrix() * e[None, :] / e[:, None]


def test_twisted_spectrum_invariant_under_conjugation():
    op = make_line_operator(1, n_pts=120, bounds=(0.0, 1.0))
    prof = TwistProfile.from_expression(op.grid, "x", 1)
    lam = 4.0
    T = _dense_conjugate(op, prof, lam)
    got = np.sort(np.linalg.eigvals(T).real)
    ref = np.sort(np.linalg.eigvalsh(op.operator_matrix()))
    assert np.allclose(got, ref, rtol=1e-8, atol=1e-8 * np.max(np.abs(ref)))

    S = 0.5 * (T + T.T)
    bands = twisted_form(op, prof, lam)
    for k in range(op.band.shape[0]):
        n = S.shape[0] - k
        assert np.allclose(bands[k, :n], np.diagonal(S, -k), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m, n_pts", [(1, 48), (2, 40), (3, 64)])
def test_lower_bound_k_small_grid_matches_dense(m, n_pts):
    # small grids (N <= 64) against a dense reference; abs is the eps*||H|| floor
    op = make_line_operator(m, n_pts=n_pts, bounds=(0.0, 1.0))
    prof = TwistProfile.from_expression(op.grid, "x", m)
    for lam in (0.0, 3.0, 9.0):
        T = _dense_conjugate(op, prof, lam)
        w = np.linalg.eigvalsh(0.5 * (T + T.T))
        got = lower_bound_k(op, prof, lam)
        assert got == pytest.approx(-w[0], rel=1e-12, abs=1e-12 * np.max(np.abs(w)))


def test_k_even_in_profile_sign(unit_m1):
    op, prof = unit_m1
    flipped = TwistProfile.from_values(op.grid, -prof.values, 1)
    for lam in (3.0, 12.0):
        a = lower_bound_k(op, prof, lam)
        b = lower_bound_k(op, flipped, lam)
        assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(a)))


def test_k_convex_in_lambda_squared(unit_m1, unit_m2):
    # m=1: a single cosh branch, convex to rounding.  m=2: the interval
    # quantizes the minimizing mode, leaving O((pi h)^2)-size concave wobble
    # between branch crossings, so the slack is wider there.
    for (op, prof), slack in ((unit_m1, 1e-6), (unit_m2, 1e-3)):
        s = np.linspace(4.0, 400.0, 25)  # lambda^2 grid, uniform
        ks = np.array([lower_bound_k(op, prof, np.sqrt(si)) for si in s])
        second = ks[:-2] - 2 * ks[1:-1] + ks[2:]
        assert np.all(second >= -slack * max(1.0, np.max(np.abs(ks))))


def test_overflow_guard_triggers(unit_m1):
    op, prof = unit_m1
    with pytest.raises(OverflowGuardError):
        twisted_form(op, prof, 1e7)


PERTURBED = """
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
"""


def test_perturbed_target_of_a_zero_gap_is_sigma_m():
    # equal reference and perturbed coefficients: equal growth fits, no drift
    cfg = config_from_text(PERTURBED.replace('a = "1+0.1*sin(2*pi*x)"', 'a = "1"')
                           .replace("grid_n = 800", "grid_n = 400")
                           .replace("lambda_max = 200", "lambda_max = 200\nlambda_count = 30"))
    spec, grid, _ = operator_pieces(cfg.operator)
    target, note, reliable = _perturbed_target(cfg, spec, grid, 1.0)
    assert target == sharp_constants(2).sigma_m
    assert "c_emp=0.0 " in note and reliable


def test_growth_fit_drift_sign_symmetry():
    grid = Grid.make((0.0, 1.0), 400)
    delta = 0.1
    ref = SymbolSpec.isotropic(2, 1, 1.0, domain=[(0, 1)])
    up = SymbolSpec.isotropic(2, 1, f"1+{delta}*sin(2*pi*x)", domain=[(0, 1)])
    dn = SymbolSpec.isotropic(2, 1, f"1-{delta}*sin(2*pi*x)", domain=[(0, 1)])
    slope = (1.0 + delta) ** -0.25
    prof = TwistProfile.from_values(grid, slope * grid.node_coordinates()[:, 0], 2)
    lams = np.geomspace(20.0, 200.0, 30)
    kappa_ref, kappa_up, kappa_dn = (growth_fit(assemble(spec, grid), prof, lams).kappa
                                     for spec in (ref, up, dn))
    assert abs(kappa_up - kappa_ref) == pytest.approx(abs(kappa_dn - kappa_ref), rel=0.25)


def test_unreliable_growth_fit_fails_the_perturbed_verdict(monkeypatch):
    # the stock perturbed verdict PASSes; flagging its second (perturbed)
    # growth fit unreliable FAILs it while every other check still holds
    fits = []

    def flag_second(op, profile, lambdas):
        fits.append(growth_fit(op, profile, lambdas))
        return dataclasses.replace(fits[-1], reliable=len(fits) == 1)

    monkeypatch.setattr(heatlab.experiments, "growth_fit", flag_second)
    v = verify_perturbed_bound(config_from_text(PERTURBED))
    assert len(fits) == 2 and all(f.reliable for f in fits)
    assert "reliable_ref=True" in v.notes[-1] and "reliable_pert=False" in v.notes[-1]
    assert v.fit.verdict_ok and v.eps <= v.tolerance and v.worst["ratio"] <= 1.05
    assert not v.passed
