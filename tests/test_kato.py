import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

import heatlab.kato
from heatlab.kato import (
    KatoCurve,
    form_bound,
    kato_norm,
    kato_norm_curve,
    miyadera_integral,
    miyadera_ratio,
    sample_potential,
    weighted_l2_check,
)
from conftest import make_line_operator
from heatlab.config import OperatorConfig
from heatlab.discretize import assemble, band_lowest
from heatlab.experiments import operator_pieces
from heatlab.heatkernel import SpectralData, eigendecompose


def _dense_inverse(op, lam):
    # (H + lam I)^-1 from the identity, as kato_norm solves it when the band
    # has a positive off-diagonal
    A = op.operator_matrix()
    A.flat[:: A.shape[0] + 1] += lam
    return np.linalg.solve(A, np.eye(A.shape[0]))


def test_form_bound_zero_potential(unit_m1_400_op):
    v0 = np.zeros(400)
    for eps in (0.1, 0.5, 0.9):
        assert form_bound(unit_m1_400_op, v0, eps) == 0.0


def test_form_bound_constant_potential(unit_m1_400_op):
    lam_min = sla.eigh(unit_m1_400_op.operator_matrix(), eigvals_only=True,
                       subset_by_index=(0, 0))[0]
    c = 7.0
    for eps in (0.1, 0.5, 0.9):
        got = form_bound(unit_m1_400_op, np.full(400, c), eps)
        assert got == pytest.approx(max(0.0, c - eps * lam_min), rel=1e-10)
        assert got <= c + 1e-12


def test_form_bound_singular_decreasing(unit_m1_400_op, singular_vminus):
    eps_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    c_eps = [form_bound(unit_m1_400_op, singular_vminus, eps) for eps in eps_grid]
    assert all(np.isfinite(c_eps))
    assert all(a >= b - 1e-12 for a, b in zip(c_eps, c_eps[1:]))
    assert c_eps[0] > 0.0


def test_form_bound_exactness_as_matrix_inequality(unit_m1_400_op, singular_vminus):
    eps = 0.3
    c = form_bound(unit_m1_400_op, singular_vminus, eps)
    M = eps * unit_m1_400_op.operator_matrix() + c * np.eye(400) - np.diag(singular_vminus)
    lo = sla.eigh(M, eigvals_only=True, subset_by_index=(0, 0))[0]
    scale = max(1.0, np.max(np.abs(M)))
    assert lo >= -1e-10 * scale


@pytest.mark.parametrize("m, n_pts", [(1, 48), (2, 40), (3, 64)])
def test_form_bound_matches_dense_top_eigenvalue(m, n_pts):
    # dense reference top eigenvalue of diag(V_-) - eps H; the allowance is the
    # double-precision floor 8 eps ||M|| of backward-stable eigensolvers
    op = make_line_operator(m, n_pts=n_pts, bounds=(0.0, 1.0))
    x = op.grid.node_coordinates()[:, 0]
    singular = np.minimum(x**-0.5, 1e6)
    rng = np.random.default_rng(m)
    lam0 = band_lowest(op.band)
    for vminus in (singular, 2.0 * lam0 * singular, rng.uniform(0.0, 3.0 * lam0, n_pts)):
        for eps in (0.1, 0.5, 0.9):
            M = np.diag(vminus) - eps * op.operator_matrix()
            ref = max(0.0, float(np.linalg.eigvalsh(M)[-1]))
            floor = 8 * np.finfo(float).eps * float(np.max(np.abs(M)))
            assert abs(form_bound(op, vminus, eps) - ref) <= floor


def test_form_bound_rejects_bad_eps(unit_m1_400_op):
    with pytest.raises(ValueError):
        form_bound(unit_m1_400_op, np.zeros(400), 0.0)
    with pytest.raises(ValueError):
        form_bound(unit_m1_400_op, np.zeros(400), 1.0)
    with pytest.raises(ValueError):
        form_bound(unit_m1_400_op, np.full(400, -1.0), 0.5)


def test_kato_norm_zero_and_duality(unit_m1_400_op, singular_vminus):
    assert kato_norm(unit_m1_400_op, np.zeros(400), 10.0) == 0.0
    for lam in (1.0, 100.0):
        R = _dense_inverse(unit_m1_400_op, lam)
        a = kato_norm(unit_m1_400_op, singular_vminus, lam)
        # dual form: max row sum of R V_-
        b = float(np.max(np.sum(np.abs(R) * singular_vminus[None, :], axis=1)))
        assert a == pytest.approx(b, abs=1e-10 * max(1.0, a))


def test_kato_norm_resolvent_bound_for_unit_potential(unit_m1_400_op):
    ones = np.ones(400)
    prev = None
    for lam in (1.0, 10.0, 100.0):
        n_lam = kato_norm(unit_m1_400_op, ones, lam)
        n_10lam = kato_norm(unit_m1_400_op, ones, 10 * lam)
        assert n_10lam < n_lam
        # sub-Markovian resolvent: L1 norm at most 1/lambda
        assert n_lam <= 1.0 / lam + 1e-10
        prev = n_lam


def test_kato_curve_monotone_and_vanishing(unit_m1_400_op, singular_vminus):
    lambdas = [10.0**k for k in range(6)]
    curve = kato_norm_curve(unit_m1_400_op, singular_vminus, lambdas)
    assert all(a >= b for a, b in zip(curve.norms, curve.norms[1:]))
    assert curve.norms[-1] < 0.1
    assert curve.norms[-1] < curve.norms[0] / 10.0


def test_kato_curve_type_rejects_increasing():
    with pytest.raises(ValueError):
        KatoCurve([1.0, 10.0], [0.1, 0.2], [0.0, 0.0])


def test_kato_curve_type_rejects_weighted_above_norm():
    KatoCurve([1.0, 10.0], [0.2, 0.1], [0.2 + 0.5e-8, 0.1])
    with pytest.raises(ValueError, match="weighted"):
        KatoCurve([1.0, 10.0], [0.2, 0.1], [0.1, 0.1 + 2e-8])


def test_kato_norm_curve_equals_separate_calls(unit_m1_400_op, singular_vminus):
    lambdas = [1.0, 10.0, 1000.0]
    curve = kato_norm_curve(unit_m1_400_op, singular_vminus, lambdas)
    assert curve.lambdas == lambdas
    H, eye = unit_m1_400_op.operator_matrix(), np.eye(400)
    for lam, kn, wnorm in zip(lambdas, curve.norms, curve.weighted):
        R = _dense_inverse(unit_m1_400_op, lam)
        assert np.max(np.abs((H + lam * eye) @ R - eye)) <= 1e-8
        assert kn == kato_norm(unit_m1_400_op, singular_vminus, lam)
        assert wnorm == weighted_l2_check(unit_m1_400_op, singular_vminus, lam)


def test_kato_norm_curve_releases_dense_matrices(monkeypatch):
    # at m = 2 the curve solves one resolvent per lambda from the identity and
    # frees it before the next solve; none outlives the curve
    solved = []
    solve = np.linalg.solve

    def tracked(a, b):
        assert all(ref() is None for ref in solved)
        R = solve(a, b)
        solved.append(weakref.ref(R))
        return R

    monkeypatch.setattr(np.linalg, "solve", tracked)
    op = make_line_operator(2, n_pts=100, bounds=(0.0, 1.0))
    kato_norm_curve(op, np.ones(100), [1.0, 10.0, 100.0])
    assert len(solved) == 3
    assert all(ref() is None for ref in solved)


def test_kato_norm_m1_solves_one_right_hand_side(unit_m1_400_op, singular_vminus, solve_shapes):
    # at m = 1 no off-diagonal is positive: H0 + lambda is a Stieltjes matrix,
    # R >= 0, and the column masses of V_- R are R V_-
    lambdas = [1.0, 10.0, 1000.0]
    curve = kato_norm_curve(unit_m1_400_op, singular_vminus, lambdas)
    assert solve_shapes == [(400,)] * 3
    for lam, kn in zip(lambdas, curve.norms):
        R = _dense_inverse(unit_m1_400_op, lam)
        assert np.all(R >= 0)
        ref = float(np.max(np.sum(singular_vminus[:, None] * np.abs(R), axis=0)))
        assert kn == pytest.approx(ref, rel=1e-13)


@pytest.fixture(scope="module")
def unit_m2_300():
    op = make_line_operator(2, n_pts=300, bounds=(0.0, 1.0))
    x = op.grid.node_coordinates()[:, 0]
    return op, np.minimum(x**-0.5, 1e6)


def test_kato_norm_m2_solves_the_resolvent_from_the_identity(unit_m2_300, solve_shapes):
    # the m = 2 band has positive off-diagonals, and R has entries of both
    # signs at these lambdas
    op, vminus = unit_m2_300
    assert np.any(op.band[1:] > 0)
    for lam in (1e3, 1e5):
        solve_shapes.clear()
        got = kato_norm(op, vminus, lam)
        assert solve_shapes == [(300, 300)]
        R = _dense_inverse(op, lam)
        assert np.any(R < 0)
        assert got == float(np.max(np.sum(vminus[:, None] * np.abs(R), axis=0)))


def test_weighted_l2_m2_within_the_conditioning_floor_of_the_dense_route(unit_m2_300):
    # the sparse LU and the dense inverse each solve to eps cond(H0 + lambda);
    # measured gap: 1.7e-9 relative at lambda = 1 (cond 1.3e9), 1.0e-13 at 1e5
    op, vminus = unit_m2_300
    sq = np.sqrt(vminus)
    for lam in (1.0, 10.0, 1e3, 1e5):
        A = op.operator_matrix()
        A.flat[:: A.shape[0] + 1] += lam
        R = _dense_inverse(op, lam)
        ref = float(np.linalg.eigvalsh(sq[:, None] * R * sq[None, :])[-1])
        floor = np.finfo(float).eps * np.linalg.cond(A)
        assert abs(weighted_l2_check(op, vminus, lam) - ref) <= floor * ref


def test_kato_norm_rejects_bad_lambda(unit_m1_400_op):
    op = unit_m1_400_op
    with pytest.raises(ValueError):
        kato_norm_curve(op, np.ones(400), [-1e9])
    lo = band_lowest(op.band)
    ref = sla.eigh(op.operator_matrix(), eigvals_only=True, subset_by_index=(0, 0))[0]
    assert lo == pytest.approx(ref, rel=1e-12)
    for lam in (-lo, -lo - 1.0):
        with pytest.raises(ValueError, match="not above"):
            kato_norm_curve(op, np.ones(400), [-lo + 1.0, lam])
    assert kato_norm_curve(op, np.ones(400), [-lo + 1.0]).norms[0] > 0.0


def test_weighted_l2_bounded_by_kato_norm(unit_m1_400_op, singular_vminus):
    for lam in (1.0, 10.0, 1000.0):
        assert (weighted_l2_check(unit_m1_400_op, singular_vminus, lam)
                <= kato_norm(unit_m1_400_op, singular_vminus, lam) + 1e-8)


def test_weighted_l2_top_eigenvalue_equals_full_spectrum(unit_m1_400_op, singular_vminus):
    half = np.zeros(400)
    half[:200] = 1.0
    for vminus in (singular_vminus, half):
        support = vminus > 0
        sq = np.sqrt(vminus[support])
        for lam in (1.0, 100.0):
            R = _dense_inverse(unit_m1_400_op, lam)
            wnorm = weighted_l2_check(unit_m1_400_op, vminus, lam)
            Mw = sq[:, None] * R[np.ix_(support, support)] * sq[None, :]
            ref = float(np.max(np.abs(sla.eigh(Mw, eigvals_only=True))))
            assert wnorm == pytest.approx(ref, rel=1e-13)


def test_weighted_l2_unit_weight_and_half_support(unit_m1_400_op):
    half = np.zeros(400)
    half[:200] = 1.0
    for vminus in (np.ones(400), half):
        assert (weighted_l2_check(unit_m1_400_op, vminus, 10.0)
                <= kato_norm(unit_m1_400_op, vminus, 10.0) + 1e-8)


def test_weighted_l2_vacuous(unit_m1_400_op):
    assert weighted_l2_check(unit_m1_400_op, np.zeros(400), 10.0) == 0.0


@pytest.fixture(scope="module")
def spectral_400(unit_m1_400_op):
    return eigendecompose(unit_m1_400_op)


def _delta_like(op):
    u = np.zeros(op.grid.node_count)
    u[op.grid.node_count // 2] = 1.0 / op.mass
    return u


def _miyadera_per_node(spectral, vminus, delta, u, factor):
    # the quadrature of miyadera_integral at one panel factor, one node at a time
    V, lam, mass = spectral.eigenvectors, spectral.eigenvalues, spectral.mass
    c = mass * (V.T @ u)
    graded = delta / 8.0 * 2.0 ** (-np.arange(8 * factor, -1, -1.0))
    edges = np.concatenate([[0.0], graded, np.linspace(delta / 8, delta, 7 * factor + 1)[1:]])
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for x, w in zip(nodes, weights):
            ut = V @ (np.exp(-lam * (mid + half * x)) * c)
            total += half * w * float(np.sum(vminus * np.abs(ut)) * mass)
    return total


def test_miyadera_panels_equal_per_node_reference(unit_m1_400_op, spectral_400, singular_vminus):
    u = _delta_like(unit_m1_400_op)
    rng = np.random.default_rng(3)
    for vminus in (singular_vminus, rng.uniform(0.0, 3.0, 400)):
        for delta in (0.02, 0.005):
            ref = _miyadera_per_node(spectral_400, vminus, delta, u, factor=2)
            got = miyadera_integral(spectral_400, vminus, delta, u)
            assert got == pytest.approx(ref, rel=1e-13)


def test_miyadera_shared_panels_equal_separate_calls(unit_m1_400_op, spectral_400,
                                                    singular_vminus):
    # the kato runner's two deltas share one panel dict: the same bits as
    # separate calls, with each distinct panel integrated once
    u = _delta_like(unit_m1_400_op)
    panels = {}
    for delta in (0.02, 0.01):
        shared = miyadera_ratio(spectral_400, singular_vminus, delta, u, panels)
        assert shared == miyadera_ratio(spectral_400, singular_vminus, delta, u)
    assert len(panels) == 59  # of 2 x (16 + 31) panels
    assert all(lo < hi for lo, hi in panels)


def _panels(spectral, vminus, delta, u, monkeypatch, **constants):
    # miyadera_integral's panel dict with kato module constants overridden
    with monkeypatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(heatlab.kato, name, value)
        panels = {}
        miyadera_integral(spectral, vminus, delta, u, panels)
    return panels


def test_miyadera_cut_panels_equal_all_alive_mode_panels(unit_m1_400_op, spectral_400,
                                                         singular_vminus, monkeypatch):
    # a panel drops the modes weighted below 2^-63 of the first at its first
    # node when their bound stays below 2^-53 of the panel; TAIL_WEIGHT = 0
    # keeps every mode alive there
    u = _delta_like(unit_m1_400_op)
    cut = _panels(spectral_400, singular_vminus, 0.02, u, monkeypatch)
    full = _panels(spectral_400, singular_vminus, 0.02, u, monkeypatch, TAIL_WEIGHT=0.0)
    lam = spectral_400.eigenvalues
    x0 = np.polynomial.legendre.leggauss(heatlab.kato.GAUSS_ORDER)[0][0]
    dropped = 0
    for (lo, hi), value in cut.items():
        t0 = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x0
        dropped += np.count_nonzero((np.exp(-(lam - lam[0]) * t0) < 2.0**-63)
                                    & (np.exp(-lam * t0) > 0.0))
        assert abs(value - full[lo, hi]) <= 2.0**-53 * value
    assert dropped > 1000  # mode-panel pairs skipped


def test_miyadera_panel_keeps_every_mode_when_the_tail_bound_fails(monkeypatch):
    # exact modes (node vectors, h = 1/4) and u on the top mode 1e30 times
    # more than on the first: where the weight rule would drop the top mode
    # it carries the panel, its bound fails and the panel keeps it
    spectral = SpectralData(np.array([1.0, 2.0, 4.0, 1e4]), 2.0 * np.eye(4), None, 0.25)
    u, vminus = np.array([1.0, 0.0, 0.0, 1e30]), np.ones(4)
    full = _panels(spectral, vminus, 0.02, u, monkeypatch, TAIL_WEIGHT=0.0)
    assert _panels(spectral, vminus, 0.02, u, monkeypatch) == full
    unchecked = _panels(spectral, vminus, 0.02, u, monkeypatch, TAIL_REL=np.inf)
    assert any(unchecked[k] < 0.5 * full[k] for k in full)


def test_miyadera_zero_potential(unit_m1_400_op, spectral_400):
    u = _delta_like(unit_m1_400_op)
    assert miyadera_integral(spectral_400, np.zeros(400), 0.01, u) == 0.0


def test_miyadera_ratio_shrinks_with_delta(unit_m1_400_op, spectral_400):
    u = _delta_like(unit_m1_400_op)
    ones = np.ones(400)
    r1 = miyadera_ratio(spectral_400, ones, 0.02, u)
    r2 = miyadera_ratio(spectral_400, ones, 0.01, u)
    assert r2 < r1


def test_miyadera_crude_bound_for_bounded_potential(unit_m1_400_op, spectral_400):
    rng = np.random.default_rng(2)
    vm = rng.uniform(0.0, 3.0, 400)
    u = _delta_like(unit_m1_400_op)
    delta = 0.01
    ratio = miyadera_ratio(spectral_400, vm, delta, u)
    assert ratio <= np.max(vm) * delta * (1.0 + 1e-6)


def test_sample_potential_clips_with_warning(unit_m1_400_op):
    grid = unit_m1_400_op.grid
    with pytest.warns(RuntimeWarning, match="clipped"):
        v = sample_potential("x^(-8)", grid)
    assert np.max(v) == 1e12


def test_clipped_potential_warns_once():
    cfg = OperatorConfig(domain=((0.0, 1.0),), grid_n=(400,), potential="x^(-8)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec, grid, vvals = operator_pieces(cfg)
        assemble(spec, grid, potential=vvals)
    assert len(caught) == 1
    assert "clipped" in str(caught[0].message)


def test_weighted_l2_lanczos_equals_dense_top_eigenvalue(unit_m1_400_op, singular_vminus):
    one_node = np.zeros(400)
    one_node[123] = 2.5
    half = np.zeros(400)
    half[:200] = 1.0
    two_nodes, three_nodes = np.zeros(400), np.zeros(400)
    two_nodes[[7, 300]] = (4.0, 0.5)
    three_nodes[[0, 1, 399]] = (1e6, 3.0, 2.0)
    for vminus in (singular_vminus, half, one_node, two_nodes, three_nodes):
        support = vminus > 0
        sq = np.sqrt(vminus[support])
        for lam in (1.0, 10.0, 1e3, 1e5):
            R = _dense_inverse(unit_m1_400_op, lam)
            wnorm = weighted_l2_check(unit_m1_400_op, vminus, lam)
            Mw = sq[:, None] * R[np.ix_(support, support)] * sq[None, :]
            ref = float(np.linalg.eigvalsh(Mw)[-1])
            assert abs(wnorm - ref) <= 1e-12 * ref
            assert weighted_l2_check(unit_m1_400_op, vminus, lam) == wnorm  # fixed start
    # a one-node support is its single entry, sqrt(V_-) R sqrt(V_-) there,
    # here from the sparse LU against the dense inverse
    R = _dense_inverse(unit_m1_400_op, 10.0)
    want = np.sqrt(2.5) * R[123, 123] * np.sqrt(2.5)
    assert abs(weighted_l2_check(unit_m1_400_op, one_node, 10.0) - want) <= 1e-12 * want


def test_miyadera_rejects_cut_spectrum(unit_m1_400_op):
    cut = eigendecompose(unit_m1_400_op, t_min=1e-2)
    assert cut.t_min == 1e-2 and len(cut.eigenvalues) < 400
    u = _delta_like(unit_m1_400_op)
    with pytest.raises(ValueError, match="complete spectrum"):
        miyadera_integral(cut, np.ones(400), 0.01, u)
    with pytest.raises(ValueError, match="complete spectrum"):
        miyadera_ratio(cut, np.ones(400), 0.01, u)
