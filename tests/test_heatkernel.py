import numpy as np
import pytest
import scipy.linalg as sla

from conftest import make_line_operator
from heatlab.config import OperatorConfig
from heatlab.discretize import assemble
from heatlab.experiments import operator_pieces
from heatlab.heatkernel import (
    eigendecompose,
    fourier_oracle,
    kernel,
    kernel_matrix,
    oracle_field,
    semigroup_check,
    spectral_field,
    trace_identity_defect,
)

@pytest.fixture(scope="module")
def unit_m1_200():
    op = make_line_operator(1, n_pts=200, bounds=(0.0, 1.0))
    return op, eigendecompose(op)


def test_dirichlet_modes_are_sines(unit_m1_200):
    op, sd = unit_m1_200
    x = op.grid.axis_nodes(0)
    v1 = sd.eigenvectors[:, 0]
    target = np.sqrt(2.0) * np.sin(np.pi * x)
    if v1 @ target < 0:
        v1 = -v1
    assert np.max(np.abs(v1 - target)) < 1e-4
    sd.validate(op.operator_matrix())


def test_m2_eigenvalues_track_fourth_powers():
    op = make_line_operator(2, n_pts=400, bounds=(0.0, 1.0))
    sd = eigendecompose(op)
    ks = np.arange(1, 6)
    target = (ks * np.pi) ** 4
    rel = np.abs(sd.eigenvalues[:5] - target) / target
    assert np.all(rel < 1e-2)
    assert np.all(np.diff(sd.eigenvalues[:10]) > 0)


def test_classical_on_diagonal_value(line_m1):
    i0 = line_m1.grid.nearest_node([0.0])
    got = kernel(line_m1, 0.1, i0, i0)
    assert got == pytest.approx((4 * np.pi * 0.1) ** -0.5, rel=0.01)


def test_long_time_rank_one_limit(unit_m1_200):
    op, sd = unit_m1_200
    lam1 = sd.eigenvalues[0]
    t = 50.0 / lam1
    i, j = 40, 111
    got = kernel(sd, t, i, j)
    lead = np.exp(-lam1 * t) * sd.eigenvectors[i, 0] * sd.eigenvectors[j, 0]
    assert got == pytest.approx(lead, rel=1e-6)


def test_kernel_symmetry_is_exact(unit_m1_200):
    _, sd = unit_m1_200
    for t in (0.01, 0.3):
        assert kernel(sd, t, 17, 131) == kernel(sd, t, 131, 17)


def test_kernel_rejects_nonpositive_time(unit_m1_200):
    _, sd = unit_m1_200
    with pytest.raises(ValueError):
        kernel(sd, 0.0, 0, 0)
    with pytest.raises(ValueError):
        semigroup_check(sd, 0.0, 0.1)


def test_chapman_kolmogorov(unit_m1_200):
    _, sd = unit_m1_200
    for t, s in ((0.1, 0.1), (1e-3, 1e-3), (0.05, 0.2)):
        defect = semigroup_check(sd, t, s)
        scale = np.max(np.abs(kernel_matrix(sd, t + s)))
        assert defect <= 1e-8 * scale


def test_trace_identity(unit_m1_200):
    _, sd = unit_m1_200
    for t in (0.01, 0.1, 1.0):
        assert trace_identity_defect(sd, t) < 1e-9


def test_2d_spectral_kernel_factorizes():
    # unit-coefficient m=1 in 2D: K2(t,(x1,y1),(x2,y2)) = K1(t,x1,x2) K1(t,y1,y2)
    from heatlab.discretize import Grid, assemble
    from heatlab.symbols import SymbolSpec

    n1 = make_line_operator(1, n_pts=16, bounds=(0.0, 1.0))
    s1 = eigendecompose(n1)
    spec2 = SymbolSpec.isotropic(1, 2, 1.0, domain=[(0, 1), (0, 1)])
    op2 = assemble(spec2, Grid.make([(0, 1), (0, 1)], (16, 16)))
    s2 = eigendecompose(op2)
    t = 0.05
    i, j, k, l = 3, 9, 5, 12
    got = kernel(s2, t, i * 16 + j, k * 16 + l)
    want = kernel(s1, t, i, k) * kernel(s1, t, j, l)
    assert got == pytest.approx(want, rel=1e-9)
    assert trace_identity_defect(s2, t) < 1e-9


def test_positivity_of_second_order_field(line_m1):
    pairs = [(-1.0, r - 1.0) for r in np.linspace(0.0, 2.0, 9)]
    fld = spectral_field(line_m1, [0.05, 0.2, 0.5], pairs)
    assert min(K for t, x, y, K in fld) >= -1e-12


def test_fourier_oracle_matches_gaussian():
    for t in (0.1, 1.0):
        for r in (0.0, 1.0, 2.0):
            exact = (4 * np.pi * t) ** -0.5 * np.exp(-(r**2) / (4 * t))
            assert fourier_oracle(1, 1.0, t, r) == pytest.approx(exact, abs=1e-8)


def test_fourier_oracle_quartic_scaling():
    # K(t,0,0) = c t^(-1/4): exact factor 2 between t and 16t
    ratio = fourier_oracle(2, 1.0, 1e-3, 0.0) / fourier_oracle(2, 1.0, 16e-3, 0.0)
    assert ratio == pytest.approx(2.0, rel=1e-10)


def test_fourier_oracle_quartic_sign_change():
    t = 1e-2
    rs = np.linspace(1e-3, 6 * t**0.25, 120)
    vals = np.array([fourier_oracle(2, 1.0, t, r) for r in rs])
    assert vals.min() < 0.0 < vals.max()


def test_fourier_oracle_guards():
    with pytest.raises(ValueError):
        fourier_oracle(1, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fourier_oracle(1, -1.0, 0.1, 1.0)


def test_ondiag_bound_scaling():
    fld = oracle_field(1, 1.0, np.geomspace(1e-3, 1e-1, 7), [(0.0, 0.0)])
    c1 = max(abs(v) * t**0.5 for t, x, y, v in fld)
    assert c1 == pytest.approx((4 * np.pi) ** -0.5, rel=1e-8)
    fld2 = oracle_field(2, 1.0, np.geomspace(1e-3, 1e-1, 7), [(0.0, 0.0)])
    vals = [abs(v) * t**0.25 for t, x, y, v in fld2]
    assert max(vals) / min(vals) == pytest.approx(1.0, rel=1e-9)


def test_ondiag_bound_interval_midpoint(line_m1):
    i0 = line_m1.grid.nearest_node([0.0])
    ts = np.geomspace(1e-3, 1e-1, 9)
    vals = [abs(kernel(line_m1, t, i0, i0)) * t**0.5 for t in ts]
    assert max(vals) / min(vals) <= 2.0


def test_spectral_vs_oracle_cross_validation_m1(line_m1):
    # within 2% for centered pairs, |x-y| <= L/8, t below the boundary cap
    i0 = line_m1.grid.nearest_node([0.0])
    nodes = line_m1.grid.node_coordinates()[:, 0]
    for t in (0.12, 0.18, 0.25):
        for r in (0.0, 0.5, 1.0, 1.5, 2.0):
            j = line_m1.grid.nearest_node([r])
            got = kernel(line_m1, t, i0, j)
            ref = fourier_oracle(1, 1.0, t, nodes[j] - nodes[i0])
            assert got == pytest.approx(ref, rel=0.02)


def test_spectral_vs_oracle_cross_validation_m2(line_m2):
    i0 = line_m2.grid.nearest_node([0.0])
    nodes = line_m2.grid.node_coordinates()[:, 0]
    for t in (0.5, 1.0, 2.0):
        for r in (0.0, 0.5, 1.0, 1.5, 2.0):
            j = line_m2.grid.nearest_node([r])
            got = kernel(line_m2, t, i0, j)
            ref = fourier_oracle(2, 1.0, t, nodes[j] - nodes[i0])
            assert got == pytest.approx(ref, rel=0.02, abs=1e-12)


def test_boundary_contamination_guard():
    # doubling the interval moves the centered kernel by < 1% at admissible t;
    # N chosen so both grids share h = 0.04 and the probe nodes coincide
    small = eigendecompose(make_line_operator(1, n_pts=199, bounds=(-4.0, 4.0)))
    big = eigendecompose(make_line_operator(1, n_pts=399, bounds=(-8.0, 8.0)))
    t = (8.0 / 8.0) ** 2 / 16.0
    for r in (0.0, 0.4, 0.8):
        i_s, j_s = small.grid.nearest_node([0.0]), small.grid.nearest_node([r])
        i_b, j_b = big.grid.nearest_node([0.0]), big.grid.nearest_node([r])
        assert small.grid.node_coordinates()[j_s, 0] == pytest.approx(
            big.grid.node_coordinates()[j_b, 0], abs=1e-12
        )
        a = kernel(small, t, i_s, j_s)
        b = kernel(big, t, i_b, j_b)
        assert a == pytest.approx(b, rel=0.01)


def test_validate_accepts_stiff_operator(line_m2_op, line_m2):
    # operator norm ~ 1e8 here; the residual floor makes the check feasible
    assert line_m2.validate(line_m2_op.operator_matrix())


# the stock verify operators at N = 800, with the times each verdict samples
_CUT_CASES = {
    "perturbed": (2, (0.0, 1.0), "1+0.1*sin(2*pi*x)", None, (5e-5, 1e-4, 2e-4)),
    "quartic-free": (2, (-4.0, 4.0), "1", None, (1e-3, 4e-3, 1e-2)),
    "quartic-confining": (2, (-4.0, 4.0), "1", "x^4", (1e-3, 4e-3, 1e-2)),
}


@pytest.mark.parametrize("name", sorted(_CUT_CASES))
def test_cut_spectrum_kernel_equals_full(name):
    # The dropped weights are exactly 0.0, so the cut itself changes no sum.
    # What differs is LAPACK's path: each set of eigenvectors is resolved to
    # about eps ||H|| / gap, which gives up to 2e-8 of a time slice's scale
    # on the perturbed operator (||H|| ~ 7e12) and 7e-10 on the quartics.
    m, domain, a, potential, ts = _CUT_CASES[name]
    cfg = OperatorConfig(m=m, domain=(domain,), grid_n=(800,), a=a, potential=potential)
    op = assemble(*operator_pieces(cfg))
    full = eigendecompose(op)
    cut = eigendecompose(op, t_min=ts[0])
    k = len(cut.eigenvalues)
    assert cut.t_min == ts[0] and full.t_min == 0.0
    assert k < 100 and np.all(np.exp(-full.eigenvalues[k:] * ts[0]) == 0.0)
    assert np.exp(-full.eigenvalues[k - 1] * ts[0]) > 0.0
    floor = 8 * np.finfo(float).eps * full.eigenvalues[-1]  # eps ||H||, 1e-2 when perturbed
    np.testing.assert_allclose(cut.eigenvalues, full.eigenvalues[:k], rtol=0, atol=floor)
    for t in ts:
        K = kernel_matrix(full, t)
        assert np.max(np.abs(kernel_matrix(cut, t) - K)) <= 1e-7 * np.max(np.abs(K))


def test_cut_spectrum_refuses_earlier_times():
    op = make_line_operator(2, n_pts=200, bounds=(0.0, 1.0))
    t_min = 1e-4
    sd = eigendecompose(op, t_min=t_min)
    assert sd.t_min == t_min and len(sd.eigenvalues) < 200
    for call in (lambda t: kernel(sd, t, 3, 5), lambda t: kernel_matrix(sd, t),
                 lambda t: semigroup_check(sd, t, t_min), lambda t: semigroup_check(sd, t_min, t),
                 lambda t: trace_identity_defect(sd, t)):
        with pytest.raises(ValueError, match="t_min"):
            call(0.5 * t_min)
        call(t_min)  # the smallest sampled time itself is exact
    with pytest.raises(ValueError, match="nonnegative"):
        eigendecompose(op, t_min=-1.0)


# m = 1 operators on [0, 1] with N = 200, whose complete spectra from a cut
# take the tridiagonal band's route: a = 1, a variable coefficient, well-m1's well
M1_OPERATORS = {
    "constant": lambda: make_line_operator(1, n_pts=200, bounds=(0.0, 1.0)),
    "variable-a": lambda: assemble(*operator_pieces(OperatorConfig(a="1+0.5*cos(x)"))),
    "well": lambda: assemble(*operator_pieces(OperatorConfig(potential="-exp(-x^2)"))),
}


@pytest.mark.parametrize("make_op", M1_OPERATORS.values(), ids=M1_OPERATORS.keys())
def test_cut_above_spectrum_keeps_every_mode(make_op):
    op = make_op()
    assert op.band.shape == (2, 200)
    full = eigendecompose(op)
    top = full.eigenvalues[-1]
    # far above the spectrum: the full decomposition itself
    far = eigendecompose(op, t_min=1e-3 * 746.0 / top)
    assert far.t_min == 0.0
    np.testing.assert_array_equal(far.eigenvalues, full.eigenvalues)
    np.testing.assert_array_equal(far.eigenvectors, full.eigenvectors)
    # just above the top eigenvalue, below the Gershgorin bound: the value
    # range holds every mode, so the spectrum is complete
    near = eigendecompose(op, t_min=746.0 / (top * (1 + 1e-6)))
    assert near.t_min == 0.0 and len(near.eigenvalues) == 200
    np.testing.assert_allclose(near.eigenvalues, full.eigenvalues, rtol=0,
                               atol=8 * np.finfo(float).eps * top)
    assert trace_identity_defect(near, 1e-9) < 1e-9
    # both come from the band, with the dense reference's bits
    for sd in (far, near):
        np.testing.assert_array_equal(sd.eigenvalues, full.eigenvalues)
        np.testing.assert_array_equal(sd.eigenvectors, full.eigenvectors)
        assert sd.validate(op.matrix)


def test_kernel_oracle_cut_from_band_matches_full():
    # the kernel-oracle operator: the cut spectrum comes from the band count
    # and shift-invert Lanczos on the sparse operator, with no dense matrix
    cfg = OperatorConfig(m=2, domain=((-4.0, 4.0),), grid_n=(1200,), a="1")
    op = assemble(*operator_pieces(cfg))
    cut = eigendecompose(op, t_min=1e-3)
    assert cut.t_min == 1e-3 and len(cut.eigenvalues) == 74
    # the stock residual and orthonormality bounds hold against the sparse operator
    assert cut.validate(op.matrix)
    full = eigendecompose(op)
    floor = 8 * np.finfo(float).eps * full.eigenvalues[-1]
    np.testing.assert_allclose(cut.eigenvalues, full.eigenvalues[:74], rtol=0, atol=floor)
    for t in (1e-3, 2e-3, 4e-3, 1e-2):
        K = kernel_matrix(full, t)
        assert np.max(np.abs(kernel_matrix(cut, t) - K)) <= 1e-7 * np.max(np.abs(K))


def test_cut_keeping_one_mode_or_none():
    op = make_line_operator(1, n_pts=200, bounds=(0.0, 1.0))
    full = eigendecompose(op)
    l0, l1 = full.eigenvalues[:2]
    t_min = 746.0 / (0.5 * (l0 + l1))  # the cut lies between the two lowest
    one = eigendecompose(op, t_min=t_min)
    assert one.t_min == t_min and len(one.eigenvalues) == 1
    assert one.eigenvalues[0] == pytest.approx(l0, abs=8 * np.finfo(float).eps * full.eigenvalues[-1])
    v, w = one.eigenvectors[:, 0], full.eigenvectors[:, 0]
    assert np.max(np.abs(v * np.sign(v @ w) - w)) < 1e-10
    assert kernel(one, t_min, 60, 90) == pytest.approx(kernel(full, t_min, 60, 90), rel=1e-10)
    none = eigendecompose(op, t_min=746.0 / (0.5 * l0))  # below the spectrum
    assert none.eigenvectors.shape == (200, 0) and kernel(none, 2 * 746.0 / l0, 3, 5) == 0.0


def test_cut_equal_to_a_band_eigenvalue_drops_that_mode():
    # the cut keeps l < 746 / t_min: a mode at the cut itself has weight
    # exp(-746) = 0.0 at every t >= t_min
    op = make_line_operator(1, n_pts=200, bounds=(0.0, 1.0))
    band = sla.eig_banded(op.band, lower=True, eigvals_only=True)
    t_min = 746.0 / band[20]
    for _ in range(4):  # nudge t_min until the cut is the band eigenvalue itself
        if 746.0 / t_min == band[20]:
            break
        t_min = np.nextafter(t_min, np.inf if 746.0 / t_min > band[20] else 0.0)
    assert 746.0 / t_min == band[20] and np.exp(-746.0) == 0.0
    cut = eigendecompose(op, t_min=t_min)
    assert cut.t_min == t_min and len(cut.eigenvalues) == 20
    full = eigendecompose(op)
    assert kernel(cut, t_min, 60, 90) == pytest.approx(kernel(full, t_min, 60, 90), rel=1e-10)


@pytest.mark.parametrize("make_op", M1_OPERATORS.values(), ids=M1_OPERATORS.keys())
def test_cut_keeping_many_modes_is_complete(make_op):
    # a cut below the Gershgorin bound that keeps more than a quarter of the
    # modes takes the complete decomposition: on an m = 1 band, the band's
    # MRRR, whose eigenpairs are the dense reference's bits
    op = make_op()
    full = eigendecompose(op)
    sd = eigendecompose(op, t_min=746.0 / full.eigenvalues[100])
    assert sd.t_min == 0.0 and len(sd.eigenvalues) == 200
    np.testing.assert_array_equal(sd.eigenvalues, full.eigenvalues)
    np.testing.assert_array_equal(sd.eigenvectors, full.eigenvectors)
    assert sd.validate(op.matrix)


def test_cut_spectrum_missed_mode_raises(monkeypatch):
    # a Lanczos run that returned the wrong modes disagrees with the band count
    import scipy.sparse.linalg as spla

    real = spla.eigsh

    def near_cut(H, k, sigma, **kwargs):
        kwargs.pop("OPinv")
        return real(H, k, sigma=746.0 / 0.1, **kwargs)  # the k modes nearest the cut

    monkeypatch.setattr(spla, "eigsh", near_cut)
    op = make_line_operator(1, n_pts=200, bounds=(0.0, 1.0))
    with pytest.raises(RuntimeError, match="missed"):
        eigendecompose(op, t_min=0.1)
