import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
import hypothesis.strategies as st
from test_cli import VERIFY_CFG

import heatlab.discretize
from heatlab.cli import main
from heatlab.discretize import (
    DiscreteOperator,
    Grid,
    _axis_factor,
    _pair_factor,
    _sample_points,
    assemble,
    band_lowest,
)
from heatlab.heatkernel import eigendecompose
from heatlab.kato import form_bound, kato_norm_curve, sample_potential
from heatlab.symbols import SymbolSpec, as_field
from heatlab.twist import TwistProfile, growth_fit, lower_bound_k, twisted_form

SPEC_M1 = SymbolSpec.isotropic(1, 1, 1.0, domain=[(0, 1)])
SPEC_M2 = SymbolSpec.isotropic(2, 1, 1.0, domain=[(0, 1)])


def test_grid_geometry():
    g = Grid.make((0.0, 1.0), 3)
    assert g.h == (0.25,)
    assert np.allclose(g.axis_nodes(0), [0.25, 0.5, 0.75])
    assert np.allclose(g.axis_midpoints(0), [0.125, 0.375, 0.625, 0.875])
    with pytest.raises(ValueError):
        Grid.make((1.0, 0.0), 3)
    g2 = Grid.make([(-1, 1), (0, 2)], (4, 8))
    assert g2.n == 2 and g2.node_count == 32
    assert g2.cell_volume == pytest.approx(g2.h[0] * g2.h[1])


def test_central_difference_stencils():
    # the node-centered factors of a pair with mismatched parities
    g = Grid.make((0.0, 5.0), 4)  # h = 1
    d1 = _axis_factor(4, 1.0, 1, staggered=False).toarray()
    assert np.allclose(d1, [[0, .5, 0, 0], [-.5, 0, .5, 0], [0, -.5, 0, .5], [0, 0, -.5, 0]])
    d2 = _axis_factor(4, 1.0, 2, staggered=False).toarray()
    assert np.allclose(d2[1], [1, -2, 1, 0])
    # linear ramp: constant slope away from the Dirichlet ends
    ramp = g.axis_nodes(0)
    slope = d1 @ ramp
    assert np.allclose(slope[1:-1], 1.0)


def test_assemble_m1_tridiagonal_oracle():
    g = Grid.make((0.0, 1.0), 3)
    h = g.h[0]
    op = assemble(SPEC_M1, g)
    expected = (np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1)
                + np.diag([-1.0, -1.0], -1)) / h**2 * h
    assert np.allclose(op.matrix.toarray(), expected / h, atol=1e-13)
    assert op.symmetry_defect() == 0.0


def test_assemble_variable_coefficient_hand_oracle():
    # hand-built staggered energy sum_edges a(mid) ((u_i - u_{i-1})/h)^2 h
    g = Grid.make((0.0, 1.0), 7)
    h = g.h[0]
    a = lambda x: 2.0 + np.sin(2 * np.pi * x)
    spec = SymbolSpec.isotropic(1, 1, as_field("2+sin(2*pi*x)", 1), domain=[(0, 1)])
    N = g.npts[0]
    D = np.zeros((N + 1, N))
    for j in range(N + 1):
        if j < N:
            D[j, j] = 1 / h
        if j >= 1:
            D[j, j - 1] = -1 / h
    W = np.diag([a(x) for x in g.axis_midpoints(0)])
    hand = D.T @ W @ D * h
    op = assemble(spec, g)
    assert np.allclose(op.matrix.toarray(), hand / h, atol=1e-13)


def test_assemble_potential_additivity_exact():
    g = Grid.make((0.0, 1.0), 9)
    h = g.h[0]
    base = assemble(SPEC_M1, g)
    shifted = assemble(SPEC_M1, g, potential=np.full(9, 3.0))
    assert np.array_equal(shifted.matrix.toarray(), base.matrix.toarray() + 3.0 * np.eye(9))
    v1 = np.linspace(0, 1, 9)
    v2 = np.linspace(2, -1, 9)
    both = assemble(SPEC_M1, g, potential=v1 + v2)
    first = assemble(SPEC_M1, g, potential=v1)
    assert np.allclose(both.matrix.toarray(), first.matrix.toarray() + np.diag(v2), atol=1e-15)


def test_assemble_m2_biharmonic_row():
    g = Grid.make((0.0, 1.0), 9)
    h = g.h[0]
    op = assemble(SPEC_M2, g)
    interior = op.matrix.toarray()[4]
    assert np.allclose(interior[2:7] * h**4, [1, -4, 6, -4, 1])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_assemble_records_bandwidth(m):
    spec = SymbolSpec.isotropic(m, 1, 1.0, domain=[(0, 1)])
    op = assemble(spec, Grid.make((0.0, 1.0), 40))
    assert op.band.shape[0] - 1 == m
    H = op.operator_matrix()
    assert np.any(np.diagonal(H, -m))
    assert not np.any(np.tril(H, -m - 1))


def test_extreme_eigenvalues_never_densify(monkeypatch):
    # assembly, the twist sweep and the form bound all work on the sparse
    # form and its band; only full spectra and resolvents go dense
    def refuse(self):
        raise AssertionError("dense operator matrix requested")

    monkeypatch.setattr(DiscreteOperator, "operator_matrix", refuse)
    g = Grid.make((0.0, 1.0), 60)
    op = assemble(SPEC_M2, g, potential=sample_potential("10*x^2", g))
    assert not op.band.flags.writeable
    prof = TwistProfile.from_expression(g, "x", 2)
    rep = growth_fit(op, prof, np.geomspace(2.0, 20.0, 6))
    assert lower_bound_k(op, prof, 0.0) == -band_lowest(op.band)
    assert lower_bound_k(op, prof, 20.0) == rep.k_values[-1]
    assert form_bound(op, np.full(60, 1e4), 0.5) > 0.0


def test_m1_verdict_never_densifies(monkeypatch, tmp_path):
    # an m = 1 verdict whose cut keeps every mode takes the complete spectrum
    # from the tridiagonal band
    def refuse(self):
        raise AssertionError("dense operator matrix requested")

    monkeypatch.setattr(DiscreteOperator, "operator_matrix", refuse)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(VERIFY_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "verdict.txt").read_text(encoding="utf-8").startswith("verdict: PASS\n")


def test_only_complete_spectra_and_kato_curves_densify(monkeypatch):
    # operator_matrix is the one dense builder: a cut spectrum needs none,
    # a complete spectrum and the Kato resolvents go through it
    def refuse(self):
        raise AssertionError("dense operator matrix requested")

    monkeypatch.setattr(DiscreteOperator, "operator_matrix", refuse)
    op = assemble(SPEC_M2, Grid.make((0.0, 1.0), 200))
    cut = eigendecompose(op, t_min=1e-3)
    assert 0 < len(cut.eigenvalues) < 200
    with pytest.raises(AssertionError, match="dense operator"):
        eigendecompose(op)
    with pytest.raises(AssertionError, match="dense operator"):
        kato_norm_curve(op, np.ones(200), [1.0, 10.0])


def test_assembled_operator_is_frozen():
    op = assemble(SPEC_M1, Grid.make((0.0, 1.0), 9))
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.m = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.band = np.zeros_like(op.band)


def _factors(band, shift):
    shifted = np.array(band, order="F")
    shifted[0] -= shift
    return sla.lapack.dpbtrf(shifted, lower=1)[1] == 0


def _lattice_unit(band):
    """The power of two at or above eps ||B||_max."""
    return 2.0 ** np.ceil(np.log2(np.finfo(float).eps * np.max(np.abs(band))))


@pytest.mark.parametrize("m", [2, 3])
def test_band_lowest_is_the_last_shift_that_factors(m):
    g = Grid.make((0.0, 1.0), 300)
    spec = SymbolSpec.isotropic(m, 1, "1+0.5*x", domain=[(0, 1)])
    op = assemble(spec, g, potential=sample_potential("20*x^2", g))
    band = twisted_form(op, TwistProfile.from_expression(g, "x", m), 30.0)
    lo, q = band_lowest(band), _lattice_unit(band)
    assert (lo / q).is_integer()
    assert _factors(band, lo) and not _factors(band, lo + q)
    ref = sla.eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, 0))
    assert abs(lo - ref[0]) <= 8 * np.finfo(float).eps * np.max(np.abs(band))


@st.composite
def _spd_bands(draw):
    """A random symmetric band with kd = 2 to 4, its diagonal shifted so that
    the smallest eigenvalue is a drawn fraction of ||B||_max above zero."""
    kd = draw(st.integers(2, 4))
    n = draw(st.integers(kd + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    band = np.zeros((kd + 1, n))
    for k in range(kd + 1):
        band[k, : n - k] = rng.uniform(-1.0, 1.0, n - k)
    band *= 10.0 ** draw(st.integers(-6, 12))
    lowest = sla.eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, 0))
    band[0] += draw(st.floats(1e-14, 1.0)) * np.max(np.abs(band)) - lowest[0]
    return band


@settings(max_examples=200, deadline=None)
@given(band=_spd_bands(), ends=st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 4.0)),
       width=st.integers(-16, 1))
def test_band_lowest_on_the_lattice_for_any_bracket(band, ends, width):
    # the bisection's answer is a lattice point that factors next to one
    # that does not, and a bracket about, beside or far from it keeps it
    lo, q = band_lowest(band), _lattice_unit(band)
    assert (lo / q).is_integer()
    assert _factors(band, lo) and not _factors(band, lo + q)
    w = 10.0 ** width * np.max(np.abs(band))
    bracket = (lo + ends[0] * w, lo + (ends[0] + ends[1]) * w)
    assert band_lowest(band, bracket) == lo, bracket


@pytest.mark.parametrize("m", [2, 3])
def test_band_lowest_bracket_never_moves_the_value(m):
    # the bands of test_band_lowest_is_the_last_shift_that_factors; a bracket
    # above, below, of zero width or around the eigenvalue, or beyond the
    # Gershgorin bracket, costs factorizations only
    g = Grid.make((0.0, 1.0), 300)
    spec = SymbolSpec.isotropic(m, 1, "1+0.5*x", domain=[(0, 1)])
    op = assemble(spec, g, potential=sample_potential("20*x^2", g))
    band = twisted_form(op, TwistProfile.from_expression(g, "x", m), 30.0)
    lo = band_lowest(band)
    w = 1e-3 * abs(lo)
    for bracket in ((lo + w, lo + 2 * w), (lo - 2 * w, lo - w), (lo, lo), (lo - w, lo + w),
                    (1e30, 2e30), (-2e30, -1e30)):
        assert band_lowest(band, bracket) == lo, bracket


def test_band_lowest_of_diagonal_bands_is_exact():
    diag = np.zeros((3, 5))
    diag[0] = [3.0, -1.5, 2.0, 0.1, -1.25]
    assert band_lowest(diag) == -1.5
    assert band_lowest(np.array([[7.3], [0.0], [0.0]])) == 7.3


def test_assemble_mixed_parity_pair_2d():
    # a cross pair (2,0)x(1,1) has mismatched per-axis parities and takes the
    # node-centered fallback; the assembled form stays symmetric and elliptic
    from heatlab.symbols import ConstantField, SymbolSpec as SS

    g = Grid.make([(0, 1), (0, 1)], (10, 10))
    base = SS.isotropic(2, 2, 1.0, domain=[(0, 1), (0, 1)])
    coeffs = dict(base.coefficients)
    coeffs[((2, 0), (1, 1))] = ConstantField(0.05)
    spec = SS(2, 2, coeffs, base.domain)
    op = assemble(spec, g)
    assert op.symmetry_defect() == 0.0
    assert np.linalg.eigvalsh(op.operator_matrix())[0] > 0.0


def _matrix_sampled_per_pair(spec, grid, potential=None):
    """assemble's H with every pair's coefficient sampled anew: the form plus
    ``diag(V h^n)``, symmetrized, its data divided by h^n."""
    vol = grid.cell_volume
    form = None
    for (a, b), fld in spec.coefficients.items():
        parity_match = all((ka - kb) % 2 == 0 for ka, kb in zip(a, b))
        fa, stag = _pair_factor(grid, a, parity_match)
        fb, _ = _pair_factor(grid, b, parity_match)
        cvals = fld.at_many(_sample_points(grid, stag))
        piece = (fa.T @ sp.diags(cvals) @ fb) * vol
        form = piece if form is None else form + piece
    if potential is not None:
        form = form + sp.diags(potential * vol)
    form = (0.5 * (form + form.T)).tocsr()
    form.data /= vol
    return form


VAR_ISO_2D = SymbolSpec.isotropic(2, 2, "1+0.3*sin(x1)*cos(x2)", domain=[(0, 1), (0, 1)])


@pytest.mark.parametrize("spec", [
    VAR_ISO_2D,
    SymbolSpec(2, 2, {((2, 0), (2, 0)): as_field("1+0.2*x1", 2),
                      ((0, 2), (0, 2)): as_field("2+x2*x1", 2),
                      ((2, 0), (0, 2)): as_field("0.3*cos(x1)", 2),
                      ((1, 1), (1, 1)): as_field("1+0.2*x1", 2)}, VAR_ISO_2D.domain),
], ids=["iso", "cross"])
def test_assemble_samples_shared_fields_once_same_form(spec):
    g = Grid.make([(0, 1), (0, 1)], (20, 20))
    H = assemble(spec, g).matrix
    ref = _matrix_sampled_per_pair(spec, g)
    assert H.shape == ref.shape and (H != ref).nnz == 0


# (symbol, grid, potential expression or None)
_VIEW_CASES = {
    "m1-well": (SymbolSpec.isotropic(1, 1, 1.0, domain=[(-8, 8)]), Grid.make((-8.0, 8.0), 800),
                "-10*exp(-x^2)"),
    "m2-free": (SymbolSpec.isotropic(2, 1, 1.0, domain=[(-4, 4)]), Grid.make((-4.0, 4.0), 1200),
                None),
    "m2-quartic": (SymbolSpec.isotropic(2, 1, 1.0, domain=[(-4, 4)]),
                   Grid.make((-4.0, 4.0), 800), "x^4"),
    "m3-var": (SymbolSpec.isotropic(3, 1, "1+0.5*x", domain=[(0, 1)]), Grid.make((0.0, 1.0), 300),
               "20*x^2"),
    "2d-var": (VAR_ISO_2D, Grid.make([(0, 1), (0, 1)], (20, 20)), None),
}


@pytest.mark.parametrize("name", sorted(_VIEW_CASES))
def test_sparse_dense_and_band_views_of_h_agree_bitwise(name):
    # the Lanczos path and the health figures read op.matrix, a complete
    # spectrum reads operator_matrix() and the band count reads op.band:
    # all three are the one H, to the last bit
    spec, g, pot = _VIEW_CASES[name]
    v = None if pot is None else sample_potential(pot, g)
    op = assemble(spec, g, potential=v)
    assert (op.matrix != _matrix_sampled_per_pair(spec, g, v)).nnz == 0
    assert np.array_equal(op.matrix.toarray().view(np.int64), op.operator_matrix().view(np.int64))
    n = op.grid.node_count
    for k, row in enumerate(op.band):
        assert np.array_equal(row[: n - k].view(np.int64), op.matrix.diagonal(-k).view(np.int64))


def test_assemble_samples_each_field_once_per_point_set(monkeypatch, point_evals):
    monkeypatch.setattr(heatlab.discretize, "ellipticity_constant", lambda *args, **kw: 1.0)
    assemble(VAR_ISO_2D, Grid.make([(0, 1), (0, 1)], (20, 20)))
    # a at the 400 nodes (pairs (2,0),(2,0) and (0,2),(0,2)), 2a at the 441 edge midpoints
    assert point_evals["at"] == 400 + 441


def test_assemble_2d_laplacian_and_bilaplacian_structure():
    g = Grid.make([(0, 1), (0, 1)], (12, 12))
    spec1 = SymbolSpec.isotropic(1, 2, 1.0, domain=[(0, 1), (0, 1)])
    spec2 = SymbolSpec.isotropic(2, 2, 1.0, domain=[(0, 1), (0, 1)])
    L = assemble(spec1, g).operator_matrix()
    B = assemble(spec2, g).operator_matrix()
    # fourth-order isotropic assembly is exactly the square of the five-point form
    assert np.allclose(B, L @ L, atol=1e-8 * np.max(np.abs(B)))
    h = g.h[0]
    ks = np.arange(1, 13)
    freqs = 4 / h**2 * np.sin(ks * np.pi * h / 2) ** 2
    exact = np.sort((freqs[:, None] + freqs[None, :]).ravel())
    got = np.linalg.eigvalsh(L)
    assert np.allclose(got, exact, rtol=1e-9)


def test_eigenvalue_consistency_n200():
    g = Grid.make((0.0, 1.0), 200)
    op = assemble(SPEC_M1, g)
    sd = eigendecompose(op)
    h = g.h[0]
    ks = np.arange(1, 6)
    discrete_exact = 4 / h**2 * np.sin(ks * np.pi * h / 2) ** 2
    assert np.allclose(sd.eigenvalues[:5], discrete_exact, rtol=1e-11)
    continuum = (ks * np.pi) ** 2
    assert np.all(np.abs(sd.eigenvalues[:5] - continuum) / continuum < 0.005)


def test_positive_potential_never_decreases_spectrum():
    g = Grid.make((0.0, 1.0), 60)
    rng = np.random.default_rng(0)
    vplus = rng.uniform(0.0, 50.0, 60)
    w0 = np.linalg.eigvalsh(assemble(SPEC_M1, g).operator_matrix())[:10]
    w1 = np.linalg.eigvalsh(assemble(SPEC_M1, g, potential=vplus).operator_matrix())[:10]
    assert np.all(w1 >= w0 - 1e-10)


def test_nonelliptic_symbol_rejected():
    g = Grid.make((0.0, 1.0), 9)
    zero = SymbolSpec.isotropic(1, 1, 0.0, domain=[(0, 1)])
    with pytest.raises(ValueError, match="elliptic"):
        assemble(zero, g)


def test_huge_potential_warns():
    g = Grid.make((0.0, 1.0), 9)
    with pytest.warns(RuntimeWarning, match="potential"):
        assemble(SPEC_M1, g, potential=np.full(9, 1e13))
