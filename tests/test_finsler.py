import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

import heatlab.finsler
from heatlab.discretize import Grid
from heatlab.finsler import (
    _LATTICE_MOVES,
    LengthElement,
    distance_1d,
    distance_dm_1d,
    distance_lattice_2d,
    _cap_rows,
    _edge_weights,
    _slope_caps,
)
from heatlab.symbols import CoefficientField, SymbolSpec, as_field, eval_symbol

SPEC_VAR = SymbolSpec.isotropic(2, 1, "(1+x)^4")
UNIT = ((0.0, 1.0),)
UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))
LN2 = float(np.log(2.0))


def test_length_element_1d():
    assert LengthElement(SymbolSpec.isotropic(1, 1, 1.0))([0.0], [1.0]) == 1.0
    spec16 = SymbolSpec.isotropic(2, 1, 16.0)
    assert LengthElement(spec16)([0.3], [1.0]) == pytest.approx(0.5)
    assert LengthElement(spec16)([0.3], [-2.0]) == pytest.approx(1.0)


def test_length_element_isotropic_2d_is_euclidean():
    iso = SymbolSpec.isotropic(2, 2, 1.0)
    p = LengthElement(iso)
    rng = np.random.default_rng(0)
    for _ in range(12):
        eta = rng.standard_normal(2)
        assert p([0.1, -0.2], eta) == pytest.approx(np.linalg.norm(eta), rel=1e-6)


def test_length_element_homogeneity_and_positivity():
    p = LengthElement(SPEC_VAR)
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.uniform(0.05, 0.95)
        eta = rng.uniform(-3, 3)
        if abs(eta) < 1e-6:
            eta = 1.0
        s = rng.uniform(0.1, 9.0)
        assert p([x], [s * eta]) == pytest.approx(s * p([x], [eta]), rel=1e-12)
        assert p([x], [eta]) > 0.0
    with pytest.raises(ValueError):
        p([0.5], [0.0])


def test_degenerate_symbol_rejected():
    bad = SymbolSpec.isotropic(1, 1, "x-0.5")
    with pytest.raises(ValueError, match="degenerate"):
        LengthElement(bad)([0.25], [1.0])


SPEC_ISO_VAR = SymbolSpec.isotropic(2, 2, "1+0.3*sin(x1)*cos(x2)")
BOX_ISO_VAR = ((-3.0, 3.0), (-3.0, 3.0))
SPEC_AXIS = SymbolSpec.axis_powers(2, 2, (16.0, 1.0))


@pytest.mark.parametrize("spec, bounds", [
    (SPEC_VAR, UNIT), (SPEC_ISO_VAR, BOX_ISO_VAR), (SPEC_AXIS, UNIT_SQUARE),
], ids=["1d", "iso-2d", "axis"])
def test_length_element_batch_equals_scalar_calls(spec, bounds):
    p = LengthElement(spec)
    rng = np.random.default_rng(4)
    lo, hi = np.array(bounds).T
    pts = lo + (hi - lo) * rng.uniform(0.05, 0.95, (40, spec.n))
    etas = rng.standard_normal((40, spec.n))
    batch = p(pts, etas)
    assert batch.shape == (40,)
    assert np.array_equal(batch, [p(x, e) for x, e in zip(pts, etas)])
    # one eta for every point
    assert np.array_equal(p(pts, etas[0]), [p(x, etas[0]) for x in pts])
    # the symbol itself, with one xi per point and one for all
    assert np.array_equal(eval_symbol(spec, pts, etas),
                          [eval_symbol(spec, x, e) for x, e in zip(pts, etas)])
    assert np.array_equal(eval_symbol(spec, pts, etas[0]),
                          [eval_symbol(spec, x, etas[0]) for x in pts])


@pytest.mark.parametrize("m, weights", [(1, (3.0, 0.5)), (2, (16.0, 1.0)), (3, (2.0, 5.0))])
def test_anisotropic_search_matches_dual_norm(m, weights):
    # p is the dual norm of (sum_i c_i xi_i^(2m))^(1/2m)
    spec = SymbolSpec.axis_powers(m, 2, weights)
    rng = np.random.default_rng(5)
    etas = rng.standard_normal((64, 2))
    q = 2 * m / (2 * m - 1)
    c = np.array(weights)
    exact = np.sum(c ** (-1 / (2 * m - 1)) * np.abs(etas) ** q, axis=1) ** (1 / q)
    vals = LengthElement(spec)(np.full((64, 2), 0.5), etas)
    np.testing.assert_allclose(vals, exact, rtol=1e-9)


@pytest.mark.parametrize("spec", [
    SymbolSpec.isotropic(2, 2, "x1-0.5"),
    SymbolSpec.axis_powers(2, 2, ("x1-0.5", 1.0)),
], ids=["isotropic", "axis"])
def test_degenerate_point_in_batch_named(spec):
    pts = np.array([[0.7, 0.1], [0.25, 0.3], [0.9, 0.9]])
    msg = re.escape(f"degenerate symbol at x={pts[1]}")
    with pytest.raises(ValueError, match=msg):
        LengthElement(spec)(pts, [1.0, 0.5])


def test_length_element_rejects_bad_input():
    p = LengthElement(SymbolSpec.isotropic(2, 2, "1/x1"))
    with pytest.raises(ValueError, match="coefficient evaluation failed"):
        p(np.array([[0.5, 0.5], [0.0, 0.5]]), [1.0, 0.0])
    with pytest.raises(ValueError, match="one row per point"):
        p([0.5, 0.5], np.ones((3, 2)))


def test_distance_1d_values():
    flat = SymbolSpec.isotropic(1, 1, 1.0)
    assert distance_1d(flat, 0.2, 0.9) == pytest.approx(0.7, rel=1e-12)
    spec16 = SymbolSpec.isotropic(2, 1, 16.0)
    assert distance_1d(spec16, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert distance_1d(SPEC_VAR, 0.0, 1.0) == pytest.approx(LN2, abs=1e-8)
    assert distance_1d(SPEC_VAR, 0.5, 0.5) == 0.0
    # symmetry
    assert distance_1d(SPEC_VAR, 1.0, 0.0) == distance_1d(SPEC_VAR, 0.0, 1.0)


def test_distance_1d_maximizer_saturates_symbol():
    from heatlab.finsler import reciprocal_root
    from heatlab.symbols import eval_symbol

    for x in np.linspace(0.05, 0.95, 11):
        slope = reciprocal_root(SPEC_VAR, x)
        assert eval_symbol(SPEC_VAR, [x], [slope]) == pytest.approx(1.0, abs=1e-10)


def test_dm_flat_symbol_exact_for_every_cap():
    flat2 = SymbolSpec.isotropic(2, 1, 1.0)
    for M in (0.05, 1.0, 40.0):
        r = distance_dm_1d(flat2, M, 0.0, 1.0)
        assert r.converged
        assert r.value == pytest.approx(1.0, rel=1e-9)


def test_dm_m1_has_no_derivative_caps():
    flat1 = SymbolSpec.isotropic(1, 1, "4")
    r = distance_dm_1d(flat1, 1e-6, 0.0, 1.0)
    assert r.value == pytest.approx(0.5, rel=1e-9)


def test_dm_variable_coefficient_converges_up():
    xs = np.linspace(0.0, 1.0, 201)
    row_tol = 1e-12 * float(np.max(_slope_caps(SPEC_VAR, xs))) * (xs[1] - xs[0])
    vals = {}
    for M in (0.1, 0.5, 1.0, 5.0):
        r = distance_dm_1d(SPEC_VAR, M, 0.0, 1.0)
        assert r.converged
        assert r.iterations > 0
        # the LP certificate: rows hold to round-off, primal equals dual
        assert r.feasibility_defect <= row_tol
        assert r.dual_gap <= 1e-9
        vals[M] = r.value
    assert vals[0.1] < vals[0.5] < vals[1.0] - 1e-9
    assert vals[1.0] == pytest.approx(vals[5.0], abs=1e-6)
    assert vals[5.0] / LN2 >= 0.98
    assert vals[1.0] / LN2 >= 0.98
    # M -> 0+ strictly below the uncapped distance
    assert vals[0.1] < LN2 - 0.05
    # never above the exact distance
    for v in vals.values():
        assert v <= LN2 + 1e-6


def test_cap_rows_built_once_read_only():
    A = _cap_rows(9, 3)
    assert _cap_rows(9, 3) is A
    assert not any(arr.flags.writeable for arr in (A.data, A.indices, A.indptr))
    # rows: +D_k then -D_k for k = 1..m, D_k the k-th forward difference
    eye = np.eye(9)
    blocks = [np.diff(eye, k, axis=0) for k in (1, 2, 3)]
    assert np.array_equal(A.toarray(), np.vstack([b for d in blocks for b in (d, -d)]))


def test_dm_sign_convention():
    r = distance_dm_1d(SPEC_VAR, 1.0, 1.0, 0.0)
    assert r.value == pytest.approx(-distance_dm_1d(SPEC_VAR, 1.0, 0.0, 1.0).value)


SPEC_M3 = SymbolSpec.isotropic(3, 1, "2+cos(3*x)")


def test_dm_m3_tight_cap_solved():
    # the projected-gradient solver this LP replaced returned nan here
    r = distance_dm_1d(SPEC_M3, 1.0, -1.5, 0.3)
    assert r.converged
    assert r.value == pytest.approx(1.62982199593664, rel=1e-12)
    assert r.dual_gap <= 1e-9


@pytest.mark.parametrize("pair, d", [
    ((-0.5, 0.5), 0.8500108790036942),
    ((-1.5, 0.3), 1.6321236574380833),
    ((0.2, 1.7), 1.3905410627705224),
    ((-2.0, -1.0), 0.9138145035074923),
])
def test_dm_m3_values_pinned(pair, d):
    # values of the projected-gradient solver, which converged at M = 5
    r = distance_dm_1d(SPEC_M3, 5.0, *pair)
    assert r.converged
    assert r.value == pytest.approx(d, rel=1e-12)


def _linprog_dm(spec, M, y1, y2, npoints=201):
    """d_M(y1, y2) of the same LP, solved cold by ``scipy.optimize.linprog``."""
    from scipy.optimize import linprog

    xs = np.linspace(min(y1, y2), max(y1, y2), npoints)
    h = xs[1] - xs[0]
    caps = _slope_caps(spec, xs)
    slabs = [caps * h] + [np.full(npoints - k, M * h**k) for k in range(2, spec.m + 1)]
    b = np.concatenate([cap for slab in slabs for cap in (slab, slab)])
    c = np.zeros(npoints)
    c[-1] = -1.0
    bounds = np.full((npoints, 2), [-np.inf, np.inf])
    bounds[0] = 0.0
    res = linprog(c, A_ub=_cap_rows(npoints, spec.m), b_ub=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return (1.0 if y2 >= y1 else -1.0) * res.x[-1], 1e-12 * float(np.max(caps)) * h


# centred pairs like the quartic-free verdict's, and the perfbench dm-m3 pairs
SPEC_QUARTIC_FREE = SymbolSpec.isotropic(2, 1, "1")
VERIFY_PAIRS = [(-s / 2, s / 2) for s in np.linspace(0.2, 1.0, 40)]
DM_M3_PAIRS = [(-0.5, 0.5), (-1.5, 0.3), (0.2, 1.7), (-2.0, -1.0)]


@pytest.mark.parametrize("spec, M, pairs", [
    (SPEC_QUARTIC_FREE, 5.0, VERIFY_PAIRS),
    (SymbolSpec.isotropic(2, 1, "1+0.2*sin(3*x)"), 5.0, VERIFY_PAIRS),
    (SPEC_M3, 1.0, DM_M3_PAIRS),
    (SPEC_M3, 5.0, DM_M3_PAIRS),
], ids=["quartic-free", "verify-variable", "dm-m3-tight", "dm-m3"])
def test_dm_sequence_matches_cold_linprog_per_pair(spec, M, pairs):
    r = distance_dm_1d(spec, M, [p[0] for p in pairs], [p[1] for p in pairs])
    assert r.converged
    assert isinstance(r.converged, bool) and isinstance(r.iterations, int)
    assert r.value.shape == r.feasibility_defect.shape == r.dual_gap.shape == (len(pairs),)
    for i, (y1, y2) in enumerate(pairs):
        want, row_tol = _linprog_dm(spec, M, y1, y2)
        assert r.value[i] == pytest.approx(want, rel=1e-12, abs=0.0)
        # each pair's own certificate
        assert r.feasibility_defect[i] <= row_tol
        assert r.dual_gap[i] <= 1e-9


def test_dm_hot_start_takes_few_iterations():
    starts, ends = zip(*VERIFY_PAIRS)
    cold = distance_dm_1d(SPEC_QUARTIC_FREE, 5.0, starts[0], ends[0])
    r = distance_dm_1d(SPEC_QUARTIC_FREE, 5.0, starts, ends)
    # 40 cold solves would take 40 times the first; hot ones start optimal
    assert 0 < r.iterations <= 2 * cold.iterations
    # the first pair starts cold in both calls
    assert r.value[0] == cold.value


def test_dm_sequence_edge_cases(highs_solves):
    r = distance_dm_1d(SPEC_M3, 5.0, [0.3, -0.5, 0.5], [0.3, 0.5, -0.5])
    assert r.value[0] == 0.0 and r.value[2] == -r.value[1] != 0.0
    assert highs_solves["hot"] == [False, True]  # a zero-length pair needs no solve
    r1 = distance_dm_1d(SymbolSpec.isotropic(1, 1, "4"), 1.0, [0.0, 0.0], [1.0, 0.5])
    assert r1.value.tolist() == pytest.approx([0.5, 0.25], rel=1e-12) and r1.iterations == 0
    with pytest.raises(ValueError, match="one length"):
        distance_dm_1d(SPEC_M3, 5.0, [0.0, 1.0], [1.0])


def test_dm_pair_not_optimal_reads_nan_and_next_starts_cold(highs_solves):
    highs_solves["fail"].add(1)
    r = distance_dm_1d(SPEC_M3, 5.0, [-0.5, -1.5, 0.2], [0.5, 0.3, 1.7])
    assert highs_solves["hot"] == [False, True, False]
    assert r.converged is False and r.first_failure() == 1
    assert math.isnan(r.value[1])
    assert r.feasibility_defect[1] == r.dual_gap[1] == math.inf
    assert not np.isnan(r.value[[0, 2]]).any()
    # a cold start, as in a call of its own
    assert r.value[2] == distance_dm_1d(SPEC_M3, 5.0, 0.2, 1.7).value
    highs_solves["fail"].add(4)
    one = distance_dm_1d(SPEC_M3, 5.0, -0.5, 0.5)
    assert math.isnan(one.value) and one.converged is False and one.first_failure() == 0
    assert one.feasibility_defect == one.dual_gap == math.inf and one.iterations > 0


@pytest.mark.parametrize("spec, lo, hi", [
    (SPEC_VAR, 0.0, 1.0),
    (SPEC_M3, -4.0, 4.0),
    (SymbolSpec.isotropic(2, 1, "1+0.1*sin(2*pi*x)"), 0.0, 1.0),
], ids=["quartic-power", "m3-cos", "m2-sin"])
def test_slope_caps_equal_per_point_reference(spec, lo, hi):
    # per point, Python float pow: np.power differs from it in the last ulp
    xs = np.linspace(lo, hi, 2001)
    f, e = spec.isotropic_coefficient, -1.0 / (2 * spec.m)
    s = [f.at([x]) ** e for x in xs]
    ref = [min(s[i], s[i + 1], f.at([0.5 * (xs[i] + xs[i + 1])]) ** e) for i in range(len(xs) - 1)]
    assert np.array_equal(_slope_caps(spec, xs), ref)


def test_lattice_distance_isotropic_2d():
    iso = SymbolSpec.isotropic(2, 2, 1.0)
    grid = Grid.make(UNIT_SQUARE, 48)
    fld = distance_lattice_2d(iso, (0.5, 0.5), grid)
    src = np.array(fld.source)
    eu = np.linalg.norm(grid.node_coordinates() - src, axis=1)
    mask = (eu > 0.12) & (eu < 0.45)
    rel = (fld.values[mask] - eu[mask]) / eu[mask]
    assert rel.min() >= -1e-9          # converges from above
    assert rel.max() <= 0.03           # 16-neighbour anisotropy bound
    assert np.mean(rel) <= 0.016


def test_lattice_distance_axis_anisotropy():
    spec = SymbolSpec.axis_powers(2, 2, (16.0, 1.0))
    fld = distance_lattice_2d(spec, (0.5, 0.5), Grid.make(UNIT_SQUARE, 39))  # h = 1/40: on nodes
    ax, ay = fld.axes
    vals = fld.values.reshape(len(ax), len(ay))
    i, j = int(np.argmin(np.abs(ax - 0.5))), int(np.argmin(np.abs(ay - 0.5)))
    assert (ax[i], ay[j]) == fld.source
    assert ax[i + 10] == pytest.approx(ax[i] + 0.25, abs=1e-12)
    assert ay[j + 10] == pytest.approx(ay[j] + 0.25, abs=1e-12)
    # along the x axis the metric is a_x^{-1/4} = 1/2; along y it is 1
    assert vals[i + 10, j] == pytest.approx(0.25 / 2.0, rel=1e-9)
    assert vals[i, j + 10] == pytest.approx(0.25, rel=1e-9)
    assert vals[i, j] == 0.0


def _csgraph_lattice(grid, source, weight):
    """The 16-neighbour graph built edge by edge, solved by scipy's Dijkstra:
    each undirected edge gets one weight, at the midpoint of the move whose
    first nonzero component is positive, entered in both directions."""
    nx, ny = grid.npts
    ax, ay = grid.axis_nodes(0), grid.axis_nodes(1)
    hx, hy = grid.h
    rows, cols, wts = [], [], []
    for i in range(nx):
        for j in range(ny):
            for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)):
                a, b = i + di, j + dj
                if 0 <= a < nx and 0 <= b < ny:
                    vec = np.array([di * hx, dj * hy])
                    w = weight(np.array([ax[i], ay[j]]) + 0.5 * vec, vec)
                    rows += [i * ny + j, a * ny + b]
                    cols += [a * ny + b, i * ny + j]
                    wts += [w, w]
    graph = sp.csr_matrix((wts, (rows, cols)), shape=(nx * ny,) * 2)
    si = int(np.argmin(np.abs(ax - source[0])))
    sj = int(np.argmin(np.abs(ay - source[1])))
    return dijkstra(graph, indices=si * ny + sj)


def test_lattice_matches_csgraph_variable_isotropic():
    def weight(mid, vec):  # closed form a(x)^(-1/4) |vec|
        # on a one-element array, as the length element takes it: numpy's
        # array power and the scalar pow differ in the last ulp
        a = 1 + 0.3 * np.sin(mid[:1]) * np.cos(mid[1:])
        return (a ** -0.25 * np.hypot(*vec))[0]

    grid = Grid.make(BOX_ISO_VAR, 12)
    fld = distance_lattice_2d(SPEC_ISO_VAR, (0.1, 0.2), grid)
    ref = _csgraph_lattice(grid, (0.1, 0.2), weight)
    assert np.array_equal(fld.values, ref)


def test_lattice_matches_csgraph_axis_powers():
    p = LengthElement(SPEC_AXIS)
    grid = Grid.make(UNIT_SQUARE, 9)
    fld = distance_lattice_2d(SPEC_AXIS, (0.4, 0.6), grid)
    ref = _csgraph_lattice(grid, (0.4, 0.6), lambda mid, vec: p(mid, vec))
    assert np.array_equal(fld.values, ref)


def test_lattice_matches_csgraph_high_contrast():
    # a spans e^8 ~ 3000 across the square: many more phases than a flat a
    spec = SymbolSpec.isotropic(2, 2, "exp(8*x1)")
    p = LengthElement(spec)
    grid = Grid.make(UNIT_SQUARE, 64)
    fld = distance_lattice_2d(spec, (0.3, 0.7), grid)
    ref = _csgraph_lattice(grid, (0.3, 0.7), p)
    assert np.array_equal(fld.values, ref)


@pytest.mark.parametrize("corner", [(-3.0, -3.0), (3.0, 3.0)])
def test_lattice_matches_csgraph_from_corner(corner):
    # from a corner node the moves off the grid point below index 0 or past the last node
    p = LengthElement(SPEC_ISO_VAR)
    grid = Grid.make(BOX_ISO_VAR, 10)
    fld = distance_lattice_2d(SPEC_ISO_VAR, corner, grid)
    ref = _csgraph_lattice(grid, corner, p)
    assert np.array_equal(fld.values, ref)


@pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2), (3, 11), (11, 3)])
def test_lattice_matches_csgraph_on_thin_grids(shape):
    # few knight moves fit, and from a source on a grid edge many backward
    # moves read the table's padding or wrap into a neighbouring grid row
    p = LengthElement(SPEC_ISO_VAR)
    grid = Grid.make(BOX_ISO_VAR, shape)
    for source in [(0.5, -1.0), (-3.0, 0.0), (3.0, 0.0), (0.0, -3.0), (0.0, 3.0)]:
        fld = distance_lattice_2d(SPEC_ISO_VAR, source, grid)
        ref = _csgraph_lattice(grid, source, p)
        assert np.isfinite(ref).all()
        assert np.array_equal(fld.values, ref)


def test_lattice_peak_memory_below_a_table_of_both_directions():
    # one weight per undirected edge is 8 doubles per node; a table with a
    # column for each of the 16 moves would alone take 16 doubles per node
    spec = SymbolSpec.isotropic(2, 2, "1")
    distance_lattice_2d(spec, (0.5, 0.5), Grid.make(UNIT_SQUARE, 8))  # first-call work untraced
    tracemalloc.start()
    try:
        distance_lattice_2d(spec, (0.3, 0.6), Grid.make(UNIT_SQUARE, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * 128**2


def _edge_weights_one_call_per_move(p, ax, ay, h):
    """The edge table built with one length-element call on all of a
    move's midpoints."""
    nx, ny = len(ax), len(ay)
    pad = 2 * ny + 1
    wts = np.full((8, nx * ny + 2 * pad), np.inf)
    nodes = wts[:, pad:pad + nx * ny].reshape(8, nx, ny)
    for k, (di, dj) in enumerate(_LATTICE_MOVES):
        vec = np.array([di * h[0], dj * h[1]])
        j0, j1 = max(0, -dj), ny - max(0, dj)
        if di >= nx or j0 >= j1:
            continue
        mids = np.empty((nx - di, j1 - j0, 2))
        mids[..., 0] = (ax[:nx - di] + 0.5 * vec[0])[:, None]
        mids[..., 1] = ay[j0:j1] + 0.5 * vec[1]
        nodes[k, :nx - di, j0:j1] = p(mids.reshape(-1, 2), vec).reshape(mids.shape[:2])
    return wts, pad


SPEC_CROSS = SymbolSpec(2, 2, {((2, 0), (2, 0)): as_field("2+0.2*x1", 2),
                               ((0, 2), (0, 2)): as_field("2-0.1*x2*x1", 2),
                               ((2, 0), (0, 2)): as_field("0.3*cos(x1)", 2)})


@pytest.mark.parametrize("spec", [SPEC_ISO_VAR, SPEC_CROSS], ids=["iso-var", "cross"])
@pytest.mark.parametrize("block", [1, 40, 100])
def test_edge_table_in_row_blocks_equals_one_call_per_move(monkeypatch, spec, block):
    # 23 rows of 16 or 17 midpoints: one row per call, then blocks of 2 or 5
    # to 6 rows, each with a short last block on every move
    grid = Grid.make(BOX_ISO_VAR, (23, 17))
    ax, ay = grid.axis_nodes(0), grid.axis_nodes(1)
    p = LengthElement(spec)
    ref, ref_pad = _edge_weights_one_call_per_move(p, ax, ay, grid.h)
    monkeypatch.setattr(heatlab.finsler, "_EDGE_BLOCK", block)
    wts, pad = _edge_weights(p, ax, ay, grid.h)
    assert pad == ref_pad
    assert np.isinf(wts).any() and np.isfinite(wts).any()
    assert np.array_equal(wts.view(np.int64), ref.view(np.int64))


class _Wave(CoefficientField):
    """1 + 0.3 sin(x1) cos(x2) on arrays.  Its expression takes 30 s to walk
    point by point at 256 x 256 under tracemalloc, and the walk's Python
    floats would only add to what the blocks hold."""

    def at_many(self, points):
        pts = np.atleast_2d(points)
        return 1.0 + 0.3 * np.sin(pts[:, 0]) * np.cos(pts[:, 1])


@pytest.mark.parametrize("a", [1.0, _Wave()], ids=["constant", "wave"])
def test_edge_table_fill_adds_one_block_of_temporaries(a):
    # one call per move held its midpoints, a(x), its root and the positivity
    # mask over the whole grid: 2.0 MiB at 256 x 256
    spec = SymbolSpec.isotropic(2, 2, a)
    p = LengthElement(spec)
    grid = Grid.make(BOX_ISO_VAR, (256, 256))
    ax, ay = grid.axis_nodes(0), grid.axis_nodes(1)
    _edge_weights(p, ax[:4], ay[:4], grid.h)  # first-call work outside the trace
    tracemalloc.start()
    try:
        wts, _ = _edge_weights(p, ax, ay, grid.h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - wts.nbytes < 1.25 * 2**20


def test_distance_comparison_under_coefficient_gap():
    # max-norm gap delta on the coefficient shifts distances by at most the
    # length-element scaling: d_pert >= d_ref / (1 + c delta) with the
    # constant measured from max p_ref / p_pert over sample points
    delta = 0.1
    ref = SymbolSpec.isotropic(2, 1, 1.0)
    pert = SymbolSpec.isotropic(2, 1, f"1+{delta}*sin(2*pi*x)")
    d_ref = distance_dm_1d(ref, 1.0, 0.0, 1.0).value
    d_pert = distance_dm_1d(pert, 1.0, 0.0, 1.0).value
    ratios = [
        LengthElement(ref)([x], [1.0]) / LengthElement(pert)([x], [1.0])
        for x in np.linspace(0.05, 0.95, 19)
    ]
    c_emp = (max(ratios) - 1.0) / delta
    assert c_emp > 0.0
    assert d_pert >= d_ref / (1.0 + c_emp * delta) - 1e-9
