"""Finsler length element, exact 1D distances, lattice distances in 2D, and
the derivative-capped approximating distances.

In 1D the length element is ``a(x)^(-1/2m) |eta|`` and the distance is the
integral of the reciprocal root, computed by composite Simpson on
``SIMPSON_PANELS`` (400) panels.  In 2D the distance is realized as a
shortest path on the 16-neighbour lattice graph with edge weight
``p(midpoint, edge)``; it converges to the true distance from above as the
mesh refines, within the anisotropy bound of the 16-direction stencil (2.8%
worst direction for a Euclidean metric).

The lattice graph is symmetric: a move and its reverse run along the same
undirected edge, which has one weight, the length element at the midpoint
``x_u + vec/2`` of its forward move, one of the eight moves whose first
nonzero component is positive.  The weights form one move-major
``(8, nodes)`` table, one contiguous row per forward move, filled in blocks
of whole grid rows, one batched ``LengthElement`` call per block, so that
filling it adds one block's temporaries to the table: isotropic symbols
``a(x) |xi|^(2m)`` take the closed form ``a(x)^(-1/2m) |eta|``, other
symbols a direction search on arrays.  ``inf`` columns pad each row at both
ends, so that a reverse move reads the edge from its target's column without
a bounds test.  The shortest path settles nodes in phases over that table,
Dial's buckets (CACM Algorithm 360, 1969) with the settle rule of Crauser,
Mehlhorn, Meyer and Sanders (MFCS 1998): with ``delta`` the smallest edge
weight, a phase settles every open node whose tentative distance is at most
``delta`` above the smallest open one, then relaxes the settled nodes' 16
moves with one gather per move from that move's row.
The rule is exact: a path that could still shorten such a node leaves the
settled set through another open node, so it is at least the smallest open
distance plus ``delta`` long.  Rounding is monotone, so the same holds for
the computed sums, and the values equal ``scipy.sparse.csgraph.dijkstra`` on
the same symmetric graph bit for bit.  The table holds 8 doubles per node
and the phases add no memory, where ``csgraph`` would need the graph in CSR
besides the table.

The capped distance maximizes ``phi(y2) - phi(y1)`` over grid functions with
``A(x, phi') <= 1`` and ``|phi^(k)| <= M`` for 2 <= k <= m.  This is one
sparse linear program in the ``DM_NODES`` (201) node values per pair, solved
by the HiGHS dual simplex; the result reports HiGHS optimality, the largest
row violation, the relative primal-dual gap and the simplex iteration count,
so each value comes with its certificate.  The pairs of one call share one
HiGHS model, each solve hot-started from the previous pair's optimal basis
(Huangfu and Hall, Math. Prog. Comp. 2018), which the caps of neighbouring
pairs often leave optimal.  HiGHS is driven through
``scipy.optimize._highspy._core``, the binding scipy's own ``linprog`` uses:
``linprog`` takes no starting basis, and its wrapper costs about as much as
a hot-started solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .discretize import Grid
from .symbols import (_golden_min, as_batch, coefficient_values, eval_symbol, sphere_directions,
                      symbol_sum)

SIMPSON_PANELS = 400  # composite Simpson panels of distance_1d
DM_NODES = 201  # nodes of each d_M linear program


class LengthElement:
    """p(x, eta) = sup_xi <xi, eta> / A(x, xi)^(1/2m), degree-1 homogeneous.

    One point ``x`` (shape ``(n,)``) gives a float; a ``(k, n)`` array of
    points gives k values, with ``eta`` one vector for all points or one row
    per point.  Where ``A = a(x) |xi|^(2m)`` (isotropic specs and every 1D
    spec) p is ``a(x)^(-1/2m) |eta|`` exactly.  Otherwise ``symbol_sum``
    gives A at 512 sampled unit directions from one ``coefficient_values``
    call, and in 2D the best angle of every point is refined by golden
    section on arrays.  Every operation is elementwise, so a batch gives
    exactly the values of one call per point.
    """

    _CHUNK = 4096  # points per direction search: (chunk, directions) arrays

    def __init__(self, spec):
        self.spec = spec
        self._radial = spec.isotropic_coefficient
        if self._radial is None:
            self._dirs = sphere_directions(spec.n, 512)

    def __call__(self, x, eta):
        pts, eta, single = as_batch(self.spec.n, x, eta, "eta")
        norm = np.linalg.norm(eta, axis=1)
        if np.any(norm == 0.0):
            raise ValueError("eta must be nonzero")
        if self._radial is not None:
            a = self._radial.at_many(pts)
            _check_positive(a > 0.0, pts)
            vals = a ** (-1.0 / (2 * self.spec.m))
            vals *= norm  # in place: a third array of the batch's length would raise peak memory
        else:
            vals = norm * self._search(pts, eta / norm[:, None])
        return float(vals[0]) if single else vals

    def _search(self, pts, unit):
        coeffs = coefficient_values(self.spec, pts)
        unit = np.broadcast_to(unit, pts.shape)
        out = np.empty(len(pts))
        for s in range(0, len(pts), self._CHUNK):
            sl = slice(s, s + self._CHUNK)
            out[sl] = self._search_chunk(pts[sl], [c[sl] for c in coeffs], unit[sl])
        return out

    def _search_chunk(self, pts, coeffs, unit):
        spec, root = self.spec, 1.0 / (2 * self.spec.m)
        vals = symbol_sum(spec, [c[:, None] for c in coeffs], self._dirs.T)  # (k, directions)
        _check_positive(np.all(vals > 0.0, axis=1), pts)
        dots = sum(unit[:, j, None] * self._dirs[:, j] for j in range(spec.n))
        ratios = dots / vals**root
        i = np.argmax(ratios, axis=1)
        best = ratios[np.arange(len(pts)), i]
        if spec.n != 2:
            return best

        def neg_ratio(th):
            xi = (np.cos(th), np.sin(th))
            a = symbol_sum(spec, coeffs, xi)
            dot = xi[0] * unit[:, 0] + xi[1] * unit[:, 1]
            ok = a > 0.0
            return np.where(ok, -dot / np.where(ok, a, 1.0) ** root, np.inf)

        th0 = 2 * np.pi * i / len(self._dirs)
        w = 2 * np.pi / len(self._dirs)
        return np.maximum(best, -_golden_min(neg_ratio, th0 - w, th0 + w))


def _check_positive(ok, pts):
    if not np.all(ok):
        raise ValueError(f"degenerate symbol at x={pts[int(np.argmin(ok))]}")


def reciprocal_root(spec, x):
    """a(x)^(-1/2m) for 1D specs (the exact 1D length density), at one
    coordinate or an array of them; Python's float ``pow`` per element, since
    ``np.power`` differs from it in the last ulp."""
    xs = np.asarray(x, dtype=float)
    pts = xs.reshape(-1, 1)
    a = eval_symbol(spec, pts, [1.0])
    _check_positive(a > 0.0, pts)
    e = -1.0 / (2 * spec.m)
    roots = np.array([v**e for v in a.tolist()])
    return float(roots[0]) if xs.ndim == 0 else roots


def distance_1d(spec, y1, y2):
    """d(y1, y2) = |int a^(-1/2m)| by composite Simpson on ``SIMPSON_PANELS``."""
    if spec.n != 1:
        raise ValueError("distance_1d needs a 1D spec")
    lo, hi = min(y1, y2), max(y1, y2)
    if lo == hi:
        return 0.0
    xs = np.linspace(lo, hi, SIMPSON_PANELS + 1)
    fs = reciprocal_root(spec, xs)
    h = (hi - lo) / SIMPSON_PANELS
    return float(h / 3.0 * (fs[0] + fs[-1] + 4 * fs[1:-1:2].sum() + 2 * fs[2:-2:2].sum()))


@dataclass
class DistanceField:
    source: tuple
    values: np.ndarray
    axes: tuple | None = None  # per-axis node coordinates of a grid field, x1 outer in values


# the forward moves, whose first nonzero component is positive; each edge
# is also walked backward, along the negated move
_LATTICE_MOVES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2))


# midpoints per length-element call while the edge table fills: a block of
# whole grid rows, 32 rows of a 512-node axis
_EDGE_BLOCK = 1 << 14


def _edge_weights(p, ax, ay, h):
    """Edge-weight table and its padding ``pad = 2*ny + 1``: column
    ``pad + u`` of the move-major ``(8, nx*ny + 2*pad)`` table holds, in row
    k, the weight of the edge from node u along forward move k, the length
    element at the edge midpoint ``x_u + vec/2``.  Each move fills its own
    contiguous row, in blocks of whole grid rows, one call per block of about
    ``_EDGE_BLOCK`` midpoints, so filling the table adds one block's
    temporaries, not one move's; every operation of the length element is
    elementwise, so the blocks give the bits of one call per move.  Moves
    that leave the grid and the ``pad`` columns at either end are ``inf``."""
    nx, ny = len(ax), len(ay)
    pad = 2 * ny + 1
    wts = np.full((len(_LATTICE_MOVES), nx * ny + 2 * pad), np.inf)
    for k, (di, dj) in enumerate(_LATTICE_MOVES):
        vec = np.array([di * h[0], dj * h[1]])
        j0, j1 = max(0, -dj), ny - max(0, dj)
        if di >= nx or j0 >= j1:
            continue
        nodes = wts[k, pad:pad + nx * ny].reshape(nx, ny)  # a view
        xs, ys = ax[:nx - di] + 0.5 * vec[0], ay[j0:j1] + 0.5 * vec[1]
        rows = max(1, _EDGE_BLOCK // len(ys))
        for i in range(0, len(xs), rows):
            x = xs[i:i + rows]
            mids = np.empty((len(x), len(ys), 2))
            mids[..., 0] = x[:, None]
            mids[..., 1] = ys
            nodes[i:i + len(x), j0:j1] = p(mids.reshape(-1, 2), vec).reshape(mids.shape[:2])
    return wts, pad


def _dijkstra(wts, pad, offsets, start):
    """Distances from node ``start`` over the padded table of
    :func:`_edge_weights` (``offsets[k]`` is forward move k's flat offset),
    settled in phases as the module docstring describes.  With ``wk`` the
    table's row k, node u reaches ``u + off`` at weight ``wk[pad + u]`` and
    ``u - off`` at the weight of the same edge, ``wk[pad + u - off]``.  A
    backward read before the first node or past the last lands in the
    padding; one that wraps into a neighbouring grid row lands on a forward
    move that leaves the grid.  Both read ``inf``, so no move needs a bounds
    test."""
    delta = wts.min()
    dist = np.full(wts.shape[1] - 2 * pad, np.inf)
    dist[start] = 0.0
    is_open = np.zeros(len(dist), dtype=bool)
    is_open[start] = True
    frontier = np.array([start])
    while len(frontier):
        d = dist[frontier]
        settle = d <= d.min() + delta
        nodes, d = frontier[settle], d[settle]
        is_open[nodes] = False
        reached = [frontier[~settle]]
        rows = nodes + pad
        for wk, off in zip(wts, offsets):
            for t, w in ((nodes + off, wk[rows]), (nodes - off, wk[rows - off])):
                nd = d + w
                # an off-grid move has nd = inf, so its clipped index is never written
                better = nd < dist.take(t, mode="clip")
                t = t[better]
                dist[t] = nd[better]  # the targets of one move are distinct
                t = t[~is_open[t]]
                is_open[t] = True
                reached.append(t)
        frontier = np.concatenate(reached)
    return dist


def distance_lattice_2d(spec, source, grid=None, npts=64):
    """Shortest-path distance field from ``source`` on the 16-neighbour grid
    graph; edge weight is the length element at the edge midpoint.

    Dijkstra runs over the flat node indices ``i*ny + j`` of the grid.
    """
    if spec.n != 2:
        raise ValueError("distance_lattice_2d needs a 2D spec")
    if grid is None:
        grid = Grid.make(spec.domain.bounds, (npts, npts))
    nx, ny = grid.npts
    ax, ay = grid.axis_nodes(0), grid.axis_nodes(1)
    src = np.atleast_1d(np.asarray(source, dtype=float))
    si = int(np.argmin(np.abs(ax - src[0])))
    sj = int(np.argmin(np.abs(ay - src[1])))
    offsets = [di * ny + dj for di, dj in _LATTICE_MOVES]
    wts, pad = _edge_weights(LengthElement(spec), ax, ay, grid.h)
    return DistanceField(
        source=(float(ax[si]), float(ay[sj])),
        values=_dijkstra(wts, pad, offsets, si * ny + sj),
        axes=(ax, ay),
    )


# ---------------------------------------------------------------------------
# capped distances d_M in 1D
# ---------------------------------------------------------------------------

@dataclass
class DmResult:
    """A capped distance and its LP certificate.  For a sequence of pairs
    ``value``, ``feasibility_defect`` and ``dual_gap`` are per-pair arrays,
    ``converged`` holds when every pair is optimal and ``iterations`` counts
    the whole call."""
    value: float | np.ndarray
    converged: bool
    feasibility_defect: float | np.ndarray
    iterations: int
    dual_gap: float | np.ndarray = 0.0

    def first_failure(self):
        """Index of the first pair whose solve was not optimal, or None."""
        failed = np.flatnonzero(np.isnan(np.atleast_1d(self.value)))
        return int(failed[0]) if len(failed) else None


def _slope_caps(spec, xs):
    """Conservative per-interval slope caps min(s(left), s(mid), s(right))."""
    s = reciprocal_root(spec, np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:])]))
    svals, smid = s[: len(xs)], s[len(xs):]
    return np.minimum(np.minimum(svals[:-1], svals[1:]), smid)


def _derivative_stencil(k):
    """k-th forward difference coefficients (binomial, alternating)."""
    return np.array([(-1) ** (k - j) * math.comb(k, j) for j in range(k + 1)], dtype=float)


@lru_cache(maxsize=16)
def _cap_rows(N, m):
    """Read-only ``A`` of ``A phi <= b`` on N nodes, built once per ``(N, m)``:
    ``+D_k, -D_k`` for k = 1 (the slope slabs) to m, in CSC, the format
    HiGHS takes."""
    blocks = []
    for k in range(1, m + 1):
        D = sp.diags(list(_derivative_stencil(k)), list(range(k + 1)), shape=(N - k, N))
        blocks += [D, -D]
    A = sp.vstack(blocks, format="csc")
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    return A


class _HotStartedLP:
    """Maximize ``phi_{N-1}`` subject to ``A phi <= b`` and ``phi_0 = 0`` for
    one ``b`` after another on one HiGHS instance.  Each solve starts from
    the last optimal basis; the first, and one after a solve that is not
    optimal, start cold."""

    def __init__(self, A):
        # imported here: loading scipy.optimize would slow every CLI start-up
        from scipy.optimize._highspy import _core

        self._A, self._optimal = A, _core.HighsModelStatus.kOptimal
        N = A.shape[1]
        lp = _core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = N
        lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
        cost = np.zeros(N)
        cost[-1] = -1.0
        lower, upper = np.full(N, -np.inf), np.full(N, np.inf)
        lower[0] = upper[0] = 0.0
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lower, upper
        lp.row_lower_ = np.full(A.shape[0], -np.inf)
        self._lp, self._basis = lp, None
        self._highs = _core._Highs()
        self._highs.setOptionValue("output_flag", False)
        # the k-th difference rows bound D^k phi by M h^k (down to 1e-7), so
        # HiGHS's default 1e-7 feasibility tolerance would let them overshoot
        self._highs.setOptionValue("primal_feasibility_tolerance", 1e-10)

    def __call__(self, b):
        """``(phi_{N-1}, row defect, relative primal-dual gap, iterations)``
        for the row bounds ``b``; ``(nan, inf, inf, iterations)`` when HiGHS
        does not report optimality."""
        highs = self._highs
        self._lp.row_upper_ = b
        highs.passModel(self._lp)  # drops the previous basis
        if self._basis is not None:
            highs.setBasis(self._basis)
        highs.run()
        info = highs.getInfo()
        if highs.getModelStatus() != self._optimal:
            self._basis = None
            return math.nan, math.inf, math.inf, info.simplex_iteration_count
        self._basis = highs.getBasis()
        sol = highs.getSolution()
        x = np.array(sol.col_value)
        defect = max(0.0, float(np.max(self._A @ x - b)))
        fun = info.objective_function_value
        gap = abs(fun - float(b @ np.array(sol.row_dual))) / abs(fun)
        return float(x[-1]), defect, gap, info.simplex_iteration_count


def distance_dm_1d(spec, M, y1, y2):
    """Capped distance d_M(y1, y2) in 1D as one linear program per pair.

    The node values ``phi_0 = 0, ..., phi_{N-1}`` maximize ``phi_{N-1}``
    subject to ``|phi_{i+1} - phi_i| <= caps_i h`` and ``|D^k phi| <= M h^k``
    for 2 <= k <= m, solved by HiGHS.  The result carries the LP's own
    certificate: ``converged`` is HiGHS optimality, ``feasibility_defect``
    the largest row violation of the returned nodes, ``dual_gap`` the
    relative gap between the primal and dual objectives, and ``iterations``
    the simplex iterations.  Monotone non-decreasing in M and never above
    the uncapped distance (the slope caps are per-interval minima, a lower
    Riemann sum of the exact density).

    ``y1`` and ``y2`` may be equal-length sequences: the pairs are solved in
    order on one HiGHS instance, each from the previous optimal basis, and
    the result holds per-pair arrays (see :class:`DmResult`).  A pair whose
    solve is not optimal reads ``nan``.
    """
    if spec.n != 1:
        raise ValueError("distance_dm_1d needs a 1D spec")
    if M <= 0:
        raise ValueError("M must be positive")
    starts, ends = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
    single = starts.ndim == 0 and ends.ndim == 0
    starts, ends = np.atleast_1d(starts), np.atleast_1d(ends)
    if starts.ndim != 1 or starts.shape != ends.shape:
        raise ValueError("y1 and y2 must be numbers or sequences of one length")
    value, defect, gap = (np.zeros(len(starts)) for _ in range(3))
    iterations = 0
    # no derivative caps beyond the slope constraint for m = 1: saturate exactly
    solve = None if spec.m == 1 else _HotStartedLP(_cap_rows(DM_NODES, spec.m))
    for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            continue
        sgn = 1.0 if b >= a else -1.0
        xs = np.linspace(lo, hi, DM_NODES)
        h = xs[1] - xs[0]
        caps = _slope_caps(spec, xs)
        if solve is None:
            value[i] = sgn * np.sum(caps * h)
            continue
        slabs = [caps * h] + [np.full(DM_NODES - k, M * h**k) for k in range(2, spec.m + 1)]
        top, defect[i], gap[i], its = solve(
            np.concatenate([cap for slab in slabs for cap in (slab, slab)]))  # rows of A
        value[i] = sgn * top
        iterations += its
    converged = not np.isnan(value).any()
    if single:
        return DmResult(float(value[0]), converged, float(defect[0]), iterations, float(gap[0]))
    return DmResult(value, converged, defect, iterations, gap)
