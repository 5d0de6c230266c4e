"""Finsler length element, exact 1D distances, lattice distances in 2D, and
the derivative-capped approximating distances.

In 1D the length element is ``a(x)^(-1/2m) |eta|`` and the distance is the
integral of the reciprocal root, computed by composite Simpson.  In 2D the
distance is realized as a shortest path on the 16-neighbour lattice graph
with edge weight ``p(midpoint, edge)``; it converges to the true distance
from above as the mesh refines, within the anisotropy bound of the
16-direction stencil (2.8% worst direction for a Euclidean metric).

The capped distance maximizes ``phi(y2) - phi(y1)`` over grid functions with
``A(x, phi') <= 1`` and ``|phi^(k)| <= M`` for 2 <= k <= m.  This is one
sparse linear program in the node values, solved by the HiGHS simplex
through ``scipy.optimize.linprog``; the result reports HiGHS optimality, the
largest row violation, the relative primal-dual gap and the simplex
iteration count, so each value comes with its certificate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretize import Grid
from .symbols import _golden_min, eval_symbol, sphere_directions


class LengthElement:
    """p(x, eta) = sup_xi <xi, eta> / A(x, xi)^(1/2m), degree-1 homogeneous."""

    def __init__(self, spec, directions=512):
        self.spec = spec
        self.directions = directions
        self._cache = {}

    def __call__(self, x, eta):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        norm = float(np.linalg.norm(eta))
        if norm == 0.0:
            raise ValueError("eta must be nonzero")
        if self.spec.n == 1:
            return norm * self._scale_1d(float(x[0]))
        return norm * self._direction_value(tuple(x), tuple(eta / norm))

    def _scale_1d(self, x):
        v = self._cache.get(x)
        if v is None:
            a = eval_symbol(self.spec, [x], [1.0])
            if a <= 0.0:
                raise ValueError(f"degenerate symbol at x={x}")
            v = a ** (-1.0 / (2 * self.spec.m))
            self._cache[x] = v
        return v

    def _direction_value(self, x, unit_eta):
        key = (x, unit_eta)
        v = self._cache.get(key)
        if v is not None:
            return v
        m2 = 2 * self.spec.m
        dirs = sphere_directions(self.spec.n, self.directions)
        vals = np.array([eval_symbol(self.spec, x, xi) for xi in dirs])
        if np.any(vals <= 0.0):
            raise ValueError(f"degenerate symbol at x={x}")
        ratios = (dirs @ np.asarray(unit_eta)) / vals ** (1.0 / m2)
        i = int(np.argmax(ratios))
        best = float(ratios[i])
        if self.spec.n == 2:
            th0 = 2 * np.pi * i / len(dirs)
            w = 2 * np.pi / len(dirs)
            f = lambda th: -self._ratio_2d(x, unit_eta, th)
            best = max(best, -_golden_min(f, th0 - w, th0 + w))
        self._cache[key] = best
        return best

    def _ratio_2d(self, x, unit_eta, th):
        xi = np.array([math.cos(th), math.sin(th)])
        a = eval_symbol(self.spec, x, xi)
        if a <= 0.0:
            return -math.inf
        return float(np.dot(xi, unit_eta)) / a ** (1.0 / (2 * self.spec.m))


def length_element(spec, x, eta):
    return LengthElement(spec)(x, eta)


def reciprocal_root(spec, x):
    """a(x)^(-1/2m) for 1D specs (the exact 1D length density)."""
    a = eval_symbol(spec, [x], [1.0])
    if a <= 0.0:
        raise ValueError(f"degenerate symbol at x={x}")
    return a ** (-1.0 / (2 * spec.m))


def distance_1d(spec, y1, y2, panels=400):
    """d(y1, y2) = |int a^(-1/2m)| by composite Simpson with the given panels."""
    if spec.n != 1:
        raise ValueError("distance_1d needs a 1D spec")
    lo, hi = min(y1, y2), max(y1, y2)
    if lo == hi:
        return 0.0
    npan = max(2, panels + (panels % 2))
    xs = np.linspace(lo, hi, npan + 1)
    fs = np.array([reciprocal_root(spec, x) for x in xs])
    h = (hi - lo) / npan
    return float(h / 3.0 * (fs[0] + fs[-1] + 4 * fs[1:-1:2].sum() + 2 * fs[2:-2:2].sum()))


@dataclass
class DistanceField:
    source: tuple
    points: np.ndarray
    values: np.ndarray
    method: str
    M: float | None = None

    def lookup(self):
        return {tuple(np.round(p, 12)): v for p, v in zip(self.points, self.values)}


_LATTICE_MOVES = (
    (1, 0), (0, 1), (-1, 0), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
    (2, 1), (1, 2), (-2, 1), (-1, 2), (2, -1), (1, -2), (-2, -1), (-1, -2),
)


def _is_constant_symbol(spec):
    from . import exprlang
    from .symbols import ConstantField, ExprField, _ScaledField

    def const(f):
        if isinstance(f, ConstantField):
            return True
        if isinstance(f, ExprField):
            return isinstance(f.expr, (exprlang.Num, exprlang.Const))
        if isinstance(f, _ScaledField):
            return const(f.base)
        return False

    return all(const(f) for f in spec.coefficients.values())


def distance_lattice_2d(spec, source, grid=None, npts=64):
    """Shortest-path distance field from ``source`` on the 16-neighbour grid
    graph; edge weight is the length element at the edge midpoint.

    For x-independent symbols the 16 edge weights are computed once.
    """
    if spec.n != 2:
        raise ValueError("distance_lattice_2d needs a 2D spec")
    if grid is None:
        grid = Grid.make(spec.domain.bounds, (npts, npts))
    p = LengthElement(spec)
    nx, ny = grid.npts
    ax, ay = grid.axis_nodes(0), grid.axis_nodes(1)
    hx, hy = grid.h
    src = np.atleast_1d(np.asarray(source, dtype=float))
    si = int(np.argmin(np.abs(ax - src[0])))
    sj = int(np.argmin(np.abs(ay - src[1])))

    move_vecs = {mv: np.array([mv[0] * hx, mv[1] * hy]) for mv in _LATTICE_MOVES}
    constant = _is_constant_symbol(spec)
    fixed_w = (
        {mv: p(spec.domain.center(), vec) for mv, vec in move_vecs.items()}
        if constant
        else None
    )
    dist = np.full((nx, ny), np.inf)
    dist[si, sj] = 0.0
    pq = [(0.0, si, sj)]
    while pq:
        d0, i, j = heapq.heappop(pq)
        if d0 > dist[i, j]:
            continue
        x0 = np.array([ax[i], ay[j]])
        for mv, vec in move_vecs.items():
            a, b = i + mv[0], j + mv[1]
            if 0 <= a < nx and 0 <= b < ny:
                w = fixed_w[mv] if constant else p(x0 + 0.5 * vec, vec)
                nd = d0 + w
                if nd < dist[a, b] - 1e-15:
                    dist[a, b] = nd
                    heapq.heappush(pq, (nd, a, b))
    pts = grid.node_coordinates()
    return DistanceField(
        source=(float(ax[si]), float(ay[sj])),
        points=pts,
        values=dist.ravel(),
        method="lattice-dijkstra",
    )


# ---------------------------------------------------------------------------
# capped distances d_M in 1D
# ---------------------------------------------------------------------------

@dataclass
class DmResult:
    value: float
    converged: bool
    feasibility_defect: float
    iterations: int
    dual_gap: float = 0.0


def _slope_caps(spec, xs):
    """Conservative per-interval slope caps min(s(left), s(mid), s(right))."""
    svals = np.array([reciprocal_root(spec, x) for x in xs])
    mids = 0.5 * (xs[:-1] + xs[1:])
    smid = np.array([reciprocal_root(spec, x) for x in mids])
    return np.minimum(np.minimum(svals[:-1], svals[1:]), smid)


def _derivative_stencil(k):
    """k-th forward difference coefficients (binomial, alternating)."""
    return np.array([(-1) ** (k - j) * math.comb(k, j) for j in range(k + 1)], dtype=float)


def _cap_rows(caps, h, M, m):
    """Rows of ``A phi <= b``: the slope slabs, then the k-th difference slabs."""
    N = len(caps) + 1
    blocks, bounds = [], []
    for k in range(1, m + 1):
        D = sp.diags(list(_derivative_stencil(k)), list(range(k + 1)), shape=(N - k, N))
        cap = caps * h if k == 1 else np.full(N - k, M * h**k)
        blocks += [D, -D]
        bounds += [cap, cap]
    return sp.vstack(blocks, format="csr"), np.concatenate(bounds)


def distance_dm_1d(spec, M, y1, y2, npoints=201):
    """Capped distance d_M(y1, y2) in 1D as one linear program.

    The node values ``phi_0 = 0, ..., phi_{N-1}`` maximize ``phi_{N-1}``
    subject to ``|phi_{i+1} - phi_i| <= caps_i h`` and ``|D^k phi| <= M h^k``
    for 2 <= k <= m, solved by HiGHS.  The result carries the LP's own
    certificate: ``converged`` is HiGHS optimality, ``feasibility_defect``
    the largest row violation of the returned nodes, ``dual_gap`` the
    relative gap between the primal and dual objectives, and ``iterations``
    the simplex iterations.  Monotone non-decreasing in M and never above
    the uncapped distance (the slope caps are per-interval minima, a lower
    Riemann sum of the exact density).
    """
    if spec.n != 1:
        raise ValueError("distance_dm_1d needs a 1D spec")
    if M <= 0:
        raise ValueError("M must be positive")
    sgn = 1.0 if y2 >= y1 else -1.0
    lo, hi = min(y1, y2), max(y1, y2)
    if lo == hi:
        return DmResult(0.0, True, 0.0, 0)
    xs = np.linspace(lo, hi, npoints)
    h = xs[1] - xs[0]
    caps = _slope_caps(spec, xs)

    if spec.m == 1:
        # no derivative caps beyond the slope constraint: saturate exactly
        return DmResult(float(sgn * np.sum(caps * h)), True, 0.0, 0)

    # imported here: loading scipy.optimize would slow every CLI start-up
    from scipy.optimize import linprog

    A, b = _cap_rows(caps, h, M, spec.m)
    c = np.zeros(npoints)
    c[-1] = -1.0
    bounds = [(0.0, 0.0)] + [(None, None)] * (npoints - 1)
    # the k-th difference rows bound D^k phi by M h^k (down to 1e-7), so
    # HiGHS's default 1e-7 feasibility tolerance would let them overshoot
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        return DmResult(math.nan, False, math.inf, int(res.nit), math.inf)
    defect = max(0.0, float(np.max(A @ res.x - b)))
    dual = float(b @ res.ineqlin.marginals)
    gap = abs(res.fun - dual) / abs(res.fun)
    return DmResult(float(sgn * res.x[-1]), True, defect, int(res.nit), gap)


def dm_convergence_check(spec, pairs, M_list, npoints=201, ratio_tol=1e-3):
    """Ratios d_M / d per pair; non-decreasing in M within the solver tolerance."""
    rows = []
    for y1, y2 in pairs:
        d = distance_1d(spec, y1, y2, panels=2 * (npoints - 1))
        ratios = []
        for M in M_list:
            r = distance_dm_1d(spec, M, y1, y2, npoints=npoints)
            if not r.converged:
                raise RuntimeError(f"capped-distance solver failed at M={M}")
            ratios.append(abs(r.value) / abs(d))
        for a, b in zip(ratios, ratios[1:]):
            if b < a - ratio_tol:
                raise RuntimeError("d_M ratios decreased beyond solver tolerance")
        rows.append({"pair": (y1, y2), "d": d, "M": list(M_list), "ratios": ratios})
    return rows
