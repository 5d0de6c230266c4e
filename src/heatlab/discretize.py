"""The finite-difference operator H on a uniform grid with Dirichlet ends.

:func:`assemble` forms the quadratic form ``Q(u) = sum (D^a)^T a_ab D^b h^n
+ diag(V) h^n`` on interior nodes, with values outside the grid treated as
zero, symmetrizes it and divides it by the mass ``h^n`` once: the result is
the sparse (CSR) matrix of ``H``, the one representation of the operator.
The form-based construction guarantees symmetry and mirrors the variational
definition of the operator.  Extreme eigenvalues come from H's LAPACK band;
``operator_matrix`` builds a dense H only where a complete spectrum or a
Kato L1->L1 norm needs it.

Stencil conventions:

* even per-axis derivative counts compose centered second differences,
* within a coefficient pair whose per-axis derivative counts have equal
  parity, odd counts use the staggered (node-to-edge) first difference, so
  that ``m=1, a=1`` assembles the classical tridiagonal ``(-1, 2, -1)/h^2``
  energy with weights at edge midpoints,
* pairs with mismatched parities fall back to node-centered central first
  differences (the forward/backward average), with an effective 2h spacing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .symbols import ellipticity_constant

POTENTIAL_WARN_THRESHOLD = 1e12


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid: per-axis bounds and interior point counts."""

    bounds: tuple  # ((lo, hi), ...)
    npts: tuple    # interior points per axis

    def __post_init__(self):
        bounds = tuple(tuple(map(float, b)) for b in self.bounds)
        npts = tuple(int(k) for k in np.atleast_1d(self.npts))
        if len(bounds) != len(npts):
            raise ValueError("bounds and npts must have matching length")
        for (lo, hi), k in zip(bounds, npts):
            if hi <= lo:
                raise ValueError("each axis needs lo < hi")
            if k < 2:
                raise ValueError("need at least 2 interior points per axis")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "npts", npts)

    @classmethod
    def make(cls, bounds, npts):
        bounds = tuple(bounds) if hasattr(bounds[0], "__len__") else (tuple(bounds),)
        npts = tuple(np.atleast_1d(npts).tolist())
        if len(npts) == 1 and len(bounds) > 1:
            npts = npts * len(bounds)
        return cls(bounds, npts)

    @property
    def n(self):
        return len(self.bounds)

    @property
    def h(self):
        return tuple((hi - lo) / (k + 1) for (lo, hi), k in zip(self.bounds, self.npts))

    @property
    def cell_volume(self):
        return float(np.prod(self.h))

    @property
    def node_count(self):
        return int(np.prod(self.npts))

    def axis_nodes(self, axis):
        lo, hi = self.bounds[axis]
        h = self.h[axis]
        return lo + h * np.arange(1, self.npts[axis] + 1)

    def axis_midpoints(self, axis):
        """The npts+1 edge midpoints, including the two boundary half-cells."""
        lo, hi = self.bounds[axis]
        h = self.h[axis]
        return lo + h * (np.arange(self.npts[axis] + 1) + 0.5)

    def node_coordinates(self):
        axes = [self.axis_nodes(i) for i in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def nearest_node(self, point):
        """Flat index of the interior node closest to the point."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        idx = 0
        for ax in range(self.n):
            nodes = self.axis_nodes(ax)
            i = int(np.argmin(np.abs(nodes - point[ax])))
            idx = idx * self.npts[ax] + i
        return idx

    def check_stencils(self, m):
        for k in self.npts:
            if k < 2 * m + 1:
                raise ValueError(f"grid too coarse: need N >= {2 * m + 1} interior points")


# ---------------------------------------------------------------------------
# 1D stencil factors
# ---------------------------------------------------------------------------

def _second_diff(N, h):
    """u -> (u_{i+1} - 2 u_i + u_{i-1}) / h^2 with exterior values zero."""
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(N, N), format="csr") / h**2


def _central_first(N, h):
    """u -> (u_{i+1} - u_{i-1}) / (2h), the forward/backward average."""
    return sp.diags([-1.0, 1.0], [-1, 1], shape=(N, N), format="csr") / (2 * h)


def _staggered_first(N, h):
    """u -> edge differences (u_i - u_{i-1}) / h, shape (N+1, N)."""
    d = sp.diags([1.0, -1.0], [0, -1], shape=(N + 1, N), format="csr")
    return d / h


def _axis_factor(N, h, count, staggered):
    """Derivative factor along one axis; codomain is edges when staggered."""
    op = sp.identity(N, format="csr")
    for _ in range(count // 2):
        op = _second_diff(N, h) @ op
    if count % 2:
        first = _staggered_first(N, h) if staggered else _central_first(N, h)
        op = first @ op
    return op


def _pair_factor(grid, alpha, parity_match):
    """Derivative factor for one side of a coefficient pair, plus per axis
    whether it is staggered (maps nodes to edges)."""
    op = None
    stag = tuple(parity_match and k % 2 == 1 for k in alpha)
    for ax, (k, s) in enumerate(zip(alpha, stag)):
        f = _axis_factor(grid.npts[ax], grid.h[ax], k, staggered=s)
        op = f if op is None else sp.kron(op, f, format="csr")
    return op.tocsr(), stag


def _sample_points(grid, stag):
    """Where a pair's coefficient is sampled: edge midpoints on the staggered
    axes, nodes on the others."""
    axes = [grid.axis_midpoints(ax) if s else grid.axis_nodes(ax) for ax, s in enumerate(stag)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _factors(band, shift):
    """Whether ``B - shift I`` has a banded Cholesky factor."""
    shifted = np.array(band, order="F")
    shifted[0] -= shift
    return sla.lapack.dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0


def band_lowest(band, bracket=None):
    """Smallest eigenvalue of the symmetric matrix B held in LAPACK lower band
    storage, to the double-precision floor ``eps ||B||_max``.

    A tridiagonal (or diagonal) band goes to ``eig_banded``, whose Sturm count
    needs no reduction there; it ignores ``bracket``.  A wider band is
    bisected, one ``dpbtrf`` per step: ``B - s I`` has a banded Cholesky
    factor exactly when ``s`` lies below the smallest eigenvalue (Sylvester).
    Rounding blurs that test over a few ``eps ||B||_max``, so the shifts are
    the lattice ``q Z``, ``q`` the power of two at or above ``eps ||B||_max``.
    The bisection starts from the Gershgorin bracket mapped onto the lattice
    or from ``bracket = (lo, hi)``, a guess checked with two factorizations
    (``lo`` must factor, ``hi`` must not) and widened 16-fold about its
    centre, from at least ``q``, until it passes or covers the Gershgorin
    bracket; a wrong guess costs factorizations, never accuracy.  The result,
    whatever the bracket, is the largest ``j q`` at which ``B - j q I``
    factored (the lattice point at or below the Gershgorin bound if none
    did): a lower bound within a few ``eps ||B||_max`` of ``eig_banded``'s
    value.  A band with zero off-diagonals returns its smallest diagonal
    entry.
    """
    kd, n = band.shape[0] - 1, band.shape[1]
    if kd < 2:
        w = sla.eig_banded(band, lower=True, eigvals_only=True, select="i",
                           select_range=(0, 0))
        return float(w[0])
    radius = np.zeros(n)
    for k in range(1, kd + 1):
        a = np.abs(band[k, : n - k])
        radius[: n - k] += a
        radius[k:] += a
    g_lo, g_hi = float(np.min(band[0] - radius)), float(np.min(band[0]))
    if g_lo == g_hi:
        return g_lo
    frac, e = math.frexp(np.finfo(float).eps * float(np.max(np.abs(band))))
    q = math.ldexp(1.0, e - 1 if frac == 0.5 else e)
    j_lo, j_hi = math.floor(g_lo / q), math.ceil(g_hi / q)
    lo, hi = j_lo, j_hi
    if bracket is not None and np.all(np.isfinite(bracket)):
        centre = 0.5 * (bracket[0] + bracket[1])
        half = max(0.5 * (bracket[1] - bracket[0]), q)
        while True:  # each end clamped into the Gershgorin bracket, which needs no check
            lo = min(max(math.floor((centre - half) / q), j_lo), j_hi)
            hi = max(min(math.ceil((centre + half) / q), j_hi), j_lo)
            if (lo == j_lo or _factors(band, lo * q)) and (hi == j_hi or not _factors(band, hi * q)):
                break
            half *= 16.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _factors(band, mid * q):
            lo = mid
        else:
            hi = mid
    return lo * q


@dataclass(frozen=True)
class DiscreteOperator:
    """Grid and the sparse symmetric operator matrix H: a value that holds
    what :func:`assemble` computed and nothing derived later.

    ``band`` is ``matrix`` in LAPACK lower band storage: row k holds the k-th
    subdiagonal in its first N - k entries, zero-padded, for k up to the
    largest offset of a stored entry.  Every extreme eigenvalue, and the
    count below a cut spectrum's cut, is read from it: the lowest by
    :func:`band_lowest` (banded Cholesky bisection on a lattice of spacing
    about ``eps ||B||_max``, or ``eig_banded`` on a tridiagonal band).
    :meth:`operator_matrix` is the one place the operator goes dense.
    """

    grid: Grid
    m: int
    matrix: sp.csr_matrix

    band: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = self.matrix
        rows, cols = H.nonzero()
        n = H.shape[0]
        band = np.zeros((int(np.max(np.abs(rows - cols))) + 1, n))
        for k in range(band.shape[0]):
            band[k, : n - k] = H.diagonal(-k)
        band.flags.writeable = False
        object.__setattr__(self, "band", band)

    @property
    def mass(self):
        """Weight of the discrete L2 inner product (h^n per node)."""
        return self.grid.cell_volume

    def operator_matrix(self):
        """A new dense matrix of the operator H."""
        return self.matrix.toarray()

    def symmetry_defect(self):
        H = self.matrix
        scale = max(1.0, float(abs(H).max()))
        return float(abs(H - H.T).max()) / scale


def assemble(spec, grid, potential=None):
    """Assemble the operator H on the grid: the symmetric form matrix divided
    by the mass ``h^n`` once.

    ``potential`` is ``None`` or an array of node samples, as
    :func:`heatlab.kato.sample_potential` returns; it enters the form as
    ``diag(V) h^n``.  Lower-order derivative coefficients are not supported
    (the principal part carries the analysis).
    """
    if spec.n != grid.n:
        raise ValueError("symbol and grid dimension mismatch")
    grid.check_stencils(spec.m)
    ell = ellipticity_constant(spec, _ellipticity_samples(grid))
    if not ell > 0.0:
        raise ValueError(f"symbol is not elliptic on the grid (min A = {ell:.3e})")

    vol = grid.cell_volume
    form = None
    samples = {}  # (field, staggered axes) -> samples; pairs sharing both share them
    for (a, b), fld in spec.coefficients.items():
        parity_match = all((ka - kb) % 2 == 0 for ka, kb in zip(a, b))
        fa, stag = _pair_factor(grid, a, parity_match)
        fb, _ = _pair_factor(grid, b, parity_match)
        key = (id(fld), stag)
        if key not in samples:
            pts = _sample_points(grid, stag)
            cvals = fld.at_many(pts)
            if not np.all(np.isfinite(cvals)):
                i = int(np.argmin(np.isfinite(cvals)))
                raise ValueError(f"non-finite coefficient sample for pair {(a, b)} at x={pts[i]}")
            samples[key] = cvals
        piece = (fa.T @ sp.diags(samples[key]) @ fb) * vol
        form = piece if form is None else form + piece

    if potential is not None:
        vvals = np.asarray(potential, dtype=float)
        if vvals.shape != (grid.node_count,):
            raise ValueError("potential sample array must match the grid")
        if not np.all(np.isfinite(vvals)):
            raise ValueError("non-finite potential sample")
        if np.max(np.abs(vvals)) > POTENTIAL_WARN_THRESHOLD:
            warnings.warn(
                "potential samples reach %.3e; grid trace of a merely locally "
                "integrable potential" % float(np.max(np.abs(vvals))),
                RuntimeWarning,
            )
        form = form + sp.diags(vvals * vol)

    form = (0.5 * (form + form.T)).tocsr()
    form.data /= vol
    return DiscreteOperator(grid=grid, m=spec.m, matrix=form)


def _ellipticity_samples(grid):
    axes = [np.linspace(lo, hi, 9 + 2)[1:-1] for (lo, hi) in grid.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
