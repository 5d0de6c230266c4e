"""Heat kernels from the operator's eigenpairs and a Fourier quadrature oracle.

Eigenvectors are normalized in the h^n-weighted inner product so that the
sampled kernel ``K(t, x_i, x_j) = sum_k exp(-l_k t) v_k(x_i) v_k(x_j)`` has
continuum units (1/length^n) and cross-checks directly against the
constant-coefficient whole-line oracle

    K0(t, 0, r) = (1/pi) * int_0^Xi exp(-a xi^(2m) t) cos(xi r) dxi,

truncated at ``Xi = (750/(a t))^(1/2m)`` (integrand under 1e-300 beyond) and
integrated by composite 16-point Gauss-Legendre with panels narrow enough to
resolve the oscillation; panel doubling certifies 1e-10 absolute accuracy.

A caller that samples no time below ``t_min`` needs no eigenpair with
``l >= 746 / t_min``: its weight ``exp(-l t)`` is exactly 0.0 in double
precision at every such ``t``.  :func:`eigendecompose` then builds no dense
matrix.  It takes every eigenvalue of the operator's LAPACK band (``dsbevd``
without vectors: one reduction to tridiagonal form and root-free QR), keeps
those below that cut and takes their eigenvectors by shift-invert Lanczos on
the sparse operator (ARPACK through ``scipy.sparse.linalg.eigsh``, from a
fixed start vector), with the shift below the lowest band eigenvalue.  One
inverse step and a Rayleigh-Ritz step on the block bring the residuals under
the same ``8 eps ||H||`` floor LAPACK meets.  Each eigenvalue is the Rayleigh
quotient ``v^T H v``, not ARPACK's Ritz value, which loses digits far from
the shift; each must agree with its band eigenvalue to that floor, so a mode
the iteration missed raises.  The spectrum records ``t_min`` and every kernel
function refuses an earlier time.  The complete dense decomposition is taken
instead when the cut is at or above a Gershgorin bound on the spectrum, or
when more than the share ``LANCZOS_MAX_SHARE`` of the modes lies below it.

On a tridiagonal band (m = 1 in 1D) that fallback builds no dense matrix
either.  The dense solver, LAPACK's ``dsyevr``, first reduces the matrix to
tridiagonal form by Householder reflectors; on a matrix that is already
tridiagonal every reflector is the identity, and the unchanged diagonal and
off-diagonal go to MRRR (``dstemr``).  So ``dstemr`` on the band, through
``scipy.linalg.eigh_tridiagonal``, returns the dense eigenpairs bit for bit.
A complete spectrum asked for with ``t_min = 0`` stays on the dense ``eigh``:
it is the reference the cut spectra are tested against, and the benchmark's
traced ``spectral`` run requires that call (ROADMAP item 8).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

# double-precision floor for eigenpair residuals of stiff operators: below
# eps * ||H|| no backward-stable solver can certify a smaller residual
_RESIDUAL_FLOOR_FACTOR = 8 * np.finfo(float).eps
# exp(-x) rounds to exactly 0.0 for x >= 745.14 (below half the smallest subnormal)
UNDERFLOW_EXPONENT = 746.0
# Up to N/4 kept modes, shift-invert Lanczos holds at most half an N x N
# array (its basis of 2k + 1 vectors) where the dense path builds the matrix,
# a copy and N x N eigenvectors.  Its time grows faster than k, and at N/4
# modes it costs more than the full dense call.
LANCZOS_MAX_SHARE = 1 / 4
HEALTH_BLOCK = 64  # eigenvectors per block of SpectralData.health


class QuadratureError(RuntimeError):
    pass


@dataclass
class SpectralData:
    """Ascending eigenvalues with eigenvectors orthonormal in h^n weights.

    ``t_min > 0`` marks a spectrum cut at ``746 / t_min``: kernels from it
    are exact for ``t >= t_min`` only.  A complete spectrum has ``t_min = 0``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k is v_k, sum_i v_k(x_i)^2 h^n = 1
    grid: object
    mass: float
    t_min: float = 0.0

    def weights(self, t):
        """``exp(-l_k t)``, for a time at which the kept modes give the kernel."""
        if t <= 0:
            raise ValueError("t must be positive")
        if t < self.t_min:
            raise ValueError(f"t = {t} is below the t_min = {self.t_min} of a cut spectrum")
        return np.exp(-self.eigenvalues * t)

    def health(self, operator):
        """Eigen health figures against the operator, dense or sparse: the
        residual floor ``8 eps ||H||_max`` (largest |entry|), the worst
        eigenpair residual over its :meth:`validate` bound and the weighted
        orthonormality defect.  Taken over blocks of ``HEALTH_BLOCK``
        eigenvectors, so a complete spectrum needs no further N x N array;
        the Gram matrix is symmetric, so each block takes its upper part."""
        V, w = self.eigenvectors, self.eigenvalues
        floor = _RESIDUAL_FLOOR_FACTOR * float(abs(operator).max())
        worst = defect = 0.0
        for lo in range(0, len(w), HEALTH_BLOCK):
            Vb, wb = V[:, lo:lo + HEALTH_BLOCK], w[lo:lo + HEALTH_BLOCK]
            R = operator @ Vb
            R -= Vb * wb[None, :]
            bound = np.maximum(1e-8 * (np.abs(wb) + 1.0), floor) * np.linalg.norm(Vb, axis=0)
            worst = np.maximum(worst, np.max(np.linalg.norm(R, axis=0) / bound))
            G = self.mass * (V[:, :lo + HEALTH_BLOCK].T @ Vb)
            G[lo + np.arange(len(wb)), np.arange(len(wb))] -= 1.0
            defect = np.maximum(defect, np.max(np.abs(G)))
        return float(floor), float(worst), float(defect)

    def validate(self, operator):
        """Residual and weighted-orthonormality checks.

        The residual test uses ``max(1e-8 (|l|+1), 8 eps ||H||_max)``: the
        second term is the double-precision floor for backward-stable
        eigensolvers on stiff matrices.
        """
        _, worst, defect = self.health(operator)
        if not worst <= 1.0:
            raise ValueError(f"an eigenpair residual is {worst:.3e} times its bound")
        if defect > 1e-8:
            raise ValueError(f"weighted orthonormality defect {defect:.3e}")
        return True


def eigendecompose(op, t_min=0.0):
    """Eigenpairs of the symmetric operator: all of them, or, for
    ``t_min > 0``, those with ``l < 746 / t_min``, whose kernel weight is
    nonzero at some ``t >= t_min``.

    A cut spectrum that keeps every mode, or more than ``LANCZOS_MAX_SHARE``
    of them, is complete (``t_min = 0``): on a tridiagonal band it comes from
    ``dstemr`` on the band, which gives the dense ``eigh``'s bits; otherwise,
    and always for ``t_min = 0``, from the dense ``eigh``."""
    if t_min < 0:
        raise ValueError("t_min must be nonnegative")
    if op.symmetry_defect() > 1e-12:
        raise ValueError("operator matrix is not symmetric")
    cut = UNDERFLOW_EXPONENT / t_min if t_min > 0 else np.inf
    # no eigenvalue exceeds the largest absolute row sum (Gershgorin)
    norm_bound = abs(op.matrix).sum(axis=1).max()
    if cut < norm_bound:
        low = sla.eig_banded(op.band, lower=True, eigvals_only=True)
        low = low[low < cut]
        if len(low) <= LANCZOS_MAX_SHARE * op.grid.node_count:
            w, v = _lanczos_pairs(op.matrix, low, cut, _RESIDUAL_FLOOR_FACTOR * norm_bound)
            return SpectralData(w, v / np.sqrt(op.mass), op.grid, op.mass, t_min)
    if t_min > 0 and len(op.band) == 2:
        # MRRR on the tridiagonal band: the dense call's eigenpairs, bit for bit
        w, v = sla.eigh_tridiagonal(op.band[0], op.band[1][:-1], lapack_driver="stemr")
    else:
        # H is exactly symmetric, so its transpose is H in LAPACK order: eigh makes no copy
        w, v = sla.eigh(op.operator_matrix().T, overwrite_a=True)
    v /= np.sqrt(op.mass)
    return SpectralData(w, v, op.grid, op.mass)


def _lanczos_pairs(H, low, cut, floor):
    """Orthonormal eigenpairs of the sparse operator ``H`` for the band
    eigenvalues ``low``, all below ``cut``: the shift lies below ``low[0]`` by
    half its gap to the next eigenvalue (at least ``cut`` when it is the only
    one), so the ``len(low)`` eigenvalues nearest the shift are exactly these."""
    k, n = len(low), H.shape[0]
    if k == 0:
        return low, np.zeros((n, 0))
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    shift = low[0] - 0.5 * ((low[1] if k > 1 else cut) - low[0])
    lu = splu((H - shift * sp.identity(n, format="csr")).tocsc())
    # ARPACK's failure to converge raises
    _, v = eigsh(H, k, sigma=shift, which="LM", v0=np.ones(n),
                 OPinv=LinearOperator(H.shape, matvec=lu.solve, dtype=float))
    # Lanczos vectors carry eps-sized parts of the top modes, which leave the
    # low modes a residual of up to 12 times the floor; one inverse step damps
    # them and a Rayleigh-Ritz step on the sparse H rotates the block back
    q, _ = np.linalg.qr(lu.solve(v))
    v = q @ np.linalg.eigh(q.T @ (H @ q))[1]
    w = np.einsum("ij,ij->j", v, H @ v)
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    miss = float(np.max(np.abs(w - low)))
    if miss > floor:
        raise RuntimeError(f"shift-invert Lanczos eigenvalues are {miss:.3e} off the band "
                           f"count, above the floor {floor:.3e}: a mode was missed")
    return w, v


def kernel(spectral, t, i, j):
    """K(t, x_i, x_j) by spectral summation; t > 0.

    The product is grouped as (v_i v_j) w so K(t,i,j) == K(t,j,i) exactly.
    """
    w = spectral.weights(t)
    return float(np.sum((spectral.eigenvectors[i] * spectral.eigenvectors[j]) * w))


def kernel_matrix(spectral, t):
    w = spectral.weights(t)
    V = spectral.eigenvectors
    return (V * w[None, :]) @ V.T


def semigroup_check(spectral, t, s):
    """Chapman-Kolmogorov defect max_ij |sum_z K(t,i,z)K(s,z,j)h^n - K(t+s,i,j)|."""
    Kt = kernel_matrix(spectral, t)
    Ks = kernel_matrix(spectral, s)
    Kts = kernel_matrix(spectral, t + s)
    return float(np.max(np.abs(spectral.mass * (Kt @ Ks) - Kts)))


def spectral_field(spectral, t_list, pairs):
    """Rows ``(t, x, y, K)`` of K over times and 1D (x, y) pairs snapped to
    nearest grid nodes: times outer, pairs inner, in the order given."""
    if spectral.grid.n != 1:
        raise ValueError("kernel fields are tabulated for 1D grids only")
    idx_pairs = [
        (spectral.grid.nearest_node(x), spectral.grid.nearest_node(y)) for x, y in pairs
    ]
    coords = spectral.grid.node_coordinates()[:, 0].tolist()
    return [(float(t), coords[i], coords[j], kernel(spectral, t, i, j))
            for t in t_list for i, j in idx_pairs]


def oracle_field(m, a, t_list, pairs):
    """Rows ``(t, x, y, K0(t, 0, |y - x|))`` of the Fourier oracle over times
    and (x, y) pairs, as :func:`spectral_field` orders them."""
    return [(float(t), float(x), float(y), fourier_oracle(m, a, t, abs(y - x)))
            for t in t_list for x, y in pairs]


def fourier_oracle(m, a, t, r):
    """Constant-coefficient 1D kernel K0(t, 0, r) for A(xi) = a xi^(2m)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if a <= 0:
        raise ValueError("leading coefficient must be positive")
    xi_max = (750.0 / (a * t)) ** (1.0 / (2 * m))
    panel_width = np.pi / (4.0 * abs(r) + 1.0)
    npanels = max(8, int(np.ceil(xi_max / panel_width)))
    v1 = _composite_gl(m, a, t, r, xi_max, npanels)
    v2 = _composite_gl(m, a, t, r, xi_max, 2 * npanels)
    if abs(v2 - v1) > 1e-10:
        raise QuadratureError(
            f"oscillatory quadrature did not settle: delta={abs(v2 - v1):.3e}"
        )
    return v2


@functools.lru_cache(maxsize=None)
def _gauss_legendre():
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _composite_gl(m, a, t, r, xi_max, npanels):
    nodes, weights = _gauss_legendre()
    edges = np.linspace(0.0, xi_max, npanels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    f = np.exp(-a * x ** (2 * m) * t) * np.cos(x * r)
    return float(np.dot(f, w) / np.pi)


def trace_identity_defect(spectral, t):
    """|sum_i K(t,i,i) h^n - sum_k exp(-l_k t)| relative to the trace."""
    K = kernel_matrix(spectral, t)
    tr_kernel = spectral.mass * float(np.trace(K))
    tr_spec = float(np.sum(spectral.weights(t)))
    return abs(tr_kernel - tr_spec) / abs(tr_spec)
