"""Heat kernels from the operator's eigenpairs and a Fourier quadrature oracle.

Eigenvectors are normalized in the h^n-weighted inner product so that the
sampled kernel ``K(t, x_i, x_j) = sum_k exp(-l_k t) v_k(x_i) v_k(x_j)`` has
continuum units (1/length^n) and cross-checks directly against the
constant-coefficient whole-line oracle

    K0(t, 0, r) = (1/pi) * int_0^Xi exp(-a xi^(2m) t) cos(xi r) dxi,

truncated at ``Xi = (750/(a t))^(1/2m)`` (integrand under 1e-300 beyond) and
integrated by composite Gauss-Legendre with panels narrow enough to resolve
the oscillation; panel doubling certifies 1e-10 absolute accuracy.

A caller that samples no time below ``t_min`` needs no eigenpair with
``l >= 746 / t_min``: its weight ``exp(-l t)`` is exactly 0.0 in double
precision at every such ``t``.  :func:`eigendecompose` then asks LAPACK's
MRRR solver (``dsyevr``) for the eigenpairs below that cut only; the
spectrum records ``t_min`` and every kernel function refuses an earlier
time.  The stock quartic verdicts keep 75 of their 800 modes, the
perturbed one 19.  When the cut is at or above a Gershgorin bound on the
spectrum the full decomposition is taken instead, because a value-range
call that keeps every mode is slower than the full one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

# double-precision floor for eigenpair residuals of stiff operators: below
# eps * ||H|| no backward-stable solver can certify a smaller residual
_RESIDUAL_FLOOR_FACTOR = 8 * np.finfo(float).eps
# exp(-x) rounds to exactly 0.0 for x >= 745.14 (below half the smallest subnormal)
UNDERFLOW_EXPONENT = 746.0


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

    def validate(self, operator_matrix, rtol=1e-8):
        """Residual and weighted-orthonormality checks.

        The residual test uses ``max(1e-8 (|l|+1), 8 eps ||H||)``: the second
        term is the double-precision floor for backward-stable eigensolvers
        on stiff matrices.
        """
        H = operator_matrix
        scale = float(np.max(np.abs(H)))
        R = H @ self.eigenvectors - self.eigenvectors * self.eigenvalues[None, :]
        rnorm = np.linalg.norm(R, axis=0)
        vnorm = np.linalg.norm(self.eigenvectors, axis=0)
        bound = np.maximum(
            rtol * (np.abs(self.eigenvalues) + 1.0), _RESIDUAL_FLOOR_FACTOR * scale
        )
        if not np.all(rnorm <= bound * vnorm):
            k = int(np.argmax(rnorm / (bound * vnorm)))
            raise ValueError(
                f"eigenpair {k} residual {rnorm[k]:.3e} exceeds bound {bound[k] * vnorm[k]:.3e}"
            )
        G = self.mass * (self.eigenvectors.T @ self.eigenvectors)
        defect = float(np.max(np.abs(G - np.eye(G.shape[0]))))
        if defect > 1e-8:
            raise ValueError(f"weighted orthonormality defect {defect:.3e}")
        return True


def eigendecompose(op, t_min=0.0):
    """Eigenpairs of the dense operator matrix (symmetric): all of them, or,
    for ``t_min > 0``, those with ``l < 746 / t_min``, whose kernel weight is
    nonzero at some ``t >= t_min``."""
    if t_min < 0:
        raise ValueError("t_min must be nonnegative")
    H = op.operator_matrix()
    if op.symmetry_defect() > 1e-12:
        raise ValueError("form matrix is not symmetric")
    cut = UNDERFLOW_EXPONENT / t_min if t_min > 0 else np.inf
    # no eigenvalue exceeds the largest absolute row sum (Gershgorin)
    if cut < abs(op.form_matrix).sum(axis=1).max() / op.mass:
        w, v = sla.eigh(H, subset_by_value=(-np.inf, cut))
    else:
        w, v = sla.eigh(H)
    return SpectralData(
        eigenvalues=w,
        eigenvectors=v / np.sqrt(op.mass),
        grid=op.grid,
        mass=op.mass,
        t_min=t_min if len(w) < H.shape[0] else 0.0,
    )


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


@dataclass
class HeatKernelField:
    """Sampled kernel values with provenance; rows are (t, x, y, K)."""

    m: int
    n: int
    method: str  # "spectral" or "fourier-oracle"
    ts: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def add(self, t, x, y, value):
        self.ts.append(float(t))
        self.xs.append(float(x))
        self.ys.append(float(y))
        self.values.append(float(value))

    def rows(self):
        return zip(self.ts, self.xs, self.ys, self.values)

    def __len__(self):
        return len(self.ts)


def spectral_field(spectral, m, t_list, pairs):
    """Sample K over times and 1D (x, y) pairs snapped to nearest grid nodes."""
    if spectral.grid.n != 1:
        raise ValueError("kernel fields are tabulated for 1D grids only")
    fld = HeatKernelField(m=m, n=1, method="spectral")
    idx_pairs = [
        (spectral.grid.nearest_node(x), spectral.grid.nearest_node(y)) for x, y in pairs
    ]
    coords = spectral.grid.node_coordinates()[:, 0]
    for t in t_list:
        for i, j in idx_pairs:
            fld.add(t, coords[i], coords[j], kernel(spectral, t, i, j))
    return fld


def oracle_field(m, a, t_list, r_list):
    fld = HeatKernelField(m=m, n=1, method="fourier-oracle")
    for t in t_list:
        for r in r_list:
            fld.add(t, 0.0, r, fourier_oracle(m, a, t, r))
    return fld


def fourier_oracle(m, a, t, r, abs_tol=1e-10, gauss_order=16):
    """Constant-coefficient 1D kernel K0(t, 0, r) for A(xi) = a xi^(2m)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if a <= 0:
        raise ValueError("leading coefficient must be positive")
    xi_max = (750.0 / (a * t)) ** (1.0 / (2 * m))
    panel_width = np.pi / (4.0 * abs(r) + 1.0)
    npanels = max(8, int(np.ceil(xi_max / panel_width)))
    v1 = _composite_gl(m, a, t, r, xi_max, npanels, gauss_order)
    v2 = _composite_gl(m, a, t, r, xi_max, 2 * npanels, gauss_order)
    if abs(v2 - v1) > abs_tol:
        raise QuadratureError(
            f"oscillatory quadrature did not settle: delta={abs(v2 - v1):.3e}"
        )
    return v2


def _composite_gl(m, a, t, r, xi_max, npanels, order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, xi_max, npanels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    f = np.exp(-a * x ** (2 * m) * t) * np.cos(x * r)
    return float(np.dot(f, w) / np.pi)


def ondiag_bound(field, m, n):
    """Fitted on-diagonal prefactor: max over samples of |K(t,x,x)| t^(n/2m)."""
    vals = [
        abs(v) * t ** (n / (2 * m))
        for t, x, y, v in field.rows()
        if x == y
    ]
    if not vals:
        raise ValueError("field contains no on-diagonal samples")
    return max(vals)


def trace_identity_defect(spectral, t):
    """|sum_i K(t,i,i) h^n - sum_k exp(-l_k t)| relative to the trace."""
    K = kernel_matrix(spectral, t)
    tr_kernel = spectral.mass * float(np.trace(K))
    tr_spec = float(np.sum(spectral.weights(t)))
    return abs(tr_kernel - tr_spec) / abs(tr_spec)
