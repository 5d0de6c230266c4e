"""Numerical verification of the smallness hypotheses on negative potentials.

Everything is exact at the discrete level: the zero-form-bound constant is an
eigenvalue, and the L1->L1 resolvent norm is a max column mass of the
resolvent kernel.  When the band has no positive off-diagonal (every m = 1
operator), ``H0 + lambda`` is a Stieltjes matrix whose inverse is entrywise
nonnegative (Berman & Plemmons, ch. 6), so the masses are ``R V_-``, one
dense solve with one right-hand side; otherwise the resolvent is solved from
the identity.  The weighted-L2 bound is the top eigenvalue of the
symmetrized weighted resolvent, found by Lanczos iteration (ARPACK through
``scipy.sparse.linalg.eigsh``) from a fixed start vector, so reruns give the
same bits; its products are solves with one sparse LU of ``H0 + lambda``, so
it forms no N x N array.  :func:`kato_norm_curve` is the one sweep over
lambda: it takes each norm once per lambda, and its :class:`KatoCurve`
enforces the decay in lambda and the interpolation bound (weighted-L2 <=
L1->L1).  The Miyadera quadrature is one matrix product per
panel over the modes that can change it: the eigenvalues ascend, so the
modes weighted below ``2^-63`` of the first at the panel's first node are a
tail, and the product skips it when the tail's bound stays below ``2^-53``
of the panel (else it keeps every mode whose weight is nonzero there).  It
needs the complete spectrum.
Singular potentials enter as grid traces, clipped (with a warning) at 1e12.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretize import POTENTIAL_WARN_THRESHOLD, band_lowest

INTERPOLATION_SLACK = 1e-8  # allowance of  weighted-L2 norm <= L1->L1 norm
GAUSS_ORDER = 32  # Miyadera nodes per panel
SETTLE_TOL = 1e-6  # Miyadera relative change allowed when the panels double
TAIL_WEIGHT = 2.0**-63  # Miyadera modes below this share of the first one's weight...
TAIL_REL = 2.0**-53  # ...are dropped from a panel if their bound stays below this share of it


def sample_potential(potential, grid):
    """Grid trace of a potential, an expression or a field; values beyond
    ``POTENTIAL_WARN_THRESHOLD`` (1e12) are truncated to it."""
    from .symbols import as_field

    v = as_field(potential, grid.n).at_many(grid.node_coordinates())
    over = np.abs(v) > POTENTIAL_WARN_THRESHOLD
    if np.any(over):
        warnings.warn("potential clipped at %.1e on %d nodes"
                      % (POTENTIAL_WARN_THRESHOLD, int(np.sum(over))), RuntimeWarning)
        v = np.clip(v, -POTENTIAL_WARN_THRESHOLD, POTENTIAL_WARN_THRESHOLD)
    return v


def _check_vminus(vminus):
    vminus = np.asarray(vminus, dtype=float)
    if np.any(vminus < 0):
        raise ValueError("V_- must be nonnegative")
    return vminus


def form_bound(op0, vminus, eps):
    """Smallest c with  sum V_- |u|^2 h^n <= eps Q0(u) + c ||u||^2  on the grid.

    Characterized exactly as max(0, -lambda_min(eps * H0 - diag(V_-))), from
    the band ``eps * op0.band`` with V_- taken from its diagonal.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    vminus = _check_vminus(vminus)
    band = eps * op0.band
    band[0] -= vminus
    return max(0.0, -band_lowest(band))


@dataclass
class KatoCurve:
    """Per lambda, the L1->L1 and the weighted-L2 norm of V_-(H0+lambda)^{-1}."""

    lambdas: list
    norms: list
    weighted: list

    def __post_init__(self):
        n = np.asarray(self.norms)
        if np.any(n < 0):
            raise ValueError("resolvent norms must be nonnegative")
        if np.any(np.diff(n) > 1e-10 * max(1.0, n[0])):
            raise ValueError("Kato norm curve must be non-increasing in lambda")
        if np.any(np.asarray(self.weighted) > n + INTERPOLATION_SLACK):
            raise ValueError("weighted-L2 norm exceeds the L1->L1 norm")


def kato_norm(op0, vminus, lam):
    """Discrete ||V_-(H0+lambda)^{-1}||_{L1->L1}: the max column mass of the
    weighted resolvent kernel ``V_- |R|``, ``R = (H0 + lambda)^{-1}``.

    With no positive off-diagonal in ``op0.band`` (every m = 1 operator),
    ``H0 + lambda`` is a Stieltjes matrix, so ``R >= 0`` entrywise and the
    column masses are ``R V_-``: one dense solve with one right-hand side.
    Otherwise ``R`` is solved from the identity and freed on return.
    """
    vminus = _check_vminus(vminus)
    A = op0.operator_matrix()
    A.flat[:: A.shape[0] + 1] += lam
    if not np.any(op0.band[1:] > 0):
        return float(np.max(np.linalg.solve(A, vminus)))
    R = np.linalg.solve(A, np.eye(A.shape[0]))
    del A
    return float(np.max(np.sum(vminus[:, None] * np.abs(R), axis=0)))


def kato_norm_curve(op0, vminus, lambdas):
    """Both norms at each lambda, each above ``-lambda_min``: one call each
    of :func:`kato_norm` and :func:`weighted_l2_check` per lambda."""
    vminus = _check_vminus(vminus)
    lambdas = list(lambdas)
    lo = band_lowest(op0.band)
    for lam in lambdas:
        if lam <= -lo:
            raise ValueError(f"lambda = {lam} is not above -lambda_min = {-lo}")
    norms = [kato_norm(op0, vminus, lam) for lam in lambdas]
    weighted = [weighted_l2_check(op0, vminus, lam) for lam in lambdas]
    return KatoCurve(lambdas, norms, weighted)


def weighted_l2_check(op0, vminus, lam):
    """Spectral norm of (H0+lambda)^{-1} V_- on l2(V_- h^n), restricted to the
    support of V_-; 0 when V_- vanishes.  The resolvent is positive definite
    for lambda above -lambda_min, so the symmetrized weighted resolvent
    ``sqrt(V_-) (H0+lambda)^{-1} sqrt(V_-)`` is positive semi-definite and its
    norm is its top eigenvalue.  Its products are solves with one sparse LU
    of ``H0 + lambda``; no N x N array is formed.  :class:`KatoCurve` checks
    it against the L1->L1 norm.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh, splu  # loaded on first use

    vminus = _check_vminus(vminus)
    support = np.flatnonzero(vminus)
    k = len(support)
    if k == 0:
        return 0.0
    sq = np.sqrt(vminus[support])
    n = op0.grid.node_count
    lu = splu((op0.matrix + lam * sp.identity(n, format="csr")).tocsc())

    def product(x):
        b = np.zeros(n)
        b[support] = sq * x
        return sq * lu.solve(b)[support]

    if k == 1:  # ARPACK needs two rows or more
        return float(product(np.ones(1))[0])
    Mw = LinearOperator((k, k), matvec=product, dtype=float)
    # Lanczos from a fixed start; non-convergence raises
    return float(eigsh(Mw, k=1, which="LA", v0=np.ones(k), return_eigenvectors=False)[0])


def miyadera_integral(spectral, vminus, delta, u, panels=None):
    """int_0^delta || V_- e^{-t H0} u ||_1 dt by composite Gauss-Legendre.

    First split at delta/8; below it the panels are geometrically graded
    toward t = 0 (the integrand has a square-root layer from the high
    modes), above it they are uniform; each panel is one product
    ``V @ (exp(-outer(l, t)) * c)`` over the modes k with
    ``exp(-(l_k - l_0) t_0) >= TAIL_WEIGHT`` (2^-63) at the panel's first
    node t_0.  Mode k adds at most ``a_k exp(-l_k t)`` to the integrand,
    ``a_k = h |c_k| (V_-^T |v_k|)``, so the dropped modes move the panel by
    at most ``(hi - lo) sum a_k exp(-l_k t_0)`` (the larger end's weight for
    a negative l_k); when that exceeds ``TAIL_REL`` (2^-53) of the panel,
    the panel keeps every mode whose weight is nonzero at t_0.  Doubling all
    panel counts must not move the value by more than ``SETTLE_TOL``
    relative, else a QuadratureError.  The spectrum must be complete: the
    integral starts at t = 0.

    ``panels`` maps a panel's exact float edges ``(lo, hi)`` to its
    integral.  Calls with the same spectrum, ``V_-`` and ``u`` may share one
    dict, so that a panel common to the two panel sets of the settle check,
    or to two deltas, is integrated once; the sums are the same bits.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if spectral.t_min > 0:
        raise ValueError("the Miyadera integral needs a complete spectrum, not one cut at t_min")
    vminus = _check_vminus(vminus)
    u = np.asarray(u, dtype=float)
    V, lam, mass = spectral.eigenvectors, spectral.eigenvalues, spectral.mass
    coeffs = mass * (V.T @ u)
    # mode k adds at most reach[k] exp(-l_k t) to the integrand at time t
    reach = mass * np.abs(coeffs) * (vminus @ np.abs(V))
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    panels = {} if panels is None else panels

    def gauss(t, k):
        ut = V[:, :k] @ (np.exp(-np.outer(lam[:k], t)) * coeffs[:k, None])
        return float(weights @ (vminus @ np.abs(ut) * mass))

    def panel(lo, hi):
        if (lo, hi) not in panels:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = mid + half * nodes
            alive = np.count_nonzero(np.exp(-lam * t[0]))  # ascending l: the zeros are a tail
            cut = min(alive, np.count_nonzero(np.exp(-(lam - lam[0]) * t[0]) >= TAIL_WEIGHT))
            value = half * gauss(t, cut)
            if cut < alive:
                l_tail = lam[cut:alive]
                top = np.maximum(np.exp(-l_tail * t[0]), np.exp(-l_tail * t[-1]))
                if (hi - lo) * float(reach[cut:alive] @ top) > TAIL_REL * value:
                    value = half * gauss(t, alive)
            panels[lo, hi] = value
        return panels[lo, hi]

    def integrate(factor):
        graded = delta / 8.0 * 2.0 ** (-np.arange(8 * factor, -1, -1.0))
        edges = np.concatenate([[0.0], graded, np.linspace(delta / 8, delta, 7 * factor + 1)[1:]])
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += panel(lo, hi)
        return total

    v1 = integrate(1)
    v2 = integrate(2)
    scale = max(abs(v2), 1e-300)
    if abs(v2 - v1) / scale > SETTLE_TOL:
        from .heatkernel import QuadratureError

        raise QuadratureError(f"miyadera quadrature did not settle: {abs(v2 - v1):.3e}")
    return v2


def miyadera_ratio(spectral, vminus, delta, u, panels=None):
    """Integral normalized by ||u||_1; shrinks with delta.  ``panels`` as in
    :func:`miyadera_integral`."""
    u = np.asarray(u, dtype=float)
    l1 = float(np.sum(np.abs(u)) * spectral.mass)
    return miyadera_integral(spectral, vminus, delta, u, panels) / l1
