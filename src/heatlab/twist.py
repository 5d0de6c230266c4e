"""Exponential conjugation of discrete forms and the growth law of the
resulting lower bounds.

Conjugating the operator matrix by ``E = diag(exp(l * phi))`` multiplies
entry (i, j) by ``exp(l (phi_j - phi_i))``; for banded matrices only
differences of phi across the band enter (conjugation by scalars is
trivial), so the symmetric part is built diagonal by diagonal in LAPACK
band storage, entry ``H_ij cosh(l (phi_i - phi_j))``, and neither
``exp(l phi)`` nor a dense twisted matrix is formed.  The symmetric part
realizes the real part of the twisted form for real vectors, and
``k(l) = -lambda_min`` of that symmetric part, bisected on the band with
banded Cholesky factors from a bracket the sweep guesses (``eig_banded``
for m = 1).
Sweeping l over a decade and fitting ``k(l) = kappa l^(2m) + c`` measures
the growth coefficient, to be compared with the sharp constant k_m;
combining k(l) with a distance and optimizing over l assembles the
Gaussian bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import band_lowest
from .symbols import as_field, eval_symbol, sharp_constants, decay_constant_from_growth

OVERFLOW_GUARD = 600.0
BRACKET_REL = 1e-3  # half-width of an extrapolated k bracket, relative to the guess


class OverflowGuardError(ValueError):
    pass


@dataclass
class TwistProfile:
    """phi sampled on grid nodes plus derivative samples up to order m.

    Derivatives are one-sided-corrected gradients of the node samples (the
    profile is not subject to Dirichlet truncation).  Feasibility:

    * full class: |phi^(k)| <= M for 1 <= k <= m,
    * symbol class: A(x, phi') <= 1 and |phi^(k)| <= M for 2 <= k <= m.
    """

    grid: object
    values: np.ndarray
    derivatives: dict  # order -> node samples

    @classmethod
    def from_values(cls, grid, values, m):
        if grid.n != 1:
            raise ValueError("twist profiles are 1D")
        values = np.asarray(values, dtype=float)
        h = grid.h[0]
        derivs = {}
        cur = values
        for k in range(1, m + 1):
            cur = np.gradient(cur, h, edge_order=2)
            derivs[k] = cur
        return cls(grid, values, derivs)

    @classmethod
    def from_expression(cls, grid, text_or_field, m):
        fld = as_field(text_or_field, grid.n)
        vals = fld.at_many(grid.node_coordinates())
        return cls.from_values(grid, vals, m)

    def feasible_full(self, M, tol=1e-8):
        return all(np.max(np.abs(d)) <= M + tol for d in self.derivatives.values())

    def feasible_symbol(self, spec, M, tol=1e-8):
        a = eval_symbol(spec, self.grid.node_coordinates(), self.derivatives[1][:, None])
        return not np.any(a > 1.0 + tol) and all(
            np.max(np.abs(d)) <= M + tol
            for k, d in self.derivatives.items()
            if k >= 2
        )


def twisted_form(op, profile, lam):
    """Symmetric part of E^{-1} H E with E = diag(exp(lam * phi)), in operator
    units; its minimal eigenvalue is -k(lam).

    Returned in the LAPACK lower band storage of ``op.band``, which it twists
    row by row: row k holds the k-th subdiagonal in its first N - k entries,
    zero-padded.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    phi = np.asarray(profile.values, dtype=float)
    bands = op.band.copy()
    n = bands.shape[1]
    if phi.shape[0] != n:
        raise ValueError("profile does not match the grid")
    expos = [lam * (phi[:-k] - phi[k:]) for k in range(1, bands.shape[0])]
    worst = max((float(np.max(np.abs(x))) for x in expos), default=0.0)
    if worst > OVERFLOW_GUARD:
        raise OverflowGuardError(
            f"lam * phi-difference reaches {worst:.1f} > {OVERFLOW_GUARD} across the band"
        )
    for k, x in enumerate(expos, start=1):
        hk = bands[k, : n - k]
        bands[k, : n - k] = 0.5 * (hk * np.exp(x) + hk * np.exp(-x))
    return bands


def lower_bound_k(op, profile, lam, bracket=None):
    """k(lam) = -lambda_min of the symmetrized twisted form (no clipping).

    For m >= 2 lambda_min is the largest shift at which the band minus the
    shift has a banded Cholesky factor, bisected to adjacent doubles (see
    :func:`band_lowest`), so the value is bounded above; an optional
    ``bracket = (k_lo, k_hi)`` guesses k and only saves factorizations.  For
    m = 1 it is ``eig_banded``'s."""
    band = twisted_form(op, profile, lam)
    return -band_lowest(band, None if bracket is None else (-bracket[1], -bracket[0]))


@dataclass
class TwistReport:
    m: int
    lambdas: np.ndarray
    k_values: np.ndarray
    kappa: float
    intercept: float
    fit_residual: float  # max |k - fit| / |k(lam_max)| over the fitted subset
    k_m: float
    eps_report: float    # max(0, kappa - k_m)
    reliable: bool
    k_zero: float = 0.0  # untwisted bound -lambda_min(H)

    def model(self, lam):
        return self.kappa * np.asarray(lam) ** (2 * self.m) + self.intercept


def growth_fit(op, profile, lambdas, residual_flag=0.05, brackets=None):
    """Sweep k(lam) and fit kappa lam^(2m) + c on the top decade.

    The grid must span at least one decade.  The fit is flagged unreliable
    when the residual exceeds ``residual_flag`` of k(lam_max).  Each k is
    bisected from a bracket (see :func:`band_lowest`): ``brackets[i]`` when
    the caller gives one ``(k_lo, k_hi)`` per sorted lambda, else, from the
    third lambda on, ``BRACKET_REL`` about the line in ``lam^(2m)`` through
    the previous two k.  A bracket only saves factorizations; k is the same.
    """
    lambdas = np.asarray(sorted(lambdas), dtype=float)
    if lambdas[-1] / lambdas[0] < 10.0 * (1 - 1e-12):
        raise ValueError("lambda grid must span at least one decade")
    m = op.m
    ks = []
    for i, lam in enumerate(lambdas):
        bracket = None if brackets is None else brackets[i]
        if bracket is None and i >= 2:
            p0, p1 = lambdas[i - 2] ** (2 * m), lambdas[i - 1] ** (2 * m)
            guess = ks[-1] + (ks[-1] - ks[-2]) * (lam ** (2 * m) - p1) / (p1 - p0)
            bracket = (guess - BRACKET_REL * abs(guess), guess + BRACKET_REL * abs(guess))
        ks.append(lower_bound_k(op, profile, lam, bracket))
    ks = np.array(ks)
    top = lambdas >= lambdas[-1] / 10.0
    A = np.vstack([lambdas[top] ** (2 * m), np.ones(int(top.sum()))]).T
    coef, *_ = np.linalg.lstsq(A, ks[top], rcond=None)
    kappa, c = float(coef[0]), float(coef[1])
    scale = abs(ks[top][-1]) if ks[top][-1] != 0 else 1.0
    residual = float(np.max(np.abs(ks[top] - A @ coef))) / scale
    km = sharp_constants(m).k_m
    return TwistReport(
        m=m,
        lambdas=lambdas,
        k_values=ks,
        kappa=kappa,
        intercept=c,
        fit_residual=residual,
        k_m=km,
        eps_report=max(0.0, kappa - km),
        reliable=residual <= residual_flag,
        k_zero=-op.lowest_eigenvalue(),
    )


@dataclass
class GaussianBoundValue:
    bound: float           # grid infimum, with the (1+delta) safety factor
    bound_closed: float    # closed-form lambda*, same safety factor
    lambda_star: float
    ideal_exponent: float  # inf_l(-l d + l^(2m) kappa t), no safety factor
    grid_interior: bool    # lambda* strictly inside the swept grid


def assemble_gaussian_bound(report, d, t, prefactor, delta=0.01):
    """Bound value  prefactor * t^(-n/2m) * inf_l exp(-l d + (1+delta) k(l) t).

    Uses the swept k(l) on the grid and, in parallel, the closed form at
    ``l* = (d / (2m kappa (1+delta) t))^(1/(2m-1))`` from the fitted model;
    the two agree when l* is interior to the grid (else the extend-grid flag
    ``grid_interior`` is false).  n = 1 (the sweeps are one-dimensional).
    """
    if report.kappa <= 0:
        raise ValueError("fitted growth coefficient must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    m = report.m
    n = 1
    pref = prefactor * t ** (-n / (2 * m))
    lams = np.concatenate([[0.0], report.lambdas])
    kvals = np.concatenate([[report.k_zero], report.k_values])
    exponents = -lams * d + (1 + delta) * kvals * t
    i = int(np.argmin(exponents))
    bound_grid = pref * math.exp(float(exponents[i]))
    kappa_eff = report.kappa * (1 + delta)
    if d == 0.0:
        lam_star = 0.0
        bound_closed = pref * math.exp((1 + delta) * report.k_zero * t)
    else:
        lam_star = (d / (2 * m * kappa_eff * t)) ** (1.0 / (2 * m - 1))
        sigma_eff = decay_constant_from_growth(kappa_eff, m)
        expo = (
            -sigma_eff * d ** (2 * m / (2 * m - 1)) / t ** (1.0 / (2 * m - 1))
            + (1 + delta) * report.intercept * t
        )
        bound_closed = pref * math.exp(expo)
    sigma_ideal = decay_constant_from_growth(report.kappa, m)
    ideal = -sigma_ideal * d ** (2 * m / (2 * m - 1)) / t ** (1.0 / (2 * m - 1)) if d > 0 else 0.0
    interior = bool(report.lambdas[0] < lam_star < report.lambdas[-1])
    return GaussianBoundValue(
        bound=float(bound_grid),
        bound_closed=float(bound_closed),
        lambda_star=float(lam_star),
        ideal_exponent=float(ideal),
        grid_interior=interior,
    )


@dataclass
class PerturbationReport:
    delta_coeff: float
    kappa_ref: float
    kappa_pert: float
    delta_kappa: float
    slope: float           # delta_kappa / delta_coeff
    intercept_drift: float


def perturbation_stability(op_ref, op_pert, delta_coeff, profile, lambdas):
    """Growth-coefficient drift between a reference operator and a perturbed
    one with max-norm coefficient gap ``delta_coeff``; the shared profile must
    be feasible for both symbols."""
    rep_ref = growth_fit(op_ref, profile, lambdas)
    rep_pert = growth_fit(op_pert, profile, lambdas)
    dk = abs(rep_pert.kappa - rep_ref.kappa)
    return PerturbationReport(
        delta_coeff=delta_coeff,
        kappa_ref=rep_ref.kappa,
        kappa_pert=rep_pert.kappa,
        delta_kappa=dk,
        slope=dk / delta_coeff if delta_coeff > 0 else 0.0,
        intercept_drift=abs(rep_pert.intercept - rep_ref.intercept),
    )
