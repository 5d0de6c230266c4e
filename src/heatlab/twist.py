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
for m = 1).  The bisection stops at the double-precision floor: for m >= 2,
k is a multiple of ``q``, the power of two at or above ``eps ||B||_max`` of
the twisted band.
Sweeping l over a decade and fitting ``k(l) = kappa l^(2m) + c`` on at
least three points of the top decade measures the growth coefficient, to
be compared with the sharp constant k_m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import band_lowest
from .symbols import as_field, eval_symbol, sharp_constants

OVERFLOW_GUARD = 600.0
BRACKET_REL = 1e-3  # half-width of an extrapolated k bracket, relative to the guess
FIT_MIN_POINTS = 3  # a line through two points fits with zero residual
FEASIBILITY_SLACK = 1e-8  # allowance of the symbol-class bounds A(x, phi') <= 1, |phi^(k)| <= M


class OverflowGuardError(ValueError):
    pass


@dataclass
class TwistProfile:
    """phi sampled on grid nodes plus derivative samples up to order m.

    Derivatives are one-sided-corrected gradients of the node samples (the
    profile is not subject to Dirichlet truncation).  Feasibility (symbol
    class): A(x, phi') <= 1 and |phi^(k)| <= M for 2 <= k <= m.
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

    def feasible_symbol(self, spec, M):
        a = eval_symbol(spec, self.grid.node_coordinates(), self.derivatives[1][:, None])
        return not np.any(a > 1.0 + FEASIBILITY_SLACK) and all(
            np.max(np.abs(d)) <= M + FEASIBILITY_SLACK
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

    For m >= 2 lambda_min is the largest multiple of ``q`` (the power of two
    at or above ``eps ||B||_max`` of the twisted band) at which the band
    minus it has a banded Cholesky factor (see :func:`band_lowest`), so the
    value is bounded above and good to the floor ``eps ||B||_max``; an
    optional ``bracket = (k_lo, k_hi)`` guesses k and only saves
    factorizations.  For m = 1 it is ``eig_banded``'s."""
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

    def model(self, lam):
        return self.kappa * np.asarray(lam) ** (2 * self.m) + self.intercept


def growth_fit(op, profile, lambdas, brackets=None):
    """Sweep k(lam) and fit kappa lam^(2m) + c on the top decade.

    The grid must span at least one decade and hold ``FIT_MIN_POINTS`` (3)
    lambdas in its top decade: a line through two points has zero residual,
    so ``reliable`` would mean nothing.  The fit is flagged unreliable when
    the residual exceeds 5% of k(lam_max).  Each k is bisected from a
    bracket (see :func:`band_lowest`): ``brackets[i]`` when the caller gives
    one ``(k_lo, k_hi)`` per sorted lambda, else, from the third lambda on,
    ``BRACKET_REL`` about the line in ``lam^(2m)`` through the previous two
    k.  A bracket only saves factorizations; k is the same multiple of the
    band's ``q``.
    """
    lambdas = np.asarray(sorted(lambdas), dtype=float)
    if lambdas[-1] / lambdas[0] < 10.0 * (1 - 1e-12):
        raise ValueError("lambda grid must span at least one decade")
    top = lambdas >= lambdas[-1] / 10.0
    if np.count_nonzero(top) < FIT_MIN_POINTS:
        raise ValueError(f"the fitted top decade holds {np.count_nonzero(top)} lambdas; "
                         f"the fit needs {FIT_MIN_POINTS} or more")
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
    A = np.vstack([lambdas[top] ** (2 * m), np.ones(int(top.sum()))]).T
    coef, *_ = np.linalg.lstsq(A, ks[top], rcond=None)
    kappa, c = float(coef[0]), float(coef[1])
    scale = abs(ks[top][-1]) if ks[top][-1] != 0 else 1.0
    residual = float(np.max(np.abs(ks[top] - A @ coef)) / scale)
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
        reliable=residual <= 0.05,
    )

