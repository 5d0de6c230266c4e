"""Scenario orchestration: Gaussian-exponent fitting and end-to-end verdicts.

The central regression fits ``log |K(t,x,y)| + (n/2m) log t`` against
``u = d(x,y)^(2m/(2m-1)) t^(-1/(2m-1))``; the negated slope is the effective
decay constant to compare with sigma_m.  For oscillatory kernels (m >= 2)
only samples on the monotone envelope (running max of |K| in decreasing-d
order at fixed t) enter the regression, so the zeros of the kernel do not
poison the logs.

A verdict samples the kernel once, as one table of rows ``(t, x, y, K, d,
u)`` with each pair's distance next to it, and the fit, the prefactor and
the bound all read that table.  The table keeps only rows whose |K| exceeds
``ROUNDING_FLOOR`` times the largest |K| at the same time: below that the
spectral sum reads its own rounding, with random signs, not the kernel.
The verdict packages the fitted constants, the dominating prefactor
``gamma`` and the worst-case sample, so the claimed inequality can be
re-checked from the emitted numbers alone.  ``gamma`` is
the least prefactor, not below the fit's, with which the bound dominates
every sample, in closed form: ``max_s W0(c_s t_s) / t_s`` with ``c_s = |K_s|
t_s^(n/2m) exp((sigma-eps) u_s)`` and ``W0`` the principal branch of
Lambert's W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, RunConfig
from .discretize import Grid, assemble
from .finsler import distance_1d, distance_dm_1d
from .heatkernel import eigendecompose, spectral_field
from .kato import form_bound, sample_potential
from .symbols import SymbolSpec, is_strongly_convex, sharp_constants, decay_constant_from_growth
from .twist import TwistProfile, growth_fit

# a kernel sample at most this fraction of the largest |K| at its time is
# the spectral sum's rounding, not the kernel
ROUNDING_FLOOR = 1e-12


@dataclass
class FitReport:
    sigma_eff: float
    intercept: float
    residual: float        # max |y - fit| / (regression range of y)
    n_samples: int
    verdict_ok: bool       # residual within 10% of the regression range

    @property
    def prefactor(self):
        return math.exp(self.intercept)


def _gaussian_variable(t, d, m):
    """``u = d^(2m/(2m-1)) t^(-1/(2m-1))``, in which the Gaussian exponent is linear."""
    return d ** (2 * m / (2 * m - 1)) * t ** -(1.0 / (2 * m - 1))


def fit_gaussian_exponent(samples, m, n, t_window):
    """OLS fit of the Gaussian exponent over kernel samples, rows ``(t, d, K)``.

    Requires at least 8 distinct distances and 3 times inside the window,
    and drops samples at d = 0 or K = 0, whose logarithm the fit cannot take.
    """
    pairs = [(t, d, v) for t, d, v in samples
             if t_window[0] <= t <= t_window[1] and v != 0.0 and d > 0.0]
    ts = sorted({p[0] for p in pairs})
    dvals = sorted({p[1] for p in pairs})
    if len(dvals) < 8 or len(ts) < 3:
        raise ValueError(
            f"insufficient usable samples: {len(dvals)} distances, {len(ts)} times"
        )
    if m >= 2:
        pairs = _monotone_envelope(pairs)
    u = np.array([_gaussian_variable(t, d, m) for t, d, v in pairs])
    yv = np.array([math.log(abs(v)) + (n / (2 * m)) * math.log(t) for t, d, v in pairs])
    if m >= 2:
        u, yv = _trim_troughs(u, yv)
    A = np.vstack([u, np.ones_like(u)]).T
    coef, *_ = np.linalg.lstsq(A, yv, rcond=None)
    resid = float(np.max(np.abs(yv - A @ coef)))
    yrange = float(np.max(yv) - np.min(yv)) or 1.0
    return FitReport(
        sigma_eff=-float(coef[0]),
        intercept=float(coef[1]),
        residual=resid / yrange,
        n_samples=len(pairs),
        verdict_ok=resid / yrange <= 0.10,
    )


def _monotone_envelope(pairs):
    """Per fixed t, keep samples whose |K| exceeds every larger-d sample."""
    out = []
    by_t = {}
    for t, d, v in pairs:
        by_t.setdefault(t, []).append((d, v))
    for t, rows in by_t.items():
        rows.sort(key=lambda r: -r[0])
        runmax = 0.0
        for d, v in rows:
            if abs(v) > runmax:
                out.append((t, d, v))
                runmax = abs(v)
    return out


def _trim_troughs(u, yv):
    """Drop samples far BELOW the fit line (oscillation troughs near kernel
    zeros) in two passes that keep 8 samples or more; one-sided, since the
    target is an upper envelope."""
    for _ in range(2):
        A = np.vstack([u, np.ones_like(u)]).T
        coef, *_ = np.linalg.lstsq(A, yv, rcond=None)
        r = yv - A @ coef
        med = float(np.median(r))
        mad = float(np.median(np.abs(r - med))) * 1.4826
        if mad == 0.0:
            break
        keep = r >= med - 3.0 * mad
        if int(keep.sum()) < 8 or keep.all():
            break
        u, yv = u[keep], yv[keep]
    return u, yv


# ---------------------------------------------------------------------------
# verdict pipelines
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    passed: bool
    scenario: str
    sigma_eff: float
    sigma_target: float
    eps: float
    tolerance: float
    gamma: float
    worst: dict
    notes: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (t, x, y, K, d, u, bound)
    fit: FitReport | None = None

    def render(self):
        from .reporting import format_float_17 as f17

        lines = [
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
            f"pipeline: {self.scenario}",
            f"sigma_eff: {f17(self.sigma_eff)}",
            f"sigma_target: {f17(self.sigma_target)}",
            f"eps: {f17(self.eps)}",
            f"tolerance: {f17(self.tolerance)}",
            f"gamma: {f17(self.gamma)}",
        ]
        if self.worst:
            w = self.worst
            lines.append(
                "worst_sample: t=%s x=%s y=%s K=%s d=%s bound=%s ratio=%s"
                % tuple(f17(w[k]) for k in ("t", "x", "y", "K", "d", "bound", "ratio"))
            )
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


def operator_pieces(opcfg):
    """Symbol, grid and sampled potential (None if absent) of an operator
    config to assemble, whose stencils need ``2m + 1`` nodes per axis."""
    if min(opcfg.grid_n) < 2 * opcfg.m + 1:
        raise ConfigError(f"need 2m + 1 = {2 * opcfg.m + 1} or more points per axis",
                          key="operator.grid_n")
    spec = SymbolSpec.isotropic(opcfg.m, opcfg.n, opcfg.a)
    grid = Grid.make(opcfg.domain, opcfg.grid_n)
    vvals = None if opcfg.potential is None else sample_potential(opcfg.potential, grid)
    return spec, grid, vvals


def _pair_distances(spec, pairs, method, M):
    """One distance per pair; the capped distances in one call."""
    if method == "euclidean":
        return [abs(y - x) for x, y in pairs]
    if method == "exact":
        return [distance_1d(spec, x, y) for x, y in pairs]
    r = distance_dm_1d(spec, M, [x for x, y in pairs], [y for x, y in pairs])
    if not r.converged:
        raise RuntimeError(f"capped-distance solver failed for pair {pairs[r.first_failure()]}")
    return [abs(v) for v in r.value.tolist()]


def _above_rounding_floor(samples):
    """The rows ``(t, x, y, K, ...)`` whose |K| exceeds ``ROUNDING_FLOOR``
    times the largest |K| at their time."""
    peak = {}
    for t, x, y, K, *_ in samples:
        peak[t] = max(peak.get(t, 0.0), abs(K))
    return [s for s in samples if abs(s[3]) > ROUNDING_FLOOR * peak[s[0]]]


def _dominating_prefactor(samples, sigma, n, m, floor):
    """The least G >= floor with |K_s| <= G t_s^(-n/2m) exp(-sigma u_s + G t_s)
    at every sample.  Sample s asks G exp(G t_s) >= c_s = |K_s| t_s^(n/2m)
    exp(sigma u_s), that is G t_s >= W0(c_s t_s), so the least G is the
    largest of these roots, or the floor."""
    from scipy.special import lambertw  # not at import: it slows every CLI start

    c_t = np.array([abs(K) * t ** (n / (2 * m)) * math.exp(sigma * u) * t
                    for t, x, y, K, d, u in samples])
    ts = np.array([s[0] for s in samples])
    return max(floor, float(np.max(lambertw(c_t).real / ts)))


def verify_sharp_bound(cfg: RunConfig):
    """Full pipeline: assemble, decompose, sweep, distance, fit, verdict.

    PASS when the fitted bound  gamma t^(-n/2m) exp(-(sigma_m - eps) u +
    gamma t)  dominates every sample and eps stays within the configured
    tolerance.
    """
    return _verdict_pipeline(cfg, label="sharp")


def verify_perturbed_bound(cfg: RunConfig):
    """Stability pipeline: measure the growth-coefficient drift per unit of
    coefficient perturbation, degrade the target constant accordingly, and
    run the sharp pipeline against the degraded target; FAIL when either
    growth fit is unreliable."""
    return _verdict_pipeline(cfg, label="perturbed")


def _perturbed_target(cfg, spec_pert, grid, amax_pert):
    """Degraded target constant, its note and whether both growth fits are
    reliable; ``amax_pert`` is the largest value of the perturbed coefficient
    at the grid nodes.  The two stability operators are freed on return,
    before the verdict pipeline builds its own."""
    v = cfg.verify
    opcfg = cfg.operator
    spec_ref = SymbolSpec.isotropic(opcfg.m, opcfg.n, v.reference_a)

    nodes = grid.node_coordinates()
    amax = max(float(np.max(spec_ref.isotropic_coefficient.at_many(nodes))), amax_pert)
    slope = amax ** (-1.0 / (2 * opcfg.m))
    profile = TwistProfile.from_values(grid, slope * nodes[:, 0], opcfg.m)
    lambdas = np.geomspace(v.lambda_min, v.lambda_max, v.lambda_count)
    ref = growth_fit(assemble(spec_ref, grid), profile, lambdas)
    pert = growth_fit(assemble(spec_pert, grid), profile, lambdas)
    sig_ref = decay_constant_from_growth(ref.kappa, opcfg.m)
    sig_pert = decay_constant_from_growth(pert.kappa, opcfg.m)
    c_emp = abs(sig_pert - sig_ref) / v.delta_coeff
    target = sharp_constants(opcfg.m).sigma_m - c_emp * v.delta_coeff
    note = (
        f"kappa_ref={ref.kappa!r} kappa_pert={pert.kappa!r} "
        f"c_emp={c_emp!r} delta={v.delta_coeff!r} "
        f"fit_residual_ref={ref.fit_residual!r} reliable_ref={ref.reliable} "
        f"fit_residual_pert={pert.fit_residual!r} reliable_pert={pert.reliable}"
    )
    return target, note, ref.reliable and pert.reliable


def _verdict_pipeline(cfg, label):
    """The verdict against sigma_m ("sharp") or against the target degraded
    by :func:`_perturbed_target` ("perturbed")."""
    opcfg, v = cfg.operator, cfg.verify
    if opcfg.n != 1:
        raise ConfigError("verdict pipelines are 1D", key="operator.n")
    spec, grid, vvals = operator_pieces(opcfg)
    (lo, hi), = grid.bounds
    if v.pair_max > hi - lo:  # a pair centred on the box would leave it
        raise ConfigError(f"pair_max {v.pair_max!r} exceeds the domain's length {hi - lo!r}",
                          key="verify.pair_max")

    conv = is_strongly_convex(spec, grid.node_coordinates())
    if not conv.strongly_convex:
        raise ValueError(f"symbol is not strongly convex (min eig {conv.min_eigenvalue:.3e})")
    sigma_target, target_note, fits_reliable = sharp_constants(opcfg.m).sigma_m, None, True
    if label == "perturbed":
        # in 1D the form at a node is the coefficient there: the check sampled it
        sigma_target, target_note, fits_reliable = _perturbed_target(cfg, spec, grid,
                                                                     conv.form_scale)

    notes = [f"strong convexity: min eigenvalue {conv.min_eigenvalue!r}"]
    if vvals is not None:
        vminus = np.maximum(-vvals, 0.0)
        if np.any(vminus > 0):
            op0 = assemble(spec, grid)
            c_half = form_bound(op0, vminus, 0.5)
            if not math.isfinite(c_half):
                raise ValueError("negative part fails the zero-form-bound certificate")
            notes.append(f"form bound certificate: c_eps(0.5)={c_half!r}")

    op = assemble(spec, grid, potential=vvals)
    spectral = eigendecompose(op, t_min=min(v.t_list))
    floor, worst, defect = spectral.health(op.matrix)
    notes.append(f"eigen health: residual floor 8 eps ||H||_max {floor!r}, worst residual "
                 f"over its bound {worst!r}, weighted orthonormality defect {defect!r}")

    nodes = grid.axis_nodes(0)
    m, n = opcfg.m, 1
    center = grid.center()
    center_node = float(nodes[grid.nearest_node(center)])
    pairs = sorted({(float(nodes[grid.nearest_node(center - 0.5 * s)]),
                     float(nodes[grid.nearest_node(center + 0.5 * s)]))
                    for s in np.linspace(v.pair_min, v.pair_max, v.pair_count)})
    M_used = max(v.M_list)
    distances = [0.0] + _pair_distances(spec, pairs, v.distance_method, M_used)
    # spectral_field gives every pair once per time, in the order given
    samples = [(t, x, y, K, d, _gaussian_variable(t, d, m)) for (t, x, y, K), d in zip(
        spectral_field(spectral, v.t_list, [(center_node, center_node)] + pairs),
        itertools.cycle(distances))]
    kept = _above_rounding_floor(samples)
    if len(kept) < len(samples):
        notes.append(f"rounding floor: dropped {len(samples) - len(kept)} of {len(samples)} "
                     f"samples with |K| <= {ROUNDING_FLOOR!r} of the largest |K| at their time")
    samples = kept

    fit = fit_gaussian_exponent([(t, d, K) for t, x, y, K, d, u in samples], m, n,
                                (min(v.t_list), max(v.t_list)))
    eps = max(0.0, sigma_target - fit.sigma_eff)
    gamma = _dominating_prefactor(samples, sigma_target - eps, n, m, floor=fit.prefactor)

    rows, worst = [], None
    for t, x, y, K, d, u in samples:
        bound = gamma * t ** (-n / (2 * m)) * math.exp(-(sigma_target - eps) * u + gamma * t)
        ratio = abs(K) / bound
        rows.append((t, x, y, K, d, u, bound))
        if worst is None or ratio > worst["ratio"]:
            worst = {"t": t, "x": x, "y": y, "K": K, "d": d, "bound": bound, "ratio": ratio}

    passed = bool(
        fit.verdict_ok and eps <= v.tolerance and worst["ratio"] <= 1.0 + 0.05
        and fits_reliable
    )
    notes.append(f"fit residual {fit.residual!r} over {fit.n_samples} samples")
    if target_note is not None:
        notes.append(target_note)
    return Verdict(
        passed=passed,
        scenario=label,
        sigma_eff=fit.sigma_eff,
        sigma_target=sigma_target,
        eps=eps,
        tolerance=v.tolerance,
        gamma=gamma,
        worst=worst,
        notes=notes,
        samples=rows,
        fit=fit,
    )
