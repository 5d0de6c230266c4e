"""Scenario orchestration: Gaussian-exponent fitting and end-to-end verdicts.

The central regression fits ``log |K(t,x,y)| + (n/2m) log t`` against
``u = d(x,y)^(2m/(2m-1)) t^(-1/(2m-1))``; the negated slope is the effective
decay constant to compare with sigma_m.  For oscillatory kernels (m >= 2)
only samples on the monotone envelope (running max of |K| in decreasing-d
order at fixed t) enter the regression, so the zeros of the kernel do not
poison the logs.

A verdict document packages the fitted constants, the dominating prefactor
(computed as the fixed point of ``G = max_s |K_s| t_s^(n/2m)
exp((sigma-eps) u_s - G t_s)``), and the worst-case sample, so the claimed
inequality can be re-checked from the emitted numbers alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .discretize import Grid, assemble
from .finsler import distance_1d, distance_dm_1d
from .heatkernel import eigendecompose, spectral_field
from .kato import form_bound, sample_potential
from .symbols import SymbolSpec, is_strongly_convex, sharp_constants, decay_constant_from_growth
from .twist import TwistProfile, growth_fit

UNDERFLOW_FLOOR = 1e-250


@dataclass
class FitReport:
    sigma_eff: float
    intercept: float
    residual: float        # max |y - fit| / (regression range of y)
    t_window: tuple
    distance_method: str
    sigma_target: float
    eps_eff: float         # sigma_target - sigma_eff
    n_samples: int
    verdict_ok: bool       # residual within 10% of the regression range

    @property
    def prefactor(self):
        return math.exp(self.intercept)


def fit_gaussian_exponent(field, distances, m, n, t_window, distance_method="given"):
    """OLS fit of the Gaussian exponent over a sampled kernel field.

    ``distances`` maps a (x, y) pair to d(x, y); pass a dict keyed by
    rounded pairs or a callable.  Requires at least 8 distinct distances and
    3 times inside the window, and drops samples below the underflow floor.
    """
    lookup = distances if callable(distances) else _dict_lookup(distances)
    pairs = []
    for t, x, y, v in field.rows():
        if not (t_window[0] <= t <= t_window[1]):
            continue
        if abs(v) <= UNDERFLOW_FLOOR:
            continue
        d = lookup(x, y)
        if d is None or d <= 0.0:
            continue
        pairs.append((t, d, v))
    ts = sorted({p[0] for p in pairs})
    dvals = sorted({p[1] for p in pairs})
    if len(dvals) < 8 or len(ts) < 3:
        raise ValueError(
            f"insufficient usable samples: {len(dvals)} distances, {len(ts)} times"
        )
    if m >= 2:
        pairs = _monotone_envelope(pairs)
    ex_d = 2 * m / (2 * m - 1)
    ex_t = 1.0 / (2 * m - 1)
    u = np.array([d**ex_d * t**-ex_t for t, d, v in pairs])
    yv = np.array([math.log(abs(v)) + (n / (2 * m)) * math.log(t) for t, d, v in pairs])
    if m >= 2:
        u, yv = _trim_troughs(u, yv)
    A = np.vstack([u, np.ones_like(u)]).T
    coef, *_ = np.linalg.lstsq(A, yv, rcond=None)
    resid = float(np.max(np.abs(yv - A @ coef)))
    yrange = float(np.max(yv) - np.min(yv)) or 1.0
    sigma_eff = -float(coef[0])
    sigma_target = sharp_constants(m).sigma_m
    return FitReport(
        sigma_eff=sigma_eff,
        intercept=float(coef[1]),
        residual=resid / yrange,
        t_window=tuple(t_window),
        distance_method=distance_method,
        sigma_target=sigma_target,
        eps_eff=sigma_target - sigma_eff,
        n_samples=len(pairs),
        verdict_ok=resid / yrange <= 0.10,
    )


def _dict_lookup(dct):
    def look(x, y):
        key = (round(x, 12), round(y, 12))
        if key in dct:
            return dct[key]
        return dct.get((key[1], key[0]))

    return look


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


def _trim_troughs(u, yv, passes=2, min_keep=8):
    """Drop samples far BELOW the fit line (oscillation troughs near kernel
    zeros); one-sided, since the target is an upper envelope."""
    for _ in range(passes):
        A = np.vstack([u, np.ones_like(u)]).T
        coef, *_ = np.linalg.lstsq(A, yv, rcond=None)
        r = yv - A @ coef
        med = float(np.median(r))
        mad = float(np.median(np.abs(r - med))) * 1.4826
        if mad == 0.0:
            break
        keep = r >= med - 3.0 * mad
        if int(keep.sum()) < min_keep or keep.all():
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


def operator_pieces(opcfg, with_potential=True):
    """Symbol, grid and sampled potential (None if absent) of an operator config."""
    spec = SymbolSpec.isotropic(opcfg.m, opcfg.n, opcfg.a, domain=opcfg.domain)
    grid = Grid.make(opcfg.domain, opcfg.grid_n)
    vvals = None
    if with_potential and opcfg.potential is not None:
        vvals = sample_potential(opcfg.potential, grid)
    return spec, grid, vvals


def _center_pairs(domain, pair_min, pair_max, count):
    (lo, hi), = domain
    c = 0.5 * (lo + hi)
    seps = np.linspace(pair_min, pair_max, count)
    return [(c - 0.5 * s, c + 0.5 * s) for s in seps]


def _distance_table(spec, pairs, method, M):
    table = {}
    for x, y in pairs:
        if method == "euclidean":
            d = abs(y - x)
        elif method == "exact":
            d = distance_1d(spec, x, y)
        else:
            r = distance_dm_1d(spec, M, x, y)
            if not r.converged:
                raise RuntimeError(f"capped-distance solver failed for pair {(x, y)}")
            d = abs(r.value)
        table[(round(x, 12), round(y, 12))] = d
    return table


def _dominating_prefactor(samples, sigma, n, m, floor):
    """Fixed point of G = max_s |K_s| t_s^(n/2m) exp(sigma u_s - G t_s)."""

    def g(G):
        return max(
            abs(K) * t ** (n / (2 * m)) * math.exp(sigma * u - G * t)
            for t, x, y, K, d, u in samples
        )

    G = max(floor, g(floor))
    for _ in range(200):
        G_new = max(floor, 0.5 * (G + g(G)))
        if abs(G_new - G) <= 1e-12 * max(1.0, G):
            G = G_new
            break
        G = G_new
    return G


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
    spec_ref = SymbolSpec.isotropic(opcfg.m, opcfg.n, v.reference_a, domain=opcfg.domain)

    nodes = grid.node_coordinates()
    amax = max(float(np.max(spec_ref.scalar_field().at_many(nodes))), amax_pert)
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
        raise ValueError("verdict pipelines are 1D")
    spec, grid, vvals = operator_pieces(opcfg)

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
    raw_pairs = _center_pairs(opcfg.domain, v.pair_min, v.pair_max, v.pair_count)
    pairs = sorted(
        {
            (float(nodes[grid.nearest_node([x])]), float(nodes[grid.nearest_node([y])]))
            for x, y in raw_pairs
        }
    )
    center = float(nodes[grid.nearest_node([0.5 * (opcfg.domain[0][0] + opcfg.domain[0][1])])])
    all_pairs = [(center, center)] + pairs
    fld = spectral_field(spectral, opcfg.m, v.t_list, all_pairs)

    method = v.distance_method
    M_used = max(v.M_list)
    dist = _distance_table(spec, pairs, method, M_used)
    dist[(round(center, 12), round(center, 12))] = 0.0

    fit = fit_gaussian_exponent(
        fld, dist, opcfg.m, 1, (min(v.t_list), max(v.t_list)),
        distance_method=f"{method}(M={M_used})" if method == "dM" else method,
    )
    eps = max(0.0, sigma_target - fit.sigma_eff)

    look = _dict_lookup(dist)
    m, n = opcfg.m, 1
    ex_d, ex_t = 2 * m / (2 * m - 1), 1.0 / (2 * m - 1)
    samples = []
    for t, x, y, K in fld.rows():
        d = look(x, y)
        u = d**ex_d * t**-ex_t if d > 0 else 0.0
        samples.append((t, x, y, K, d, u))
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
