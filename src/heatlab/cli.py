"""Command-line entry point.

Subcommands: ``constants``, ``kernel``, ``distance``, ``kato``, ``twist``,
``verify``.  All except ``constants`` take ``--config <path>`` (see
``config`` module for the grammar) and ``--out <dir>``.
Outputs are per-scenario CSV files plus ``manifest.txt`` (input echo,
versions, timings, and the error of a run that fails) and, for ``verify``,
a human-readable ``verdict.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .discretize import assemble
from .experiments import operator_pieces, verify_perturbed_bound, verify_sharp_bound
from .finsler import distance_1d, distance_dm_1d, distance_lattice_2d
from .heatkernel import eigendecompose, oracle_field, spectral_field
from .kato import form_bound, kato_norm_curve, miyadera_ratio, sample_potential
from .reporting import Manifest, ensure_outdir, format_float_17, grid_rows, write_csv, write_text
from .symbols import ConstantField, SymbolSpec, sharp_constants
from .twist import TwistProfile, growth_fit


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="heat kernels of higher-order elliptic operators at desk scale",
    )
    parser.add_argument("--version", action="version", version=f"heatlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print sigma_m and k_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", default=None)

    for name, help_text in (
        ("kernel", "sample heat kernel values"),
        ("distance", "Finsler / capped / lattice distances"),
        ("kato", "potential smallness checks"),
        ("twist", "twisted lower-bound sweep"),
        ("verify", "end-to-end Gaussian bound verdict"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args):
    if args.command == "constants":
        text = constants_table(args.m)
        print(text, end="")
        if args.out:
            ensure_outdir(args.out)
            write_text(os.path.join(args.out, "constants.txt"), text)
        return 0

    cfg = load_config(args.config)
    if cfg.scenario != args.command:
        cfg.scenario = args.command
    outdir = ensure_outdir(args.out)
    manifest = Manifest(cfg.scenario)
    with open(args.config, "r", encoding="utf-8") as fh:
        manifest.echo("config", args.config)
        for line in fh.read().splitlines():
            manifest.echo("  |", line)

    runner = {
        "kernel": run_kernel,
        "distance": run_distance,
        "kato": run_kato,
        "twist": run_twist,
        "verify": run_verify,
    }[cfg.scenario]
    try:
        return runner(cfg, outdir, manifest)
    except Exception as exc:
        manifest.error = exc
        raise
    finally:
        manifest.write(outdir)


def constants_table(m):
    sc = sharp_constants(m)
    rows = [("m", float(sc.m)), ("sigma_m", sc.sigma_m), ("k_m", sc.k_m)]
    width = max(len(name) for name, _ in rows)
    return "".join(f"{name:<{width}}  {format_float_17(v)}\n" for name, v in rows)


def run_kernel(cfg, outdir, manifest):
    if cfg.operator.n != 1:
        raise ConfigError("kernel fields are tabulated for 1D grids only", key="operator.n")
    spec, grid, vvals = operator_pieces(cfg.operator)
    k = cfg.kernel
    _refuse_off_domain(spec, ("kernel.x_list", k.x_list), ("kernel.y_list", k.y_list))
    a = spec.isotropic_coefficient
    if k.oracle and not isinstance(a, ConstantField):
        raise ConfigError("the Fourier oracle needs a constant operator.a", key="kernel.oracle")
    with manifest.stage("assemble"):
        op = assemble(spec, grid, potential=vvals)
    with manifest.stage("eigendecompose"):
        spectral = eigendecompose(op, t_min=min(k.t_list))
    with manifest.stage("kernel sweep"):
        pairs = list(zip(k.x_list, k.y_list))
        rows = [(*row, "spectral") for row in spectral_field(spectral, k.t_list, pairs)]
        if k.oracle:
            rows += [(*row, "fourier-oracle")
                     for row in oracle_field(op.m, a.value, k.t_list, pairs)]
    write_csv(os.path.join(outdir, "kernel.csv"), ("t", "x", "y", "K", "method"), rows)
    return 0


def _refuse_off_domain(spec, *keyed_points):
    """Refuse a point outside a 1D operator's closed domain, naming its key."""
    (lo, hi), = spec.domain.bounds
    for key, values in keyed_points:
        if any(not lo <= v <= hi for v in values):
            raise ConfigError(f"{key} must lie in the domain [{lo}, {hi}]", key=key)


def run_distance(cfg, outdir, manifest):
    d, o = cfg.distance, cfg.operator
    needed = 2 if d.method == "lattice" else 1
    if o.n != needed:
        raise ConfigError(f"method {d.method} needs operator.n = {needed}, not {o.n}",
                          key="distance.method")
    if d.method == "lattice" and d.lattice_n < 2:
        raise ConfigError("the lattice needs at least 2 nodes per axis", key="distance.lattice_n")
    spec = SymbolSpec.isotropic(o.m, o.n, o.a, domain=o.domain)  # no grid_n, no potential
    if d.method == "lattice":
        with manifest.stage("distance lattice"):
            bounds = spec.domain.bounds
            source = spec.domain.center() if d.source is None else d.source
            if len(source) != 2 or any(not lo <= s <= hi for s, (lo, hi) in zip(source, bounds)):
                raise ConfigError(f"source must be a point of the domain {bounds}",
                                  key="distance.source")
            fldist = distance_lattice_2d(spec, source, npts=d.lattice_n)
        with manifest.stage("write csv"):
            write_csv(os.path.join(outdir, "distance.csv"), ("x1", "x2", "d"),
                      grid_rows(fldist.axes, fldist.values))
        return 0
    _refuse_off_domain(spec, ("distance.y1_list", d.y1_list), ("distance.y2_list", d.y2_list))
    with manifest.stage(f"distance {d.method}"):
        if d.method == "exact1d":
            vals = [distance_1d(spec, y1, y2) for y1, y2 in zip(d.y1_list, d.y2_list)]
        else:
            res = distance_dm_1d(spec, d.M, d.y1_list, d.y2_list)
            if not res.converged:
                i = res.first_failure()
                raise RuntimeError(f"capped-distance solver failed for "
                                   f"({d.y1_list[i]}, {d.y2_list[i]})")
            vals = res.value.tolist()
        write_csv(os.path.join(outdir, "distance.csv"), ("x", "y", "d"),
                  zip(d.y1_list, d.y2_list, vals))
    return 0


def run_kato(cfg, outdir, manifest):
    spec, grid, vvals = operator_pieces(cfg.operator)
    kc = cfg.kato
    if kc.vminus is not None:
        vminus = np.maximum(sample_potential(kc.vminus, grid), 0.0)
    elif vvals is not None:
        vminus = np.maximum(-vvals, 0.0)
    else:
        raise ValueError("kato scenario needs kato.vminus or operator.potential")
    with manifest.stage("assemble"):
        op0 = assemble(spec, grid)

    with manifest.stage("form bounds"):
        c_eps = [form_bound(op0, vminus, e) for e in kc.eps_list]
    write_csv(os.path.join(outdir, "form_bounds.csv"), ("eps", "c_eps"), zip(kc.eps_list, c_eps))

    with manifest.stage("resolvent curve"):
        curve = kato_norm_curve(op0, vminus, kc.lambdas)
    write_csv(os.path.join(outdir, "kato_curve.csv"),
              ("lambda", "kato_norm", "weighted_l2_norm"),
              zip(curve.lambdas, curve.norms, curve.weighted))

    with manifest.stage("miyadera"):
        spectral = eigendecompose(op0)
        u = np.zeros(grid.node_count)
        u[grid.nearest_node(spec.domain.center())] = 1.0 / op0.mass
        panels = {}  # both deltas integrate the same spectrum, V_- and u
        ratios = [(d, miyadera_ratio(spectral, vminus, d, u, panels))
                  for d in (kc.delta, kc.delta / 2)]
    write_csv(os.path.join(outdir, "miyadera.csv"), ("delta", "ratio"), ratios)
    return 0


def run_twist(cfg, outdir, manifest):
    if cfg.operator.n != 1:
        raise ConfigError("twist profiles are 1D", key="operator.n")
    tc = cfg.twist
    lambdas = np.geomspace(tc.lambda_min, tc.lambda_max, tc.lambda_count)
    spec, grid, vvals = operator_pieces(cfg.operator)
    profile = TwistProfile.from_expression(grid, tc.phi, spec.m)
    if not profile.feasible_symbol(spec, tc.M):
        raise ConfigError(f"twist profile is infeasible for the symbol class at twist.M = {tc.M}",
                          key="twist.phi")
    with manifest.stage("assemble"):
        op0 = assemble(spec, grid)
    with manifest.stage("sweep"):
        rep = growth_fit(op0, profile, lambdas)
    rows = [(lam, k, fit) for lam, k, fit in zip(rep.lambdas, rep.k_values, rep.model(rep.lambdas))]
    write_csv(os.path.join(outdir, "twist.csv"), ("lambda", "k", "model_fit"), rows)
    verdict = "PASS" if rep.reliable and rep.kappa <= 1.1 * rep.k_m + 1e-6 else "FAIL"
    summary = "\n".join([
        f"kappa: {format_float_17(rep.kappa)}",
        f"k_m: {format_float_17(rep.k_m)}",
        f"intercept: {format_float_17(rep.intercept)}",
        f"fit_residual: {format_float_17(rep.fit_residual)}",
        f"eps_report: {format_float_17(rep.eps_report)}",
        f"verdict: {verdict}",
    ])
    write_text(os.path.join(outdir, "twist_summary.txt"), summary)
    if vvals is not None:
        op_v = assemble(spec, grid, potential=vvals)
        # the twist leaves the diagonal alone, so adding diag(V) moves each
        # lowest eigenvalue by a value in [min V, max V] (Weyl)
        weyl = [(k - np.max(vvals), k - np.min(vvals)) for k in rep.k_values]
        rep_v = growth_fit(op_v, profile, lambdas, brackets=weyl)
        write_csv(os.path.join(outdir, "twist_potential.csv"),
                  ("lambda", "k", "model_fit"),
                  list(zip(rep_v.lambdas, rep_v.k_values, rep_v.model(rep_v.lambdas))))
    return 0


def run_verify(cfg, outdir, manifest):
    with manifest.stage("pipeline"):
        if cfg.verify.target == "perturbed":
            verdict = verify_perturbed_bound(cfg)
        else:
            verdict = verify_sharp_bound(cfg)
    write_text(os.path.join(outdir, "verdict.txt"), verdict.render())
    write_csv(os.path.join(outdir, "verify_samples.csv"),
              ("t", "x", "y", "K", "d", "u", "bound"), verdict.samples)
    return 0 if verdict.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
