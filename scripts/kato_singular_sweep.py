#!/usr/bin/env python3
"""Smallness checks for the truncated inverse-square-root negative part on
the unit interval: zero-form-bound constants, the L1->L1 resolvent decay
curve with the weighted-L2 comparison, and the integrated semigroup ratio.

Usage: python scripts/kato_singular_sweep.py [--n 400] [--cap 1e6]
"""

import argparse

import numpy as np

from heatlab.discretize import Grid, assemble
from heatlab.heatkernel import eigendecompose
from heatlab.kato import form_bound_report, kato_norm_curve, miyadera_ratio
from heatlab.symbols import SymbolSpec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--cap", type=float, default=1e6)
    args = ap.parse_args()

    spec = SymbolSpec.isotropic(1, 1, 1.0, domain=[(0, 1)])
    grid = Grid.make((0.0, 1.0), args.n)
    op0 = assemble(spec, grid)
    x = grid.node_coordinates()[:, 0]
    vminus = np.minimum(x**-0.5, args.cap)

    eps_grid = np.round(np.arange(0.1, 1.0, 0.1), 2)
    rep = form_bound_report(op0, vminus, eps_grid)
    print("eps   c_eps")
    for eps, c in zip(rep.epsilons, rep.c_eps):
        print(f"{eps:.1f}   {c:.6f}")

    print("\nlambda      kato_norm     weighted_l2")
    curve = kato_norm_curve(op0, vminus, [10.0**k for k in range(6)])
    for lam, kn, wnorm in zip(curve.lambdas, curve.norms, curve.weighted):
        print(f"{lam:>8.0f}  {kn:>12.6e}  {wnorm:>12.6e}")
    print(f"final/initial = {curve.norms[-1] / curve.norms[0]:.3e}")

    spectral = eigendecompose(op0)
    u = np.zeros(grid.node_count)
    u[grid.node_count // 2] = 1.0 / op0.mass
    print("\ndelta     integrated ratio")
    for delta in (0.02, 0.01, 0.005):
        print(f"{delta:.3f}   {miyadera_ratio(spectral, vminus, delta, u):.6e}")


if __name__ == "__main__":
    main()
