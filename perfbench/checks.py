"""Output checker: invariants every seed must satisfy, plus the seed-0
reference comparison.

``check_scenario`` reads a scenario's output directory, raises
:class:`CheckFailed` when an invariant does not hold, and returns the
scenario's key values (compared against ``reference/seed0.json`` at seed 0).
The reference tolerance ``REF_RTOL`` admits the solver swaps the ROADMAP has
already measured (6e-15 on ``d_M`` for the LP solver, 9e-9 relative on
``k(lambda)`` for the banded eigensolver) with room to spare; byte identity
of output files is counted separately and is never a failure.

Checks use the emitted files only, and recompute from them without calling
``heatlab``: the verdict bound from the emitted samples, the growth fit from
the swept ``k(lambda)``, the whole-line quartic kernel by adaptive quadrature
and the 1D Finsler distance by adaptive quadrature.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.integrate import quad

REF_RTOL = 1e-6
# (M=1 scenario, M=5 scenario) of the d_M monotonicity check d_1 <= d_5
MONOTONE_PAIR = ("distance.dm-m3-tight", "distance.dm-m3")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "seed0.json")


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _float_table(path):
    header, rows = _rows(path)
    return header, np.array([[float(v) for v in r] for r in rows], dtype=float)


def _key_values(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(": ")
            if sep and key not in out:
                out[key] = value.strip()
    return out


def output_files(outdir):
    """The checked outputs: every CSV plus verdict.txt (manifests carry timings)."""
    return sorted(f for f in os.listdir(outdir) if f.endswith(".csv") or f == "verdict.txt")


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# per-command invariants
# ---------------------------------------------------------------------------

def _check_verify(sc, outdir, prior):
    v = _key_values(os.path.join(outdir, "verdict.txt"))
    _require(v.get("verdict") == "PASS", f"verdict is {v.get('verdict')!r}")
    gamma, sigma, eps = float(v["gamma"]), float(v["sigma_target"]), float(v["eps"])
    _require(eps <= float(v["tolerance"]), f"eps {eps} above tolerance")
    m = sc.params["m"]
    _, tab = _float_table(os.path.join(outdir, "verify_samples.csv"))
    _require(len(tab) > 0, "no samples")
    worst = 0.0
    for t, x, y, K, d, u, bound in tab:
        u_re = d ** (2 * m / (2 * m - 1)) * t ** (-1.0 / (2 * m - 1)) if d > 0 else 0.0
        _require(math.isclose(u, u_re, rel_tol=1e-12, abs_tol=1e-300),
                 f"u mismatch at t={t} x={x} y={y}")
        b_re = gamma * t ** (-1.0 / (2 * m)) * math.exp(-(sigma - eps) * u + gamma * t)
        _require(math.isclose(bound, b_re, rel_tol=1e-12), f"bound mismatch at t={t} x={x} y={y}")
        worst = max(worst, abs(K) / bound)
    _require(worst <= 1.05, f"|K| / bound reaches {worst} > 1.05")
    return {"sigma_eff": float(v["sigma_eff"]), "sigma_target": sigma, "eps": eps,
            "gamma": gamma}


def _growth_fit(tab, m):
    lam, k = tab[:, 0], tab[:, 1]
    top = lam >= lam[-1] / 10.0
    A = np.vstack([lam[top] ** (2 * m), np.ones(int(top.sum()))]).T
    coef, *_ = np.linalg.lstsq(A, k[top], rcond=None)
    return float(coef[0])


def _check_twist(sc, outdir, prior):
    s = _key_values(os.path.join(outdir, "twist_summary.txt"))
    kappa, k_m = float(s["kappa"]), float(s["k_m"])
    _require(s.get("verdict") == "PASS", f"twist verdict is {s.get('verdict')!r}")
    _require(kappa <= 1.1 * k_m, f"kappa {kappa} above 1.1 k_m")
    _require(float(s["fit_residual"]) <= 0.05, "growth fit not reliable (residual > 0.05)")
    _, tab = _float_table(os.path.join(outdir, "twist.csv"))
    _require(len(tab) == 40 and np.all(np.isfinite(tab)), "twist sweep incomplete")
    m = sc.params["m"]
    _require(math.isclose(_growth_fit(tab, m), kappa, rel_tol=1e-6),
             "kappa does not match the emitted sweep")
    # a diagonal potential commutes with the conjugation: same leading growth
    _, tab_v = _float_table(os.path.join(outdir, "twist_potential.csv"))
    _require(len(tab_v) == 40 and np.all(tab_v[:, 1] >= tab[:, 1] - 1e-6 * np.abs(tab[:, 1])),
             "potential sweep below the free sweep")
    _require(math.isclose(_growth_fit(tab_v, m), kappa, rel_tol=1e-3),
             "potential sweep changes the growth coefficient")
    return {"kappa": kappa, "intercept": float(s["intercept"]), "k": tab[:, 1].tolist(),
            "k_potential": tab_v[:, 1].tolist()}


def _check_kato(sc, outdir, prior):
    _, fb = _float_table(os.path.join(outdir, "form_bounds.csv"))
    c = fb[:, 1]
    _require(np.all(np.isfinite(c)) and np.all(c >= 0), "form bound not certified")
    _require(np.all(np.diff(c) <= 1e-12), "c_eps increases with eps")
    _, kc = _float_table(os.path.join(outdir, "kato_curve.csv"))
    norms, wl2 = kc[:, 1], kc[:, 2]
    _require(np.all(np.diff(norms) <= 1e-10 * max(1.0, norms[0])),
             "Kato norm curve increases in lambda")
    _require(np.all(wl2 <= norms * (1 + 1e-9) + 1e-8), "weighted-L2 norm above the Kato norm")
    _require(norms[-1] < norms[0], "Kato norm does not decay")
    _, my = _float_table(os.path.join(outdir, "miyadera.csv"))
    _require(np.all(my[:, 1] > 0) and my[1, 1] < my[0, 1], "Miyadera ratio does not shrink")
    return {"c_eps": c.tolist(), "kato_norm": norms.tolist(), "weighted_l2": wl2.tolist(),
            "miyadera": my[:, 1].tolist()}


def whole_line_kernel(m, t, r):
    """(1/pi) int_0^Xi exp(-xi^(2m) t) cos(xi r) dxi by QUADPACK's QAWO."""
    xi_max = (750.0 / t) ** (1.0 / (2 * m))
    v, _ = quad(lambda xi: math.exp(-xi ** (2 * m) * t), 0.0, xi_max, weight="cos",
                wvar=r, epsabs=1e-12, epsrel=1e-12, limit=200)
    return v / math.pi


def _check_kernel(sc, outdir, prior):
    _, rows = _rows(os.path.join(outdir, "kernel.csv"))
    by_method = {}
    for t, x, y, K, method in rows:
        t, r, K = float(t), abs(float(y) - float(x)), float(K)
        by_method.setdefault(method, []).append((t, r, K, whole_line_kernel(2, t, r)))
    _require(set(by_method) == {"spectral", "fourier-oracle"}, "missing kernel methods")
    for t, r, K, ref in by_method["fourier-oracle"]:
        _require(abs(K - ref) <= 1e-9, f"oracle off by {abs(K - ref):.3e} at t={t} r={r}")
    # the box [-4, 4] is a whole-line proxy at these times: 0.2% of each time slice's scale
    for t in {row[0] for row in by_method["spectral"]}:
        sl = [row for row in by_method["spectral"] if row[0] == t]
        scale = max(abs(ref) for _, _, _, ref in sl)
        err = max(abs(K - ref) for _, _, K, ref in sl)
        _require(err <= 2e-3 * scale, f"spectral kernel off by {err / scale:.3e} of scale at t={t}")
    return {"K": [float(r[3]) for r in rows]}


def _check_lattice(sc, outdir, prior):
    tab = np.loadtxt(os.path.join(outdir, "distance.csv"), delimiter=",", skiprows=1, ndmin=2)
    pts, d = tab[:, :2], tab[:, 2]
    _require(np.all(np.isfinite(d)), "unreached lattice nodes")
    src = np.flatnonzero(d == 0.0)
    _require(src.size == 1, "expected exactly one source node")
    eu = np.linalg.norm(pts - pts[src[0]], axis=1)
    p = sc.params
    lo = eu * p["amax"] ** (-1.0 / (2 * p["m"]))
    hi = eu * p["amin"] ** (-1.0 / (2 * p["m"]))
    # every edge weight is at least its length times amax^(-1/2m); the
    # 16-neighbour stencil overshoots a straight path by at most 2.8%
    _require(np.all(d >= lo * (1 - 1e-6)), "lattice distance below the Euclidean bracket")
    _require(np.all(d <= hi * 1.03 + 1e-12), "lattice distance above the 16-neighbour bracket")
    if p["amin"] == p["amax"]:
        ring = (eu > 0.15) & (eu < 0.48)
        _require(float(np.mean((d[ring] - eu[ring]) / eu[ring])) <= 0.015,
                 "direction-averaged lattice deviation above 1.5%")
    return {"nodes": int(d.size), "mean_d": float(np.mean(d)), "max_d": float(np.max(d))}


def finsler_1d(m, phase, y1, y2):
    """int_y1^y2 a^(-1/2m) dx for a = 2 + cos(3x + phase), by adaptive quadrature."""
    v, _ = quad(lambda x: (2.0 + math.cos(3.0 * x + phase)) ** (-1.0 / (2 * m)), y1, y2,
                epsabs=1e-13, epsrel=1e-13, limit=200)
    return v


def _check_dm(sc, outdir, prior):
    _, tab = _float_table(os.path.join(outdir, "distance.csv"))
    p = sc.params
    _require(len(tab) == len(p["pairs"]), "missing pairs")
    for x, y, d in tab:
        exact = finsler_1d(p["m"], p["phase"], x, y)
        _require(0.0 < d <= exact * (1 + 1e-9), f"d_M({x}, {y}) = {d} outside (0, {exact}]")
    if p["M"] == 1:
        loose = prior.get(MONOTONE_PAIR[1])
        _require(loose is not None,
                 f"no checked d_5 values from {MONOTONE_PAIR[1]}: d_1 <= d_5 cannot be checked")
        # d_M is non-decreasing in M; 1e-3 is the library's own solver tolerance
        for d1, d5 in zip(tab[:, 2], loose["d"]):
            _require(d1 <= d5 * (1 + 1e-3), f"d_1 = {d1} above d_5 = {d5}")
    return {"d": tab[:, 2].tolist()}


_CHECKS = {"verify": _check_verify, "twist": _check_twist, "kato": _check_kato,
           "kernel": _check_kernel}


def check_scenario(sc, outdir, prior):
    """Check one scenario's outputs; ``prior`` maps earlier scenario keys of
    the same pass to their returned values."""
    if sc.command == "distance":
        fn = _check_lattice if "lattice" in sc.name else _check_dm
    else:
        fn = _CHECKS[sc.command]
    try:
        return fn(sc, outdir, prior)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {exc}") from exc


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(ref_values, values):
    """Raise CheckFailed when a seed-0 value moved by more than REF_RTOL."""
    for key, want in ref_values.items():
        got = values.get(key)
        a = np.atleast_1d(np.asarray(want, dtype=float))
        b = np.atleast_1d(np.asarray(got, dtype=float)) if got is not None else None
        if b is None or a.shape != b.shape or not np.allclose(b, a, rtol=REF_RTOL, atol=1e-300):
            raise CheckFailed(f"{key} differs from the seed-0 reference")
