"""Seeded config generator for the three benchmark workloads.

Each workload is a fixed list of scenarios; each scenario is one
``heatlab <command> --config <file>`` invocation.  Seed 0 reproduces the
stock inputs: the ``STOCK`` configs of ``scripts/run_sharp_bound.py`` and the
criterion-8 config of ``tests/test_acceptance.py``, byte for byte.

Any other seed moves every scenario.  No seed changes a problem size (grid
sizes, pair counts and separations, lambda counts, lattice sizes), so the
work counts of the traced run are the same for every seed.

* Every 1D scenario is translated by a seeded shift ``s``: the domain and
  every point in it move by ``s``.
* On top of that, the verify scenarios move their pairs against the
  coefficient or potential.  The pairs sit at the domain centre, so the
  confining potential and the well get a seeded centre offset of up to 0.5,
  and the perturbed coefficient a free seeded phase.  ``quartic-free``
  (``a = 1``, no potential) is translation invariant, so for it a seed is a
  translation only.  The pair separations stay at the stock values: they set
  how many distinct pairs survive snapping to the grid, which is the work
  of the ``d_M`` solver.  (The perturbed verdict is also fragile in them: its
  exponent fit has residual 0.084 at the stock separations, and moving
  ``pair_min`` to 0.11 or ``pair_max`` to 0.45 takes it over the 10% gate, so
  the verdict turns to FAIL.)
* ``twist-1600`` offsets the potential's centre from the domain centre and
  ``kernel-oracle`` moves its source point ``x`` off the centre, with the
  stock offsets ``y - x``; ``kato-800`` is translated only, because its
  singularity sits on the domain's edge.
* ``dm-m3`` and ``dm-m3-tight`` keep their pairs fixed against the
  coefficient.  The M=1 solver fails at every phase, but which of the four
  pairs fail first depends on the phase.  The CLI stops at the first failed
  pair, so a free phase would change the work of ``dm-m3-tight``.
* The 2D lattice scenarios draw free coefficient phases and source
  positions.  The lattice computes every edge weight whatever the source, so
  their work does not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify", "spectral", "distance")


@dataclass(frozen=True)
class Scenario:
    workload: str
    name: str
    command: str   # heatlab subcommand
    text: str      # config file contents
    params: dict   # generator parameters the output checker needs

    @property
    def key(self):
        return f"{self.workload}.{self.name}"


class _Jitter:
    """Offsets drawn from one stream per (seed, scenario); all zero at seed 0."""

    def __init__(self, seed, label):
        self._rng = None if seed == 0 else random.Random(f"heatlab-bench/{seed}/{label}")

    def uniform(self, lo, hi, digits=4):
        if self._rng is None:
            return 0.0
        return round(self._rng.uniform(lo, hi), digits)


def _num(v):
    """Config rendering of a number: integral values without a decimal point."""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _nums(vals):
    return ", ".join(_num(v) for v in vals)


def _x(shift):
    """``x`` translated by ``shift`` as expression text (plain ``x`` at 0)."""
    if shift == 0.0:
        return "x"
    return f"(x-{_num(shift)})" if shift > 0 else f"(x+{_num(-shift)})"


def _plus(arg, phase):
    return arg if phase == 0.0 else f"{arg}{'+' if phase > 0 else '-'}{_num(abs(phase))}"


def _moved(vals, shift):
    return [round(v + shift, 12) for v in vals]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_text(m, domain, potential, t_list, pair_min, pair_max):
    pot = "" if potential is None else f'potential = "{potential}"\n'
    return (
        "\nscenario = verify\n[operator]\n"
        f"m = {m}\nn = 1\ndomain = {_nums(domain)}\ngrid_n = 800\na = \"1\"\n{pot}"
        "[verify]\ntolerance = 0.05\n"
        f"t_list = {_nums(t_list)}\n"
        f"pair_min = {float(pair_min)!r}\npair_max = {float(pair_max)!r}\n"
        "pair_count = 40\nM_list = 5\ndistance_method = dM\n"
    )


def _perturbed_text(domain, phase):
    return (
        "\nscenario = verify\n[operator]\nm = 2\nn = 1\n"
        f"domain = {_nums(domain)}\ngrid_n = 800\n"
        f'a = "1+0.1*sin({_plus("2*pi*x", phase)})"\n'
        "[verify]\ntarget = perturbed\ntolerance = 0.05\ndelta_coeff = 0.1\n"
        'reference_a = "1"\nt_list = 0.00005, 0.0001, 0.00015, 0.0002\n'
        "pair_min = 0.1\npair_max = 0.5\n"
        "pair_count = 40\nM_list = 5\ndistance_method = dM\n"
        "lambda_min = 20\nlambda_max = 200\n"
    )


def _verify_scenarios(seed):
    out = []
    quartic_t = (0.001, 0.002, 0.004, 0.01)
    stock = (
        ("quartic-free", 2, (-4, 4), None, quartic_t, 1.0),
        ("quartic-confining", 2, (-4, 4), "{x}^4", quartic_t, 1.0),
        ("well-m1", 1, (-8, 8), "-exp(-{x}^2)", (0.04, 0.08, 0.16, 0.32), 1.2),
    )
    for name, m, domain, pot, t_list, pair_max in stock:
        j = _Jitter(seed, name)
        s, c = j.uniform(-0.5, 0.5), j.uniform(-0.5, 0.5)
        pot = None if pot is None else pot.format(x=_x(round(s + c, 4)))
        text = _verify_text(m, _moved(domain, s), pot, t_list, 0.2, pair_max)
        out.append(Scenario("verify", name, "verify", text, {"m": m}))
    j = _Jitter(seed, "perturbed")
    s, phase = j.uniform(-0.5, 0.5), j.uniform(0.0, 2 * math.pi)
    out.append(Scenario("verify", "perturbed", "verify",
                        _perturbed_text(_moved((0, 1), s), phase), {"m": 2}))
    return out


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

_KATO_LAMBDAS = (1, 10, 100, 1000, 10000, 100000)
_KATO_EPS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_KERNEL_T = (0.001, 0.002, 0.004, 0.01)
_KERNEL_Y = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)


def _spectral_scenarios(seed):
    j = _Jitter(seed, "twist-1600")
    s, c = j.uniform(-0.5, 0.5), j.uniform(-0.25, 0.25)
    twist = (
        "scenario = twist\n[operator]\nm = 2\nn = 1\n"
        f"domain = {_nums(_moved((0, 1), s))}\ngrid_n = 1600\n"
        f'a = "1"\npotential = "{_x(round(s + c, 4))}^2"\n'
        '[twist]\nphi = "x"\nlambda_min = 20\nlambda_max = 200\nlambda_count = 40\nM = 5\n'
    )

    s = _Jitter(seed, "kato-800").uniform(-0.5, 0.5)
    kato = (
        "scenario = kato\n[operator]\nm = 1\nn = 1\n"
        f"domain = {_nums(_moved((0, 1), s))}\ngrid_n = 800\na = \"1\"\n"
        f"[kato]\nlambdas = {_nums(_KATO_LAMBDAS)}\neps_list = {_nums(_KATO_EPS)}\n"
        f'delta = 0.02\nvminus = "min({_x(s)}^-0.5, 1000000)"\n'
    )

    j = _Jitter(seed, "kernel-oracle")
    s, c = j.uniform(-0.5, 0.5), j.uniform(-0.5, 0.5)
    x = round(s + c, 4)
    ys = _moved(_KERNEL_Y, x)
    kernel = (
        "scenario = kernel\n[operator]\nm = 2\nn = 1\n"
        f"domain = {_nums(_moved((-4, 4), s))}\ngrid_n = 1200\na = \"1\"\n"
        f"[kernel]\nt_list = {_nums(_KERNEL_T)}\nx_list = {_nums([x] * len(ys))}\n"
        f"y_list = {_nums(ys)}\noracle = true\n"
    )
    return [
        Scenario("spectral", "twist-1600", "twist", twist, {"m": 2}),
        Scenario("spectral", "kato-800", "kato", kato, {}),
        Scenario("spectral", "kernel-oracle", "kernel", kernel, {}),
    ]


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

_DM_PAIRS = ((-0.5, 0.5), (-1.5, 0.3), (0.2, 1.7), (-2.0, -1.0))


def _distance_scenarios(seed):
    j = _Jitter(seed, "lattice-var")
    p1, p2 = j.uniform(0.0, 2 * math.pi), j.uniform(0.0, 2 * math.pi)
    src = (j.uniform(-0.4, 0.4), j.uniform(-0.4, 0.4))
    var = (
        "scenario = distance\n[operator]\nm = 2\nn = 2\ndomain = -3, 3, -3, 3\ngrid_n = 6\n"
        f'a = "1+0.3*sin({_plus("x1", p1)})*cos({_plus("x2", p2)})"\n'
        f"[distance]\nmethod = lattice\nsource = {_nums(src)}\nlattice_n = 6\n"
    )

    j = _Jitter(seed, "lattice-iso")
    src = (0.5 + j.uniform(-0.2, 0.2), 0.5 + j.uniform(-0.2, 0.2))
    iso = (
        "scenario = distance\n[operator]\nm = 2\nn = 2\ndomain = 0, 1, 0, 1\ngrid_n = 512\n"
        'a = "1"\n'
        f"[distance]\nmethod = lattice\nsource = {_nums(src)}\nlattice_n = 512\n"
    )

    # cos(3 (x - s)) = cos(3x - 3s); both dM scenarios share the shift
    s = _Jitter(seed, "dm-m3").uniform(-0.5, 0.5)
    phase = -3.0 * s
    pairs = [(round(a + s, 12), round(b + s, 12)) for a, b in _DM_PAIRS]
    a_text = f"2+cos({_plus('3*x', phase)})"

    def dm_text(M):
        return (
            "scenario = distance\n[operator]\nm = 3\nn = 1\n"
            f"domain = {_nums(_moved((-4, 4), s))}\n"
            f'a = "{a_text}"\n'
            f"[distance]\nmethod = dM\nM = {_num(M)}\n"
            f"y1_list = {_nums(p[0] for p in pairs)}\ny2_list = {_nums(p[1] for p in pairs)}\n"
        )

    dm = {"m": 3, "phase": phase, "pairs": pairs}
    return [
        Scenario("distance", "lattice-var", "distance", var,
                 {"amin": 0.7, "amax": 1.3, "m": 2}),
        Scenario("distance", "lattice-iso", "distance", iso, {"amin": 1.0, "amax": 1.0, "m": 2}),
        Scenario("distance", "dm-m3", "distance", dm_text(5), dict(dm, M=5)),
        Scenario("distance", "dm-m3-tight", "distance", dm_text(1), dict(dm, M=1)),
    ]


def scenarios(workload, seed):
    """The scenarios of ``workload`` for ``seed``, in run order."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    build = {"verify": _verify_scenarios, "spectral": _spectral_scenarios,
             "distance": _distance_scenarios}
    if workload not in build:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return build[workload](seed)
