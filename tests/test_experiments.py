import math

import numpy as np
import pytest

from conftest import make_line_operator
from heatlab.config import config_from_text
from hypothesis import given, settings
import hypothesis.strategies as st

from heatlab.experiments import (
    _above_rounding_floor,
    _dominating_prefactor,
    fit_gaussian_exponent,
    verify_sharp_bound,
)
from heatlab.finsler import distance_1d
from heatlab.heatkernel import eigendecompose, oracle_field, spectral_field
from heatlab.symbols import SymbolSpec, sharp_constants


def test_fit_exact_gaussian_oracle():
    rs = np.linspace(0.2, 2.0, 12)
    fld = oracle_field(1, 1.0, [0.05, 0.1, 0.2], [(0.0, r) for r in rs])
    fit = fit_gaussian_exponent([(t, r, K) for t, x, r, K in fld], 1, 1, (0.01, 1.0))
    assert fit.sigma_eff == pytest.approx(0.25, abs=1e-4)
    assert fit.verdict_ok
    assert 0.25 - fit.sigma_eff == pytest.approx(0.0, abs=1e-4)


def test_fit_envelope_handles_oscillation():
    # quartic oracle crosses zero; envelope + trough trimming keep the fit sane
    rs = np.linspace(0.5, 3.0, 80)
    fld = oracle_field(2, 1.0, np.geomspace(1e-3, 1e-2, 4), [(0.0, r) for r in rs])
    assert min(K for t, x, r, K in fld) < 0.0
    fit = fit_gaussian_exponent([(t, r, K) for t, x, r, K in fld], 2, 1, (5e-4, 2e-2))
    sigma2 = sharp_constants(2).sigma_m
    assert abs(fit.sigma_eff - sigma2) / sigma2 < 0.10
    assert fit.verdict_ok


def test_fit_requires_enough_samples():
    fld = oracle_field(1, 1.0, [0.1], [(0.0, 0.5), (0.0, 1.0)])
    with pytest.raises(ValueError, match="insufficient"):
        fit_gaussian_exponent([(t, r, K) for t, x, r, K in fld], 1, 1, (0.01, 1.0))


def test_fit_window_filters_times():
    rs = np.linspace(0.2, 2.0, 12)
    fld = oracle_field(1, 1.0, [0.05, 0.1, 0.2, 5.0], [(0.0, r) for r in rs])
    fit = fit_gaussian_exponent([(t, r, K) for t, x, r, K in fld], 1, 1, (0.01, 0.5))
    assert fit.sigma_eff == pytest.approx(0.25, abs=1e-4)


def test_distance_ablation_finsler_beats_euclidean():
    # variable coefficients: the Finsler distance restores the sharp constant,
    # the Euclidean distance under-estimates it
    spec = SymbolSpec.isotropic(2, 1, "(1+x)^4", domain=[(0, 1)])
    op = eigendecompose(make_line_operator(2, n_pts=400, bounds=(0.0, 1.0),
                                           a="(1+x)^4"))
    nodes = op.grid.axis_nodes(0)
    xs = np.array([nodes[op.grid.nearest_node([x])] for x in np.linspace(0.15, 0.85, 29)])
    pairs = [(xs[0], x) for x in xs[1:]]
    fld = spectral_field(op, [3e-5, 1e-4, 3e-4], pairs)
    d_fin = {(x, y): distance_1d(spec, x, y) for x, y in pairs}
    fit_f = fit_gaussian_exponent([(t, d_fin[x, y], K) for t, x, y, K in fld],
                                  2, 1, (1e-5, 1e-3))
    fit_e = fit_gaussian_exponent([(t, abs(y - x), K) for t, x, y, K in fld],
                                  2, 1, (1e-5, 1e-3))
    assert fit_f.sigma_eff >= fit_e.sigma_eff - 1e-6
    sigma2 = sharp_constants(2).sigma_m
    assert fit_f.sigma_eff >= sigma2 - 0.05
    assert fit_e.sigma_eff < fit_f.sigma_eff


VERIFY_M1 = """
scenario = verify
[operator]
m = 1
n = 1
domain = -8, 8
grid_n = 400
a = "1"
[verify]
tolerance = 0.05
t_list = 0.05, 0.1, 0.2, 0.4
pair_min = 0.1
pair_max = 1.0
pair_count = 12
distance_method = exact
"""


def test_verify_sharp_m1_passes():
    v = verify_sharp_bound(config_from_text(VERIFY_M1))
    assert v.passed
    assert v.eps <= 0.05
    assert abs(v.sigma_eff - 0.25) < 0.01
    assert v.worst["ratio"] <= 1.0 + 1e-9


def test_verdict_is_recheckable_from_emitted_numbers():
    cfg = config_from_text(VERIFY_M1)
    v = verify_sharp_bound(cfg)
    spec = SymbolSpec.isotropic(1, 1, cfg.operator.a, domain=cfg.operator.domain)
    m, n = 1, 1
    sig = v.sigma_target - v.eps
    for t, x, y, K, d, u, bound in v.samples:
        # each distance belongs to its own pair (the config asks for exact distances)
        assert d == distance_1d(spec, x, y)
        assert u == d ** (2 * m / (2 * m - 1)) * t ** (-1 / (2 * m - 1))
        recomputed = v.gamma * t ** (-n / (2 * m)) * math.exp(-sig * u + v.gamma * t)
        assert recomputed == pytest.approx(bound, rel=1e-12)
        assert abs(K) <= bound * (1.0 + 1e-9)
    w = v.worst
    assert abs(w["K"]) <= w["bound"] * (1.0 + 1e-9)
    text = v.render()
    assert "PASS" in text and "worst_sample" in text


_SAMPLE = st.tuples(
    st.floats(1e-5, 1.0),                                   # t
    st.floats(1e-8, 1e6),                                   # |K|
    st.floats(0.0, 50.0),                                   # u
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_SAMPLE, min_size=1, max_size=12), sigma=st.floats(0.05, 1.0),
       m=st.integers(1, 3), scale=st.floats(0.0, 2.0))
def test_gamma_is_the_least_dominating_prefactor(rows, sigma, m, scale):
    n = 1
    samples = [(t, 0.0, 0.0, K, 0.0, u) for t, K, u in rows]

    def worst_ratio(G):
        # |K| over the bound, arranged so that no factor overflows
        return max(abs(K) * t ** (n / (2 * m)) / G * math.exp(sigma * u - G * t)
                   for t, K, u in rows)

    least = _dominating_prefactor(samples, sigma, n, m, floor=0.0)
    assert worst_ratio(least) <= 1.0 + 1e-12
    assert worst_ratio(least * (1.0 - 1e-9)) > 1.0
    # a floor above the least prefactor is the result exactly; one below leaves it
    floor = scale * least
    assert _dominating_prefactor(samples, sigma, n, m, floor) == max(floor, least)


def test_verify_rejects_nonconvex_symbol():
    cfg = config_from_text(VERIFY_M1)
    cfg.operator.a = "-1"
    with pytest.raises(ValueError):
        verify_sharp_bound(cfg)


def test_verify_euclidean_distance_still_passes_constant_coefficients():
    cfg = config_from_text(VERIFY_M1)
    cfg.verify.distance_method = "euclidean"
    v = verify_sharp_bound(cfg)
    assert v.passed  # for a = 1 the Finsler and Euclidean distances coincide


def test_rounding_floor_is_relative_to_each_time():
    rows = [(0.1, 0.0, 0.0, 2.0, 0.0, 0.0), (0.1, 0.0, 1.0, -2e-12, 1.0, 1.0),
            (0.1, 0.0, 2.0, 3e-12, 2.0, 2.0), (0.2, 0.0, 0.0, 1e-20, 0.0, 0.0),
            (0.2, 0.0, 1.0, 1e-33, 1.0, 1.0), (0.2, 0.0, 2.0, 0.0, 2.0, 2.0)]
    # the floor is 2e-12 at t = 0.1 and 1e-32 at t = 0.2; a row at it goes
    assert _above_rounding_floor(rows) == [rows[0], rows[2], rows[3]]
