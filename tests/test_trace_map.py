"""The benchmark's per-layer trace map still finds the traced layers.

``perfbench/tracing.py`` wraps functions at their ``heatlab`` module
bindings; a renamed or bypassed binding would read zero there.  This runs a
small ``kato`` scenario, a small ``kernel`` scenario whose spectrum is cut
(counted on the band), a small ``distance`` scenario on ``d_M`` with a
variable coefficient, a small m = 2 ``verify`` scenario on ``d_M``, a small
m = 1 ``verify`` scenario whose spectrum comes from the band with no dense
``eigh``, a small lattice scenario and a small m = 2 ``twist`` scenario under
the tracer so such a change fails here.  Every CSV a scenario writes must
pass the traced ``write_csv``: its bytes counter equals the size of the CSV
files written.
"""

import os

import pytest
from test_cli import (DISTANCE_CFG, KATO_CFG, KERNEL_CUT_CFG, LATTICE_CFG, TWIST_CFG,
                      VERIFY_CFG, VERIFY_M2_CFG, _write)

from heatlab.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("args, text, keys, zeros", [
    # the benchmark's traced spectral run requires a dense eigh: the Kato
    # run's complete spectrum
    (["kato"], KATO_CFG, ("kato.form_bound.calls", "kato.kato_norm.calls",
                          "kato.weighted_l2_check.calls", "kato.miyadera_ratio.calls",
                          "lapack.solve.calls", "lapack.eigh.calls"), ()),
    (["kernel"], KERNEL_CUT_CFG, ("heatkernel.eigendecompose.calls", "lapack.eig_banded.calls",
                                  "heatkernel.fourier_oracle.calls"), ()),
    (["distance"], DISTANCE_CFG,
     ("symbols.eval_symbol.calls", "exprlang.point_evals", "finsler.distance_dm_1d.calls",
      "finsler.distance_dm_1d.iterations"), ()),
    # the benchmark's traced verify run requires both d_M counters nonzero
    (["verify"], VERIFY_M2_CFG, ("finsler.distance_dm_1d.calls",
                                 "finsler.distance_dm_1d.iterations"), ()),
    # an m = 1 verdict's cut that keeps every mode comes from the band
    (["verify"], VERIFY_CFG, ("heatkernel.eigendecompose.calls",), ("lapack.eigh.calls",)),
    (["distance"], LATTICE_CFG,
     ("finsler.distance_lattice_2d.calls", "reporting.write_csv.calls"), ()),
], ids=["kato", "kernel", "distance-dM", "verify-dM", "verify-m1", "distance-lattice"])
def test_layers_traced(tmp_path, monkeypatch, args, text, keys, zeros):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert main(args + ["--config", cfg, "--out", str(out)]) == 0
    finally:
        tracer.restore()
    for key in keys:
        assert tracer.counts[key] > 0, key
    for key in zeros:
        assert tracer.counts[key] == 0, key
    csv_bytes = sum(f.stat().st_size for f in out.glob("*.csv"))
    assert csv_bytes > 0 and tracer.counts["reporting.write_csv.bytes"] == csv_bytes


def test_twist_sweep_traced_once_per_lambda(tmp_path, monkeypatch):
    # k(lambda) on an m = 2 band is bisected with banded Cholesky factors,
    # which the tracer does not see; the sweep must still go through the
    # module binding of lower_bound_k, once per lambda
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    text = TWIST_CFG.replace("m = 1", "m = 2").replace("lambda_count = 25", "lambda_count = 6")
    cfg = _write(tmp_path, text)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert main(["twist", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.restore()
    assert tracer.counts["twist.growth_fit.calls"] == 1
    assert tracer.counts["twist.lower_bound_k.calls"] == 6
