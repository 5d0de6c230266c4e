"""The benchmark's per-layer trace map still finds the Kato layers.

``perfbench/tracing.py`` wraps functions at their ``heatlab`` module
bindings; a renamed or bypassed binding would read zero there.  This runs a
small ``kato`` scenario under the tracer so such a change fails here.
"""

import os

from test_cli import KATO_CFG, _write

from heatlab.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_kato_layers_traced(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    cfg = _write(tmp_path, KATO_CFG)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert main(["kato", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.restore()
    for key in ("kato.kato_norm.calls", "kato.weighted_l2_check.calls",
                "kato.miyadera_ratio.calls", "lapack.solve.calls"):
        assert tracer.counts[key] > 0, key
