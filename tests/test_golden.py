"""Golden verdicts: ``heatlab verify`` on the four stock configs
``configs/<name>.cfg`` against committed copies of their ``verdict.txt`` and
``verify_samples.csv`` under ``tests/golden/<name>/``.

Text must match exactly.  A verdict number must lie within ``RTOL`` of its
copy, a CSV number within ``RTOL`` of its column's largest magnitude, since
kernel values near zero carry the absolute rounding of the spectral sum.
The outputs are the same bytes under ``OPENBLAS_NUM_THREADS=1`` and ``2``.
Under another OpenBLAS kernel (``OPENBLAS_CORETYPE=Prescott`` or
``Sandybridge`` against the default Haswell, on a 2-core x86-64 host) verdict
numbers move by up to 1.7e-10 of their value and CSV numbers by up to 7e-11
of their column's largest, so ``RTOL = 1e-8`` holds them with a margin of
60.  The eigen health note's residual ratio and orthonormality defect are
rounding measures that move by up to 40% with the kernel: they are held to
the bounds :meth:`heatlab.heatkernel.SpectralData.validate` enforces
instead of to the copy.

A change that moves verdict numbers rewrites the copies, from the root of a
checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

import ast
import os
import re
import shutil

import numpy as np
import pytest

from heatlab.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
GOLDEN = os.path.join(ROOT, "tests", "golden")
FILES = ("verdict.txt", "verify_samples.csv")
RTOL = 1e-8
# bounds of the worst residual over its bound and of the orthonormality defect
HEALTH_BOUNDS = (1.0, 1e-8)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
STOCK_NAMES = sorted(f[:-len(".cfg")] for f in os.listdir(CONFIGS) if f.endswith(".cfg"))


def _run(name, tmp):
    """The out directory of ``heatlab verify`` on the stock config ``name``."""
    out = os.path.join(tmp, name)
    assert main(["verify", "--config", os.path.join(CONFIGS, f"{name}.cfg"), "--out", out]) == 0
    return out


def _split(line):
    """The line with each number replaced by ``#``, and its numbers."""
    return NUMBER.sub("#", line), [float(x) for x in NUMBER.findall(line)]


def _check_verdict(got, want):
    got, want = [_split(ln) for ln in got.splitlines()], [_split(ln) for ln in want.splitlines()]
    assert [text for text, _ in got] == [text for text, _ in want]
    for (text, g), (_, w) in zip(got, want):
        if text.startswith("note: eigen health"):
            # the 8 of "8 eps", the residual floor, then the two rounding measures
            assert g[2] <= HEALTH_BOUNDS[0] and g[3] <= HEALTH_BOUNDS[1], text
            g, w = g[:2], w[:2]
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=0, err_msg=text)


def _check_samples(got, want):
    got, want = got.splitlines(), want.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    g, w = (np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])
            for rows in (got, want))
    scale = np.max(np.abs(w), axis=0)
    worst = np.max(np.abs(g - w) / np.where(scale > 0, scale, 1.0), axis=0)
    assert np.all(worst <= RTOL), dict(zip(want[0].split(","), worst))


@pytest.mark.parametrize("name", STOCK_NAMES)
def test_stock_verdict_matches_its_golden_copy(tmp_path, name):
    out = _run(name, str(tmp_path))
    got = [open(os.path.join(out, f), encoding="utf-8").read() for f in FILES]
    want = [open(os.path.join(GOLDEN, name, f), encoding="utf-8").read() for f in FILES]
    _check_verdict(got[0], want[0])
    _check_samples(got[1], want[1])


def test_perturbed_config_is_the_criterion_8_text():
    # perfbench/selfcheck.py reads the perturbed config from the inline text
    # of the criterion-8 test; the two must stay the same bytes
    with open(os.path.join(ROOT, "tests", "test_acceptance.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    test = next(fn for fn in ast.walk(tree)
                if getattr(fn, "name", "") == "test_criterion_8_perturbation_stability")
    texts = [node.args[0].value for node in ast.walk(test)
             if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "config_from_text"]
    with open(os.path.join(CONFIGS, "perturbed.cfg"), encoding="utf-8", newline="") as fh:
        assert texts == [fh.read()]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in STOCK_NAMES:
            out = _run(name, tmp)
            os.makedirs(os.path.join(GOLDEN, name), exist_ok=True)
            for f in FILES:
                shutil.copyfile(os.path.join(out, f), os.path.join(GOLDEN, name, f))
