"""Smoke runs of the scripts in ``scripts/``: each exits 0 on a small input
and prints its header."""

import os
import subprocess
import sys

import heatlab
from test_experiments import VERIFY_M1

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, *args):
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_kato_singular_sweep_script():
    lines = _run_script("kato_singular_sweep.py", "--n", "100")
    assert lines[0] == "eps   c_eps"
    assert "lambda      kato_norm     weighted_l2" in lines


def test_twist_growth_sweep_script():
    lines = _run_script("twist_growth_sweep.py", "--grids", "100", "200")
    assert lines[0] == "m=2  k_m=8.000000  lambda in [20.0, 200.0]"
    assert len(lines) == 4


def test_run_sharp_bound_script(tmp_path):
    cfg = tmp_path / "verify_m1.cfg"
    cfg.write_text(VERIFY_M1, encoding="utf-8")
    lines = _run_script("run_sharp_bound.py", "--config", str(cfg))
    assert lines[0].startswith(f"=== {cfg} (")
    assert lines[1] == "verdict: PASS"
