"""Smoke run of ``scripts/run_sharp_bound.py``, the one script in
``scripts/``: its ``STOCK`` holds the texts of the stock verify configs in
``configs/``, which ``perfbench/selfcheck.py`` reads from it until ROADMAP
item 1 points it at the files.  Every other scenario runs as
``heatlab <command> --config <file>``."""

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


def test_run_sharp_bound_script(tmp_path):
    cfg = tmp_path / "verify_m1.cfg"
    cfg.write_text(VERIFY_M1, encoding="utf-8")
    lines = _run_script("run_sharp_bound.py", "--config", str(cfg))
    assert lines[0].startswith(f"=== {cfg} (")
    assert lines[1] == "verdict: PASS"
