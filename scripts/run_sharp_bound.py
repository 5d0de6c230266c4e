#!/usr/bin/env python3
"""Run the end-to-end sharp-bound verdicts for the four stock scenarios in
``configs/`` (free quartic operator, second-order operator with a bounded
well, quartic operator with a confining positive potential, and the quartic
operator with a perturbed coefficient against its reference) and print the
verdict blocks.

Usage: python scripts/run_sharp_bound.py [--config PATH]
With --config, runs that single configuration instead of the stock set.
"""

import argparse
import os
import sys
import time

from heatlab.config import config_from_text, load_config
from heatlab.experiments import verify_perturbed_bound, verify_sharp_bound

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _config_text(name):
    """The text of ``configs/<name>.cfg``, byte for byte."""
    with open(os.path.join(CONFIGS, f"{name}.cfg"), encoding="utf-8", newline="") as fh:
        return fh.read()


STOCK = {name: _config_text(name)
         for name in ("quartic-free", "well-m1", "quartic-confining", "perturbed")}


def run_one(name, cfg):
    t0 = time.time()
    fn = verify_perturbed_bound if cfg.verify.target == "perturbed" else verify_sharp_bound
    verdict = fn(cfg)
    print(f"=== {name} ({time.time() - t0:.1f}s) ===")
    print(verdict.render())
    print()
    return verdict.passed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=None)
    args = ap.parse_args()
    if args.config:
        ok = run_one(args.config, load_config(args.config))
    else:
        ok = all(run_one(name, config_from_text(text)) for name, text in STOCK.items())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
