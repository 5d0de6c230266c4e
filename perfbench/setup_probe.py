"""Set-up work a CLI user pays on every invocation: import ``heatlab.cli``,
load the given configs and run one small dense ``eigh`` (the first LAPACK
call of a process costs far more than later ones).

Run as ``python3 perfbench/setup_probe.py CONFIG...`` with ``src`` on
``PYTHONPATH``; ``run.py`` times fresh processes of it for ``setup_s`` and
calls :func:`warm` in-process before its timed passes.
"""

import sys


def warm(config_paths):
    import heatlab.cli  # noqa: F401
    import numpy as np
    import scipy.linalg
    from heatlab.config import load_config

    for path in config_paths:
        load_config(path)
    a = np.random.default_rng(0).standard_normal((64, 64))
    scipy.linalg.eigh(a + a.T)


if __name__ == "__main__":
    warm(sys.argv[1:])
