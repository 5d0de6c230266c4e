"""CSV, manifest and verdict emission.

CSV convention: comma separators, one header row, LF endings, floats as
shortest round-trip decimals (Python repr), so identical runs produce
byte-identical files on every platform.  A ``str`` cell, and a ``str`` row
(one or more lines, each ending in LF), is written as it stands, so
:func:`grid_rows` can format each axis coordinate and each distinct value
of a grid once, make the lines of one grid row with one ``str.join`` and
still give the bytes of one :func:`format_value` per cell.  Distinct values
are keyed by their bit pattern, since ``-0.0 == 0.0`` but their ``repr``s
differ.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np


def format_value(v):
    if type(v) is str:
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def format_float_17(v):
    return f"{float(v):.17g}"


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row if type(row) is str else ",".join(map(format_value, row)) + "\n"
                      for row in rows)


def grid_rows(axes, values):
    """Rows ``x1,x2,value`` of a field on a 2D grid, in node order (``x1``
    outer, ``x2`` inner), as one ``str`` of lines per ``x1``, with the bytes
    :func:`format_value` gives.  Each axis coordinate and each distinct
    value (by bit pattern) is formatted once, each coordinate with its
    comma.  A constant-coefficient lattice repeats its values by
    symmetry: 33,153 to 58,632 distinct of 262,144 at 512 x 512.  A field
    with no repeats pays for the sort and gather, about 0.06 s at that
    size."""
    heads = [format_value(x) + "," for x in axes[0].tolist()]
    n2 = len(axes[1])
    # the lines of one x1 are head, tail and cell per node, with the line end
    # before every head but the first: the tails and the last line end stay
    # in place, and each x1 fills in its heads and its row of cells.  A line
    # end joined to each distinct value instead left a distance run's heap
    # about 1 MB higher, a new string per value beside its freed repr.
    line = [None] * (3 * n2) + ["\n"]
    line[1::3] = [format_value(x) + "," for x in axes[1].tolist()]
    bits = values.view(np.int64)
    # not np.unique: its inverse's temporaries left a distance run's heap
    # 3 MB higher, and without an inverse it hashes, 7 to 40 times slower
    # than this sort on the 512 x 512 lattice
    keys = np.sort(bits)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    cells = np.frompyfunc(repr, 1, 1)(keys.view(np.float64))
    index = np.searchsorted(keys, bits).reshape(len(heads), n2)
    for head, row in zip(heads, index):
        line[0:-1:3] = ["\n" + head] * n2
        line[0] = head
        line[2::3] = cells[row].tolist()
        yield "".join(line)


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


# environment variables that set the BLAS thread count; verdict digits depend on it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Manifest:
    """Echo of the inputs plus versions, the BLAS build and its thread
    settings, stage timings and, for a failed run, its ``error`` last."""

    def __init__(self, scenario):
        import numpy
        import scipy

        from . import __version__

        self.lines = [
            f"scenario: {scenario}",
            f"heatlab: {__version__}",
            f"numpy: {numpy.__version__}",
            f"scipy: {scipy.__version__}",
        ]
        self.lines.append(f"numpy blas: {_blas_build()}")
        self.lines += [f"{var}: {os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS]
        self._timings = []
        self.error = None

    def echo(self, label, value):
        self.lines.append(f"{label}: {value}")

    @contextlib.contextmanager
    def stage(self, name):
        """Time the enclosed block as stage ``name``, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._timings.append((name, time.perf_counter() - t0))

    def render(self):
        out = list(self.lines)
        if self._timings:
            out.append("timings:")
            out.extend(f"  {name}: {dt:.3f} s" for name, dt in self._timings)
        if self.error is not None:
            out.append(f"error: {self.error}")
        return "\n".join(out)

    def write(self, outdir):
        write_text(os.path.join(outdir, "manifest.txt"), self.render())


def _blas_build():
    """Name and version of numpy's BLAS; numpy reports them from 1.26 on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path
