"""CSV bytes: the cell of each value type, and the lattice rows in node order."""

import itertools
import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, example, given, settings

from heatlab.discretize import Grid
from heatlab.finsler import distance_lattice_2d
from heatlab.reporting import format_value, grid_rows, write_csv
from heatlab.symbols import SymbolSpec


def test_write_csv_cell_bytes(tmp_path):
    cells = (True, False, 7, np.int64(-12), 0.1, np.float64(2.5), "lattice-dijkstra",
             -0.0, math.nan, math.inf, 1e-300)
    path = tmp_path / "cells.csv"
    write_csv(path, [f"c{i}" for i in range(len(cells))], [cells, cells[::-1]])
    assert path.read_bytes() == (
        b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10\n"
        b"true,false,7,-12,0.1,2.5,lattice-dijkstra,-0.0,nan,inf,1e-300\n"
        b"1e-300,inf,nan,-0.0,lattice-dijkstra,2.5,0.1,-12,7,false,true\n"
    )


def test_lattice_csv_matches_row_by_row_reference(tmp_path):
    # nx != ny and negative coordinates: a swapped or transposed axis shows
    spec = SymbolSpec.isotropic(1, 2, "1+0.3*sin(x1)*cos(x2)")
    grid = Grid.make([(-2.0, -0.5), (-1.0, 0.75)], (7, 5))
    fld = distance_lattice_2d(spec, (-1.2, 0.1), grid)
    path = tmp_path / "distance.csv"
    write_csv(path, ("x1", "x2", "d"), grid_rows(fld.axes, fld.values))
    ref = "x1,x2,d\n" + "".join(",".join(format_value(c) for c in (p[0], p[1], v)) + "\n"
                                for p, v in zip(grid.node_coordinates(), fld.values))
    assert path.read_text() == ref
    assert len(ref.splitlines()) == 7 * 5 + 1


# -0.0 and 0.0 compare equal but print apart; a float-keyed dedup merges them
POOL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 1e16, 0.1)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       extra=st.lists(st.floats(), max_size=5),
       picks=st.lists(st.integers(0, 13), min_size=81, max_size=81))
@example(shape=(2, 2), extra=[], picks=[0, 1, 1, 0] + [0] * 77)
def test_grid_rows_bytes_match_per_cell_reference(tmp_path, shape, extra, picks):
    pool = POOL + tuple(extra)
    n1, n2 = shape
    values = np.array([pool[i % len(pool)] for i in picks[:n1 * n2]])
    axes = (np.linspace(-1.0, 2.0, n1), np.linspace(0.0, 0.3, n2))
    path = tmp_path / "field.csv"
    write_csv(path, ("x1", "x2", "v"), grid_rows(axes, values))
    cells = zip(itertools.product(*(a.tolist() for a in axes)), values.tolist())
    ref = "x1,x2,v\n" + "".join(",".join(map(format_value, (x1, x2, v))) + "\n"
                                for (x1, x2), v in cells)
    assert path.read_bytes() == ref.encode()
