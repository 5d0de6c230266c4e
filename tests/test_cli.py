import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import heatlab
import heatlab.cli
import heatlab.experiments
import heatlab.kato
from heatlab.cli import constants_table, main
from heatlab.config import load_config
from heatlab.discretize import Grid, assemble
from heatlab.experiments import operator_pieces
from heatlab.finsler import distance_lattice_2d
from heatlab.heatkernel import fourier_oracle, oracle_field
from heatlab.kato import form_bound, kato_norm_curve, sample_potential
from heatlab.reporting import format_value
from heatlab.symbols import SymbolSpec

KERNEL_CFG = """
scenario = kernel
[operator]
m = 1
n = 1
domain = -8, 8
grid_n = 200
a = "1"
[kernel]
t_list = 0.1, 0.5
x_list = 0, 0
y_list = 0.5, 1.0
oracle = true
"""

# m = 2 sampled from t = 1e-3 on: 75 of 400 modes lie below the cut
KERNEL_CUT_CFG = """
scenario = kernel
[operator]
m = 2
n = 1
domain = -4, 4
grid_n = 400
a = "1"
[kernel]
t_list = 0.001, 0.01
x_list = 0, 0
y_list = 0.2, 0.5
oracle = true
"""

DISTANCE_CFG = """
scenario = distance
[operator]
m = 2
n = 1
domain = 0, 1
grid_n = 100
a = "(1+x)^4"
[distance]
method = dM
M = 1.0
y1_list = 0, 0
y2_list = 0.5, 1.0
"""

LATTICE_CFG = """
scenario = distance
[operator]
m = 2
n = 2
domain = 0, 1, 0, 1
grid_n = 24
a = "1"
[distance]
method = lattice
source = 0.5, 0.5
lattice_n = 24
"""

VERIFY_CFG = """
scenario = verify
[operator]
m = 1
n = 1
domain = -8, 8
grid_n = 300
a = "1"
[verify]
tolerance = 0.05
t_list = 0.05, 0.1, 0.2, 0.4
pair_min = 0.1
pair_max = 1.0
pair_count = 12
distance_method = exact
"""

VERIFY_M2_CFG = """
scenario = verify
[operator]
m = 2
n = 1
domain = -4, 4
grid_n = 200
a = "1"
[verify]
tolerance = 0.05
t_list = 0.001, 0.002, 0.004, 0.01
pair_min = 0.2
pair_max = 1.0
pair_count = 10
M_list = 5
distance_method = dM
"""

# the stock well-m1 verdict of scripts/run_sharp_bound.py, pairs out to 15
WELL_M1_WIDE_CFG = """
scenario = verify
[operator]
m = 1
n = 1
domain = -8, 8
grid_n = 800
a = "1"
potential = "-exp(-x^2)"
[verify]
tolerance = 0.05
t_list = 0.04, 0.08, 0.16, 0.32
pair_min = 0.2
pair_max = 15
pair_count = 40
M_list = 5
distance_method = dM
"""

TWIST_CFG = """
scenario = twist
[operator]
m = 1
n = 1
domain = 0, 1
grid_n = 300
a = "1"
[twist]
phi = "x"
lambda_min = 2
lambda_max = 20
lambda_count = 25
M = 1
"""

KATO_CFG = """
scenario = kato
[operator]
m = 1
n = 1
domain = 0, 1
grid_n = 150
a = "1"
[kato]
vminus = "min(x^(-0.5), 1000000)"
lambdas = 1, 100, 10000
eps_list = 0.25, 0.75
delta = 0.01
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_constants_table_format(capsys):
    assert main(["constants", "--m", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3
    names = [ln.split()[0] for ln in lines]
    assert names == ["m", "sigma_m", "k_m"]
    assert "0.23623519685528868" in out
    # 17 significant digits via the table helper
    assert "8" in constants_table(2)


def test_kernel_scenario_writes_csv(tmp_path):
    cfg = _write(tmp_path, KERNEL_CFG)
    out = str(tmp_path / "out")
    assert main(["kernel", "--config", cfg, "--out", out]) == 0
    data = open(os.path.join(out, "kernel.csv")).read().splitlines()
    assert data[0] == "t,x,y,K,method"
    assert any("fourier-oracle" in ln for ln in data[1:])
    assert any("spectral" in ln for ln in data[1:])
    assert os.path.exists(os.path.join(out, "manifest.txt"))


def test_kernel_csv_deterministic(tmp_path):
    cfg = _write(tmp_path, KERNEL_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["kernel", "--config", cfg, "--out", out1]) == 0
    assert main(["kernel", "--config", cfg, "--out", out2]) == 0
    b1 = open(os.path.join(out1, "kernel.csv"), "rb").read()
    b2 = open(os.path.join(out2, "kernel.csv"), "rb").read()
    assert b1 == b2


def test_kernel_oracle_takes_the_operators_coefficient(tmp_path):
    # the oracle rows used to describe a = 1 whatever operator.a said
    cfg = _write(tmp_path, KERNEL_CFG.replace('a = "1"', 'a = "2"'))
    out = str(tmp_path / "out")
    assert main(["kernel", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "kernel.csv")).read().splitlines()[1:]
    oracle = [ln.rsplit(",", 1)[0] for ln in lines if ln.endswith(",fourier-oracle")]
    assert len(oracle) == 4
    for t, x, y, K in (map(float, row.split(",")) for row in oracle):
        assert K == fourier_oracle(1, 2.0, t, abs(y - x))
    # the rows are oracle_field's, byte for byte
    k = load_config(cfg).kernel
    rows = oracle_field(1, 2.0, k.t_list, list(zip(k.x_list, k.y_list)))
    assert oracle == [",".join(map(format_value, r)) for r in rows]


def test_kernel_oracle_takes_a_variable_free_expression(tmp_path):
    # "2*2" is a constant operator.a, as "4" is
    csv = []
    for a in ("4", "2*2"):
        cfg = _write(tmp_path, KERNEL_CFG.replace('a = "1"', f'a = "{a}"'))
        out = tmp_path / a.replace("*", "x")
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        csv.append((out / "kernel.csv").read_bytes())
    assert csv[0] == csv[1]


def test_kernel_with_a_failing_constant_coefficient_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, KERNEL_CFG.replace('a = "1"', 'a = "1/(2-2)"'))
    assert main(["kernel", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "division by zero in subexpression '1.0/(2.0-2.0)'" in capsys.readouterr().err


def test_kernel_oracle_on_a_variable_coefficient_refused(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("operator assembled")

    monkeypatch.setattr(heatlab.cli, "assemble", refuse)
    cfg = _write(tmp_path, KERNEL_CFG.replace('a = "1"', 'a = "1+x"'))
    out = str(tmp_path / "out")
    assert main(["kernel", "--config", cfg, "--out", out]) == 2
    assert "kernel.oracle" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "kernel.csv"))


def test_distance_scenario_dm(tmp_path):
    cfg = _write(tmp_path, DISTANCE_CFG)
    out = str(tmp_path / "out")
    assert main(["distance", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "distance.csv")).read().splitlines()
    assert lines[0] == "x,y,d"
    assert len(lines) == 3


def test_distance_dm_exits_2_naming_the_first_failed_pair(tmp_path, capsys, highs_solves):
    highs_solves["fail"].update({1, 2})
    text = (DISTANCE_CFG.replace("y1_list = 0, 0", "y1_list = 0, 0, 0.25")
            .replace("y2_list = 0.5, 1.0", "y2_list = 0.5, 1.0, 0.75"))
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["distance", "--config", cfg, "--out", out]) == 2
    assert "capped-distance solver failed for (0.0, 1.0)\n" in capsys.readouterr().err
    assert highs_solves["hot"] == [False, True, False]
    assert not os.path.exists(os.path.join(out, "distance.csv"))


def test_verify_exits_2_naming_the_first_failed_pair(tmp_path, capsys, highs_solves):
    highs_solves["fail"].add(3)
    cfg = _write(tmp_path, VERIFY_M2_CFG)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    # the fourth of the centred pairs, snapped to the 200-node grid
    err = capsys.readouterr().err
    assert re.search(r"capped-distance solver failed for pair \(-0\.3\d*, 0\.3\d*\)\n", err), err
    assert not os.path.exists(os.path.join(out, "verdict.txt"))


def test_distance_scenario_lattice(tmp_path):
    cfg = _write(tmp_path, LATTICE_CFG)
    out = str(tmp_path / "out")
    assert main(["distance", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "distance.csv")).read().splitlines()
    assert lines[0] == "x1,x2,d"
    assert len(lines) == 24 * 24 + 1
    # printing is timed apart from the solve
    manifest = open(os.path.join(out, "manifest.txt")).read().splitlines()
    stages = [ln.split(":")[0].strip() for ln in manifest[manifest.index("timings:") + 1:]]
    assert stages == ["distance lattice", "write csv"]


@pytest.mark.parametrize("source", ["0.5", "5, -3", "0.5, 0.5, 0.5"])
def test_lattice_source_off_the_domain_rejected(tmp_path, capsys, source):
    # one coordinate used to escape as an IndexError; a point outside the
    # square used to snap to the nearest corner node
    cfg = _write(tmp_path, LATTICE_CFG.replace("source = 0.5, 0.5", f"source = {source}"))
    out = str(tmp_path / "out")
    assert main(["distance", "--config", cfg, "--out", out]) == 2
    assert "distance.source" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "distance.csv"))


@pytest.mark.parametrize("key, old, new", [("x_list", "x_list = 0, 0", "x_list = 9, 0"),
                                          ("y_list", "y_list = 0.5, 1.0", "y_list = 0.5, -8.5")],
                         ids=["x_list", "y_list"])
def test_kernel_points_off_the_domain_rejected(tmp_path, capsys, key, old, new):
    # a sample point outside the domain used to snap to the edge node
    cfg = _write(tmp_path, KERNEL_CFG.replace(old, new))
    out = str(tmp_path / "out")
    assert main(["kernel", "--config", cfg, "--out", out]) == 2
    assert f"kernel.{key}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "kernel.csv"))


@pytest.mark.parametrize("method", ["exact1d", "dM"])
@pytest.mark.parametrize("key, old, new", [("y1_list", "y1_list = 0, 0", "y1_list = 0, -1e-9"),
                                          ("y2_list", "y2_list = 0.5, 1.0",
                                           "y2_list = 0.5, 1.000000001")],
                         ids=["y1_list", "y2_list"])
def test_distance_points_off_the_domain_rejected(tmp_path, capsys, method, key, old, new):
    # a pair outside the domain used to be measured on the coefficient's
    # extension, or to fail naming no key
    text = DISTANCE_CFG.replace("method = dM", f"method = {method}").replace(old, new)
    out = str(tmp_path / "out")
    assert main(["distance", "--config", _write(tmp_path, text), "--out", out]) == 2
    assert f"distance.{key}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "distance.csv"))


def test_kernel_on_two_axes_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # the 2D operator used to be assembled and decomposed before the kernel
    # sampler refused it
    def refuse(*args, **kwargs):
        raise AssertionError("operator assembled")

    monkeypatch.setattr(heatlab.cli, "assemble", refuse)
    cfg = _write(tmp_path, KERNEL_CFG.replace("n = 1\ndomain = -8, 8", "n = 2\ndomain = -8, 8, -8, 8"))
    out = str(tmp_path / "out")
    assert main(["kernel", "--config", cfg, "--out", out]) == 2
    assert "operator.n" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "kernel.csv"))
    # the failed run still leaves its manifest, naming the error
    errors = [ln for ln in open(os.path.join(out, "manifest.txt")).read().splitlines()
              if ln.startswith("error: ")]
    assert len(errors) == 1 and "operator.n" in errors[0]


DM_2D_CFG = DISTANCE_CFG.replace("n = 1\ndomain = 0, 1", "n = 2\ndomain = 0, 1, 0, 1").replace(
    "(1+x)^4", "(1+x1)^4")


@pytest.mark.parametrize("text, key", [
    (DM_2D_CFG, "distance.method"),
    (DM_2D_CFG.replace("method = dM", "method = exact1d"), "distance.method"),
    (LATTICE_CFG.replace("n = 2\ndomain = 0, 1, 0, 1", "n = 1\ndomain = 0, 1").replace(
        "source = 0.5, 0.5", "source = 0.5"), "distance.method"),
    (LATTICE_CFG.replace("lattice_n = 24", "lattice_n = 1"), "distance.lattice_n"),
], ids=["dM-on-2D", "exact1d-on-2D", "lattice-on-1D", "one-lattice-node"])
def test_distance_config_that_cannot_run_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                                  text, key):
    # these used to exit 2 naming no key, with "distance_dm_1d needs a 1D
    # spec", "distance_1d needs a 1D spec", "distance_lattice_2d needs a 2D
    # spec" and "need at least 2 interior points per axis"
    def refuse(*args, **kwargs):
        raise AssertionError("operator built")

    monkeypatch.setattr(heatlab.cli, "operator_pieces", refuse)
    out = str(tmp_path / "out")
    assert main(["distance", "--config", _write(tmp_path, text), "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "distance.csv"))


def test_lattice_reads_no_grid_n(tmp_path):
    # a grid_n = 1 Grid used to be built and refused, naming no key, though
    # the lattice has lattice_n nodes per axis
    cfg = _write(tmp_path, LATTICE_CFG.replace("grid_n = 24", "grid_n = 1"))
    out = str(tmp_path / "out")
    assert main(["distance", "--config", cfg, "--out", out]) == 0
    assert len(open(os.path.join(out, "distance.csv")).read().splitlines()) == 1 + 24 * 24


def test_lattice_source_on_the_domain_boundary_accepted(tmp_path):
    cfg = _write(tmp_path, LATTICE_CFG.replace("source = 0.5, 0.5", "source = 0, 1"))
    assert main(["distance", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_lattice_source_defaults_to_the_domain_centre(tmp_path):
    # the default used to be the point (0.5, 0.5), outside this domain
    text = LATTICE_CFG.replace("source = 0.5, 0.5\n", "").replace(
        "domain = 0, 1, 0, 1", "domain = 1, 2, 1, 2")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["distance", "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "distance.csv", delimiter=",", skiprows=1)
    x1, x2, d = rows[np.argmin(rows[:, 2])]
    assert d == 0.0 and abs(x1 - 1.5) < 1 / 24 and abs(x2 - 1.5) < 1 / 24


def test_lattice_csv_streamed_in_node_order(tmp_path, monkeypatch):
    kinds = []

    def recording_write_csv(path, header, rows):
        kinds.append(type(rows))
        return write_csv(path, header, rows)

    write_csv = heatlab.cli.write_csv
    monkeypatch.setattr(heatlab.cli, "write_csv", recording_write_csv)
    spec = SymbolSpec.isotropic(2, 2, "1", domain=[(0, 1), (0, 1)])
    nodes = Grid.make(spec.domain.bounds, 24).node_coordinates().tolist()
    # a constant coefficient repeats values by reflection about the source,
    # centred or not, and each distinct value is formatted once
    for source in ((0.5, 0.5), (0.3, 0.6)):
        cfg = _write(tmp_path, LATTICE_CFG.replace("0.5, 0.5", "{}, {}".format(*source)))
        out = tmp_path / "out"
        assert main(["distance", "--config", cfg, "--out", str(out)]) == 0
        values = distance_lattice_2d(spec, source, npts=24).values
        assert len(np.unique(values)) < values.size / 2
        ref = "x1,x2,d\n" + "".join(",".join(map(format_value, (x1, x2, v))) + "\n"
                                    for (x1, x2), v in zip(nodes, values.tolist()))
        assert (out / "distance.csv").read_bytes() == ref.encode()
    assert kinds == [types.GeneratorType] * 2  # no list of all rows is built


def test_distance_method_comes_from_the_config_only(tmp_path, capsys):
    # --method and --M used to override keys that manifest.txt never recorded
    cfg = _write(tmp_path, DISTANCE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--config", cfg, "--out", str(tmp_path / "out"), "--method", "dM"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method dM" in capsys.readouterr().err


def test_readme_command_line_lists_each_subcommands_options(capsys):
    def options(argv):
        with pytest.raises(SystemExit):
            main(argv + ["--help"])
        return set(re.findall(r"--\w+", capsys.readouterr().out)) - {"--help"}

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = open(os.path.join(root, "README.md"), encoding="utf-8").read()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    listed = {line.split()[1]: set(re.findall(r"--\w+", line))
              for line in block.splitlines() if line.startswith("heatlab ")}
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert set(listed) == set(commands)
    for command, opts in listed.items():
        assert opts == options([command]), command


def test_twist_scenario_summary(tmp_path):
    cfg = _write(tmp_path, TWIST_CFG)
    out = str(tmp_path / "out")
    assert main(["twist", "--config", cfg, "--out", out]) == 0
    summary = open(os.path.join(out, "twist_summary.txt")).read()
    assert "kappa:" in summary and "verdict: PASS" in summary
    lines = open(os.path.join(out, "twist.csv")).read().splitlines()
    assert lines[0] == "lambda,k,model_fit"
    assert len(lines) == 26


def test_failed_run_manifest_ends_in_its_error(tmp_path):
    # lambda = -20 is not above -lambda_min ~ -9.87 of the unit interval, which
    # the resolvent curve finds after the assemble stage; the timings used to
    # follow the error line
    cfg = _write(tmp_path, KATO_CFG.replace("lambdas = 1, 100", "lambdas = -20, 100"))
    out = str(tmp_path / "out")
    assert main(["kato", "--config", cfg, "--out", out]) == 2
    manifest = open(os.path.join(out, "manifest.txt")).read().splitlines()
    assert "  assemble" in "\n".join(manifest)
    assert manifest[-1].startswith("error: lambda = -20.0 is not above -lambda_min")


@pytest.mark.parametrize("command, text, key", [
    ("twist", TWIST_CFG.replace("n = 1\ndomain = 0, 1", "n = 2\ndomain = 0, 1, 0, 1")
     .replace('phi = "x"', 'phi = "x1"'), "operator.n"),
    ("verify", VERIFY_CFG.replace("n = 1\ndomain = -8, 8", "n = 2\ndomain = -8, 8, -8, 8"),
     "operator.n"),
    ("kernel", KERNEL_CFG.replace("grid_n = 200", "grid_n = 2"), "operator.grid_n"),
    ("kato", KATO_CFG.replace("grid_n = 150", "grid_n = 2"), "operator.grid_n"),
    ("twist", TWIST_CFG.replace("grid_n = 300", "grid_n = 2"), "operator.grid_n"),
    ("verify", VERIFY_M2_CFG.replace("grid_n = 200", "grid_n = 4"), "operator.grid_n"),
    ("twist", TWIST_CFG.replace('a = "1"', 'a = "2"'), "twist.phi"),
], ids=["twist-on-2D", "verify-on-2D", "kernel-m1-grid-2", "kato-m1-grid-2", "twist-m1-grid-2",
        "verify-m2-grid-4", "twist-infeasible-phi"])
def test_config_that_cannot_assemble_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                              command, text, key):
    # these used to assemble first, or fail naming no key: "twist profiles
    # are 1D", "verdict pipelines are 1D", "grid too coarse: need N >= 5
    # interior points", "twist profile is infeasible for the symbol class at
    # this M" (a = 2 makes A(x, phi') = 2 > 1)
    def refuse(*args, **kwargs):
        raise AssertionError("operator assembled")

    monkeypatch.setattr(heatlab.cli, "assemble", refuse)
    monkeypatch.setattr(heatlab.experiments, "assemble", refuse)
    out = str(tmp_path / "out")
    assert main([command, "--config", _write(tmp_path, text), "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert os.listdir(out) == ["manifest.txt"]


def test_twist_needs_three_lambdas_in_the_fitted_decade(tmp_path, capsys):
    # a line through two points has zero residual, so a 2-point fit used to
    # PASS whatever its kappa
    cfg = _write(tmp_path, TWIST_CFG.replace("lambda_count = 25", "lambda_count = 2"))
    out = str(tmp_path / "out")
    assert main(["twist", "--config", cfg, "--out", out]) == 2
    assert "twist.lambda_count" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "twist_summary.txt"))


def test_kato_scenario_files(tmp_path):
    cfg = _write(tmp_path, KATO_CFG)
    out = str(tmp_path / "out")
    assert main(["kato", "--config", cfg, "--out", out]) == 0
    curve = open(os.path.join(out, "kato_curve.csv")).read().splitlines()
    assert curve[0] == "lambda,kato_norm,weighted_l2_norm"
    fb = open(os.path.join(out, "form_bounds.csv")).read().splitlines()
    assert fb[0] == "eps,c_eps"
    assert len(fb) == 3
    assert os.path.exists(os.path.join(out, "miyadera.csv"))


def test_kato_csv_is_the_curve(tmp_path):
    cfg_path = _write(tmp_path, KATO_CFG)
    out = str(tmp_path / "out")
    assert main(["kato", "--config", cfg_path, "--out", out]) == 0
    cfg = load_config(cfg_path)
    spec, grid, _ = operator_pieces(cfg.operator)
    vminus = np.maximum(sample_potential(cfg.kato.vminus, grid), 0.0)
    curve = kato_norm_curve(assemble(spec, grid), vminus, cfg.kato.lambdas)
    rows = zip(curve.lambdas, curve.norms, curve.weighted)
    expected = ["lambda,kato_norm,weighted_l2_norm"] + [",".join(map(repr, r)) for r in rows]
    assert open(os.path.join(out, "kato_curve.csv")).read().splitlines() == expected


def test_kato_2d_m1_curve_equals_the_dense_formulas(tmp_path, solve_shapes):
    # a 2D m = 1 band has no positive off-diagonal either, so each lambda
    # solves with V_- alone; the curve is the max column mass of V_- |R| and
    # the top eigenvalue of sqrt(V_-) R sqrt(V_-), R from a dense inverse
    text = KATO_CFG.replace("n = 1\ndomain = 0, 1\ngrid_n = 150",
                            "n = 2\ndomain = 0, 1, 0, 1\ngrid_n = 12").replace("x^", "x1^")
    cfg_path = _write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["kato", "--config", cfg_path, "--out", out]) == 0
    assert solve_shapes == [(144,)] * 3
    cfg = load_config(cfg_path)
    spec, grid, _ = operator_pieces(cfg.operator)
    vminus = np.maximum(sample_potential(cfg.kato.vminus, grid), 0.0)
    H = assemble(spec, grid).operator_matrix()
    assert H.shape == (144, 144)
    rows = np.loadtxt(os.path.join(out, "kato_curve.csv"), delimiter=",", skiprows=1)
    sq = np.sqrt(vminus)
    for lam, kn, wnorm in rows:
        R = np.linalg.inv(H + lam * np.eye(144))
        norm = float(np.max(np.sum(vminus[:, None] * np.abs(R), axis=0)))
        top = float(np.linalg.eigvalsh(sq[:, None] * R * sq[None, :])[-1])
        assert kn == pytest.approx(norm, rel=1e-13)
        assert wnorm == pytest.approx(top, rel=1e-13)


def test_form_bounds_csv_is_form_bound_per_eps(tmp_path):
    cfg_path = _write(tmp_path, KATO_CFG)
    out = str(tmp_path / "out")
    assert main(["kato", "--config", cfg_path, "--out", out]) == 0
    cfg = load_config(cfg_path)
    spec, grid, _ = operator_pieces(cfg.operator)
    vminus = np.maximum(sample_potential(cfg.kato.vminus, grid), 0.0)
    op0 = assemble(spec, grid)
    rows = [(eps, form_bound(op0, vminus, eps)) for eps in cfg.kato.eps_list]
    expected = ["eps,c_eps"] + [",".join(map(repr, r)) for r in rows]
    assert open(os.path.join(out, "form_bounds.csv")).read().splitlines() == expected


def test_kato_exits_2_when_interpolation_fails(tmp_path, monkeypatch, capsys):
    check = heatlab.kato.weighted_l2_check

    def inflated(op0, vminus, lam):
        return check(op0, vminus, lam) + 1.0

    monkeypatch.setattr(heatlab.kato, "weighted_l2_check", inflated)
    cfg = _write(tmp_path, KATO_CFG)
    assert main(["kato", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "weighted-L2 norm exceeds" in capsys.readouterr().err


def test_kernel_exits_2_when_lanczos_does_not_converge(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    def unconverged(H, k, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", unconverged)
    cfg = _write(tmp_path, KERNEL_CUT_CFG)
    assert main(["kernel", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "No convergence" in capsys.readouterr().err


def test_verify_scenario_verdict(tmp_path):
    cfg = _write(tmp_path, VERIFY_CFG)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    verdict = open(os.path.join(out, "verdict.txt")).read()
    assert verdict.startswith("verdict: PASS")
    assert "worst_sample:" in verdict
    samples = open(os.path.join(out, "verify_samples.csv")).read().splitlines()
    assert samples[0] == "t,x,y,K,d,u,bound"
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "numpy:" in manifest and "timings:" in manifest


def test_verify_drops_samples_at_the_rounding_floor(tmp_path):
    # at t = 0.04 the far pairs' |K| is the spectral sum's rounding, ~1e-16
    # with random signs; kept, those rows failed the fit (sigma_eff 0.004)
    cfg = _write(tmp_path, WELL_M1_WIDE_CFG)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    verdict = open(os.path.join(out, "verdict.txt")).read()
    assert verdict.startswith("verdict: PASS")
    dropped, total = map(int, re.search(r"rounding floor: dropped (\d+) of (\d+)", verdict).groups())
    assert 0 < dropped < total
    samples = open(os.path.join(out, "verify_samples.csv")).read().splitlines()
    assert len(samples) == 1 + total - dropped


def test_verify_with_an_empty_m_list_refused(tmp_path, capsys):
    # an empty list names no M for the verdict's d_M distances
    cfg = _write(tmp_path, VERIFY_CFG + "M_list = ,\n")
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert "M_list" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "verdict.txt"))


def test_bad_config_returns_error_code(tmp_path, capsys):
    cfg = _write(tmp_path, "scenario = kernel\n[operator]\nordre = 2\n")
    rc = main(["kernel", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "ordre" in capsys.readouterr().err


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the d_M solver imports scipy's HiGHS binding on first use; loading
    # scipy.optimize with the CLI would slow the start-up of every command
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    code = "import heatlab.cli, sys; assert 'scipy.optimize' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_leaves_sparse_eigensolver_unloaded():
    # weighted_l2_check imports eigsh on first use, as the d_M solver does HiGHS
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    # and the verdict's prefactor imports lambertw, which scipy.special holds
    code = ("import heatlab.cli, sys; assert 'scipy.sparse.linalg' not in sys.modules; "
            "assert 'scipy.special' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_manifest_records_blas_build_and_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = _write(tmp_path, KERNEL_CFG)
    out = str(tmp_path / "out")
    assert main(["kernel", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "manifest.txt")).read().splitlines()
    blas = [ln for ln in lines if ln.startswith("numpy blas: ")]
    assert len(blas) == 1 and blas[0] != "numpy blas: "
    assert "OPENBLAS_NUM_THREADS: 1" in lines
    assert "MKL_NUM_THREADS: unset" in lines
    assert any(ln.startswith("OMP_NUM_THREADS: ") for ln in lines)
