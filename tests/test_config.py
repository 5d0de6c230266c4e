import dataclasses
import re
from pathlib import Path

import pytest

from heatlab.config import ConfigError, RunConfig, config_from_text, config_keys, load_config

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """
scenario = constants
"""

FULL = """
# full kitchen sink
scenario = verify
[operator]
m = 2
n = 1
domain = -4, 4
grid_n = 800
a = "1+0.1*sin(2*pi*x)"
potential = "x^4"
[verify]
target = sharp
tolerance = 0.05
t_list = 1e-3, 1e-2
pair_min = 0.2
pair_max = 1.0
pair_count = 12
M_list = 1, 5
distance_method = dM
"""


def test_minimal_config():
    cfg = config_from_text(MINIMAL)
    assert cfg.scenario == "constants"
    # the preamble has no order key: `heatlab constants` takes --m
    with pytest.raises(ConfigError, match="unknown key 'm'"):
        config_from_text(MINIMAL + "m = 3\n")


def test_full_config_roundtrip_fields():
    cfg = config_from_text(FULL)
    assert cfg.operator.m == 2
    assert cfg.operator.domain == ((-4.0, 4.0),)
    assert cfg.operator.grid_n == (800,)
    assert cfg.operator.potential == "x^4"
    assert cfg.verify.M_list == [1.0, 5.0]
    assert cfg.verify.t_list == [1e-3, 1e-2]


def test_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="ordre"):
        config_from_text("scenario = constants\nordre = 2\n")
    with pytest.raises(ConfigError, match="operator.mm"):
        config_from_text("[operator]\nmm = 2\n")


def test_unknown_scenario_and_sections():
    with pytest.raises(ConfigError, match="scenario"):
        config_from_text("scenario = banana\n")
    with pytest.raises(ConfigError, match="section"):
        config_from_text("[opera tor]\nm = 1\n")


def test_empty_unknown_section_rejected_with_line():
    with pytest.raises(ConfigError, match=r"unknown section 'bogus' \[line 3\]"):
        config_from_text("scenario = kernel\n\n[bogus]\n")


def test_two_axes_need_a_domain():
    with pytest.raises(ConfigError) as info:
        config_from_text("[operator]\nn = 2\n")
    assert info.value.key == "operator.domain"


def test_expression_errors_carry_offset():
    with pytest.raises(ConfigError, match="offset"):
        config_from_text('[operator]\nn = 1\na = "x^^2"\n')


def test_value_type_errors():
    for text, key, what in (
        ("[operator]\nm = 1.5\n", "operator.m", "integer"),
        ("[operator]\nm = 1e400\n", "operator.m", "integer"),
        ("[operator]\nm = nan\n", "operator.m", "integer"),
        ("[operator]\ngrid_n = 40.7\n", "operator.grid_n", "integer"),
        ("[operator]\ngrid_n = 1e400\n", "operator.grid_n", "integer"),
        ("[operator]\nn = 2\ngrid_n = 40, nan\n", "operator.grid_n", "integer"),
        ("[operator]\nn = 2\ndomain = 0, 1, 0, 1\ngrid_n = 40, 40, 40\n", "operator.grid_n",
         "integer"),
        ("[kato]\nlambdas = 100, 10, 1\n", "kato.lambdas", "strictly increasing"),
        ("[kato]\nlambdas = 1, 1, 10\n", "kato.lambdas", "strictly increasing"),
        ("[kato]\ndelta = -0.01\n", "kato.delta", "positive"),
        ("[kato]\neps_list = 0.5, 1\n", "kato.eps_list", r"lie in \(0, 1\)"),
        ("[kato]\neps_list = 0, 0.5\n", "kato.eps_list", r"lie in \(0, 1\)"),
        ("[twist]\nlambda_count = 2\n", "twist.lambda_count", "holds 2 lambdas"),
        ("[verify]\ntarget = perturbed\nlambda_count = 2\n", "verify.lambda_count",
         "holds 2 lambdas"),
        ("[verify]\ntarget = perturbed\n", "verify.delta_coeff", "delta_coeff > 0"),
        ("[verify]\ntarget = perturbed\ndelta_coeff = -0.1\n", "verify.delta_coeff",
         "delta_coeff > 0"),
        ("[twist]\nlambda_min = 0\n", "twist.lambda_min", "positive"),
        ("[twist]\nlambda_min = -2\n", "twist.lambda_min", "positive"),
        ("[twist]\nlambda_min = 20\nlambda_max = 150\n", "twist.lambda_max", "one decade"),
        ("[verify]\ntarget = perturbed\ndelta_coeff = 0.1\nlambda_min = 0\n",
         "verify.lambda_min", "positive"),
        ("[verify]\ntarget = perturbed\ndelta_coeff = 0.1\nlambda_max = 100\n",
         "verify.lambda_max", "one decade"),
        ("[kernel]\nt_list = 0.1, 0\n", "kernel.t_list", "positive"),
        ("[verify]\nt_list = -1e-3\n", "verify.t_list", "positive"),
        ("[verify]\nM_list = 5, 0\n", "verify.M_list", "positive"),
    ):
        with pytest.raises(ConfigError, match=f"{what}.*key '{re.escape(key)}'"):
            config_from_text(text)
    config_from_text("[verify]\nlambda_count = 2\n")  # a sharp verdict fits no growth
    with pytest.raises(ConfigError, match="number"):
        config_from_text('[verify]\ntolerance = "big"\n')
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_text("[operator]\nm = 1\nm = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        config_from_text("[operator]\nm : 1\n")
    with pytest.raises(ConfigError, match="unterminated"):
        config_from_text('[operator]\na = "1\n')


@pytest.mark.parametrize("text, key", [
    ("[kernel]\nt_list = 0.1,,0.2\n", "t_list"),
    ("[kernel]\nt_list = ,\n", "t_list"),
    ("[verify]\nM_list = ,\n", "M_list"),
], ids=["double-comma", "lone-comma", "verify-lone-comma"])
def test_empty_list_elements_rejected(text, key):
    # list = scalar { "," scalar }: an empty element is no scalar
    with pytest.raises(ConfigError, match=f"empty element.*line 2, key '{key}'"):
        config_from_text(text)


def test_domain_length_must_match_dimension():
    with pytest.raises(ConfigError, match="domain"):
        config_from_text("[operator]\nn = 2\ndomain = 0, 1\n")


def test_lists_and_comments_parse():
    cfg = config_from_text(
        "scenario = kato\n"
        "[kato]\n"
        "lambdas = 1, 10, 100  # decades\n"
        "eps_list = 0.25, 0.75\n"
    )
    assert cfg.kato.lambdas == [1.0, 10.0, 100.0]
    assert cfg.kato.eps_list == [0.25, 0.75]


def test_kernel_pairs_must_zip():
    with pytest.raises(ConfigError, match="zip"):
        config_from_text("[kernel]\nx_list = 0, 1\ny_list = 0\n")


def test_load_config_from_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(FULL)
    cfg = load_config(p)
    assert cfg.operator.grid_n == (800,)


@pytest.mark.parametrize("text, path, words", [
    ("scenario = banana\n", "scenario", "constants, kernel, distance, kato, twist, verify"),
    ("[distance]\nmethod = geodesic\n", "distance.method", "exact1d, lattice, dM"),
    ("[verify]\ntarget = blunt\n", "verify.target", "sharp, perturbed"),
    ('[verify]\ndistance_method = "taxicab"\n', "verify.distance_method", "dM, exact, euclidean"),
])
def test_allowed_words_error_names_path_and_words(text, path, words):
    with pytest.raises(ConfigError) as info:
        config_from_text(text)
    assert info.value.key == path
    assert str(info.value).startswith(f"{path} must be one of {words} [")


def test_defaults_pinned():
    assert dataclasses.asdict(RunConfig()) == {
        "scenario": "constants",
        "operator": {"m": 1, "n": 1, "domain": ((0.0, 1.0),), "grid_n": (200,),
                     "a": "1", "potential": None},
        "kernel": {"t_list": [0.1], "x_list": [0.0], "y_list": [0.0],
                   "oracle": False},
        "distance": {"method": "exact1d", "M": 1.0, "y1_list": [0.0], "y2_list": [1.0],
                     "source": None, "lattice_n": 64},
        "kato": {"lambdas": [1.0, 10.0, 100.0, 1e3, 1e4, 1e5],
                 "eps_list": [0.1, 0.3, 0.5, 0.7, 0.9], "delta": 0.01, "vminus": None},
        "twist": {"phi": "x", "lambda_min": 2.0, "lambda_max": 20.0, "lambda_count": 40,
                  "M": 1.0},
        "verify": {"target": "sharp", "tolerance": 0.05, "t_list": [1e-3, 3e-3, 1e-2],
                   "pair_min": 0.2, "pair_max": 1.0, "pair_count": 12, "M_list": [5.0],
                   "distance_method": "dM", "delta_coeff": 0.0, "reference_a": "1",
                   "lambda_min": 20.0, "lambda_max": 200.0, "lambda_count": 40},
    }
    a, b = RunConfig(), RunConfig()
    a.kato.lambdas.append(1e6)
    assert b.kato.lambdas[-1] == 1e5  # list defaults are not shared


def test_default_expressions_checked_in_present_sections():
    config_from_text("[operator]\nn = 2\ndomain = 0, 1, 0, 1\n")  # no [twist]: phi unchecked
    with pytest.raises(ConfigError, match=r"twist\.phi"):
        config_from_text("[operator]\nn = 2\ndomain = 0, 1, 0, 1\n[twist]\nlambda_count = 4\n")


def test_readme_lists_every_key_and_allowed_words():
    section = README.read_text(encoding="utf-8").split("### Configuration files", 1)[1]
    section = section.split("\n### ", 1)[0]
    documented = {}
    for name, keys in re.findall(r"^- (?:preamble|`\[(\w+)\]`): (.*)$", section, re.M):
        for key, words in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", keys):
            documented[(name, key)] = tuple(words.split(" | ")) if words else None
    declared = {(s, k): f.metadata["choices"] for s, k, _, f in config_keys(RunConfig())}
    assert documented == declared
    example = re.search(r"```\n(scenario = .*?)```", section, re.S).group(1)
    config_from_text(example)  # the example block names only declared keys
