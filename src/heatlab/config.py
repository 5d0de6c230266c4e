"""Line-oriented run configuration: ``key = value`` pairs under ``[section]``
headers, ``#`` comments, LF or CRLF endings.

Grammar (EBNF)::

    file    = { line } ;
    line    = ws [ section | pair ] ws [ comment ] ;
    section = "[" ident "]" ;
    pair    = ident ws "=" ws value ;
    value   = string | list | scalar ;
    string  = '"' { any character except '"' } '"' ;
    list    = scalar { "," scalar } ;
    scalar  = number | ident ;
    comment = "#" { any character } ;

Values: quoted strings are taken verbatim (used for coefficient and
potential expressions), bare words are enum-like strings, numbers are IEEE
doubles, comma lists are lists of numbers.  Unknown sections or keys are
rejected with the offending line; type mismatches name the key path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

SCENARIOS = ("constants", "kernel", "distance", "kato", "twist", "verify")


class ConfigError(ValueError):
    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key '{key}'")
        super().__init__(message + (f" [{', '.join(where)}]" if where else ""))


@dataclass
class OperatorConfig:
    m: int = 1
    n: int = 1
    domain: tuple = ((0.0, 1.0),)
    grid_n: tuple = (200,)
    a: str = "1"
    potential: str | None = None


@dataclass
class KernelConfig:
    t_list: list = field(default_factory=lambda: [0.1])
    x_list: list = field(default_factory=lambda: [0.0])
    y_list: list = field(default_factory=lambda: [0.0])
    oracle: bool = False
    oracle_a: float = 1.0


@dataclass
class DistanceConfig:
    method: str = "exact1d"  # exact1d | lattice | dM
    M: float = 1.0
    y1_list: list = field(default_factory=lambda: [0.0])
    y2_list: list = field(default_factory=lambda: [1.0])
    source: list = field(default_factory=lambda: [0.5, 0.5])
    lattice_n: int = 64


@dataclass
class KatoConfig:
    lambdas: list = field(default_factory=lambda: [1.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    eps_list: list = field(default_factory=lambda: [0.1, 0.3, 0.5, 0.7, 0.9])
    delta: float = 0.01
    vminus: str | None = None  # expression; default: negative part of the potential


@dataclass
class TwistConfig:
    phi: str = "x"
    lambda_min: float = 2.0
    lambda_max: float = 20.0
    lambda_count: int = 40
    M: float = 1.0


@dataclass
class VerifyConfig:
    target: str = "sharp"  # sharp | perturbed
    tolerance: float = 0.05
    t_list: list = field(default_factory=lambda: [1e-3, 3e-3, 1e-2])
    pair_min: float = 0.2
    pair_max: float = 1.0
    pair_count: int = 12
    M_list: list = field(default_factory=lambda: [5.0])
    distance_method: str = "dM"  # dM | exact | euclidean
    delta_coeff: float = 0.0
    reference_a: str = "1"
    lambda_min: float = 20.0
    lambda_max: float = 200.0
    lambda_count: int = 40


@dataclass
class RunConfig:
    scenario: str = "constants"
    seed: int = 0
    m_query: int = 1  # constants scenario
    operator: OperatorConfig = field(default_factory=OperatorConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    distance: DistanceConfig = field(default_factory=DistanceConfig)
    kato: KatoConfig = field(default_factory=KatoConfig)
    twist: TwistConfig = field(default_factory=TwistConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _parse_scalar(tok, line_no, key):
    tok = tok.strip()
    try:
        return float(tok)
    except ValueError:
        if _IDENT.match(tok):
            return tok
        raise ConfigError(f"cannot parse value {tok!r}", line=line_no, key=key)


def parse_config_text(text):
    """Raw parse: {section: {key: value}}, section '' for the preamble."""
    data = {"": {}}
    section = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=line_no)
            section = line[1:-1].strip()
            if not _IDENT.match(section):
                raise ConfigError(f"bad section name {section!r}", line=line_no)
            data.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _IDENT.match(key):
            raise ConfigError(f"bad key {key!r}", line=line_no)
        if key in data[section]:
            raise ConfigError(f"duplicate key {key!r}", line=line_no, key=key)
        if value.startswith('"'):
            if not (len(value) >= 2 and value.endswith('"')):
                raise ConfigError("unterminated string", line=line_no, key=key)
            data[section][key] = ("str", value[1:-1], line_no)
        elif "," in value:
            toks = [t for t in value.split(",") if t.strip()]
            data[section][key] = (
                "list",
                [_parse_scalar(t, line_no, key) for t in toks],
                line_no,
            )
        else:
            data[section][key] = ("scalar", _parse_scalar(value, line_no, key), line_no)
    return data


def _take(raw, section, key, kind, default=None):
    entry = raw.get(section, {}).pop(key, None)
    if entry is None:
        return default
    tag, value, line_no = entry
    path = f"{section}.{key}" if section else key
    if kind == "float":
        if tag == "scalar" and isinstance(value, float):
            return value
        raise ConfigError("expected a number", line=line_no, key=path)
    if kind == "int":
        if tag == "scalar" and isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError("expected an integer", line=line_no, key=path)
    if kind == "word":
        if tag == "scalar" and isinstance(value, str):
            return value
        if tag == "str":
            return value
        raise ConfigError("expected a word or quoted string", line=line_no, key=path)
    if kind == "expr":
        if tag == "str":
            return value
        if tag == "scalar" and isinstance(value, float):
            return repr(value)
        raise ConfigError("expected a quoted expression or number", line=line_no, key=path)
    if kind in ("floats", "ints"):
        vals = value if tag == "list" else [value]
        if not all(isinstance(v, float) and (kind == "floats" or v.is_integer()) for v in vals):
            what = "numbers" if kind == "floats" else "integers"
            raise ConfigError(f"expected a comma list of {what}", line=line_no, key=path)
        return [int(v) for v in vals] if kind == "ints" else list(vals)
    if kind == "bool":
        if tag == "scalar" and isinstance(value, str) and value in ("true", "false"):
            return value == "true"
        raise ConfigError("expected true or false", line=line_no, key=path)
    raise AssertionError(kind)


def _reject_unknown(raw):
    for section, entries in raw.items():
        for key, (_, _, line_no) in entries.items():
            path = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown key {path!r}", line=line_no, key=path)


def config_from_text(text):
    raw = parse_config_text(text)
    cfg = RunConfig()

    scenario = _take(raw, "", "scenario", "word", default=None)
    if scenario is not None:
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}", key="scenario")
        cfg.scenario = scenario
    cfg.seed = _take(raw, "", "seed", "int", default=0)
    cfg.m_query = _take(raw, "", "m", "int", default=1)

    if "operator" in raw:
        o = cfg.operator
        o.m = _take(raw, "operator", "m", "int", o.m)
        o.n = _take(raw, "operator", "n", "int", o.n)
        dom = _take(raw, "operator", "domain", "floats", None)
        if dom is not None:
            if len(dom) != 2 * o.n:
                raise ConfigError("domain needs 2 numbers per axis", key="operator.domain")
            o.domain = tuple(
                (dom[2 * i], dom[2 * i + 1]) for i in range(o.n)
            )
        gn = _take(raw, "operator", "grid_n", "ints", None)
        if gn is not None:
            o.grid_n = tuple(gn)
            if len(o.grid_n) == 1 and o.n > 1:
                o.grid_n = o.grid_n * o.n
        o.a = _take(raw, "operator", "a", "expr", o.a)
        o.potential = _take(raw, "operator", "potential", "expr", o.potential)

    if "kernel" in raw:
        k = cfg.kernel
        k.t_list = _take(raw, "kernel", "t_list", "floats", k.t_list)
        k.x_list = _take(raw, "kernel", "x_list", "floats", k.x_list)
        k.y_list = _take(raw, "kernel", "y_list", "floats", k.y_list)
        k.oracle = _take(raw, "kernel", "oracle", "bool", k.oracle)
        k.oracle_a = _take(raw, "kernel", "oracle_a", "float", k.oracle_a)
        if len(k.x_list) != len(k.y_list):
            raise ConfigError("x_list and y_list must zip", key="kernel.x_list")

    if "distance" in raw:
        d = cfg.distance
        d.method = _take(raw, "distance", "method", "word", d.method)
        if d.method not in ("exact1d", "lattice", "dM"):
            raise ConfigError(f"unknown distance method {d.method!r}", key="distance.method")
        d.M = _take(raw, "distance", "M", "float", d.M)
        d.y1_list = _take(raw, "distance", "y1_list", "floats", d.y1_list)
        d.y2_list = _take(raw, "distance", "y2_list", "floats", d.y2_list)
        d.source = _take(raw, "distance", "source", "floats", d.source)
        d.lattice_n = _take(raw, "distance", "lattice_n", "int", d.lattice_n)
        if len(d.y1_list) != len(d.y2_list):
            raise ConfigError("y1_list and y2_list must zip", key="distance.y1_list")

    if "kato" in raw:
        c = cfg.kato
        c.lambdas = _take(raw, "kato", "lambdas", "floats", c.lambdas)
        c.eps_list = _take(raw, "kato", "eps_list", "floats", c.eps_list)
        c.delta = _take(raw, "kato", "delta", "float", c.delta)
        c.vminus = _take(raw, "kato", "vminus", "expr", c.vminus)

    if "twist" in raw:
        t = cfg.twist
        t.phi = _take(raw, "twist", "phi", "expr", t.phi)
        t.lambda_min = _take(raw, "twist", "lambda_min", "float", t.lambda_min)
        t.lambda_max = _take(raw, "twist", "lambda_max", "float", t.lambda_max)
        t.lambda_count = _take(raw, "twist", "lambda_count", "int", t.lambda_count)
        t.M = _take(raw, "twist", "M", "float", t.M)

    if "verify" in raw:
        v = cfg.verify
        v.target = _take(raw, "verify", "target", "word", v.target)
        if v.target not in ("sharp", "perturbed"):
            raise ConfigError(f"unknown verify target {v.target!r}", key="verify.target")
        v.tolerance = _take(raw, "verify", "tolerance", "float", v.tolerance)
        v.t_list = _take(raw, "verify", "t_list", "floats", v.t_list)
        v.pair_min = _take(raw, "verify", "pair_min", "float", v.pair_min)
        v.pair_max = _take(raw, "verify", "pair_max", "float", v.pair_max)
        v.pair_count = _take(raw, "verify", "pair_count", "int", v.pair_count)
        v.M_list = _take(raw, "verify", "M_list", "floats", v.M_list)
        v.distance_method = _take(raw, "verify", "distance_method", "word", v.distance_method)
        if v.distance_method not in ("dM", "exact", "euclidean"):
            raise ConfigError("distance_method must be dM, exact or euclidean",
                              key="verify.distance_method")
        v.delta_coeff = _take(raw, "verify", "delta_coeff", "float", v.delta_coeff)
        v.reference_a = _take(raw, "verify", "reference_a", "expr", v.reference_a)
        v.lambda_min = _take(raw, "verify", "lambda_min", "float", v.lambda_min)
        v.lambda_max = _take(raw, "verify", "lambda_max", "float", v.lambda_max)
        v.lambda_count = _take(raw, "verify", "lambda_count", "int", v.lambda_count)

    sections_present = {s for s in raw if s}
    _reject_unknown(raw)
    _validate_expressions(cfg, sections_present)
    return cfg


def _validate_expressions(cfg, sections_present):
    from . import exprlang

    n = cfg.operator.n
    checks = [("operator.a", cfg.operator.a),
              ("operator.potential", cfg.operator.potential)]
    if "twist" in sections_present:
        checks.append(("twist.phi", cfg.twist.phi))
    if "verify" in sections_present:
        checks.append(("verify.reference_a", cfg.verify.reference_a))
    if "kato" in sections_present:
        checks.append(("kato.vminus", cfg.kato.vminus))
    for label, text in checks:
        if text is None:
            continue
        try:
            exprlang.parse(text, n)
        except exprlang.ParseError as exc:
            raise ConfigError(f"bad expression in {label}: {exc}", key=label) from exc


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())
