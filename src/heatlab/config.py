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

The dataclasses below are the schema: each settable field is declared once
with :func:`_key`, which records its value kind, default and allowed words,
and :func:`config_from_text` reads every key, named as its field, from that
record.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

SCENARIOS = ("constants", "kernel", "distance", "kato", "twist", "verify")
DISTANCE_METHODS = ("exact1d", "lattice", "dM")


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


def _key(kind, default, choices=None):
    """A settable key, named in the file as its field: its value kind (see
    :func:`_take`), its default and its allowed words."""
    meta = {"kind": kind, "choices": choices}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class OperatorConfig:
    m: int = _key("int", 1)
    n: int = _key("int", 1)
    domain: tuple = _key("floats", ((0.0, 1.0),))  # the file gives lo, hi per axis
    grid_n: tuple = _key("ints", (200,))  # one count applies to every axis
    a: str = _key("expr", "1")
    potential: str | None = _key("expr", None)


@dataclass
class KernelConfig:
    t_list: list = _key("floats", [0.1])
    x_list: list = _key("floats", [0.0])
    y_list: list = _key("floats", [0.0])
    oracle: bool = _key("bool", False)  # also tabulate the whole-line kernel of the constant a


@dataclass
class DistanceConfig:
    method: str = _key("word", "exact1d", DISTANCE_METHODS)
    M: float = _key("float", 1.0)
    y1_list: list = _key("floats", [0.0])
    y2_list: list = _key("floats", [1.0])
    source: list | None = _key("floats", None)  # None: the domain centre
    lattice_n: int = _key("int", 64)


@dataclass
class KatoConfig:
    lambdas: list = _key("floats", [1.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    eps_list: list = _key("floats", [0.1, 0.3, 0.5, 0.7, 0.9])
    delta: float = _key("float", 0.01)
    vminus: str | None = _key("expr", None)  # default: negative part of the potential


@dataclass
class TwistConfig:
    phi: str = _key("expr", "x")
    lambda_min: float = _key("float", 2.0)
    lambda_max: float = _key("float", 20.0)
    lambda_count: int = _key("int", 40)
    M: float = _key("float", 1.0)


@dataclass
class VerifyConfig:
    target: str = _key("word", "sharp", ("sharp", "perturbed"))
    tolerance: float = _key("float", 0.05)
    t_list: list = _key("floats", [1e-3, 3e-3, 1e-2])
    pair_min: float = _key("float", 0.2)
    pair_max: float = _key("float", 1.0)
    pair_count: int = _key("int", 12)
    M_list: list = _key("floats", [5.0])
    distance_method: str = _key("word", "dM", ("dM", "exact", "euclidean"))
    delta_coeff: float = _key("float", 0.0)
    reference_a: str = _key("expr", "1")
    lambda_min: float = _key("float", 20.0)
    lambda_max: float = _key("float", 200.0)
    lambda_count: int = _key("int", 40)


@dataclass
class RunConfig:
    scenario: str = _key("word", "constants", SCENARIOS)
    operator: OperatorConfig = field(default_factory=OperatorConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    distance: DistanceConfig = field(default_factory=DistanceConfig)
    kato: KatoConfig = field(default_factory=KatoConfig)
    twist: TwistConfig = field(default_factory=TwistConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)


def config_keys(cfg):
    """Every settable key as ``(section, name, owner, field)``: the preamble
    (section ``''``), then each ``RunConfig`` field that is a dataclass."""
    owners = [("", cfg)] + [(f.name, getattr(cfg, f.name)) for f in fields(cfg)
                            if is_dataclass(getattr(cfg, f.name))]
    for section, owner in owners:
        for f in fields(owner):
            if "kind" in f.metadata:
                yield section, f.name, owner, f


def _path(section, key):
    return f"{section}.{key}" if section else key


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
    """Raw parse: {section: {key: value}}, section '' for the preamble; a
    section the schema does not declare is rejected at its header."""
    sections = {section for section, *_ in config_keys(RunConfig())}
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
            if section not in sections:
                raise ConfigError(f"unknown section {section!r}", line=line_no)
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
            toks = value.split(",")
            if not all(t.strip() for t in toks):
                raise ConfigError("empty element in a comma list", line=line_no, key=key)
            data[section][key] = ("list", [_parse_scalar(t, line_no, key) for t in toks], line_no)
        else:
            data[section][key] = ("scalar", _parse_scalar(value, line_no, key), line_no)
    return data


def _take(raw, section, key, kind, default=None, choices=None):
    entry = raw.get(section, {}).pop(key, None)
    if entry is None:
        return default
    tag, value, line_no = entry
    path = _path(section, key)
    if kind == "float":
        if tag == "scalar" and isinstance(value, float):
            return value
        raise ConfigError("expected a number", line=line_no, key=path)
    if kind == "int":
        if tag == "scalar" and isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError("expected an integer", line=line_no, key=path)
    if kind == "word":
        if tag == "str" or (tag == "scalar" and isinstance(value, str)):
            if choices is None or value in choices:
                return value
            raise ConfigError(f"{path} must be one of {', '.join(choices)}",
                              line=line_no, key=path)
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
            path = _path(section, key)
            raise ConfigError(f"unknown key {path!r}", line=line_no, key=path)


def config_from_text(text):
    from . import exprlang
    from .twist import FIT_MIN_POINTS

    raw = parse_config_text(text)
    cfg = RunConfig()
    keys = [k for k in config_keys(cfg) if k[0] in raw]  # preamble and present sections
    for section, key, owner, f in keys:
        value = _take(raw, section, key, f.metadata["kind"], getattr(owner, f.name),
                      f.metadata["choices"])
        setattr(owner, f.name, value)

    o = cfg.operator
    if isinstance(o.domain, list):  # read from the file
        if len(o.domain) != 2 * o.n:
            raise ConfigError("domain needs 2 numbers per axis", key="operator.domain")
        o.domain = tuple(zip(o.domain[::2], o.domain[1::2]))
    elif len(o.domain) != o.n:  # the one-axis default
        raise ConfigError("domain needs 2 numbers per axis; the default has one axis",
                          key="operator.domain")
    if isinstance(o.grid_n, list):
        if len(o.grid_n) not in (1, o.n):
            raise ConfigError(f"expected a comma list of 1 or {o.n} integers",
                              key="operator.grid_n")
        o.grid_n = tuple(o.grid_n) * (o.n if len(o.grid_n) == 1 else 1)
    if len(cfg.kernel.x_list) != len(cfg.kernel.y_list):
        raise ConfigError("x_list and y_list must zip", key="kernel.x_list")
    if len(cfg.distance.y1_list) != len(cfg.distance.y2_list):
        raise ConfigError("y1_list and y2_list must zip", key="distance.y1_list")
    lams = cfg.kato.lambdas
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("lambdas must be strictly increasing", key="kato.lambdas")
    if not cfg.kato.delta > 0:
        raise ConfigError("delta must be positive", key="kato.delta")
    if not all(0.0 < eps < 1.0 for eps in cfg.kato.eps_list):
        raise ConfigError("every eps must lie in (0, 1)", key="kato.eps_list")
    for section, sweep in (("twist", cfg.twist), ("verify", cfg.verify)):
        if section == "twist" or sweep.target == "perturbed":  # the sweeps growth_fit fits
            if not sweep.lambda_min > 0:
                raise ConfigError("lambda_min must be positive", key=f"{section}.lambda_min")
            if not sweep.lambda_max >= 10 * sweep.lambda_min:
                raise ConfigError("the lambda grid must span at least one decade",
                                  key=f"{section}.lambda_max")
            lams = np.geomspace(sweep.lambda_min, sweep.lambda_max, sweep.lambda_count)
            fitted = np.count_nonzero(lams >= sweep.lambda_max / 10.0)
            if fitted < FIT_MIN_POINTS:
                raise ConfigError(f"the fitted top decade holds {fitted} lambdas; the fit "
                                  f"needs {FIT_MIN_POINTS} or more", key=f"{section}.lambda_count")
    if cfg.verify.target == "perturbed" and not cfg.verify.delta_coeff > 0:
        raise ConfigError("the perturbed target needs delta_coeff > 0", key="verify.delta_coeff")
    for path, values in (("kernel.t_list", cfg.kernel.t_list),
                         ("verify.t_list", cfg.verify.t_list), ("verify.M_list", cfg.verify.M_list)):
        if not all(v > 0 for v in values):
            raise ConfigError("every value must be positive", key=path)
    _reject_unknown(raw)

    # defaults too: twist.phi = "x" does not parse when n = 2
    for section, key, owner, f in keys:
        text = getattr(owner, f.name)
        if f.metadata["kind"] == "expr" and text is not None:
            try:
                exprlang.parse(text, o.n)
            except exprlang.ParseError as exc:
                path = _path(section, key)
                raise ConfigError(f"bad expression in {path}: {exc}", key=path) from exc
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())
