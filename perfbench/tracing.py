"""Per-layer tracing from outside the program.

:class:`Tracer` replaces functions of ``heatlab`` (and the dense LAPACK
entry points beneath it) with wrappers, at every module attribute that is
bound to the original object, so ``heatlab.cli.distance_dm_1d`` and
``heatlab.experiments.distance_dm_1d`` are traced as well as
``heatlab.finsler.distance_dm_1d``.  Methods are wrapped on their class.
:meth:`Tracer.restore` puts every binding back.

A *span* wrapper times the call and charges the time to its caller's child
time, so a layer's self time is its span time minus the time of the traced
spans it called directly.  A *count* wrapper only counts calls, under its own key; it is used
on functions called hundreds of thousands of times per pass, where timing
each call would dominate the cost.  Spans and counts stay in memory until
:func:`layer_metrics` reads them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

import workloads


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)   # span name -> inclusive time
        self.child = defaultdict(float)     # span name -> time in traced callees
        self.counts = Counter()             # "<name>.calls" and derived counts
        self._stack = []                    # child time of each open span
        self._active = Counter()            # open spans per name (recursion)
        self._patches = []                  # (owner, attr, original, had_own_attr)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            outermost = tracer._active[name] == 0
            tracer._active[name] += 1
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._active[name] -= 1
                tracer.counts[f"{name}.calls"] += 1
                if outermost:
                    tracer.seconds[name] += dt
                    tracer.child[name] += frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr, name, kind="span", after=None):
        """Wrap ``module.attr`` there and at every ``heatlab`` module binding of it."""
        home = importlib.import_module(module)
        original = getattr(home, attr)
        wrapped = (self._span(name, original, after) if kind == "span"
                   else self._count(name, original))
        owners = [home] + [mod for key, mod in sorted(sys.modules.items())
                           if (key == "heatlab" or key.startswith("heatlab.")) and mod is not home]
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def wrap_method(self, cls, attr, name, kind="span"):
        original = getattr(cls, attr)
        self._set(cls, attr, self._span(name, original) if kind == "span"
                  else self._count(name, original))

    def restore(self):
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- readout -----------------------------------------------------------

    def span_s(self, name):
        return self.seconds.get(name, 0.0)

    def self_s(self, name):
        return self.seconds.get(name, 0.0) - self.child.get(name, 0.0)


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def _dm_after(counts, args, kwargs, result):
    counts["finsler.distance_dm_1d.iterations"] += int(result.iterations)
    counts["finsler.distance_dm_1d.unconverged"] += int(not result.converged)


def _assemble_after(counts, args, kwargs, result):
    counts["discretize.assemble.nodes"] += int(result.grid.node_count)


def _write_csv_after(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["reporting.write_csv.bytes"] += os.path.getsize(path)


def _operand(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _eigh_after(counts, args, kwargs, result):
    a = _operand(args, kwargs, 0, "a")
    n = int(a.shape[0])
    counts["lapack.eigh.n3"] += n ** 3
    counts["lapack.bytes"] += 8 * n * n


def _eig_banded_after(counts, args, kwargs, result):
    counts["lapack.bytes"] += 8 * int(_operand(args, kwargs, 0, "a_band").size)


def _solve_after(counts, args, kwargs, result):
    for pos, key in ((0, "a"), (1, "b")):
        counts["lapack.bytes"] += 8 * int(_operand(args, kwargs, pos, key).size)


# (module, attribute, span name or counter key, kind, after-hook)
FUNCTIONS = (
    ("heatlab.cli", "main", "cli.main", "span", None),
    ("heatlab.config", "load_config", "config.load_config", "span", None),
    ("heatlab.reporting", "write_csv", "reporting.write_csv", "span", _write_csv_after),
    ("heatlab.experiments", "verify_sharp_bound", "experiments.verify", "span", None),
    ("heatlab.experiments", "verify_perturbed_bound", "experiments.verify", "span", None),
    ("heatlab.experiments", "fit_gaussian_exponent", "experiments.fit_gaussian_exponent",
     "span", None),
    ("heatlab.discretize", "assemble", "discretize.assemble", "span", _assemble_after),
    ("heatlab.heatkernel", "eigendecompose", "heatkernel.eigendecompose", "span", None),
    ("heatlab.heatkernel", "spectral_field", "heatkernel.spectral_field", "span", None),
    ("heatlab.heatkernel", "fourier_oracle", "heatkernel.fourier_oracle", "span", None),
    ("heatlab.finsler", "distance_dm_1d", "finsler.distance_dm_1d", "span", _dm_after),
    ("heatlab.finsler", "distance_lattice_2d", "finsler.distance_lattice_2d", "span", None),
    ("heatlab.symbols", "eval_symbol", "symbols.eval_symbol.calls", "count", None),
    ("heatlab.symbols", "is_strongly_convex", "symbols.is_strongly_convex", "span", None),
    ("heatlab.twist", "growth_fit", "twist.growth_fit", "span", None),
    ("heatlab.twist", "lower_bound_k", "twist.lower_bound_k", "span", None),
    ("heatlab.kato", "form_bound", "kato.form_bound", "span", None),
    ("heatlab.kato", "kato_norm", "kato.kato_norm", "span", None),
    ("heatlab.kato", "weighted_l2_check", "kato.weighted_l2_check", "span", None),
    ("heatlab.kato", "miyadera_ratio", "kato.miyadera_ratio", "span", None),
    ("scipy.linalg", "eigh", "lapack.eigh", "span", _eigh_after),
    ("scipy.linalg", "eig_banded", "lapack.eig_banded", "span", _eig_banded_after),
    ("numpy.linalg", "solve", "lapack.solve", "span", _solve_after),
)

# bindings the callers use, which must all be wrapped (checked by install)
REQUIRED_BINDINGS = (
    ("heatlab.finsler", "distance_dm_1d"),
    ("heatlab.experiments", "distance_dm_1d"),
    ("heatlab.cli", "distance_dm_1d"),
    ("heatlab.symbols", "eval_symbol"),
    ("heatlab.finsler", "eval_symbol"),
    ("heatlab.twist", "eval_symbol"),
)


def install(tracer):
    """Wrap every traced function; the caller restores via ``tracer.restore``."""
    import heatlab.cli  # noqa: F401  (loads every module whose bindings are patched)
    from heatlab.finsler import LengthElement
    from heatlab.symbols import ExprField

    for module, attr, name, kind, after in FUNCTIONS:
        tracer.wrap_function(module, attr, name, kind, after)
    tracer.wrap_method(LengthElement, "__call__", "finsler.length_element")
    # exprlang.evaluate recurses over the tree; count point evaluations instead
    tracer.wrap_method(ExprField, "at", "exprlang.point_evals", kind="count")
    for module, attr in REQUIRED_BINDINGS:
        fn = getattr(importlib.import_module(module), attr)
        if getattr(fn, "__wrapped__", None) is None:
            raise RuntimeError(f"{module}.{attr} was not wrapped")


# ---------------------------------------------------------------------------
# per-layer metrics: name, unit, workloads on which the layer must read nonzero
# (where the benchmark's layer-to-workload mapping says the layer does work)
# ---------------------------------------------------------------------------

_ALL = workloads.WORKLOADS
_V, _S, _D = _ALL

LAYER_METRICS = (
    ("finsler.distance_dm_1d.s", "s", (_V, _D)),
    ("finsler.distance_dm_1d.calls", "count", (_V, _D)),
    ("finsler.distance_dm_1d.iterations", "count", (_V, _D)),
    ("finsler.distance_dm_1d.unconverged", "count", ()),
    ("finsler.distance_lattice_2d.s", "s", (_D,)),
    ("finsler.distance_lattice_2d.self_s", "s", (_D,)),
    ("finsler.length_element.calls", "count", (_D,)),
    ("finsler.length_element.s", "s", (_D,)),
    ("symbols.eval_symbol.calls", "count", (_D,)),
    ("exprlang.point_evals", "count", (_D,)),
    ("symbols.is_strongly_convex.s", "s", (_V,)),
    ("twist.growth_fit.s", "s", (_S, _V)),
    ("twist.lower_bound_k.s", "s", (_S, _V)),
    ("twist.lower_bound_k.calls", "count", (_S, _V)),
    ("kato.form_bound.s", "s", (_S,)),
    ("kato.kato_norm.s", "s", (_S,)),
    ("kato.kato_norm.calls", "count", (_S,)),
    ("kato.weighted_l2_check.s", "s", (_S,)),
    ("kato.miyadera_ratio.s", "s", (_S,)),
    ("heatkernel.eigendecompose.s", "s", (_S, _V)),
    ("heatkernel.eigendecompose.calls", "count", (_S, _V)),
    ("heatkernel.spectral_field.s", "s", (_S, _V)),
    ("heatkernel.fourier_oracle.s", "s", (_S,)),
    ("heatkernel.fourier_oracle.calls", "count", (_S,)),
    ("lapack.eigh.calls", "count", (_S,)),
    ("lapack.eigh.s", "s", (_S,)),
    ("lapack.eigh.n3", "count", (_S,)),
    ("lapack.eig_banded.calls", "count", (_S,)),
    ("lapack.eig_banded.s", "s", (_S,)),
    ("lapack.solve.calls", "count", (_S,)),
    ("lapack.solve.s", "s", (_S,)),
    ("lapack.bytes", "B", (_S,)),
    ("discretize.assemble.s", "s", (_S, _V)),
    ("discretize.assemble.calls", "count", (_S, _V)),
    ("discretize.assemble.nodes", "count", (_S, _V)),
    ("experiments.verify.s", "s", (_V,)),
    ("experiments.verify.self_s", "s", (_V,)),
    ("experiments.fit_gaussian_exponent.s", "s", (_V,)),
    ("config.load_config.s", "s", _ALL),
    ("cli.main.s", "s", _ALL),
    ("cli.main.self_s", "s", _ALL),
    ("reporting.write_csv.s", "s", _ALL),
    ("reporting.write_csv.bytes", "B", _ALL),
    ("reporting.files_identical", "count", ()),
    ("trace.untraced_pass_s", "s", _ALL),
    ("trace.traced_pass_s", "s", _ALL),
    ("trace.overhead_s", "s", ()),
)

SCENARIO_NAMES = {wl: tuple(sc.name for sc in workloads.scenarios(wl, 0)) for wl in _ALL}

# work counts that depend on problem sizes only, never on the seed
WORK_COUNTS = (
    "finsler.distance_dm_1d.calls",
    "finsler.length_element.calls", "symbols.eval_symbol.calls", "exprlang.point_evals",
    "twist.lower_bound_k.calls", "kato.kato_norm.calls", "heatkernel.eigendecompose.calls",
    "heatkernel.fourier_oracle.calls", "lapack.eigh.calls", "lapack.eigh.n3",
    "lapack.eig_banded.calls", "lapack.solve.calls", "lapack.bytes",
    "discretize.assemble.calls", "discretize.assemble.nodes",
)


def all_metric_names():
    names = [name for name, _, _ in LAYER_METRICS]
    names += [f"scenario.{wl}.{sc}.s" for wl in _ALL for sc in SCENARIO_NAMES[wl]]
    return names


def unit(name):
    for metric, u, _ in LAYER_METRICS:
        if metric == name:
            return u
    return "s"  # scenario.<workload>.<name>.s


def expected_nonzero(workload):
    names = [name for name, _, where in LAYER_METRICS if workload in where]
    return names + [f"scenario.{workload}.{sc}.s" for sc in SCENARIO_NAMES[workload]]


def layer_metrics(tracer, files_identical):
    """Every per-layer metric from a finished traced pass, zero where unused."""
    out = {}
    for name, _, _ in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field == "s":
            out[name] = tracer.span_s(base)
        elif field == "self_s":
            out[name] = tracer.self_s(base)
        else:
            out[name] = tracer.counts[name]
    out["reporting.files_identical"] = files_identical
    return out
