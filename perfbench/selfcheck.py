#!/usr/bin/env python3
"""Self-check of the benchmark's generator, metric list and tracer.

Run from the root of a checkout: ``python3 perfbench/selfcheck.py``.  It
checks that

* seed 0 reproduces the stock config texts byte for byte: ``STOCK`` in
  ``scripts/run_sharp_bound.py`` and the criterion-8 config in
  ``tests/test_acceptance.py``;
* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` emits;
* seeds 1 and 2 give identical work counts (``tracing.WORK_COUNTS``
  and the lattice sizes), scenario by scenario.  A scenario stopped by the
  known ``d_M`` solver defect computes fewer pairs, so it is reported and
  left out of the comparison;
* every traced binding is restored afterwards.

Exits 1 on the first failed check.
"""

import ast
import importlib.util
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def _stock_texts(root):
    spec = importlib.util.spec_from_file_location(
        "run_sharp_bound", os.path.join(root, "scripts", "run_sharp_bound.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    texts = dict(mod.STOCK)
    with open(os.path.join(root, "tests", "test_acceptance.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for fn in ast.walk(tree):
        if getattr(fn, "name", "") != "test_criterion_8_perturbation_stability":
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "config_from_text"
                    and isinstance(node.args[0], ast.Constant)):
                texts["perturbed"] = node.args[0].value
    return texts


def check_stock(root, workloads):
    stock = _stock_texts(root)
    if "perturbed" not in stock:
        _fail("criterion-8 config not found in tests/test_acceptance.py")
    generated = {sc.name: sc.text for sc in workloads.scenarios("verify", 0)}
    for name, text in stock.items():
        if generated.get(name) != text:
            _fail(f"seed 0 config {name!r} differs from the stock text")
    print(f"ok   seed 0 reproduces {', '.join(sorted(stock))} byte for byte")


def check_metric_list(root, tracing):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    if end_to_end != ["setup_s", "pass_s", "peak_rss_mb"]:
        _fail(f"BENCHMARK.json end_to_end is {end_to_end}")
    per_layer = [m["name"] for m in bench["per_layer"]]
    if per_layer != tracing.all_metric_names():
        _fail("BENCHMARK.json per_layer differs from tracing.all_metric_names()")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    bad = [n for n in per_layer if units[n] != tracing.unit(n)]
    if bad:
        _fail(f"unit mismatch for {bad}")
    print(f"ok   BENCHMARK.json lists the {len(per_layer)} per-layer metrics run.py emits")


def scenario_work(root, run, checks, tracing, cli, workload, seed):
    """{scenario: work counts} for one seed, tracing each scenario alone."""
    scenarios, workdir, _ = run.prepare(root, workload, seed)
    runner = run.Runner(cli, checks, scenarios, workdir)
    prior, work, stopped = {}, {}, set()
    for sc in scenarios:
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            runner.run_scenario(sc, prior)
        finally:
            tracer.restore()
        counts = {name: tracer.counts[name] for name in tracing.WORK_COUNTS}
        if "nodes" in prior.get(sc.key, {}):
            counts["lattice.nodes"] = prior[sc.key]["nodes"]
        work[sc.name] = counts
        if any(key == sc.key for key, _ in runner.failed):
            stopped.add(sc.name)
    if runner.incorrect:
        _fail(f"{workload} seed {seed}: {runner.incorrect}")
    return work, stopped


def _bindings(tracing):
    """Every attribute of the heatlab modules, the traced classes and the
    traced outside modules, keyed by (owner, name)."""
    from heatlab.finsler import LengthElement
    from heatlab.symbols import ExprField

    owners = [m for k, m in sys.modules.items() if k == "heatlab" or k.startswith("heatlab.")]
    owners += [importlib.import_module(mod) for mod, _, _, _, _ in tracing.FUNCTIONS]
    owners += [LengthElement, ExprField]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def main():
    root = os.getcwd()
    seeds = (1, 2)
    sys.path.insert(0, HERE)
    import run

    run.configure(root)
    import checks
    import heatlab.cli as cli
    import tracing
    import workloads

    check_stock(root, workloads)
    check_metric_list(root, tracing)

    before = _bindings(tracing)
    for workload in workloads.WORKLOADS:
        (wa, sa), (wb, sb) = (scenario_work(root, run, checks, tracing, cli, workload, s)
                              for s in seeds)
        for name in wa:
            stopped = [str(s) for s, st in zip(seeds, (sa, sb)) if name in st]
            if stopped:
                print(f"skip {workload}.{name}: stopped by the known d_M solver defect "
                      f"at seed {', '.join(stopped)}")
                continue
            diff = {k: (wa[name][k], wb[name].get(k)) for k in wa[name]
                    if wa[name][k] != wb[name].get(k)}
            if diff:
                _fail(f"{workload}.{name}: work counts differ between seeds {seeds}: {diff}")
            busy = {k: v for k, v in wa[name].items() if v}
            print(f"ok   {workload}.{name}: identical work counts at seeds {seeds}: {busy}")
    after = _bindings(tracing)
    if before.keys() != after.keys() or any(before[k] is not after[k] for k in before):
        _fail("a traced binding was not restored")
    print("ok   every traced binding restored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
