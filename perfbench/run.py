#!/usr/bin/env python3
"""heatlab benchmark: three CLI workloads driven through ``heatlab.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify|spectral|distance \\
        --seed N --seconds S --trace 0|1

All three workloads on the stock inputs::

    for w in verify spectral distance; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 35 --trace 0
    done

One process per workload, closed loop with one client: each scenario's
``heatlab`` invocation starts when the previous one has returned.  The
program gets only the generated config files (see ``workloads.py``); every
output is checked (see ``checks.py``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median time, over several fresh processes, to import
  ``heatlab.cli``, load every config of the workload and run one small dense
  ``eigh`` (the first LAPACK call pays a one-off cost CLI users pay on every
  invocation);
* ``pass_s``: median time of one pass over the workload's scenarios; passes
  repeat while the next one is expected to end within ``--seconds`` (at
  least one);
* ``peak_rss_mb``: peak resident memory of this process through set-up and
  its first pass (later passes reuse freed memory but fragment it, so
  their few extra MB would depend on how many passes fit in ``--seconds``).

Both times are wall times scaled to a fixed reference speed of the host by
a probe that runs beside the timed work on the same core (see
``speed.py``), because the speed of a shared host drifts by more than the
metrics' bounds within minutes.  Each set-up process and each scenario is
scaled by the speed measured over its own run.  The summary prints the
unscaled wall medians too, and ``result.json`` keeps the unscaled scenario
times of every pass.

``failed_frac`` (failed over attempted scenarios) is printed in the summary
above the result and carried by ``attempted`` and ``failed``; it is not a
metric of its own, because it is zero on ``verify`` and ``spectral``.  A scenario
fails when it raises, exits nonzero or fails its output check.  ``correct``
is false when a check fails or a scenario fails in any other way than the
known ``d_M`` solver defect (ROADMAP item 2): exit 2 of ``dm-m3-tight`` with
the solver's message, which is counted as failed.

``--trace 1`` runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced pass (see ``tracing.py``), the untraced
per-scenario times and the tracing overhead, all in unscaled wall time.

Configs, outputs and ``result.json`` (metrics, per-pass scenario times,
failures and the environment record) go to ``.perfbench_run/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
# ROADMAP item 2: the iterative d_M solver does not converge for one pair of
# dm-m3-tight and the CLI exits 2.  Only that exit of that scenario is known.
KNOWN_DEFECT = ("distance.dm-m3-tight", 2, "capped-distance solver failed")
BLAS_THREADS = "1"


def configure(root):
    """Pin BLAS threads and make ``heatlab`` (from ``src``) and the benchmark
    modules importable.  Call before numpy is imported."""
    # one BLAS thread: as fast as two on these problem sizes on a 2-core
    # machine, and a pass no longer waits on the busier of two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Runs passes over a workload's scenarios and tallies their outcomes.

    ``reference`` (seed 0 only) maps scenario keys to the committed seed-0
    values; a value that moved beyond the checker's tolerance fails the
    scenario like any other check.  With a ``speed`` (a running
    :class:`speed.Speedometer`), pass times are scaled to its reference
    speed.
    """

    def __init__(self, cli, checks, scenarios, workdir, reference=None, speed=None):
        self.cli, self.checks = cli, checks
        self.scenarios, self.workdir, self.reference = scenarios, workdir, reference
        self.speed = speed
        self.wall_passes = []  # {scenario: unscaled seconds} per pass
        self.attempted = 0
        self.failed = []       # (scenario key, reason)
        self.incorrect = []    # failures other than the known defect
        self.files = {}        # scenario key -> {file: sha256} (last pass)

    def _fail(self, sc, reason, known=False):
        self.failed.append((sc.key, reason))
        if not known:
            self.incorrect.append((sc.key, reason))

    def run_scenario(self, sc, prior):
        """Run one scenario through the CLI; returns its wall time in seconds."""
        outdir = os.path.join(self.workdir, sc.name)
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [sc.command, "--config", os.path.join(self.workdir, f"{sc.name}.cfg"),
                "--out", outdir]
        err = io.StringIO()
        self.attempted += 1
        gc.collect()  # start each scenario without the previous one's garbage
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception as exc:  # a raising scenario is a failure, not a crash of the bench
            self._fail(sc, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        if code != 0:
            text = err.getvalue()
            key, known_code, known_text = KNOWN_DEFECT
            self._fail(sc, f"exit {code}: {text.strip().splitlines()[-1:]}",
                       known=sc.key == key and code == known_code and known_text in text)
            return dt
        checks = self.checks
        try:
            prior[sc.key] = checks.check_scenario(sc, outdir, prior)
            if self.reference is not None:
                checks.compare_reference(self.reference.get(sc.key, {}).get("values", {}),
                                         prior[sc.key])
        except checks.CheckFailed as exc:
            self._fail(sc, f"check: {exc}")
            return dt
        self.files[sc.key] = {f: checks.sha256_of(os.path.join(outdir, f))
                              for f in checks.output_files(outdir)}
        return dt

    def run_pass(self):
        """One closed-loop pass; returns ({scenario: seconds}, {key: checked values})."""
        prior, times, wall = {}, {}, {}
        for sc in self.scenarios:
            mark = self.speed.mark() if self.speed else None
            wall[sc.name] = self.run_scenario(sc, prior)
            times[sc.name] = (self.speed.scaled(wall[sc.name], mark) if self.speed
                              else wall[sc.name])
        self.wall_passes.append(wall)
        return times, prior


def measure_setup(root, config_paths, env, speed):
    """Medians of the scaled and of the wall times of SETUP_REPEATS fresh
    set-up processes."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               *config_paths], cwd=root,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        wall.append(time.perf_counter() - t0)
        scaled.append(speed.scaled(wall[-1], mark))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(scaled), statistics.median(wall)


def prepare(root, workload, seed):
    """Write the workload's configs to a fresh work directory."""
    import workloads

    scenarios = workloads.scenarios(workload, seed)
    workdir = os.path.join(root, ".perfbench_run", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    paths = []
    for sc in scenarios:
        path = os.path.join(workdir, f"{sc.name}.cfg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(sc.text)
        paths.append(path)
    return scenarios, workdir, paths


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _emit(runner, metrics):
    print(json.dumps({"correct": not runner.incorrect, "attempted": runner.attempted,
                      "failed": len(runner.failed), "metrics": metrics}))


def _summary(runner, checks, env_record):
    print("environment: " + json.dumps(env_record, sort_keys=True))
    frac = len(runner.failed) / max(1, runner.attempted)
    print(f"failed_frac: {frac:.4f} ({len(runner.failed)}/{runner.attempted} scenarios)")
    for key, reason in runner.failed:
        known = "" if (key, reason) in runner.incorrect else " [known defect]"
        print(f"  failed {key}: {reason}{known}")
    tight = checks.MONOTONE_PAIR[0]
    if any(sc.key == tight for sc in runner.scenarios) and tight not in runner.files:
        print(f"note: the d_M monotonicity check d_1 <= d_5 did not run: {tight} "
              "produced no checked output")


def main(argv=None):
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heatlab", "cli.py")):
        print("error: run from the root of a heatlab checkout (src/heatlab not found)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    configure(root)
    import checks
    import envinfo
    import setup_probe
    import speed

    try:
        scenarios, workdir, paths = prepare(root, args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env_record = envinfo.record(BLAS_THREADS)   # before the speedometer pins this process
    with contextlib.nullcontext() if args.trace else speed.Speedometer() as meter:
        setup = None if args.trace else measure_setup(root, paths, env, meter)
        # warm this process as the set-up processes are warmed, so the timed
        # passes do not pay import and first-LAPACK-call costs
        setup_probe.warm(paths)
        import heatlab.cli as cli

        reference = checks.load_reference()
        runner = Runner(cli, checks, scenarios, workdir,
                        reference if args.seed == 0 else None, meter)
        if args.trace:
            passes, metrics = _traced_run(runner, reference, args.workload)
            if metrics is None:
                return 3
        else:
            passes, metrics = _timed_run(runner, setup, args.seconds)

    _summary(runner, checks, env_record)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env_record, "metrics": metrics, "passes": passes,
                   "wall_passes": runner.wall_passes,
                   "failed": runner.failed}, fh, indent=1)
    _emit(runner, metrics)
    return 0


def _timed_run(runner, setup, seconds):
    """Passes while the next one is expected to end within ``seconds``.
    Returns the passes' scaled scenario times and the end-to-end metrics."""
    passes = []   # {scenario: seconds} per pass
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass()[0])
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = statistics.median(sum(p.values()) for p in runner.wall_passes)
        if time.perf_counter() - start + wall > seconds:
            break
    totals = [sum(p.values()) for p in passes]
    setup_s, setup_wall_s = setup
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": statistics.median(totals), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    q1, q3 = _quartiles(totals)
    print(f"setup_s: {setup_s:.4f} s (median of {SETUP_REPEATS} fresh processes; "
          f"wall {setup_wall_s:.4f} s)")
    print(f"pass_s: median {metrics['pass_s']['value']:.4f} s, quartiles "
          f"{q1:.4f}..{q3:.4f} s, n={len(totals)}; wall median {wall:.4f} s")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    return passes, metrics


def _traced_run(runner, reference, workload):
    """One untraced and one traced pass.  Returns the two passes' scenario
    times and the per-layer metrics, or None for the metrics when a layer the
    workload exercises reads zero."""
    import tracing

    untraced = runner.run_pass()[0]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        traced = runner.run_pass()[0]
    finally:
        tracer.restore()
    identical = sum(
        1
        for key, files in runner.files.items()
        for name, digest in files.items()
        if reference.get(key, {}).get("sha256", {}).get(name) == digest
    )
    values = tracing.layer_metrics(tracer, identical)
    for wl, names in tracing.SCENARIO_NAMES.items():
        for name in names:
            values[f"scenario.{wl}.{name}.s"] = untraced.get(name, 0.0) if wl == workload else 0.0
    untraced_s, traced_s = sum(untraced.values()), sum(traced.values())
    values["trace.untraced_pass_s"] = untraced_s
    values["trace.traced_pass_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    print(f"tracing overhead: {traced_s - untraced_s:.4f} s "
          f"(traced pass {traced_s:.4f} s, untraced pass {untraced_s:.4f} s)")
    zero = [name for name in tracing.expected_nonzero(workload) if values.get(name, 0) == 0]
    if zero:
        print(f"error: traced layers read zero on {workload}: {', '.join(zero)}",
              file=sys.stderr)
        return [untraced, traced], None
    return [untraced, traced], {name: {"value": values[name], "unit": tracing.unit(name)}
                                for name in tracing.all_metric_names()}


if __name__ == "__main__":
    sys.exit(main())
