"""Benchmark of the nucleartight CLI scenarios, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  The seed becomes the Monte Carlo seed of the workload's scenario
config (see ``workloads.py``); the config is written to a scratch file and is
all the program receives.

Each timed run is a fresh interpreter (``child.py``), so the package's
in-process caches start cold as they do for a CLI user.  Runs repeat for
``--seconds``; every figure is the median over the runs, except the peak
memory, which is the smallest over the runs.

The host this runs on is shared, and its speed drifts by tens of percent
over minutes, so raw times of the same code differ from one invocation to
the next by more than the regressions the benchmark has to catch.  Each run
therefore also times a fixed calibration kernel that does not involve the
package (``child.host_s``), right before and right after ``run_command``,
and every time is reported at the reference host speed: the measured time
times ``HOST_REF_S / host_s``.  A change to the program moves these figures
by the same share as it moves the raw times, while the host's drift, which
slows the kernel and the run alike, cancels.  The raw medians are printed
too.  Children run with one BLAS thread, so that the workload's thread hint
is the only parallelism and no run asks for more threads than the host's
two cores.

* ``--trace 0`` prints the end-to-end metrics: ``wall_s`` (materialized
  config to in-memory report), ``paths_per_s``, ``cpu_s`` (user + system of
  the run), ``peak_rss_mb`` (of the run process) and ``setup_s`` (import
  ``nucleartight.cli``, ``load_config``, ``materialize``).
* ``--trace 1`` alternates untraced and traced runs and prints the
  per-layer metrics (``tracer.py``) with ``trace.overhead``, the traced wall
  over the untraced wall minus one.

Every run's report is checked (``checks.py``): at the reference seed
against ``reference/<workload>.json``, at any seed for validity and
finiteness, and all runs of one invocation must produce the same bytes.
Before timing, the bundled ``clt-smoke`` and ``heat-smoke`` scenarios must
give byte-identical reports at one and two threads.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3
RUN_TIMEOUT_S = 120.0
BUDGET_S = 150.0  # stop starting runs after this, to end well within 180 s
# typical seconds of ``child.host_s`` on the reference host (2 vCPU Xeon);
# times are reported as if every run had met that speed
HOST_REF_S = 0.17
# times that scale with the host's speed
SCALED = ("wall_s", "cpu_s", "setup_s")

END_TO_END = (
    ("wall_s", "s"),
    ("paths_per_s", "paths/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _child(args: list[str], env: dict) -> tuple[dict | None, str]:
    """Run ``child.py`` in a fresh interpreter; its JSON line, or an error."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit {proc.returncode}: {' | '.join(tail)}"
    return json.loads(lines[-1]), ""


def _spread(values: list[float]) -> str:
    lo, hi = min(values), max(values)
    return f"median {statistics.median(values):.6g}  min {lo:.6g}  max {hi:.6g}  n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = Path.cwd() / "src"
    if not (src / "nucleartight" / "__init__.py").is_file():
        print(f"no package source at {src}/nucleartight: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from nucleartight.diagnostics import validate_report

    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    spec = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == workloads.REFERENCE_SEED:
        reference = (HERE / "reference" / f"{args.workload}.json").read_text(encoding="utf-8")

    # thread invariance, untimed: criterion 11 at one and two threads
    inv, error = _child(["--invariance"], env)
    if inv is None:
        print(f"thread-invariance run failed: {error}", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(inv["machine"], sort_keys=True))
    print("thread invariance (threads 1 vs 2): " + json.dumps(inv["same"], sort_keys=True))
    invariant = all(inv["same"].values()) and inv["module"].startswith(str(src))

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        cfg_path = work / f"{args.workload}.json"
        cfg_path.write_text(json.dumps(workloads.config_for(args.workload, args.seed)), encoding="utf-8")
        base = ["--config", str(cfg_path), "--command", spec["command"], "--threads", str(spec["threads"])]
        runs, start = [], time.perf_counter()
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            began = time.perf_counter()
            result, error = _child(base + (["--trace"] if traced else []), env)
            runs.append((traced, result, error))
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - began
            if len(runs) >= MIN_RUNS and (elapsed + last > args.seconds or elapsed + last > BUDGET_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, first = 0, None
    for i, (traced, result, error) in enumerate(runs):
        problems = [error] if result is None else checks.check_report(result["report"], validate_report, reference)
        if result is not None:
            if not result["module"].startswith(str(src)):
                problems.append(f"imported {result['module']}, not the checkout's package")
            first = result["report"] if first is None else first
            if result["report"] != first:
                problems.append("report bytes differ from the first run of this invocation")
        if problems:
            failed += 1
            print(f"run {i} failed: " + "; ".join(problems[:5]))
    good = [(traced, r) for traced, r, _ in runs if r is not None]
    if reference is not None and first is not None:
        print(f"report bytes equal the reference: {first == reference}")
    print(f"runs: {len(runs)} attempted, {failed} failed (failed_frac {failed / len(runs):.3g})")

    metrics = {}
    plain = [r for traced, r in good if not traced]
    if args.trace:
        traced_runs = [r for traced, r in good if traced]
        for name, unit, _ in tracer.metric_specs():
            values = [r["layers"].get(name) for r in traced_runs]
            value = None if not values or None in values else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            if value is None:
                metrics[name]["missing"] = True
        if traced_runs and plain:
            overhead = statistics.median(r["wall_s"] for r in traced_runs) / statistics.median(
                r["wall_s"] for r in plain
            )
            metrics["trace.overhead"] = {"value": overhead - 1.0, "unit": "ratio"}
            absent = sorted({a for r in traced_runs for a in r["absent"]})
            if absent:
                print("entry points no longer present: " + ", ".join(absent))
            _print_shares(metrics, traced_runs)
    elif plain:
        paths = workloads.path_count(args.workload)
        print(f"host_s (s): {_spread([r['host_s'] for r in plain])}")
        for name in SCALED:
            print(f"raw {name} (s): {_spread([r[name] for r in plain])}")
        for r in plain:
            scale = HOST_REF_S / r["host_s"]
            for name in SCALED:
                r[name] *= scale
            r["paths_per_s"] = paths / r["wall_s"]
        for name, unit in END_TO_END:
            values = [r[name] for r in plain]
            print(f"{name} ({unit}): {_spread(values)}")
            # with a pool, each worker thread's malloc arena adds ~15 MB to
            # a random subset of runs, so the median of a few runs flips
            # between levels; the smallest peak is the steady figure
            pick = min if name == "peak_rss_mb" else statistics.median
            metrics[name] = {"value": pick(values), "unit": unit}

    correct = invariant and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _print_shares(metrics: dict, traced_runs: list[dict]) -> None:
    """Each stage's self and inclusive time as a share of the time worked.

    Time worked is the wall time on one thread; with a pool it adds up the
    busy threads.
    """
    worked = statistics.median(r["worked_s"] for r in traced_runs)
    print(f"stage shares of {worked:.4g} s worked (median of {len(traced_runs)} traced runs):")
    rows = []
    for stage in tracer.STAGES:
        self_s = metrics[f"{stage}.self_s"]["value"]
        incl = [r["inclusive"][stage] for r in traced_runs]
        if self_s and None not in incl:
            rows.append((self_s, statistics.median(incl), stage))
    for self_s, incl, stage in sorted(rows, reverse=True):
        print(f"  {stage:24s} self {100.0 * self_s / worked:5.1f}%  inclusive {100.0 * incl / worked:5.1f}%")


if __name__ == "__main__":
    sys.exit(main())
