"""Fast self-test of the benchmark itself (a few seconds, no timed runs).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks the tracer's self-time
arithmetic on synthetic nested calls, that installing the tracer leaves no
unwrapped entry point in any package namespace, that every workload config
materializes, that the report comparison honours its tolerance, and that
``BENCHMARK.json`` names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import checks
import run
import tracer
import workloads

ROOT = Path.cwd()
failures = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def self_time_arithmetic() -> None:
    now = [0.0]
    tr = tracer.Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    def outer():
        advance(1.0)
        tr.call("b", advance, (2.0,))
        tr.call("a", advance, (0.5,))  # nested in itself
        advance(3.0)

    tr.call("a", outer)
    totals = tr.totals()
    expect(totals["a"] == [4.5, 2, 0, 6.5], f"outer stage totals {totals['a']}")
    expect(totals["b"] == [2.0, 1, 0, 2.0], f"inner stage totals {totals['b']}")
    expect(tr.main_roots == 6.5, f"root time {tr.main_roots}")

    def parallel_map(fn, count, threads=1):
        return [fn(i) for i in range(count)]

    pool = tr._wrap_pool(parallel_map)
    pool(lambda i: advance(1.0 + i), 3, threads=1)
    wall, workers, units = tr.pools[0]
    expect((wall, workers, units) == (6.0, 1, [1.0, 2.0, 3.0]), f"pool record {tr.pools[0]}")
    pm = tr._pool_metrics()
    expect(pm["martingales.pool.efficiency"] == 1.0, f"pool efficiency {pm}")
    expect(pm["martingales.pool.unit_p50_s"] == 2.0, f"unit median {pm}")


def rebinding() -> None:
    from nucleartight import cli  # noqa: F401  (loads every package module)

    tr = tracer.Tracer()
    tr.install()
    expect(not tr.missing, f"stages without entry points: {sorted(tr.missing)}")
    expect(not tr.absent, f"entry points not found: {tr.absent}")
    originals = {id(fn) for fn in tr.originals}
    leftovers = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "nucleartight" or name.startswith("nucleartight.")
        for attr, value in vars(module).items()
        if id(value) in originals
    ]
    expect(not leftovers, f"unwrapped entry points left: {leftovers}")


def configs_materialize() -> None:
    from nucleartight.cli import materialize

    for name, spec in workloads.WORKLOADS.items():
        full = materialize(spec["command"], workloads.config_for(name, workloads.REFERENCE_SEED))
        expect(full["seed"] == workloads.REFERENCE_SEED, f"{name}: seed not carried")
        ref = ROOT / "perfbench" / "reference" / f"{name}.json"
        expect(ref.is_file(), f"{name}: no reference report")


def comparison_tolerance() -> None:
    ref = {"cells": [{"ks": 0.125, "n": 10, "pass": True}]}
    close = {"cells": [{"ks": 0.125 * (1 + 3e-16), "n": 10, "pass": True}]}
    far = {"cells": [{"ks": 0.125 * (1 + 1e-8), "n": 10, "pass": True}]}
    verdict = {"cells": [{"ks": 0.125, "n": 10, "pass": False}]}
    expect(not checks.differences(ref, close), "reassociation-size change rejected")
    expect(bool(checks.differences(ref, far)), "1e-8 relative change accepted")
    expect(bool(checks.differences(ref, verdict)), "changed verdict accepted")
    expect(checks.nonfinite({"a": [1.0, float("nan")]}) == [".a[1]"], "non-finite value missed")


def metric_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    name_ok = re.compile(r"[A-Za-z][A-Za-z0-9_.-]{0,63}$")
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(e2e == list(run.END_TO_END), f"end_to_end {e2e} != {run.END_TO_END}")
    expect(layers == tracer.metric_specs(), "per_layer differs from the tracer's metrics")
    for name in [n for n, _ in e2e] + [n for n, _, _ in layers]:
        expect(bool(name_ok.match(name)), f"bad metric name {name!r}")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload names differ")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for test in (self_time_arithmetic, rebinding, configs_materialize, comparison_tolerance, metric_names):
        test()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
