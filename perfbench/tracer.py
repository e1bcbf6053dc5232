"""Span tracer that wraps the package's layer entry points from outside.

Stages are named by role (``paths.modulus``), not by private function name;
each role lists the entry points that implement it today.  ``install``
rebinds every listed entry point in every ``nucleartight.*`` module namespace
that holds it, so calls made through any module's globals are seen.  Spans
keep one stack per thread, and a stage's self time is its span durations
minus the child spans on the same thread.  A stage whose entry points are all
gone is reported as missing (value ``None``), never as zero.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import threading
import time


def _driver_elems(a):
    particles = a["particles"]
    return particles.count * particles.grid.steps * a["basis"].size


def _batch_paths(a):
    return math.prod(a["driver_states"].shape[:-2])


def _chunk_paths(a):
    return len(a["indices"])


def _modulus_elems(a):
    """Differences formed by a lag-by-lag modulus: sum over lags of (J+1-lag) N."""
    grid = a["x"].grid
    lags = min(grid.steps, math.floor(a["delta"] / grid.dt * (1.0 + 1e-12)))
    return a["x"].basis.size * (lags * (grid.steps + 1) - lags * (lags + 1) // 2)


# role -> (module, entry points, (work quantity, unit, counter) or None)
STAGES = {
    "hermite.recurrence": ("hermite", ("_hermite_modes_first", "hermite_polynomials"), None),
    "hermite.heat_matrix": ("hermite", ("heat_matrix",), None),
    "martingales.particles": ("martingales", ("simulate_particles",), None),
    "martingales.driver": ("martingales", ("_mn_dual_states",), ("elems", "elems", _driver_elems)),
    "martingales.qv": ("martingales", ("_mn_qv_steps",), None),
    "martingales.limit_cov": (
        "martingales",
        (
            "QuadraticForm.increment_covariances",
            "QuadraticForm.covariance_matrix",
            "_sqrt_factors",
        ),
        None,
    ),
    "spde.mild": ("spde", ("_mild_states",), ("paths", "paths", _batch_paths)),
    "spde.limit_driver": ("spde", ("_limit_driver_chunk",), ("paths", "paths", _chunk_paths)),
    "spde.residual": ("spde", ("weak_form_residual",), None),
    "paths.modulus": ("paths", ("modulus_dual",), ("elems", "elems", _modulus_elems)),
    "paths.sup": ("paths", ("sup_dual_norm",), None),
    "paths.summary": ("paths", ("containment_summary",), None),
    "diagnostics.energy": (
        "diagnostics",
        ("energy_distance_with_se", "energy_distance"),
        None,
    ),
    "diagnostics.ks": ("diagnostics", ("ks_one_sample", "ks_two_sample", "ks_pvalue"), None),
    "diagnostics.report": ("diagnostics", ("assemble_report",), ("bytes", "bytes", None)),
    "rng.stream": ("rng", ("stream",), None),
    "cli.materialize": ("cli", ("materialize",), None),
}
# stages whose call count says nothing
_NO_CALLS = {"cli.materialize", "diagnostics.report"}
POOL = ("martingales", "parallel_map", ("fn", "count", "threads"))
POOL_METRICS = (
    ("wall_s", "s", "lower"),
    ("busy_s", "s", "lower"),
    ("unit_p50_s", "s", "lower"),
    ("unit_max_s", "s", "lower"),
    ("efficiency", "ratio", "higher"),
)

# containers: spans that group work but are not layers
_UNIT = "~unit"
_POOL = "~pool"


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for stage, (_, _, work) in STAGES.items():
        out.append((f"{stage}.self_s", "s", "lower"))
        if stage not in _NO_CALLS:
            out.append((f"{stage}.calls", "count", "lower"))
        if work is not None:
            better = "higher" if work[0] == "paths" else "lower"
            out.append((f"{stage}.{work[0]}", work[1], better))
    out.extend((f"martingales.pool.{q}", u, b) for q, u, b in POOL_METRICS)
    out.append(("trace.coverage", "ratio", "higher"))
    out.append(("trace.overhead", "ratio", "lower"))
    return out


class Tracer:
    """Per-thread span stacks with per-stage self time, calls and work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []  # one {stage: [self_s, calls, work, inclusive_s]} per thread
        self._main = threading.get_ident()
        self.main_roots = 0.0  # main-thread time inside root spans
        self.pools = []  # (wall, workers, unit durations) per parallel_map call
        self.missing = set()  # stages, or stage quantities, that could not be traced
        self.absent = []  # entry points that no longer exist
        self.originals = []  # every wrapped original, for the rebinding check

    # -- spans --------------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def call(self, stage, fn, args=(), kwargs=None, work=0):
        """Run ``fn(*args, **kwargs)`` inside a span of ``stage``."""
        stack, table = self._thread_state()
        outermost = all(f[1] != stage for f in stack)
        frame = [0.0, stage]  # time covered by child spans, stage
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            duration = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            elif threading.get_ident() == self._main:
                self.main_roots += duration
            row = table.setdefault(stage, [0.0, 0, 0, 0.0])
            row[0] += duration - frame[0]
            row[1] += 1
            row[2] += work
            if outermost:
                row[3] += duration

    def _wrap(self, stage, fn, work):
        names = _param_names(fn)
        counter = work[2] if work else None
        quantity = f"{stage}.{work[0]}" if work else None

        def traced(*args, **kwargs):
            done = 0
            if counter is not None and quantity not in self.missing:
                try:
                    done = counter({**dict(zip(names, args)), **kwargs})
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the entry point's arguments changed: the count is lost
                    self.missing.add(quantity)
            return self.call(stage, fn, args, kwargs, done)

        traced.__wrapped__ = fn
        return traced

    def _wrap_pool(self, fn):
        names = _param_names(fn)

        def traced(*args, **kwargs):
            bound = {**dict(zip(names, args)), **kwargs}
            work_fn, count, threads = bound["fn"], bound["count"], bound.get("threads", 1)
            durations = []

            def unit(i):
                start = self.clock()
                try:
                    return self.call(_UNIT, work_fn, (i,))
                finally:
                    durations.append(self.clock() - start)

            start = self.clock()
            try:
                return self.call(_POOL, fn, (unit, count), {"threads": threads})
            finally:
                workers = min(threads, count) if threads > 1 and count > 1 else 1
                self.pools.append((self.clock() - start, workers, durations))

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self, package="nucleartight"):
        """Wrap every listed entry point and rebind it wherever it is held."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for stage, (module, entries, work) in STAGES.items():
            found = [
                self._replace(f"{package}.{module}", entry, modules, lambda fn: self._wrap(stage, fn, work))
                for entry in entries
            ]
            if not any(found):
                self.missing.add(stage)
        module, entry, params = POOL
        pool_ok = self._replace(
            f"{package}.{module}",
            entry,
            modules,
            self._wrap_pool,
            lambda fn: set(params) <= set(_param_names(fn)),
        )
        if not pool_ok:
            self.missing.add("martingales.pool")

    def _replace(self, module_name, entry, modules, make, accept=lambda fn: True):
        module = sys.modules.get(module_name)
        owner_name, _, attr = entry.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = None if owner is None else vars(owner).get(attr)
        if original is None or not accept(original):
            self.absent.append(f"{module_name}.{entry}")
            return False
        wrapper = make(original)
        self.originals.append(original)
        if owner_name:
            setattr(owner, attr, wrapper)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
        return True

    # -- results ------------------------------------------------------------

    def count(self, stage, work):
        """Add ``work`` to a stage's count from outside any wrapped call."""
        _, table = self._thread_state()
        table.setdefault(stage, [0.0, 0, 0, 0.0])[2] += work

    def totals(self) -> dict:
        """Per-stage ``[self_s, calls, work, inclusive_s]`` summed over threads.

        Inclusive time counts each stage's outermost spans with their
        children, so a stage nested in itself is not counted twice.
        """
        out = {}
        with self._lock:
            for table in self._tables:
                for stage, values in table.items():
                    row = out.setdefault(stage, [0.0, 0, 0, 0.0])
                    for i, v in enumerate(values):
                        row[i] += v
        return out

    def metrics(self) -> dict:
        """Per-layer values by metric name; ``None`` marks a missing stage.

        ``trace.overhead`` needs an untraced run and is filled in by the
        caller.
        """
        totals = self.totals()
        out = {}
        for stage, (_, _, work) in STAGES.items():
            self_s, calls, done, _ = totals.get(stage, (0.0, 0, 0, 0.0))
            gone = stage in self.missing
            out[f"{stage}.self_s"] = None if gone else self_s
            if stage not in _NO_CALLS:
                out[f"{stage}.calls"] = None if gone else calls
            if work is not None:
                quantity = f"{stage}.{work[0]}"
                out[quantity] = None if gone or quantity in self.missing else done
        out.update(self._pool_metrics())
        staged = sum(row[0] for stage, row in totals.items() if stage in STAGES)
        worked = self.worked_s()
        out["trace.coverage"] = staged / worked if worked > 0 else None
        return out

    def worked_s(self) -> float:
        """Time the program spent working, summed over threads.

        Main-thread root spans, minus the main thread's waits on worker
        pools, plus the work units those pools ran.
        """
        offload = [(wall, sum(units)) for wall, workers, units in self.pools if workers > 1]
        return self.main_roots - sum(w for w, _ in offload) + sum(b for _, b in offload)

    def inclusive(self) -> dict:
        """Per-stage inclusive seconds (``None`` for a missing stage)."""
        totals = self.totals()
        return {
            stage: None if stage in self.missing else totals.get(stage, (0, 0, 0, 0.0))[3]
            for stage in STAGES
        }

    def _pool_metrics(self) -> dict:
        names = [f"martingales.pool.{q}" for q, _, _ in POOL_METRICS]
        if "martingales.pool" in self.missing:
            return dict.fromkeys(names)
        units = [d for _, _, ds in self.pools for d in ds]
        wall = sum(w for w, _, _ in self.pools)
        capacity = sum(w * workers for w, workers, _ in self.pools)
        busy = sum(units)
        values = (
            wall,
            busy,
            statistics.median(units) if units else 0.0,
            max(units, default=0.0),
            busy / capacity if capacity > 0 else 0.0,
        )
        return dict(zip(names, values))


def _param_names(fn) -> list[str]:
    try:
        return list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return []
