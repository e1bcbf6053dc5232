"""One benchmark run in a fresh interpreter; prints one JSON line.

    python3 child.py --config CFG.json --command CMD --threads T [--trace]
    python3 child.py --invariance

A run times the set-up (import ``nucleartight.cli``, ``load_config``,
``materialize``) and then ``run_command`` on the materialized config; with
``--trace`` the layer entry points are wrapped first and the per-layer
figures are added.  Right before and right after ``run_command`` it times a
fixed calibration kernel (``host_s``), which tells how fast the host runs
at that moment.  ``--invariance`` runs the bundled ``clt-smoke`` and
``heat-smoke`` scenarios at one and two threads and reports whether the
report bytes agree, together with the machine record.

The package is imported from ``src/`` of the checkout the benchmark runs in.
"""

import argparse
import json
import resource
import sys
import time

import tracer as tracing


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


_CAL_ROWS = None


def host_s() -> float:
    """Seconds a fixed single-threaded kernel takes on this host right now.

    The kernel mixes what the workloads spend their time on: lagged
    differences and norms of a 1001 x 64 array (the shape of a dual path),
    numpy calls on tiny arrays, and plain interpreter work.  It uses neither
    BLAS nor the package, so nothing a change to the program does alters its
    duration; only the host's speed does.
    """
    import numpy as np

    global _CAL_ROWS
    if _CAL_ROWS is None:  # first call: make the input and warm the ufuncs
        _CAL_ROWS = np.random.default_rng(0).standard_normal((1001, 64))
        np.sqrt(np.square(_CAL_ROWS[1:] - _CAL_ROWS[:-1]).sum(axis=1)).max()
        np.sin(_CAL_ROWS[0]) * 0.5 + _CAL_ROWS[0]
    x = _CAL_ROWS
    start = time.perf_counter()
    for _ in range(4):
        for lag in range(1, 100):
            np.sqrt(np.square(x[lag:] - x[:-lag]).sum(axis=1)).max()
    small = x[0, :16].copy()
    for _ in range(10000):
        small = np.sin(small) * 0.5 + small
    total, seen = 0.0, {}
    for i in range(200000):
        total += (i % 7) * 0.5
        seen[i & 255] = total
    return time.perf_counter() - start


def run(args) -> dict:
    start = time.perf_counter()
    from nucleartight import cli

    tracer = None
    call = lambda stage, fn, args=(): fn(*args)  # noqa: E731
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        call = tracer.call
    full = call("~setup", lambda: cli.materialize(args.command, cli.load_config(args.config)))
    setup_s = time.perf_counter() - start

    host_before = host_s()
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    report, gates_ok, _ = call("~run", cli.run_command, (args.command, full, args.threads))
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    host_after = host_s()
    text = call("diagnostics.report", report.to_json)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "host_s": 0.5 * (host_before + host_after),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gates_ok": bool(gates_ok),
        "report": text,
        "module": cli.__file__,
    }
    if tracer is not None:
        tracer.count("diagnostics.report", len(text.encode("utf-8")))
        out["layers"] = tracer.metrics()
        out["inclusive"] = tracer.inclusive()
        out["worked_s"] = tracer.worked_s()
        out["absent"] = tracer.absent
    return out


def _openblas():
    """OpenBLAS build string and thread count of numpy's bundled library."""
    import ctypes
    import glob
    import os

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return config().decode(), threads()
    return None, None


def machine() -> dict:
    import os
    import platform

    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, blas_threads = _openblas()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": blas_threads,
    }


def invariance() -> dict:
    from nucleartight import cli

    same = {}
    for scenario, command in (("clt-smoke", "clt"), ("heat-smoke", "heat")):
        texts = [
            cli.run_command(command, cli.load_config(scenario), threads)[0].to_json()
            for threads in (1, 2)
        ]
        same[scenario] = texts[0] == texts[1]
    return {"same": same, "machine": machine(), "module": cli.__file__}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config")
    parser.add_argument("--command")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--invariance", action="store_true")
    args = parser.parse_args()
    out = invariance() if args.invariance else run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
