"""Correctness checks on one run's report.

At the reference seed a report must match the reference committed in
``reference/``: verdicts, counts, integers and strings exactly, floats within
a relative 1e-9 (loose enough for reassociated sums, tight enough to catch a
changed algorithm).  At any seed the report must pass the package's own
envelope check and hold only finite numbers.

Each reference is the ``report.json`` that
``nucleartight <command> --config <config> --threads <threads>`` writes for
the workload's config at the reference seed (``workloads.config_for``).
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9
# library versions in the header are provenance, not results
_IGNORED = {("metadata", "versions")}


def nonfinite(node, crumb="") -> list[str]:
    """Paths of every non-finite number in a parsed report."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in nonfinite(v, f"{crumb}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in nonfinite(v, f"{crumb}[{i}]")]
    if isinstance(node, float) and not math.isfinite(node):
        return [crumb]
    return []


def differences(ref, new, crumb=(), limit=10) -> list[str]:
    """Where ``new`` departs from ``ref``, up to ``limit`` entries."""
    out = []

    def walk(a, b, path):
        if len(out) >= limit or path in _IGNORED:
            return
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                out.append(f"{where}: keys {sorted(a.keys() ^ b.keys())} differ")
                return
            for key in a:
                walk(a[key], b[key], path + (key,))
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                out.append(f"{where}: length {len(b)} != {len(a)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, path + (i,))
        elif type(a) is float and type(b) is float:
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
                out.append(f"{where}: {b!r} != {a!r}")
        elif type(a) is not type(b) or a != b:
            out.append(f"{where}: {b!r} != {a!r}")

    walk(ref, new, tuple(crumb))
    return out


def check_report(text: str, validate, reference: str | None) -> list[str]:
    """Problems with one report; empty when it is correct.

    ``validate`` is the package's ``diagnostics.validate_report``;
    ``reference`` is the reference report text, or ``None`` away from the
    reference seed.
    """
    try:
        data = json.loads(text)
        validate(data)
    except ValueError as exc:
        return [f"invalid report: {exc}"]
    problems = [f"non-finite value at {p}" for p in nonfinite(data)]
    if reference is not None:
        problems += differences(json.loads(reference), data)
    return problems
