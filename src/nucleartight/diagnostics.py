"""Two-sample statistics and report assembly.

The convergence experiments reduce to a small set of statistical kernels:
the Kolmogorov-Smirnov distance (one- and two-sample, with asymptotic
critical values), the energy distance for multivariate samples, and a
deterministic, versioned JSON report container.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "SCHEMA",
    "KS_COEFF_5",
    "KS_COEFF_1",
    "KsResult",
    "ks_two_sample",
    "ks_one_sample",
    "ks_pvalue",
    "energy_distance",
    "energy_distance_with_se",
    "ConvergenceReport",
    "assemble_report",
    "validate_report",
    "canonical_json",
    "report_hash",
]

SCHEMA = "nucleartight-report/1"

# asymptotic Kolmogorov-Smirnov critical coefficients c(alpha)
KS_COEFF_5 = 1.358
KS_COEFF_1 = 1.628


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical_5: float
    critical_1: float


def ks_two_sample(a, b) -> KsResult:
    """Kolmogorov-Smirnov statistic ``sup_x |F_a(x) - F_b(x)|``.

    Critical values are the asymptotic ``c(alpha) sqrt((m+n)/(mn))`` with
    ``c(0.05) = 1.358`` and ``c(0.01) = 1.628``; adequate for the sample
    sizes (>= 500) used throughout.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    m, n = a.size, b.size
    if m < 2 or n < 2:
        raise ValueError("both samples need at least 2 points")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / m
    cdf_b = np.searchsorted(b, pooled, side="right") / n
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    scale = np.sqrt((m + n) / (m * n))
    return KsResult(stat, KS_COEFF_5 * scale, KS_COEFF_1 * scale)


def ks_one_sample(sample, cdf) -> KsResult:
    """KS distance of a sample to a reference CDF (callable, vectorized)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("sample needs at least 2 points")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    stat = float(max(np.max(upper), np.max(lower)))
    scale = 1.0 / np.sqrt(n)
    return KsResult(stat, KS_COEFF_5 * scale, KS_COEFF_1 * scale)


def ks_pvalue(statistic: float, m: int, n: int | None = None) -> float:
    """Asymptotic two-sided p-value for a KS statistic.

    Uses the Kolmogorov series ``Q(y) = 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2)``
    with the effective sample size ``mn/(m+n)`` for two samples.
    """
    if n is None:
        en = float(m)
    else:
        en = m * n / (m + n)
    y = np.sqrt(en) * statistic
    if y < 1e-3:
        return 1.0
    k = np.arange(1, 101)
    terms = 2.0 * (-1.0) ** (k - 1) * np.exp(-2.0 * (k * y) ** 2)
    return float(min(1.0, max(0.0, terms.sum())))


def energy_distance(x, y) -> float:
    """Energy distance ``2 E|X-Y| - E|X-X'| - E|Y-Y'|`` (U-statistic means).

    Both inputs are ``(points, dims)`` arrays of equal dimension; the
    within-sample means exclude the diagonal.  Nonnegative up to U-statistic
    noise and zero in law iff the distributions coincide.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ValueError("both samples need at least 2 points")
    if x.shape[1] != y.shape[1]:
        raise ValueError("samples must share the same dimension")
    m, n = x.shape[0], y.shape[0]
    cross = cdist(x, y).mean()
    dxx = cdist(x, x)
    dyy = cdist(y, y)
    within_x = dxx.sum() / (m * (m - 1))
    within_y = dyy.sum() / (n * (n - 1))
    return float(2.0 * cross - within_x - within_y)


def energy_distance_with_se(x, y) -> tuple[float, float]:
    """Energy distance plus a block-resampling standard error.

    Splits both samples into ten contiguous chunks (fewer when a sample has
    under twenty points), recomputes the
    statistic per chunk pair, and reports the standard error of the chunk
    mean.  Deterministic (no resampling randomness).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    value = energy_distance(x, y)
    nb = min(10, x.shape[0] // 2, y.shape[0] // 2)
    if nb < 2:
        return value, float("inf")
    vals = [
        energy_distance(bx, by)
        for bx, by in zip(np.array_split(x, nb), np.array_split(y, nb))
    ]
    se = float(np.std(vals, ddof=1) / np.sqrt(nb))
    return value, se


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


def _pyify(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, trailing newline, repr floats."""
    return json.dumps(_pyify(obj), sort_keys=True, indent=2) + "\n"


def report_hash(report: dict) -> str:
    return hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ConvergenceReport:
    """Versioned container for one experiment's statistics."""

    scenario: str
    metadata: dict
    cells: list

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "metadata": _pyify(self.metadata),
            "cells": _pyify(self.cells),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def validate_report(data: dict) -> None:
    """Check the report envelope; raise ValueError on schema violations."""
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported report schema: {data.get('schema')!r}")
    for key in ("scenario", "metadata", "cells"):
        if key not in data:
            raise ValueError(f"report missing field {key!r}")
    if not isinstance(data["cells"], list):
        raise ValueError("report cells must be a list")

    where = _nonfinite_field(data["cells"])
    if where is not None:
        raise ValueError(f"report contains a non-finite statistic at {where}")


def _nonfinite_field(node, crumb: str = "cells") -> str | None:
    """The path (``cells[0]['ks']``) of the first non-finite float in nested
    dicts and lists, or ``None``."""
    if isinstance(node, float):
        return None if np.isfinite(node) else crumb
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        where = _nonfinite_field(value, f"{crumb}[{key!r}]")
        if where is not None:
            return where
    return None


def assemble_report(cells: list, metadata: dict, scenario: str = "") -> ConvergenceReport:
    """Build a report; every cell must be a dict, missing cells are an error."""
    if not cells:
        raise ValueError("no cells to assemble")
    incomplete = [i for i, c in enumerate(cells) if c is None]
    if incomplete:
        raise ValueError(f"incomplete cells at positions {incomplete}")
    if not all(isinstance(c, dict) for c in cells):
        raise ValueError("cells must be dicts")
    report = ConvergenceReport(scenario, metadata, cells)
    validate_report(report.to_dict())
    return report
