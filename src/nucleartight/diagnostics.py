"""Two-sample statistics and report assembly.

The convergence experiments reduce to a small set of statistical kernels:
the Kolmogorov-Smirnov distance (one- and two-sample, with asymptotic
critical values), the energy distance for multivariate samples, and a
deterministic, versioned JSON report container.

The normal CDF and the distance matrix are numpy ports of
``scipy.special.ndtr`` and ``scipy.spatial.distance.cdist`` that give their
bits, so reports keep their bytes without loading either scipy module.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCHEMA",
    "KS_COEFF_5",
    "KS_COEFF_1",
    "KsResult",
    "ks_two_sample",
    "ks_one_sample",
    "ks_pvalue",
    "normal_cdf",
    "distance_matrix",
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


def ks_pvalue(statistic: float, m: int, n: int) -> float:
    """Asymptotic two-sided p-value for a two-sample KS statistic.

    Uses the Kolmogorov series ``Q(y) = 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2)``
    with the effective sample size ``mn/(m+n)``.
    """
    y = np.sqrt(m * n / (m + n)) * statistic
    if y < 1e-3:
        return 1.0
    k = np.arange(1, 101)
    terms = 2.0 * (-1.0) ** (k - 1) * np.exp(-2.0 * (k * y) ** 2)
    return float(min(1.0, max(0.0, terms.sum())))


# Cephes ``ndtr`` at ``x = a / sqrt 2``: erf by T/U for |x| < 1, erfc by P/Q
# for |x| < 8 and by R/S above, and 0 once ``exp(-x^2)`` would underflow
# (x^2 > MAXLOG)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x, coeffs, leading_one=False):
    """Horner's rule with the highest coefficient first (``p1evl`` when it is an implied 1)."""
    out = x + coeffs[0] if leading_one else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def normal_cdf(a) -> np.ndarray:
    """Standard normal CDF, bit for bit ``scipy.special.ndtr`` (Cephes).

    Each step is one IEEE operation in Cephes' order, and ``exp`` goes
    through ``math.exp`` (libm), since ``np.exp`` rounds some arguments
    differently.  Cephes hands ``1/sqrt 2 <= |x| < 1`` to ``erfc(|x|) =
    1 - erf(|x|)``; ``0.5 + 0.5 erf(x)`` is the same value there, since
    ``1 - erf`` is exact (Sterbenz) and both round the same real number.
    """
    a = np.asarray(a, dtype=float)
    x = a * _SQRT1_2
    z = np.abs(x)
    out = np.zeros_like(x)
    near = z < 1.0
    xs = x[near]
    zz = xs * xs
    out[near] = 0.5 + 0.5 * (xs * _polevl(zz, _ERF_T) / _polevl(zz, _ERF_U, leading_one=True))
    with np.errstate(over="ignore"):
        tail = ~near & (z * z <= _MAXLOG)
    zt = z[tail]
    e = np.array([math.exp(v) for v in (-zt * zt).tolist()])
    low = zt < 8.0
    p = np.where(low, _polevl(zt, _ERFC_P), _polevl(zt, _ERFC_R))
    q = np.where(low, _polevl(zt, _ERFC_Q, leading_one=True), _polevl(zt, _ERFC_S, leading_one=True))
    out[tail] = 0.5 * (e * p / q)
    upper = ~near & (x > 0)
    out[upper] = 1.0 - out[upper]
    out[np.isnan(a)] = np.nan
    return out[()]


# distances computed per row chunk of a distance matrix
_DISTANCE_VALUES = 1 << 15


def distance_matrix(x, y=None) -> np.ndarray:
    """Euclidean distances ``|x_i - y_j|`` of two ``(points, dims)`` arrays,
    bit for bit ``scipy.spatial.distance.cdist``: per pair, the squared
    coordinate differences summed over the dimensions in order, then the
    square root.

    With ``y`` omitted, the matrix of ``x`` with itself: rows are computed
    from their diagonal on, and the lower triangle is the mirror image, which
    is exact since ``(a - b)^2 == (b - a)^2``.  A row chunk's operands are
    flat ``np.repeat``/``np.tile`` copies, since a broadcast numpy operation
    costs about a microsecond per row.
    """
    x = np.asarray(x, dtype=float)
    same = y is None
    xt = np.ascontiguousarray(x.T)
    yt = xt if same else np.ascontiguousarray(np.asarray(y, dtype=float).T)
    m, n = x.shape[0], yt.shape[1]
    out = np.empty((m, n))
    rows = max(1, _DISTANCE_VALUES // max(n, 1))
    for a in range(0, m, rows):
        b = min(a + rows, m)
        start = a if same else 0
        acc = np.zeros((b - a) * (n - start))
        for xk, yk in zip(xt[:, a:b], yt[:, start:]):
            t = np.repeat(xk, n - start)
            np.subtract(t, np.tile(yk, b - a), out=t)
            np.multiply(t, t, out=t)
            np.add(acc, t, out=acc)
        block = np.sqrt(acc, out=acc).reshape(b - a, n - start)
        out[a:b, start:] = block
        if same:
            out[b:, a:b] = block[:, b - a :].T
    return out


def _samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ValueError("both samples need at least 2 points")
    if x.shape[1] != y.shape[1]:
        raise ValueError("samples must share the same dimension")
    return x, y


def _chunks(size: int, count: int) -> list[slice]:
    """The row ranges of ``np.array_split`` into ``count <= size`` chunks."""
    return [slice(rows[0], rows[-1] + 1) for rows in np.array_split(np.arange(size), count)]


def _mean_distances(matrix, rows, cols, within: bool) -> np.ndarray:
    """Mean of a distance matrix, then of each of its blocks ``[rows[i], cols[i]]``.

    A within-sample mean leaves out the (zero) diagonal.  Blocks are copied,
    so that each sums in the order of a matrix of its own.
    """
    parts = [matrix] + [np.ascontiguousarray(matrix[r, c]) for r, c in zip(rows, cols)]
    if within:
        return np.array([d.sum() / (d.shape[0] * (d.shape[0] - 1)) for d in parts])
    return np.array([d.mean() for d in parts])


def _energies(x, y, y_within, count: int) -> np.ndarray:
    """Energy distance of ``x`` and ``y``, then of each of their ``count``
    chunk pairs (``np.array_split`` of both samples).

    A chunk pair's distances are the diagonal blocks of the full matrices.
    Each full matrix is freed before the next is made, so no more than two
    are alive with ``y_within``.
    """
    rows_x, rows_y = (_chunks(x.shape[0], count), _chunks(y.shape[0], count)) if count else ([], [])
    cross = _mean_distances(distance_matrix(x, y), rows_x, rows_y, within=False)
    within_x = _mean_distances(distance_matrix(x), rows_x, rows_x, within=True)
    within_y = distance_matrix(y) if y_within is None else y_within
    return 2.0 * cross - within_x - _mean_distances(within_y, rows_y, rows_y, within=True)


def energy_distance(x, y) -> float:
    """Energy distance ``2 E|X-Y| - E|X-X'| - E|Y-Y'|`` (U-statistic means).

    Both inputs are ``(points, dims)`` arrays of equal dimension; the
    within-sample means exclude the diagonal.  Nonnegative up to U-statistic
    noise and zero in law iff the distributions coincide.
    """
    x, y = _samples(x, y)
    return float(_energies(x, y, None, 0)[0])


def energy_distance_with_se(x, y, *, y_within=None) -> tuple[float, float]:
    """Energy distance plus a block-resampling standard error.

    Splits both samples into ten contiguous chunks (fewer when a sample has
    under twenty points), recomputes the
    statistic per chunk pair, and reports the standard error of the chunk
    mean.  Deterministic (no resampling randomness).

    ``y_within``, when given, is ``distance_matrix(y)``: a caller comparing
    many samples with one ``y`` computes it once.
    """
    x, y = _samples(x, y)
    nb = min(10, x.shape[0] // 2, y.shape[0] // 2)
    if nb < 2:
        return float(_energies(x, y, y_within, 0)[0]), float("inf")
    value, *vals = _energies(x, y, y_within, nb)
    se = float(np.std(vals, ddof=1) / np.sqrt(nb))
    return float(value), se


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

    where = _nonfinite_statistic(data["cells"], data["metadata"])
    if where is not None:
        raise ValueError(f"report contains a non-finite statistic at {where}")


def _nonfinite_statistic(cells: list, metadata: dict) -> str | None:
    """The path of the first non-finite float in ``cells`` or ``metadata['extras']``, or ``None``."""
    return _nonfinite_field(cells) or _nonfinite_field(metadata.get("extras", {}), "metadata['extras']")


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
