"""Grid paths in the truncated dual, with continuity diagnostics.

Paths are plain arrays on a uniform grid over ``[0, T]``: scalar paths have
shape ``(..., J+1)`` and dual paths, one coefficient vector per node,
``(..., J+1, N)``, where leading axes index a batch of paths.  No
interpolation is performed between nodes; suprema and moduli are taken over
grid pairs, so refinement studies expose discretization error explicitly.

The running dual-norm supremum and the dual modulus of continuity are the
quantitative inputs for the compact-containment diagnostics: a family of
paths is empirically tight when the sup-norm exceedance frequencies stay
small at a fixed level and the modulus quantiles decay as the time gap
shrinks.  :func:`dual_path_stats` computes both for a batch of paths.  It
weights the states once and, per path, bounds then verifies: one blocked
Gram product estimates the squared increment of every grid pair up to the
largest lag any requested gap allows, and only the pairs whose estimate
lies within a rigorous rounding slack of the best one at their gap are
reduced exactly (subtract, square, row sum), so every value is bit-identical
to a dense per-lag loop and independent of the BLAS kernel or its threads.
The dense loop itself still runs where it is cheaper: when the largest lag
is short, and on paths whose estimates cancel to noise, where too many pairs
stay candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hermite import SeminormIndex, _index_value

__all__ = [
    "TimeGrid",
    "modulus_dual",
    "sup_dual_norm",
    "dual_path_stats",
    "containment_summary",
    "quantile",
    "median",
    "write_array_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_j = j T / J`` with ``J + 1`` nodes on ``[0, T]``."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError("horizon must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of time ``t`` (must sit on a node up to rounding)."""
        j = int(round(t / self.dt))
        if j < 0 or j > self.steps or abs(j * self.dt - t) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"time {t} is not a node of the grid")
        return j


def _dual_states(states, grid: TimeGrid, name: str = "states") -> np.ndarray:
    """Dual paths on ``grid`` as a float array ``(..., J+1, N)``, all finite."""
    s = np.asarray(states, dtype=float)
    if s.ndim < 2 or s.shape[-2] != grid.steps + 1:
        raise ValueError(f"{name} must have shape (..., J+1, N)")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"{name} must be finite")
    return s


# ---------------------------------------------------------------------------
# modulus of continuity and sup norms
# ---------------------------------------------------------------------------


def _max_lag(grid: TimeGrid, delta: float) -> int:
    if not np.isfinite(delta) or delta <= 0:
        raise ValueError("delta must be positive")
    if delta > grid.horizon:
        raise ValueError("delta must not exceed the horizon")
    # non-strict comparison |t_i - t_j| <= delta, tolerant of rounding
    return min(grid.steps, int(np.floor(delta / grid.dt * (1.0 + 1e-12))))


def dual_path_stats(states, grid: TimeGrid, deltas, r):
    """Running sup and modulus of continuity in the dual norm of rung ``r``.

    ``states`` has shape ``(..., J+1, N)``: any batch of dual paths on
    ``grid``.  Returns ``(sup, modulus)`` with shapes ``(...)`` and
    ``(..., len(deltas))``: ``sup`` is ``max_j p'_r(x(t_j))`` and
    ``modulus[..., i]`` the maximum of ``p'_r(x(t_a) - x(t_b))`` over grid
    pairs with ``|t_a - t_b| <= deltas[i]``.

    Every squared increment that can be the answer is reduced exactly as a
    per-lag loop reduces it (subtract, square, row sum), and the square root
    is monotone, so the values are bit-identical to such a loop.  When the
    largest lag is below ``_PRUNE_MIN_LAG`` that loop runs over the whole
    band; otherwise each path goes through :func:`_pruned_best`.
    """
    s = _dual_states(states, grid)
    lags = [_max_lag(grid, float(d)) for d in deltas]
    s = s * SeminormIndex(_index_value(r)).dual_weights(s.shape[-1])
    sq = (s * s).sum(axis=-1)
    sup = np.sqrt(sq.max(axis=-1))
    top = max(lags, default=0)
    if top < _PRUNE_MIN_LAG:
        return sup, np.sqrt(_dense_best(s, top)[..., lags])
    flat, flat_sq = s.reshape((-1,) + s.shape[-2:]), sq.reshape(-1, s.shape[-2])
    best = np.empty((flat.shape[0], len(lags)))
    for p, (x, x_sq) in enumerate(zip(flat, flat_sq)):
        pruned = _pruned_best(x, x_sq, lags)
        best[p] = _dense_best(x, top)[lags] if pruned is None else pruned
    return sup, np.sqrt(best.reshape(s.shape[:-2] + (len(lags),)))


# Below this largest lag the dense loop is faster than the Gram bound, and
# above this share of the band as candidates so is the dense loop; both were
# measured by the lag and share sweeps recorded in CHANGES.md.
_PRUNE_MIN_LAG = 16
_PRUNE_MAX_SHARE = 0.05
# rows per Gram block: one block holds rows * (rows + lag - 1) dot products
_GRAM_ROWS = 128
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def _dense_best(s, top: int) -> np.ndarray:
    """``best[..., lag]``: the largest squared increment of ``s`` over at
    most ``lag`` steps, for every lag up to ``top``, by a per-lag loop."""
    steps = s.shape[-2] - 1
    best = np.zeros(s.shape[:-2] + (top + 1,))
    buf = np.empty(s.shape[:-2] + (steps if top else 0, s.shape[-1]))
    for lag in range(1, top + 1):
        d = buf[..., : steps + 1 - lag, :]
        np.subtract(s[..., lag:, :], s[..., :-lag, :], out=d)
        np.multiply(d, d, out=d)
        best[..., lag] = d.sum(axis=-1).max(axis=-1)
    np.maximum.accumulate(best, axis=-1, out=best)
    return best


def _gram_bound(x: np.ndarray, sq: np.ndarray, top: int) -> np.ndarray:
    """``approx[j, k] = n_j + n_{j+k+1} - 2 <x_j, x_{j+k+1}>`` with shape
    ``(J+1, top)``, where ``n = sq`` are the squared row norms of ``x``;
    entries past the end of the path are ``-inf``.

    The dot products come from row blocks of the Gram matrix,
    ``x[a:b] @ x[a+1 : b+top].T``, read along their diagonal band, so no
    ``(J+1)^2`` matrix is ever held.
    """
    rows = x.shape[0]
    xpad = np.zeros((rows + top, x.shape[1]))
    xpad[:rows] = x
    npad = np.zeros(rows + top)
    npad[:rows] = sq
    approx = sq[:, None] + sliding_window_view(npad[1:], top)[:rows]
    for a in range(0, rows, _GRAM_ROWS):
        b = min(a + _GRAM_ROWS, rows)
        gram = xpad[a:b] @ xpad[a + 1 : b + top].T
        # gram[i, i + k] = <x_{a+i}, x_{a+i+k+1}>: flat stride (b - a) + top
        approx[a:b] -= 2.0 * sliding_window_view(gram.ravel(), top)[:: b - a + top]
    # row J + 1 - top + i reaches past the end from column top - 1 - i on
    tail = approx[rows - top :]
    tail[np.add.outer(np.arange(top), np.arange(top)) >= top - 1] = -np.inf
    return approx


def _pruned_best(x: np.ndarray, sq: np.ndarray, lags) -> np.ndarray | None:
    """The largest squared increment of one path ``x`` (shape ``(J+1, N)``)
    over at most ``lag`` steps, for each of ``lags``; ``None`` when the
    dense loop is the cheaper way to get it.

    Bound, then verify.  :func:`_gram_bound` gives every pair an estimate
    ``approx`` of its squared increment, and only the pairs whose estimate
    is within ``slack`` of the best estimate at their lag are reduced
    exactly.  With ``u = eps / 2``, ``g_k = k u / (1 - k u)``,
    ``M = max_j n_j`` and, for rows ``a, b``, ``A = |a|^2``, ``B = |b|^2``,
    ``D = |b - a|^2 <= 2 (A + B) <= 4 M`` in exact arithmetic on the stored
    rows, the standard bounds for sums and dot products of ``N`` terms in
    any order (any BLAS kernel or thread count, with or without fused
    multiply-add) give

    * each computed row norm is within ``g_N A`` of ``A``;
    * the computed ``<a, b>`` is within ``g_N sum |a_i b_i| <= g_N (A+B)/2``;
    * the sum ``n_a + n_b`` and the subtraction of ``2 <a, b>`` (doubling
      is exact) round once each, adding ``u (A+B)`` and ``2 u (A+B)`` to
      first order, so ``|approx - D| <= (2 g_N + 3 u) (A+B)``, below
      ``(2N+3) eps M``;
    * the exact reduction (subtract, square, sum of ``N`` nonnegative
      terms) is within ``g_{N+2} D <= 2 (N+2) eps M`` of ``D``.

    So ``e = |approx - value| < (4N + 7) eps M`` to first order in ``N u``.
    The pair holding the maximum value ``v*`` has ``approx >= v* - e``
    and every pair has ``approx <= v* + e``, so it lies within ``2e`` of
    the best estimate.  ``slack = 32 (N + 4) (eps M + tiny)`` is more than
    ``2e`` with room for the higher-order terms and for ``M`` itself being
    computed; ``tiny``, the smallest subnormal, covers the absolute error
    of products that underflow (each below ``tiny / 2``).  Paths whose
    squares could overflow go to the dense loop.
    """
    rows, width = x.shape
    top = max(lags)
    peak = sq.max()
    if not np.isfinite(16.0 * peak):
        return None
    slack = 32.0 * (width + 4) * (_EPS * peak + _TINY)
    approx = _gram_bound(x, sq, top)
    running = np.maximum.accumulate(approx.max(axis=0))
    wanted = np.array(sorted({lag for lag in lags if lag > 0}))
    # a pair at lag k + 1 counts for the smallest requested lag >= k + 1,
    # whose threshold is the lowest among the lags it belongs to
    thresholds = (running[wanted - 1] - slack)[np.searchsorted(wanted, np.arange(1, top + 1))]
    j, k = np.nonzero(approx >= thresholds)
    if j.size > _PRUNE_MAX_SHARE * (top * rows - top * (top + 1) // 2):
        return None
    d = x[j + k + 1] - x[j]
    d *= d
    best = np.zeros(top + 1)
    np.maximum.at(best, k + 1, d.sum(axis=-1))
    np.maximum.accumulate(best, out=best)
    return best[lags]


def modulus_dual(x, grid: TimeGrid, delta: float, r):
    """Modulus ``max p'_r(x(t_i) - x(t_j))`` over grid pairs with ``|t_i - t_j|
    <= delta``, shape ``(...)`` for paths ``(..., J+1, N)``: :func:`dual_path_stats`."""
    return dual_path_stats(x, grid, [delta], r)[1][..., 0]


def sup_dual_norm(x, grid: TimeGrid, r):
    """Running supremum ``max_j p'_r(x(t_j))``, shape ``(...)`` for paths
    ``(..., J+1, N)``: :func:`dual_path_stats`."""
    return dual_path_stats(x, grid, [], r)[0]


# ---------------------------------------------------------------------------
# compact-containment diagnostics
# ---------------------------------------------------------------------------


def containment_summary(
    sup_norms: np.ndarray,
    modulus_table: np.ndarray,
    c_levels,
    delta_grid,
) -> dict:
    """Assemble exceedance frequencies and modulus quantiles from reductions.

    ``sup_norms`` has one entry per path; ``modulus_table`` has shape
    ``(paths, len(delta_grid))``, as :func:`dual_path_stats` returns them
    for a batch of paths.  Quantiles are taken at 0.5, 0.9 and 0.99.
    """
    quantiles = (0.5, 0.9, 0.99)
    sup_norms = np.asarray(sup_norms, dtype=float)
    modulus_table = np.asarray(modulus_table, dtype=float)
    if sup_norms.size == 0:
        raise ValueError("empty ensemble")
    c_levels = [float(c) for c in c_levels]
    delta_grid = [float(d) for d in delta_grid]
    exceedance = {
        f"{c!r}": float(np.mean(sup_norms > c)) for c in c_levels
    }
    mod_quant = {
        f"{q!r}": [float(v) for v in quantile(modulus_table, q)]
        for q in quantiles
    }
    return {
        "paths": int(sup_norms.size),
        "c_levels": c_levels,
        "exceedance": exceedance,
        "delta_grid": delta_grid,
        "modulus_quantiles": mod_quant,
        "sup_norm_quantiles": {
            f"{q!r}": float(quantile(sup_norms, q)) for q in quantiles
        },
    }


def quantile(values, q: float) -> np.ndarray:
    """``np.quantile(values, q, axis=0)`` with its default linear method,
    bit for bit, for finite values.

    numpy's own routine imports ``numpy.ma`` on its first call (through
    ``np.unique``); sorting and interpolating here keeps that module out
    of a run.  The virtual index ``(n - 1) q`` falls between the sorted
    values ``lo`` and ``hi``, and ``lo + (hi - lo) g`` is computed as
    ``hi - (hi - lo) (1 - g)`` when the fraction ``g >= 1/2``, as numpy's
    ``_lerp`` does.
    """
    s = np.sort(np.asarray(values, dtype=float), axis=0)
    index = (s.shape[0] - 1) * q
    i = int(index)
    lo, hi = s[i], s[min(i + 1, s.shape[0] - 1)]
    g = index - i
    return hi - (hi - lo) * (1 - g) if g >= 0.5 else lo + (hi - lo) * g


def median(values) -> np.ndarray:
    """``np.median(values, axis=0)`` bit for bit, without ``numpy.ma``:
    the middle sorted value, or the mean ``(a + b) / 2`` of the middle two."""
    s = np.sort(np.asarray(values, dtype=float), axis=0)
    mid = s.shape[0] // 2
    return s[mid] if s.shape[0] % 2 else (s[mid - 1] + s[mid]) / 2.0


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def write_array_csv(array, path, index_names) -> None:
    """Rows ``index...,value`` of an array in row-major order under the header
    ``index_names...,value``, one name per axis; floats via repr, so they read
    back exactly.  The CLI dumps matrices as ``i,j`` and ``(M, J+1, N)`` path
    batches as ``path,step,k``."""
    a = np.asarray(array, dtype=float)
    if a.ndim != len(index_names):
        raise ValueError(f"array must have {len(index_names)} axes, one per index name")
    keys = [""]  # "j,...," for every entry of one leading slice, in row-major order
    for n in a.shape[1:]:
        suffixes = [f"{i}," for i in range(n)]
        keys = [k + s for k in keys for s in suffixes]
    lead = a.shape[0] if a.ndim else 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*index_names, "value"]) + "\n")
        for i, row in enumerate(a.reshape(lead, len(keys))):  # one slice in memory at a time
            prefix = f"{i}," if a.ndim else ""
            rows = zip(repeat(prefix), keys, map(repr, row.tolist()), repeat("\n"))
            fh.write("".join(map("".join, rows)))
