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
weights the states once and, per path, bounds then verifies: one float32
GEMM per block of rows, on rows augmented with their squared norms, yields
the estimate ``|x_a|^2 + |x_b|^2 - 2 <x_a, x_b>`` of the squared increment
of every grid pair up to the largest lag any requested gap allows, and only
the pairs whose estimate lies within a rigorous rounding slack of the best
one at their gap are reduced exactly (subtract, square, row sum), so every
value is bit-identical to a dense per-lag loop and independent of the BLAS
kernel or its threads.  The dense loop itself still runs where it is
cheaper or the only sound choice: when the largest lag is short, on paths
whose estimates cancel to noise, where too many pairs stay candidates, and
on paths too large or too small for float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hermite import _require_int, _require_number, _rung, _weights

__all__ = [
    "TimeGrid",
    "modulus_dual",
    "sup_dual_norm",
    "dual_path_stats",
    "containment_summary",
    "quantile",
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
        _require_int(steps=self.steps)
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of time ``t`` (must sit on a node up to rounding)."""
        ratio = t / self.dt
        j = int(round(ratio)) if np.isfinite(ratio) else -1
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
    band; otherwise each path goes through :func:`_pruned_best`, and all
    paths of the call share one float32 workspace.
    """
    s = _dual_states(states, grid)
    lags = [_max_lag(grid, float(d)) for d in deltas]
    s = s * _weights(-_rung(r), s.shape[-1])
    sq = (s * s).sum(axis=-1)
    sup = np.sqrt(sq.max(axis=-1))
    top = max(lags, default=0)
    if top < _PRUNE_MIN_LAG:
        return sup, np.sqrt(_dense_best(s, top)[..., lags])
    flat, flat_sq = s.reshape((-1,) + s.shape[-2:]), sq.reshape(-1, s.shape[-2])
    work = _screen_buffers(*s.shape[-2:], top)
    best = np.empty((flat.shape[0], len(lags)))
    for p, (x, x_sq) in enumerate(zip(flat, flat_sq)):
        pruned = _pruned_best(x, x_sq, lags, work)
        best[p] = _dense_best(x, top)[lags] if pruned is None else pruned
    return sup, np.sqrt(best.reshape(s.shape[:-2] + (len(lags),)))


# Below this largest lag the dense loop is faster than the Gram screen, and
# above this share of the band as candidates so is the dense loop; both were
# measured by the lag and share sweeps recorded in CHANGES.md.
_PRUNE_MIN_LAG = 16
_PRUNE_MAX_SHARE = 0.05
# rows per Gram block: one block holds rows * (rows + lag - 1) estimates
_GRAM_ROWS = 96
_EPS32 = float(np.finfo(np.float32).eps)
# the range of a path's largest squared row norm M in which float32 holds
# every estimate without overflow, and underflow stays far below the slack
_PEAK_RANGE = (1e-30, 1e30)


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


def _screen_buffers(rows: int, width: int, top: int):
    """Float32 workspace of :func:`_pruned_best` for paths ``(rows, width)``
    up to lag ``top``: ``left`` for rows ``[x_a, n_a, 1]``, ``right`` for
    rows ``[-2 x_b, 1, n_b]`` followed by ``top`` padding rows ``[0, 1, pad]``
    (the constant columns set here, once), and per block of ``_GRAM_ROWS``
    rows ``a:b`` its Gram product's output view ``(b - a, b - a + top - 1)``
    and band view ``(b - a, top)``, both on one shared buffer."""
    left = np.empty((rows, width + 2), np.float32)
    left[:, -1] = 1.0
    right = np.zeros((rows + top, width + 2), np.float32)
    right[:, -2] = 1.0
    height = min(_GRAM_ROWS, rows)
    buf = np.empty(height * (height + top - 1), np.float32)

    def views(h):
        g = buf[: h * (h + top - 1)]
        # g[i, i + k] is the pair (a + i, a + i + k + 1): flat stride h + top
        return g.reshape(h, -1), sliding_window_view(g, top)[:: h + top]

    full = views(height)
    spans = [(a, min(a + height, rows)) for a in range(0, rows, height)]
    return left, right, [(a, b, *(full if b - a == height else views(b - a))) for a, b in spans]


def _pruned_best(x: np.ndarray, sq: np.ndarray, lags, work) -> np.ndarray | None:
    """The largest squared increment of one path ``x`` (shape ``(J+1, N)``)
    over at most ``lag`` steps, for each of ``lags``; ``None`` when the
    dense loop is the cheaper (or the only sound) way to get it.  ``sq`` holds
    the float64 squared row norms ``n`` of ``x`` and ``work`` comes from
    :func:`_screen_buffers`.

    Bound, then verify.  With ``left`` rows ``[x_a, n_a, 1]`` and ``right``
    rows ``[-2 x_b, 1, n_b]`` in float32, one GEMM per block of
    ``_GRAM_ROWS`` rows gives every pair ``(a, b)`` up to the largest lag
    the estimate ``n_a + n_b - 2 <x_a, x_b>`` of its squared increment.
    A first pass keeps each block's column maxima, which give the best
    estimate at each lag; a second pass forms the product again only for
    the blocks that reach a threshold, and only pairs whose estimate lies
    within ``slack`` of the best at their lag are reduced exactly.

    The bound.  Let ``u = eps32 / 2``, ``g_k = k u / (1 - k u)``, ``t`` the
    smallest normal float32, ``M = max_j n_j`` and, for rows ``a, b``,
    ``A = |x_a|^2``, ``B = |x_b|^2`` and ``D = |x_b - x_a|^2 <= 2 (A + B)
    <= 4 M`` in exact arithmetic on the stored float64 rows.

    * Row norms: each float64 ``n_a`` is within ``g64_N A`` of ``A``.
    * Conversion: every float32 copy of an entry ``v`` of ``x`` or ``n`` is
      within ``u |v| + t`` of it (``t`` covers underflow, flushed or
      gradual), and ``-2`` times a float32 copy is exact, so ``n_a`` and
      ``n_b`` move by ``u (A + B)`` and ``-2 <x_a, x_b>`` by
      ``(2u + u^2) (A + B)``: about ``3 u (A + B)``, plus absolute terms
      below ``5 t sqrt(N M) + 3 t``.
    * Accumulation: the GEMM sums ``N + 2`` products in some order, with or
      without fused multiply-add, on any kernel or thread count; that is
      within ``g_{N+2}`` times the sum of their magnitudes,
      ``n_a + n_b + 2 sum |x_ai x_bi| <= 2 (A + B)`` to first order, plus
      at most ``t`` for each of the ``2N + 3`` products and sums that
      underflow.
    * Exact reduction: subtract, square and sum ``N`` nonnegative terms in
      float64 is within ``g64_{N+2} D <= 2 (N + 2) eps64 M`` of ``D``.

    ``A + B <= 2 M`` and ``eps64 < eps32 / 2^28``, so
    ``e = |estimate - value| < (2N + 8) eps32 M`` plus the absolute terms.
    ``M > 1e-30`` puts those below ``(0.2 N + 1) eps32 M``, and ``M < 1e30``
    keeps every entry and partial sum (at most ``5 M + 1`` in magnitude)
    finite in float32.
    The pair holding the maximum value ``v*`` at a lag has an estimate of at
    least ``v* - e``, every pair at most ``v* + e``, so it lies within
    ``2e < (5N + 18) eps32 M`` of the best estimate; ``slack = 32 (N + 4)
    eps32 M`` exceeds that with room for higher-order terms, for ``M`` and
    the thresholds being computed.  The second GEMM of a block obeys the
    same bound on its own, so forming a product again is sound even if its
    bits differ.

    The padding.  ``right`` ends in ``top`` rows ``[0, 1, -(4M + 1)]``, so a
    pair reaching past the end of the path estimates ``n_a - (4M + 1)``
    with one rounding: below ``-2 M``.  Every real estimate is at least
    ``-e``, so every threshold is above ``-e - slack > -1.5 slack``, and
    ``slack < M`` (any ``N`` below 262,140) keeps padding pairs below it.
    Paths with ``M`` outside ``_PEAK_RANGE`` or ``slack >= M`` (an all-zero
    path among them) go to the dense loop.
    """
    left, right, blocks = work
    rows, width = x.shape
    top = max(lags)
    peak = sq.max()
    slack = 32.0 * (width + 4) * _EPS32 * peak
    if not (_PEAK_RANGE[0] < peak < _PEAK_RANGE[1] and slack < peak):
        return None
    left[:, :width] = x
    left[:, width] = sq
    np.multiply(left[:, :width], -2, out=right[:rows, :width])
    right[:rows, -1] = sq
    right[rows:, -1] = -(4.0 * peak + 1.0)

    def band(block):
        """``band[i, k]`` estimates the pair ``(a + i, a + i + k + 1)``."""
        a, b, out, view = block
        np.matmul(left[a:b], right[a + 1 : b + top].T, out=out)
        return view

    peaks = np.array([band(block).max(axis=0) for block in blocks])
    running = np.maximum.accumulate(peaks.max(axis=0)).astype(float)
    wanted = np.array(sorted({lag for lag in lags if lag > 0}))
    # a pair at lag k + 1 counts for the smallest requested lag >= k + 1,
    # whose threshold is the lowest among the lags it belongs to
    thresholds = (running[wanted - 1] - slack)[np.searchsorted(wanted, np.arange(1, top + 1))]
    limit = _PRUNE_MAX_SHARE * (top * rows - top * (top + 1) // 2)
    found, count = [], 0
    for block in compress(blocks, (peaks >= thresholds).any(axis=1)):
        i, k = np.nonzero(band(block) >= thresholds)
        found.append((block[0] + i, k))
        count += k.size
        if count > limit:
            return None
    j, k = map(np.concatenate, zip(*found))
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
    if modulus_table.shape != (len(sup_norms), len(delta_grid)):
        raise ValueError("modulus_table must have shape (paths, len(delta_grid))")
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
    ``_lerp`` does.  A bool or a string for ``q`` raises ``TypeError``.
    """
    _require_number(q=q)
    if not 0 <= q <= 1:
        raise ValueError("quantiles must be in the range [0, 1]")
    s = np.sort(np.asarray(values, dtype=float), axis=0)
    if not len(s):
        raise ValueError("empty sample")
    index = (s.shape[0] - 1) * q
    i = int(index)
    lo, hi = s[i], s[min(i + 1, s.shape[0] - 1)]
    g = index - i
    return hi - (hi - lo) * (1 - g) if g >= 0.5 else lo + (hi - lo) * g


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
