"""Grid paths in the truncated dual, with continuity diagnostics.

Paths are plain grid functions: a scalar path holds ``J+1`` values on a
uniform grid over ``[0, T]``, a dual path holds one coefficient vector per
node, and a batch of dual paths is a ``(..., J+1, N)`` array.  No
interpolation is performed between nodes; suprema and moduli are taken over
grid pairs, so refinement studies expose discretization error explicitly.

The running dual-norm supremum and the dual modulus of continuity are the
quantitative inputs for the compact-containment diagnostics: a family of
paths is empirically tight when the sup-norm exceedance frequencies stay
small at a fixed level and the modulus quantiles decay as the time gap
shrinks.  :func:`dual_path_stats` computes both in one pass over a batch of
paths: it weights the states once, walks the grid lags once up to the
largest lag any requested gap allows, and answers every gap from a running
maximum over lags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermite import BasisSpec, DualElement, SeminormIndex

__all__ = [
    "TimeGrid",
    "ScalarPath",
    "DualPath",
    "modulus_dual",
    "sup_dual_norm",
    "dual_path_stats",
    "containment_summary",
    "write_dual_paths_csv",
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


@dataclass(frozen=True, eq=False)
class ScalarPath:
    """One real-valued path sampled on a :class:`TimeGrid`."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.steps + 1,):
            raise ValueError("values must have J+1 entries")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", v)

    def at(self, t: float) -> float:
        return float(self.values[self.grid.index_of(t)])


@dataclass(frozen=True, eq=False)
class DualPath:
    """One dual-valued path: coefficient vector per grid node."""

    grid: TimeGrid
    basis: BasisSpec
    states: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.states, dtype=float)
        if s.shape != (self.grid.steps + 1, self.basis.size):
            raise ValueError("states must have shape (J+1, basis.size)")
        if not np.all(np.isfinite(s)):
            raise ValueError("path states must be finite")
        object.__setattr__(self, "states", s)

    def at(self, t: float) -> DualElement:
        return DualElement(self.basis, self.states[self.grid.index_of(t)])


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

    Squared norms are reduced row by row exactly as a per-lag, per-delta
    loop would, and the square root is monotone, so the values are
    bit-identical to such a loop.
    """
    s = np.asarray(states, dtype=float)
    if s.ndim < 2 or s.shape[-2] != grid.steps + 1:
        raise ValueError("states must have shape (..., J+1, N)")
    if not np.all(np.isfinite(s)):
        raise ValueError("path states must be finite")
    lags = [_max_lag(grid, float(d)) for d in deltas]
    rv = r if isinstance(r, SeminormIndex) else SeminormIndex(float(r))
    s = s * rv.dual_weights(s.shape[-1])
    sup = np.sqrt((s * s).sum(axis=-1).max(axis=-1))
    top = max(lags, default=0)
    # best[..., lag]: largest squared increment over exactly ``lag`` steps,
    # and over at most ``lag`` steps once the running maximum is taken
    best = np.zeros(s.shape[:-2] + (top + 1,))
    buf = np.empty(s.shape[:-2] + (grid.steps if top else 0, s.shape[-1]))
    for lag in range(1, top + 1):
        d = buf[..., : grid.steps + 1 - lag, :]
        np.subtract(s[..., lag:, :], s[..., :-lag, :], out=d)
        np.multiply(d, d, out=d)
        best[..., lag] = d.sum(axis=-1).max(axis=-1)
    np.maximum.accumulate(best, axis=-1, out=best)
    return sup, np.sqrt(best[..., lags])


# the entry point of the ``paths.modulus`` stage in perfbench/tracer.py; it can
# go once that stage hooks dual_path_stats, which the reports call
def modulus_dual(x: DualPath, delta: float, r) -> float:
    """Modulus of continuity in the dual norm of rung ``r``.

    Maximum of ``p'_r(x(t_i) - x(t_j))`` over grid pairs with
    ``|t_i - t_j| <= delta``.
    """
    return float(dual_path_stats(x.states, x.grid, [delta], r)[1][0])


# the entry point of the ``paths.sup`` stage in perfbench/tracer.py, kept
# until that stage hooks dual_path_stats like ``paths.modulus``
def sup_dual_norm(x: DualPath, r) -> float:
    """Running supremum ``max_j p'_r(x(t_j))`` over the grid."""
    return float(dual_path_stats(x.states, x.grid, [], r)[0])


# ---------------------------------------------------------------------------
# compact-containment diagnostics
# ---------------------------------------------------------------------------


def containment_summary(
    sup_norms: np.ndarray,
    modulus_table: np.ndarray,
    c_levels,
    delta_grid,
    quantiles=(0.5, 0.9, 0.99),
) -> dict:
    """Assemble exceedance frequencies and modulus quantiles from reductions.

    ``sup_norms`` has one entry per path; ``modulus_table`` has shape
    ``(paths, len(delta_grid))``, as :func:`dual_path_stats` returns them
    for a batch of paths.
    """
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
        f"{q!r}": [float(v) for v in np.quantile(modulus_table, q, axis=0)]
        for q in quantiles
    }
    return {
        "paths": int(sup_norms.size),
        "c_levels": c_levels,
        "exceedance": exceedance,
        "delta_grid": delta_grid,
        "modulus_quantiles": mod_quant,
        "sup_norm_quantiles": {
            f"{q!r}": float(np.quantile(sup_norms, q)) for q in quantiles
        },
    }


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def write_dual_paths_csv(states, path) -> None:
    """Rows ``path,step,k,value`` of an ``(M, J+1, N)`` batch; floats via repr."""
    s = np.asarray(states, dtype=float)
    if s.ndim != 3:
        raise ValueError("states must have shape (M, J+1, N)")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,step,k,value\n")
        for (i, j, k), v in np.ndenumerate(s):
            fh.write(f"{i},{j},{k},{float(v)!r}\n")
