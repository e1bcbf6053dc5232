"""Stochastic heat equation driven by the particle martingales.

The evolution ``dY_t = Lap Y_t dt + dM_t`` with initial state ``eta`` is
solved in coefficients by the variation-of-constants (mild) form

    Y_{t_j} = E(t_j) eta + dt * sum_{l < j} E(t_j - t_l) Lap M_{t_l} + M_{t_j},

where ``E`` is the heat semigroup, ``Lap`` the truncated second-derivative
matrix, and the Duhamel sum uses the left-point rule on the driver grid:
first order in dt, matching the Euler order of the driver itself (a
higher-order rule would merely cancel against the trapezoid weak-form
check instead of exposing the solver's true order).

The solver runs that sum as a scan in the eigenbasis of ``Lap``, one parity
block at a time (an exponential integrator, after Hochbruck and Ostermann,
Acta Numerica 19, 2010); see :func:`_mild_states` for the chunk rule, the
caches and the tolerance against the per-step form.

``weak_form_residual`` measures how well a path satisfies the integrated
weak form; for mild solutions it decays at first order in dt.

``heat_convergence_report`` compares solutions driven by the ``n``-particle
martingales against solutions driven by the sampled Gaussian limit, pushed
through the identical solver and grid so discretization bias cancels in the
two-sample statistics.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from . import diagnostics
from .config import _basis_from, _grid_from, _phis_from, _tightness_from, materialize
from .hermite import (
    BasisSpec,
    DualElement,
    TestFunction,
    _as_readonly,
    _laplacian_op,
    _require_number,
    _weights,
    derivative_op,
    laplacian_op,
)
from .martingales import (
    NumericalIntegrityError,
    ParticleEnsemble,
    _cumulative,
    _limit_factors,
    _limit_states,
    _mn_dual_states,
    _phi_label,
    map_blocks,
    parallel_map,
    run_blocks,
)
from .paths import TimeGrid, _dual_states, containment_summary, dual_path_stats, quantile
from .rng import stream

__all__ = [
    "mn_dual_path",
    "sample_initial",
    "mild_solution",
    "weak_form_residual",
    "heat_convergence_report",
    "tightness_report",
]


def mn_dual_path(particles: ParticleEnsemble, basis: BasisSpec) -> np.ndarray:
    """Coordinate paths of the particle martingale as dual paths, shape
    ``(..., J+1, N)``: one per repetition of a block, each with the bits the
    repetition gets alone.

    Coordinate ``k`` at each node equals the scalar Euler sum against the
    ``k``-th basis function, all computed from the same particle realization.
    """
    return _mn_dual_states(particles, basis)[0]


def sample_initial(
    kind: str,
    basis: BasisSpec,
    seed: int,
    *,
    r: float | None = None,
    scale: float = 1.0,
    coeffs=None,
    stream_id=0,
    tag: str = "initial",
) -> DualElement:
    """Draw an initial dual state: ``zero``, ``fixed-coeffs`` or ``gaussian``.

    The gaussian kind draws coefficient ``k`` from
    Normal(0, scale^2 (2k+1)^(-2r)) and requires ``r > 1/2`` so the dual
    norm stays summable as the truncation grows.  It uses the stream keyed
    by ``(seed, tag, *stream_id)`` (one index or a tuple of them),
    independent of every particle stream.  A bool or a string for ``r`` or
    ``scale`` raises ``TypeError``; a draw too large for floating point
    raises :class:`NumericalIntegrityError`.
    """
    if kind == "zero":
        return DualElement(basis, np.zeros(basis.size))
    if kind == "fixed-coeffs":
        if coeffs is None:
            raise ValueError("fixed-coeffs initial state needs coeffs")
        return DualElement(basis, np.asarray(coeffs, dtype=float))
    if kind == "gaussian":
        _require_number(r=r, scale=scale)
        if r is None or not r > 0.5:
            raise ValueError("gaussian initial state requires r > 1/2")
        if not np.isfinite(scale):
            raise ValueError("gaussian initial state scale must be finite")
        ids = stream_id if isinstance(stream_id, tuple) else (stream_id,)
        gen = stream(seed, tag, *ids)
        coeffs = gen.standard_normal(basis.size) * (float(scale) * _weights(-float(r), basis.size))
        if not np.all(np.isfinite(coeffs)):
            raise NumericalIntegrityError(f"gaussian initial state of scale {scale!r} overflows")
        return DualElement(basis, coeffs)
    raise ValueError(f"unknown initial-state kind {kind!r}")


def _initial_states(eta: dict, basis: BasisSpec, seed: int, tag: str, ids) -> np.ndarray:
    """``(len(ids), N)`` initial coefficients by the ``eta`` spec: path ``i`` (an
    index or a tuple of them) draws from the stream ``(tag, *i)`` in any block."""
    rows = [sample_initial(basis=basis, seed=seed, stream_id=i, tag=tag, **eta).coeffs for i in ids]
    return np.array(rows).reshape(len(ids), basis.size)


# ---------------------------------------------------------------------------
# mild solver
# ---------------------------------------------------------------------------


# steps of one scan chunk at most, a memory bound only: a chunk's cached powers
# are two (chunk, N) arrays, 0.5 MB at N = 64, however long the grid
_CHUNK_ROWS = 512


@lru_cache(maxsize=32)
def _laplacian_blocks(size: int) -> tuple:
    """``(lam, V)`` of ``eigh`` per parity block of ``Lap`` (even modes, then
    odd): ``Lap`` couples mode ``k`` only with ``k`` and ``k +- 2``, so it is
    zero at every even-odd entry and the two blocks diagonalize it, ``lam <= 0``."""
    lap = _laplacian_op(size)
    return tuple(tuple(map(_as_readonly, np.linalg.eigh(lap[parity::2, parity::2]))) for parity in (0, 1))


@lru_cache(maxsize=32)
def _scan_operators(size: int, dt: float) -> tuple[int, tuple]:
    """The chunk length ``c`` of the scan at step ``dt`` and, per parity block,
    ``(V lam, V, exp(lam dt i) for i = 1..c, exp(-lam dt l) for l < c, dt V^T)``.

    ``|lam_min| dt (c - 1) <= 600`` keeps every power finite; ``c = 1`` when a
    single step exceeds that, and ``c`` is at most ``_CHUNK_ROWS``.  A step
    whose ``|lam_min| dt`` overflows raises :class:`NumericalIntegrityError`.
    """
    blocks = _laplacian_blocks(size)
    rate = -dt * min(float(lam.min(initial=0.0)) for lam, _ in blocks)
    if not np.isfinite(rate):  # lam dt = -inf would make exp(-lam dt l) NaN at l = 0
        raise NumericalIntegrityError(f"heat step dt = {dt!r} overflows the scan's exponents")
    chunk = _CHUNK_ROWS if rate * (_CHUNK_ROWS - 1) <= 600.0 else 1 + int(600.0 // rate)
    steps = np.arange(chunk + 1.0)[:, None]
    ops = tuple(
        (vecs * lam, vecs, np.exp(lam * dt * steps[1:]), np.exp(-lam * dt * steps[:-1]), dt * vecs.T)
        for lam, vecs in blocks
    )
    for op in ops:  # fresh arrays, frozen in place: a read-only copy would double the peak
        for a in op:
            a.flags.writeable = False
    return chunk, ops


def _mild_states(driver_states: np.ndarray, eta_coeffs: np.ndarray, dt: float) -> np.ndarray:
    """Mild-solution states for a batch: shapes (..., J+1, N) and (..., N).

    One accumulator carries the initial state and the left-point Duhamel
    sum: ``D_0 = eta / dt`` and ``D_j = (D_{j-1} + Lap M_{t_{j-1}}) E(dt)``
    give ``Y_{t_j} = dt D_j + M_{t_j}``.  The recurrence runs as a scan in
    the eigenbasis of ``Lap``, one parity block at a time: with ``Lap V =
    V lam``, ``a = exp(lam dt)``, ``d = D V``, ``b_l = M_{t_l} V lam`` and
    ``d_0 = (eta / dt) V``, the ``c`` steps of a chunk from step ``s`` are the
    closed form ``d_{s+i} = a^i (d_s + sum_{l<i} a^{-l} b_{s+l})``, one
    ``cumsum``, and ``Y = (dt d) V^T + M``.  Chunks keep ``|lam_min| dt (c - 1)
    <= 600`` (see :func:`_scan_operators`).  The eigenbasis is cached by ``N``
    and the chunk's powers by ``(N, dt)``, both built at the first solve.

    Each path is solved on its own and written straight into the result, so
    every path of any batch gets the bits of its lone solve.  The states are
    within 5e-14 of the largest state of the per-step form on the Pade
    ``E(dt)`` (1.6e-14 at N = 64, J = 1000).  An overflowing ``eta / dt`` or
    ``|lam_min| dt`` raises :class:`NumericalIntegrityError`.
    """
    with np.errstate(over="ignore"):
        start = eta_coeffs / dt
    if not np.all(np.isfinite(start)):
        raise NumericalIntegrityError(f"initial state over dt = {dt!r} overflows")
    rows, size = driver_states.shape[-2:]
    lead = driver_states.shape[:-2]
    eta, start = np.broadcast_to(eta_coeffs, lead + (size,)), np.broadcast_to(start, lead + (size,))
    chunk, blocks = _scan_operators(size, float(dt))
    out = np.empty(driver_states.shape)
    for path in np.ndindex(lead):
        m, y = driver_states[path], out[path]
        y[0] = eta[path] + m[0]
        for parity, (vlam, vecs, up, down, vt_dt) in enumerate(blocks):
            mp = np.ascontiguousarray(m[:, parity::2])
            d, carry = mp[:-1] @ vlam, start[path][parity::2] @ vecs
            for s in range(0, rows - 1, chunk):
                w = d[s : s + chunk]
                w *= down[: len(w)]
                w[0] += carry
                np.cumsum(w, axis=0, out=w)
                w *= up[: len(w)]
                carry = w[-1]
            np.add(d @ vt_dt, mp[1:], out=y[1:, parity::2])
    return out


def mild_solution(driver, eta, grid: TimeGrid) -> np.ndarray:
    """Solve the heat evolution driven by ``driver`` (``(..., J+1, N)``) from
    initial coefficients ``eta`` (broadcasting to ``(..., N)``).  Every path
    of a block gets the bits of its lone solve."""
    driver = _dual_states(driver, grid, "driver")
    return _mild_states(driver, _initial_coeffs(eta, driver.shape[:-2] + driver.shape[-1:]), grid.dt)


def weak_form_residual(solution, driver, eta, phi: TestFunction, grid: TimeGrid) -> np.ndarray:
    """Largest violation of the integrated weak form along the grid, per path.

    Checks ``<Y_t, phi> = <eta, phi> + int_0^t <Y_r, Lap phi> dr + <M_t, phi>``
    with the trapezoid rule for the time integral; returns the max over grid
    nodes of the absolute defect, shape ``(...)`` for paths ``(..., J+1, N)``.
    Each path's ``<eta, phi>`` is its own dot product (a unit axis before
    ``N``), so every path in a block gets the bits it gets alone.
    """
    y_states = _dual_states(solution, grid, "solution")
    m_states = _dual_states(driver, grid, "driver")
    if m_states.shape != y_states.shape or y_states.shape[-1] != phi.basis.size:
        raise ValueError("solution, driver and phi must share a basis and a shape")
    eta = _initial_coeffs(eta, y_states.shape[:-2] + (phi.basis.size,))
    start = eta[..., None, :] @ phi.coeffs  # (..., 1)
    y = y_states @ phi.coeffs
    integrand = y_states @ (laplacian_op(phi.basis) @ phi.coeffs)
    integral = _cumulative(0.5 * grid.dt * (integrand[..., 1:] + integrand[..., :-1]))
    defect = y - start - integral - m_states @ phi.coeffs
    return np.max(np.abs(defect), axis=-1)


def _initial_coeffs(eta, shape: tuple) -> np.ndarray:
    """Finite initial coefficients ``eta`` broadcast to ``shape``, ``(..., N)``."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape[-1:] != shape[-1:] or not np.all(np.isfinite(eta)):
        raise ValueError(f"eta must hold {shape[-1]} finite coefficients per path")
    return np.broadcast_to(eta, shape)


# ---------------------------------------------------------------------------
# ensemble pipeline
# ---------------------------------------------------------------------------


def _limit_driver_chunk(factors: np.ndarray, basis: BasisSpec, seed: int, indices) -> np.ndarray:
    """Dual driver states for the given path indices, shape (len, J+1, N).

    Normals are drawn per path from streams ``("limit", index)``, so the
    draws are independent of chunking and threading.
    """
    steps, modes = factors.shape[0], factors.shape[1]
    z = np.empty((len(indices), steps, modes))
    for c, idx in enumerate(indices):
        z[c] = stream(seed, "limit", int(idx)).standard_normal((steps, modes))
    return _limit_states(factors, z, basis.size)


def _terminal_weights(
    factors: np.ndarray, basis: BasisSpec, grid: TimeGrid, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The terminal value ``<Y_T, phi>`` of a limit-driven mild solution as a
    linear functional of its normals ``z`` (``(steps, m)``) and initial state:
    ``<eta, E(T) phi> + sum_j z_j . w_j``.

    By duality with the left-point Duhamel sum of :func:`_mild_states`, step
    ``j``'s increment ``F_j z_j`` enters with ``v_j = phi + dt sum_{j<l<J}
    Lap E(T - t_l) phi``, so ``w_j = F_j^T v_j[:m]``.  Returns ``(w, E(T) phi)``.
    The flows ``E(k dt) phi`` are the mild solve from ``phi`` with a zero
    driver, the scan every solved path goes through.
    """
    flows = _mild_states(np.zeros((grid.steps + 1, basis.size)), phi, grid.dt)  # flows[k] = E(k dt) phi
    tails = _cumulative(flows[1:-1] @ laplacian_op(basis), axis=0)  # tails[i] = sum_{k=1..i} Lap E(k dt) phi
    v = phi + grid.dt * tails[::-1]
    return np.einsum("jkm,jk->jm", factors, v[:, : factors.shape[1]]), flows[-1]


def _calibration_sample(etas, weights, flow, seed: int, rep: int, side: int) -> np.ndarray:
    """Terminal values ``<eta, E(T) phi> + sum_j z_j . w_j`` of one limit path
    per row of ``etas`` (see :func:`_terminal_weights`); path ``i`` draws ``z``
    from the stream ``("calibration", rep, side, i)``."""
    out = np.empty(len(etas))
    for i, eta in enumerate(etas):
        z = stream(seed, "calibration", rep, side, i).standard_normal(weights.shape)
        out[i] = eta @ flow + np.vdot(z, weights)
    return out


# driver states per heat limit chunk, a memory bound only: max(1, _LIMIT_STATES // ((J+1) N)) paths
_LIMIT_STATES = 4_000_000


# ---------------------------------------------------------------------------
# weak-convergence experiment
# ---------------------------------------------------------------------------


def heat_convergence_report(cfg: dict, *, threads: int = 1, collect_paths: bool = False):
    """Weak-convergence experiment for the stochastic heat equation.

    ``cfg`` is a ``heat`` scenario config, materialized and checked by
    :func:`~nucleartight.config.materialize` (a ``ConfigError`` names a field
    that breaks a rule).  For each particle count the experiment solves
    ``reps`` independent realizations and compares the solution values at
    the requested ``(phi, t)`` cells against an equal-size sample of
    limit-driven solutions (same solver, same grid).  Reports per-cell
    two-sample KS statistics, per-n joint energy distances and tightness
    summaries, the per-repetition weak-form residual gate, and a null
    calibration of the KS p-value under identical laws.

    The calibration compares two samples of ``<Y_T, phi_0>`` from limit-driven
    solutions on the calibration grid.  It solves no path: each value is the
    weak-form functional of :func:`_terminal_weights` applied to the path's
    normals and initial state, drawn from the streams a full limit path
    would use.  It agrees with the mild solve to rounding, and the p-values
    depend only on the ranks of the two samples.

    Returns ``(cells, extras)``.
    """
    cfg = materialize("heat", cfg)
    basis, grid = _basis_from(cfg), _grid_from(cfg)
    phis = _phis_from(cfg, basis)
    times = [float(t) for t in cfg["times"]]
    reps, seed, limit_modes = cfg["reps"], cfg["seed"], cfg["limit_modes"]
    tightness_index, levels, deltas = _tightness_from(cfg)

    cell_vectors = [(phi.coeffs, grid.index_of(t)) for phi, t in product(phis, times)]
    gate = float(cfg["residual_gate_factor"]) * grid.dt
    limit_dmat = derivative_op(basis)[:, :limit_modes]  # the first limit_modes coordinates
    factors = _limit_factors(grid, basis, limit_dmat)

    def reduce(drivers, tag, ids):
        """Solve the paths ``ids`` from the initial-state streams ``(tag, i)``;
        per path: cell values, sup, moduli, the largest weak-form residual over
        every phi, and the solution itself when paths are collected."""
        etas = _initial_states(cfg["eta"], basis, seed, tag, ids)
        sols = _mild_states(drivers, etas, grid.dt)
        cells = np.concatenate([sols[:, j, None, :] @ c for c, j in cell_vectors], axis=1)
        sup, mods = dual_path_stats(sols, grid, deltas, tightness_index)
        resid = np.max([weak_form_residual(sols, drivers, etas, phi, grid) for phi in phis], axis=0)
        return cells, sup, mods, resid, sols if collect_paths else None

    def summary(sup, mods, resid) -> dict:
        resid_max = float(resid.max())
        return {
            "tightness": containment_summary(sup, mods, levels, deltas),
            "residual_max": resid_max,
            "residual_gate": gate,
            "residual_pass": bool(resid_max < gate),
        }

    # --- limit-driven sample ---------------------------------------------
    def limit_chunk(ids):
        return reduce(_limit_driver_chunk(factors, basis, seed, ids), "limit-initial", ids)

    chunk = max(1, _LIMIT_STATES // ((grid.steps + 1) * basis.size))
    limit_cells, *stats, limit_paths = map_blocks(reps, chunk, threads, limit_chunk)
    extras = {"per_n": {}, "limit": {"modes": limit_modes, **summary(*stats)}, "paths": {}}
    if collect_paths:
        extras["paths"]["limit"] = limit_paths

    # --- particle-driven samples ------------------------------------------
    def particle_block(particles):
        return reduce(mn_dual_path(particles, basis), "initial", particles.stream_id)

    limit_within = diagnostics.distance_matrix(limit_cells)  # shared by every n
    cells = []
    for n in cfg["n_list"]:
        n_cells, *stats, n_paths = run_blocks(n, reps, grid, basis, seed, threads, particle_block)
        energy, energy_se = diagnostics.energy_distance_with_se(n_cells, limit_cells, y_within=limit_within)
        extras["per_n"][n] = {"energy": energy, "energy_se": energy_se, **summary(*stats)}
        if collect_paths:
            extras["paths"][n] = n_paths

        for pos, (phi, t) in enumerate(product(phis, times)):
            a = n_cells[:, pos]
            b = limit_cells[:, pos]
            ks = diagnostics.ks_two_sample(a, b)
            cells.append(
                {
                    "n": n,
                    "phi": _phi_label(phi),
                    "t": t,
                    "ks": ks.statistic,
                    "ks_critical": ks.critical_1,
                    "ks_critical_5": ks.critical_5,
                    "ks_pvalue": diagnostics.ks_pvalue(ks.statistic, len(a), len(b)),
                    "mean_n": float(a.mean()),
                    "var_n": float(a.var(ddof=1)),
                    "mean_limit": float(b.mean()),
                    "var_limit": float(b.var(ddof=1)),
                    "energy": energy,
                    "energy_se": energy_se,
                }
            )

    # --- null calibration ---------------------------------------------------
    cal = cfg["calibration"]
    if cal["reps"] > 0:
        cal_grid = TimeGrid(grid.horizon, cal["steps"] or grid.steps)
        cal_factors = factors if cal_grid == grid else _limit_factors(cal_grid, basis, limit_dmat)
        # the calibration is a pure null check, so the cell choice is free;
        # the horizon is a node of every grid
        weights, flow = _terminal_weights(cal_factors, basis, cal_grid, phis[0].coeffs)

        def sample(rep, side):
            ids = [(rep, side, i) for i in range(cal["size"])]
            etas = _initial_states(cfg["eta"], basis, seed, "calibration-initial", ids)
            return _calibration_sample(etas, weights, flow, seed, rep, side)

        def one_calibration(rep):
            ks = diagnostics.ks_two_sample(sample(rep, 0), sample(rep, 1))
            return diagnostics.ks_pvalue(ks.statistic, cal["size"], cal["size"])

        pvalues = parallel_map(one_calibration, cal["reps"], threads)
        frac = float(np.mean(np.asarray(pvalues) < 0.05))
        extras["calibration"] = {
            "reps": cal["reps"],
            "size": cal["size"],
            "steps": cal_grid.steps,
            "fraction_below_5": frac,
            "pvalues": [float(p) for p in pvalues],
        }

    return cells, extras


def tightness_report(cfg: dict, *, threads: int = 1):
    """Exceedance tables and modulus curves for drivers and solutions.

    ``cfg`` is a ``tightness`` scenario config, materialized and checked by
    :func:`~nucleartight.config.materialize` (a ``ConfigError`` names a field
    that breaks a rule).  For each particle count the report summarizes the
    dual paths of the martingale drivers and of the heat solutions they
    drive: sup-norm exceedance frequencies at each level, modulus quantile
    curves over the delta grid, and the ``quantile`` level of the running
    sup norm.  The gate requires the driver sup-norm quantile to stay within
    a factor ``gate_ratio`` across the n-list.

    Returns ``(cells, extras)`` with ``extras["gate"]`` carrying the verdict.
    """
    cfg = materialize("tightness", cfg)
    basis, grid = _basis_from(cfg), _grid_from(cfg)
    n_list, reps, seed = cfg["n_list"], cfg["reps"], cfg["seed"]
    level, gate_ratio = float(cfg["quantile"]), float(cfg["gate_ratio"])
    tightness_index, levels, deltas = _tightness_from(cfg)
    weights = _weights(-tightness_index, basis.size)

    def particle_block(particles):
        drivers = mn_dual_path(particles, basis)
        etas = _initial_states(cfg["eta"], basis, seed, "initial", particles.stream_id)
        sols = _mild_states(drivers, etas, grid.dt)
        both = np.stack((drivers, sols), axis=1)  # (reps, driver or solution, J+1, N)
        sups, mods = dual_path_stats(both, grid, deltas, tightness_index)
        ends = np.sqrt(np.sum((both[:, :, -1] * weights) ** 2, axis=-1))
        return sups, mods, ends

    cells = []
    for n in n_list:
        sups, mods, ends = run_blocks(n, reps, grid, basis, seed, threads, particle_block)
        cell = {"n": n, "quantile": level}
        for name, i in (("driver", 0), ("solution", 1)):
            cell[name] = containment_summary(sups[:, i], mods[:, i], levels, deltas)
            cell[name]["sup_quantile"] = float(quantile(sups[:, i], level))
            cell[name]["end_norm_median"] = float(quantile(ends[:, i], 0.5))
        cells.append(cell)

    q_values = np.array([cell["driver"]["sup_quantile"] for cell in cells])
    ratio = float(q_values.max() / q_values.min()) if q_values.min() > 0 else float("inf")
    extras = {
        "gate": {
            "quantile": level,
            "ratio": ratio,
            "limit": gate_ratio,
            "pass": bool(ratio <= gate_ratio),
        }
    }
    return cells, extras
