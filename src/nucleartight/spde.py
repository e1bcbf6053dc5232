"""Stochastic heat equation driven by the particle martingales.

The evolution ``dY_t = Lap Y_t dt + dM_t`` with initial state ``eta`` is
solved in coefficients by the variation-of-constants (mild) form

    Y_{t_j} = E(t_j) eta + dt * sum_{l < j} E(t_j - t_l) Lap M_{t_l} + M_{t_j},

where ``E`` is the heat semigroup, ``Lap`` the truncated second-derivative
matrix, and the Duhamel sum uses the left-point rule on the driver grid:
first order in dt, matching the Euler order of the driver itself (a
higher-order rule would merely cancel against the trapezoid weak-form
check instead of exposing the solver's true order).

``weak_form_residual`` measures how well a path satisfies the integrated
weak form; for mild solutions it decays at first order in dt.

``heat_convergence_report`` compares solutions driven by the ``n``-particle
martingales against solutions driven by the sampled Gaussian limit, pushed
through the identical solver and grid so discretization bias cancels in the
two-sample statistics.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics
from .hermite import (
    BasisSpec,
    DualElement,
    SeminormIndex,
    TestFunction,
    derivative_op,
    heat_matrix,
    laplacian_op,
    pairing,
)
from .martingales import (
    ParticleEnsemble,
    QuadraticForm,
    _mn_dual_states,
    _phi_label,
    _sqrt_factors,
    parallel_map,
    simulate_particles,
)
from .paths import (
    DualPath,
    TimeGrid,
    containment_summary,
    dual_path_stats,
)
from .rng import stream

__all__ = [
    "mn_dual_path",
    "sample_initial",
    "mild_solution",
    "weak_form_residual",
    "heat_convergence_report",
    "tightness_report",
]


def mn_dual_path(particles: ParticleEnsemble, basis: BasisSpec) -> DualPath:
    """Coordinate paths of the particle martingale as one dual-valued path.

    Coordinate ``k`` at each node equals the scalar Euler sum against the
    ``k``-th basis function, all computed from the same particle realization.
    """
    return DualPath(particles.grid, basis, _mn_dual_states(particles, basis))


def sample_initial(
    kind: str,
    basis: BasisSpec,
    seed: int,
    *,
    r: float | None = None,
    scale: float = 1.0,
    coeffs=None,
    stream_id: int = 0,
) -> DualElement:
    """Draw an initial dual state: ``zero``, ``fixed-coeffs`` or ``gaussian``.

    The gaussian kind draws coefficient ``k`` from
    Normal(0, scale^2 (2k+1)^(-2r)) and requires ``r > 1/2`` so the dual
    norm stays summable as the truncation grows.  Uses the stream tagged
    ``"initial"``, independent of every particle stream.
    """
    if kind == "zero":
        return DualElement(basis, np.zeros(basis.size))
    if kind == "fixed-coeffs":
        if coeffs is None:
            raise ValueError("fixed-coeffs initial state needs coeffs")
        return DualElement(basis, np.asarray(coeffs, dtype=float))
    if kind == "gaussian":
        if r is None or r <= 0.5:
            raise ValueError("gaussian initial state requires r > 1/2")
        gen = stream(seed, "initial", stream_id)
        k = np.arange(basis.size)
        sd = scale * (2.0 * k + 1.0) ** (-float(r))
        return DualElement(basis, gen.standard_normal(basis.size) * sd)
    raise ValueError(f"unknown initial-state kind {kind!r}")


# ---------------------------------------------------------------------------
# mild solver
# ---------------------------------------------------------------------------


def _laplacian_bands(basis: BasisSpec):
    lap = laplacian_op(basis)
    return np.diagonal(lap).copy(), np.diagonal(lap, offset=2).copy()


def _apply_laplacian(states: np.ndarray, main: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Pentadiagonal ``states @ Lap`` along the last axis (Lap symmetric)."""
    out = states * main
    out[..., :-2] += states[..., 2:] * off
    out[..., 2:] += states[..., :-2] * off
    return out


def _mild_states(
    driver_states: np.ndarray,
    eta_coeffs: np.ndarray,
    e_dt: np.ndarray,
    main: np.ndarray,
    off: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Mild-solution states for a batch: shapes (..., J+1, N) and (..., N).

    Left-point Duhamel sum evaluated recursively with one semigroup
    application per step, so the whole path costs O(J N^2).
    """
    lm = _apply_laplacian(driver_states, main, off)
    out = np.empty_like(driver_states)
    eta_flow = np.broadcast_to(eta_coeffs, driver_states[..., 0, :].shape).copy()
    out[..., 0, :] = eta_flow + driver_states[..., 0, :]
    duhamel = np.zeros_like(eta_flow)
    steps = driver_states.shape[-2] - 1
    for j in range(1, steps + 1):
        duhamel = (duhamel + lm[..., j - 1, :]) @ e_dt
        eta_flow = eta_flow @ e_dt
        out[..., j, :] = eta_flow + dt * duhamel + driver_states[..., j, :]
    return out


def mild_solution(driver: DualPath, eta: DualElement) -> DualPath:
    """Solve the heat evolution driven by ``driver`` from initial state ``eta``."""
    if driver.basis != eta.basis:
        raise ValueError("driver and initial state must share a basis")
    basis = driver.basis
    main, off = _laplacian_bands(basis)
    e_dt = heat_matrix(driver.grid.dt, basis)
    states = _mild_states(driver.states, eta.coeffs, e_dt, main, off, driver.grid.dt)
    return DualPath(driver.grid, basis, states)


def weak_form_residual(
    solution: DualPath, driver: DualPath, eta: DualElement, phi: TestFunction
) -> float:
    """Largest violation of the integrated weak form along the grid.

    Checks ``<Y_t, phi> = <eta, phi> + int_0^t <Y_r, Lap phi> dr + <M_t, phi>``
    with the trapezoid rule for the time integral; returns the max over grid
    nodes of the absolute defect.
    """
    if solution.basis != driver.basis or solution.basis != phi.basis:
        raise ValueError("solution, driver and phi must share a basis")
    if solution.grid != driver.grid:
        raise ValueError("solution and driver must share a grid")
    y = solution.states @ phi.coeffs
    m = driver.states @ phi.coeffs
    lap_phi = laplacian_op(phi.basis) @ phi.coeffs
    integrand = solution.states @ lap_phi
    dt = solution.grid.dt
    integral = np.empty_like(y)
    integral[0] = 0.0
    np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]), out=integral[1:])
    defect = y - pairing(eta, phi) - integral - m
    return float(np.max(np.abs(defect)))


# ---------------------------------------------------------------------------
# weak-convergence experiment
# ---------------------------------------------------------------------------


def _eta_sampler(eta_spec: dict, basis: BasisSpec, seed: int, tag: str, prefix=()):
    """Per-repetition initial-state sampler with its own stream namespace."""
    spec = dict(eta_spec or {"kind": "zero"})
    kind = spec.get("kind", "zero")

    def sample(idx: int) -> np.ndarray:
        if kind == "zero":
            return np.zeros(basis.size)
        if kind == "fixed-coeffs":
            return np.asarray(spec["coeffs"], dtype=float)
        if kind == "gaussian":
            gen = stream(seed, tag, *prefix, idx)
            k = np.arange(basis.size)
            r = float(spec["r"])
            if r <= 0.5:
                raise ValueError("gaussian initial state requires r > 1/2")
            sd = float(spec.get("scale", 1.0)) * (2.0 * k + 1.0) ** (-r)
            return gen.standard_normal(basis.size) * sd
        raise ValueError(f"unknown initial-state kind {kind!r}")

    return sample


def _limit_factors(
    form: QuadraticForm, grid: TimeGrid, basis: BasisSpec, modes: int
) -> np.ndarray:
    """Increment-covariance square roots for the first ``modes`` coordinates."""
    if modes < 1 or modes > basis.size:
        raise ValueError("limit modes must satisfy 1 <= modes <= basis.size")
    dmat = derivative_op(basis)[:, :modes]
    return _sqrt_factors(form.increment_covariances(grid, dmat))


def _limit_driver_chunk(
    factors: np.ndarray,
    basis: BasisSpec,
    grid: TimeGrid,
    seed: int,
    tag: str,
    indices,
    prefix=(),
) -> np.ndarray:
    """Dual driver states for the given path indices, shape (len, J+1, N).

    Normals are drawn per path from streams keyed by the path index, so the
    result is independent of chunking and threading.
    """
    steps, modes = factors.shape[0], factors.shape[1]
    z = np.empty((len(indices), steps, modes))
    for c, idx in enumerate(indices):
        z[c] = stream(seed, tag, *prefix, int(idx)).standard_normal((steps, modes))
    inc = np.einsum("cjm,jkm->cjk", z, factors)
    states = np.zeros((len(indices), steps + 1, basis.size))
    np.cumsum(inc, axis=1, out=states[:, 1:, :modes])
    return states


def _path_stats(states, grid, cell_vectors, r_index, deltas):
    """Cell values, sup dual norm and modulus row for one solution path."""
    cells = np.array([states[j] @ c for c, j in cell_vectors])
    sup, mods = dual_path_stats(states, grid, deltas, r_index)
    return cells, sup, mods


def heat_convergence_report(
    n_list,
    eta_spec,
    phis,
    times,
    reps: int,
    seed: int,
    grid: TimeGrid,
    *,
    limit_modes: int = 16,
    threads: int = 1,
    form: QuadraticForm | None = None,
    calibration_reps: int = 50,
    calibration_size: int = 500,
    calibration_steps: int | None = None,
    tightness_index: float = 1.0,
    tightness_levels=(0.5, 1.0, 2.0, 4.0),
    tightness_deltas=(0.01, 0.02, 0.05, 0.1, 0.2),
    residual_gate_factor: float = 10.0,
    collect_paths: bool = False,
):
    """Weak-convergence experiment for the stochastic heat equation.

    For each particle count the experiment solves ``reps`` independent
    realizations and compares the solution values at the requested
    ``(phi, t)`` cells against an equal-size sample of limit-driven
    solutions (same solver, same grid).  Reports per-cell two-sample KS
    statistics, per-n joint energy distances and tightness summaries, the
    per-repetition weak-form residual gate, and a null calibration of the
    KS p-value under identical laws.

    Returns ``(cells, extras)``.
    """
    phis = list(phis)
    times = [float(t) for t in times]
    n_list = [int(n) for n in n_list]
    if not phis or not times or not n_list:
        raise ValueError("n_list, phis and times must be nonempty")
    if reps < 2:
        raise ValueError("need at least two repetitions")
    basis = phis[0].basis
    for phi in phis:
        if phi.basis != basis:
            raise ValueError("test functions must share a basis")
    if form is None:
        form = QuadraticForm(basis)
    if isinstance(eta_spec, (list, tuple)):
        if len(eta_spec) != len(n_list):
            raise ValueError("per-n eta specs must match n_list length")
        eta_specs = [dict(e or {"kind": "zero"}) for e in eta_spec]
        limit_eta_spec = eta_specs[-1]
    else:
        eta_specs = [dict(eta_spec or {"kind": "zero"})] * len(n_list)
        limit_eta_spec = dict(eta_spec or {"kind": "zero"})

    t_idx = [grid.index_of(t) for t in times]
    cell_vectors = [(phi.coeffs, j) for phi in phis for j in t_idx]
    main, off = _laplacian_bands(basis)
    e_dt = heat_matrix(grid.dt, basis)
    deltas = [float(d) for d in tightness_deltas]
    levels = [float(c) for c in tightness_levels]
    gate = residual_gate_factor * grid.dt
    factors = _limit_factors(form, grid, basis, limit_modes)

    # --- limit-driven sample ---------------------------------------------
    limit_eta = _eta_sampler(limit_eta_spec, basis, seed, "limit-initial")

    def limit_batch(tag: str, count: int, eta_sampler, collect=False):
        chunk = max(1, 4_000_000 // ((grid.steps + 1) * basis.size))
        all_cells = np.empty((count, len(cell_vectors)))
        sups = np.empty(count)
        mods = np.empty((count, len(deltas)))
        resid = np.empty(count)
        kept = [] if collect else None
        for a in range(0, count, chunk):
            idx = range(a, min(a + chunk, count))
            drivers = _limit_driver_chunk(factors, basis, grid, seed, tag, idx)
            etas = np.array([eta_sampler(i) for i in idx])
            sols = _mild_states(drivers, etas, e_dt, main, off, grid.dt)
            for c, i in enumerate(idx):
                all_cells[i], sups[i], mods[i] = _path_stats(
                    sols[c], grid, cell_vectors, tightness_index, deltas
                )
                resid[i] = max(
                    weak_form_residual(
                        DualPath(grid, basis, sols[c]),
                        DualPath(grid, basis, drivers[c]),
                        DualElement(basis, etas[c]),
                        phi,
                    )
                    for phi in phis
                )
                if collect:
                    kept.append(sols[c])
        return all_cells, sups, mods, resid, kept

    limit_cells, limit_sups, limit_mods, limit_resid, limit_paths = limit_batch(
        "limit", reps, limit_eta, collect_paths
    )

    extras = {
        "per_n": {},
        "limit": {
            "modes": limit_modes,
            "tightness": containment_summary(limit_sups, limit_mods, levels, deltas),
            "residual_max": float(limit_resid.max()),
            "residual_gate": gate,
            "residual_pass": bool(limit_resid.max() < gate),
        },
        "paths": {},
    }
    if collect_paths:
        extras["paths"]["limit"] = limit_paths

    # --- particle-driven samples ------------------------------------------
    cells = []
    for n_pos, n in enumerate(n_list):
        eta_sampler = _eta_sampler(eta_specs[n_pos], basis, seed, "initial")

        def one_rep(rep, n=n, eta_sampler=eta_sampler):
            particles = simulate_particles(n, grid, seed, stream_id=rep)
            driver_states = _mn_dual_states(particles, basis)
            eta_coeffs = eta_sampler(rep)
            sol = _mild_states(driver_states, eta_coeffs, e_dt, main, off, grid.dt)
            vals, sup, mods_row = _path_stats(
                sol, grid, cell_vectors, tightness_index, deltas
            )
            resid = max(
                weak_form_residual(
                    DualPath(grid, basis, sol),
                    DualPath(grid, basis, driver_states),
                    DualElement(basis, eta_coeffs),
                    phi,
                )
                for phi in phis
            )
            return vals, sup, mods_row, resid, sol if collect_paths else None

        results = parallel_map(one_rep, reps, threads)
        n_cells = np.array([r[0] for r in results])
        sups = np.array([r[1] for r in results])
        mods = np.array([r[2] for r in results])
        resid = np.array([r[3] for r in results])

        energy, energy_se = diagnostics.energy_distance_with_se(n_cells, limit_cells)
        extras["per_n"][n] = {
            "energy": energy,
            "energy_se": energy_se,
            "tightness": containment_summary(sups, mods, levels, deltas),
            "residual_max": float(resid.max()),
            "residual_gate": gate,
            "residual_pass": bool(resid.max() < gate),
        }
        if collect_paths:
            extras["paths"][n] = [r[4] for r in results]

        pos = 0
        for phi in phis:
            for t in times:
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
                pos += 1

    # --- null calibration ---------------------------------------------------
    if calibration_reps > 0:
        cal_grid = (
            grid
            if calibration_steps is None or calibration_steps == grid.steps
            else TimeGrid(grid.horizon, int(calibration_steps))
        )
        cal_factors = (
            factors
            if cal_grid is grid
            else _limit_factors(form, cal_grid, basis, limit_modes)
        )
        cal_e_dt = e_dt if cal_grid is grid else heat_matrix(cal_grid.dt, basis)
        # the calibration is a pure null check, so the cell choice is free;
        # the horizon is a node of every grid
        cal_vectors = [(phis[0].coeffs, cal_grid.steps)]

        def one_calibration(rep):
            out = []
            for side in (0, 1):
                eta_s = _eta_sampler(
                    limit_eta_spec, basis, seed, "calibration-initial", (rep, side)
                )
                chunkvals = np.empty((calibration_size, len(cal_vectors)))
                chunk = max(1, 4_000_000 // ((cal_grid.steps + 1) * basis.size))
                for a in range(0, calibration_size, chunk):
                    idx = range(a, min(a + chunk, calibration_size))
                    drv = _limit_driver_chunk(
                        cal_factors, basis, cal_grid, seed, "calibration", idx, (rep, side)
                    )
                    etas = np.array([eta_s(i) for i in idx])
                    sols = _mild_states(drv, etas, cal_e_dt, main, off, cal_grid.dt)
                    for c, i in enumerate(idx):
                        chunkvals[i] = [sols[c][j] @ v for v, j in cal_vectors]
                out.append(chunkvals)
            ks = diagnostics.ks_two_sample(out[0][:, 0], out[1][:, 0])
            return diagnostics.ks_pvalue(ks.statistic, calibration_size, calibration_size)

        pvalues = parallel_map(one_calibration, calibration_reps, threads)
        frac = float(np.mean(np.asarray(pvalues) < 0.05))
        extras["calibration"] = {
            "reps": calibration_reps,
            "size": calibration_size,
            "steps": cal_grid.steps,
            "fraction_below_5": frac,
            "pvalues": [float(p) for p in pvalues],
        }

    return cells, extras


def tightness_report(
    n_list,
    eta_spec,
    reps: int,
    seed: int,
    grid: TimeGrid,
    basis: BasisSpec,
    *,
    threads: int = 1,
    quantile: float = 0.99,
    gate_ratio: float = 2.0,
    tightness_index: float = 1.0,
    tightness_levels=(0.5, 1.0, 2.0, 4.0),
    tightness_deltas=(0.01, 0.02, 0.05, 0.1, 0.2),
):
    """Exceedance tables and modulus curves for drivers and solutions.

    For each particle count the report summarizes the dual paths of the
    martingale drivers and of the heat solutions they drive: sup-norm
    exceedance frequencies at each level, modulus quantile curves over the
    delta grid, and the ``quantile`` level of the running sup norm.  The
    gate requires the driver sup-norm quantile to stay within a factor
    ``gate_ratio`` across the n-list.

    Returns ``(cells, extras)`` with ``extras["gate"]`` carrying the verdict.
    """
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if reps < 2:
        raise ValueError("need at least two repetitions")
    deltas = [float(d) for d in tightness_deltas]
    levels = [float(c) for c in tightness_levels]
    main, off = _laplacian_bands(basis)
    e_dt = heat_matrix(grid.dt, basis)
    weights = SeminormIndex(float(tightness_index)).dual_weights(basis.size)

    cells = []
    driver_q = {}
    for n in n_list:
        eta_sampler = _eta_sampler(eta_spec, basis, seed, "initial")

        def one_rep(rep, n=n, eta_sampler=eta_sampler):
            particles = simulate_particles(n, grid, seed, stream_id=rep)
            driver_states = _mn_dual_states(particles, basis)
            sol = _mild_states(
                driver_states, eta_sampler(rep), e_dt, main, off, grid.dt
            )
            both = np.stack((driver_states, sol))
            sups, mods = dual_path_stats(both, grid, deltas, tightness_index)
            ends = np.sqrt(np.sum((both[:, -1] * weights) ** 2, axis=-1))
            # one row: driver (sup, moduli, end norm), then the same for the solution
            return np.column_stack((sups, mods, ends)).ravel()

        rows = np.array(parallel_map(one_rep, reps, threads))
        width = 2 + len(deltas)
        blocks = {}
        for name, start in (("driver", 0), ("solution", width)):
            sups = rows[:, start]
            mods = rows[:, start + 1 : start + 1 + len(deltas)]
            blocks[name] = containment_summary(sups, mods, levels, deltas)
            blocks[name]["sup_quantile"] = float(np.quantile(sups, quantile))
            blocks[name]["end_norm_median"] = float(np.median(rows[:, start + width - 1]))
        driver_q[n] = blocks["driver"]["sup_quantile"]
        cells.append(
            {
                "n": n,
                "quantile": quantile,
                "driver": blocks["driver"],
                "solution": blocks["solution"],
            }
        )

    q_values = np.array([driver_q[n] for n in n_list])
    ratio = float(q_values.max() / q_values.min()) if q_values.min() > 0 else float("inf")
    extras = {
        "gate": {
            "quantile": quantile,
            "ratio": ratio,
            "limit": gate_ratio,
            "pass": bool(ratio <= gate_ratio),
        }
    }
    return cells, extras
