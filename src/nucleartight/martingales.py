"""Particle-average martingales, their quadratic variation, and the Gaussian limit.

For ``n`` independent standard Brownian particles ``B^i`` the rescaled
stochastic-integral family

    M^n_t(phi) = n^(-1/2) sum_i int_0^t phi'(B^i_s) dB^i_s

is simulated with left-point (Ito-consistent) Euler sums on a uniform grid.
Its quadratic variation is the explicit particle average

    <M^n(phi)>_t = n^(-1) sum_i int_0^t phi'(B^i_s)^2 ds,

whose ensemble mean converges to the deterministic variance function

    A(t, phi) = int_0^t E[(phi'(Z_s))^2] ds,       Z_s ~ Normal(0, s),

the variance of the centered Gaussian martingale that the family approaches.
``A`` and the polarized covariance ``C(t; phi, psi)`` are evaluated by nested
quadrature (:class:`QuadraticForm`); :func:`simulate_limit` samples the
limiting Gaussian family directly from its increment covariances.

``clt_report`` packages the empirical checks: quadratic-variation law of
large numbers, Ito isometry, one-dimensional normality (KS), joint
convergence of time-space vectors (energy distance), and path tightness
diagnostics.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import diagnostics
from .config import _basis_from, _grid_from, _phis_from, _tightness_from, materialize
from .hermite import (
    BasisSpec,
    TestFunction,
    derivative_op,
    _gh_rule,
    _hermite_modes,
    _hermite_modes_first,
    _mode_factors,
    _span,
)
from .paths import TimeGrid, containment_summary, dual_path_stats
from .rng import stream

__all__ = [
    "NumericalIntegrityError",
    "ParticleEnsemble",
    "simulate_particles",
    "mn_scalar_path",
    "quadratic_variation_path",
    "QuadraticForm",
    "limit_variance",
    "simulate_limit",
    "clt_report",
    "parallel_map",
    "map_blocks",
    "run_blocks",
]


class NumericalIntegrityError(RuntimeError):
    """A numerical invariant failed (for example an increment covariance
    with a significantly negative eigenvalue, signalling quadrature
    misconfiguration)."""


def parallel_map(fn, count: int, threads: int = 1) -> list:
    """Order-preserving map of ``fn`` over ``range(count)``.

    Thread count is a throughput hint only: each work unit derives its own
    random stream from its index, so results are identical for any value.
    """
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


# ---------------------------------------------------------------------------
# particle system
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """Brownian increments for ``count`` particles on a grid.

    Increments are Normal(0, dt), drawn in one fixed-order block from the
    stream keyed by ``(seed, "particles", stream_id)``, hence independent
    across particles and steps and reproducible bit-for-bit.  A block of
    repetitions stacks one such draw per stream index: ``stream_id`` is then
    a tuple and the increments have shape ``(len(stream_id), count, steps)``.
    """

    count: int
    grid: TimeGrid
    increments: np.ndarray
    stream_id: int | tuple

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape[-2:] != (self.count, self.grid.steps):
            raise ValueError("increments must have shape (..., count, steps)")
        object.__setattr__(self, "increments", inc)

    def positions(self) -> np.ndarray:
        """Particle positions, shape ``(..., count, steps + 1)``, starting at 0."""
        return _cumulative(self.increments)


def simulate_particles(
    n: int, grid: TimeGrid, seed: int, stream_id: int | range | tuple = 0
) -> ParticleEnsemble:
    """Draw ``n`` independent Brownian particles started at zero.

    ``stream_id`` is one stream index, or a sequence of them for a block of
    repetitions whose increments stack to ``(len(stream_id), n, steps)``;
    each repetition's slice has the bits of a single-index call.
    """
    if n < 1:
        raise ValueError("particle count must be >= 1")
    single = isinstance(stream_id, (int, np.integer))
    ids = (stream_id,) if single else tuple(stream_id)
    inc = np.empty((len(ids), n, grid.steps))
    for i, sid in enumerate(ids):
        inc[i] = stream(seed, "particles", sid).normal(0.0, np.sqrt(grid.dt), size=(n, grid.steps))
    return ParticleEnsemble(n, grid, inc[0] if single else inc, stream_id if single else ids)


def _derivative_coeffs(phi: TestFunction) -> np.ndarray:
    return derivative_op(phi.basis) @ phi.coeffs


def _mn_qv_steps(dcoef: np.ndarray, particles: ParticleEnsemble, modes=None):
    """Per-step martingale and quadratic-variation increments.

    Returns ``(mn_steps, qv_steps)``, each of shape ``(..., steps)`` for
    increments of shape ``(..., count, steps)``: left-point evaluation of
    phi' along each particle, paired with the particle's forward increment
    (martingale) or squared and scaled by dt (quadratic variation), summed
    over the particle axis.  ``modes`` kept by :func:`_mn_dual_states` spare
    a recurrence.  One ``matmul`` contracts phi' for a block of repetitions:
    it forms each repetition's product on its own, with the bits the
    repetition gets alone.
    """
    top = _span(dcoef)
    inc = particles.increments
    if modes is None:
        modes = _hermite_modes_first(particles.positions()[..., :-1], top)
    stacked = modes[:top].reshape(top, math.prod(inc.shape[:-2]), inc.shape[-2] * inc.shape[-1])
    vals = np.matmul(dcoef[:top], stacked.swapaxes(0, 1)).reshape(inc.shape)
    root_n = np.sqrt(particles.count)
    mn_steps = (vals * inc).sum(axis=-2) / root_n
    qv_steps = (vals * vals).sum(axis=-2) * (particles.grid.dt / particles.count)
    return mn_steps, qv_steps


def _cumulative(steps: np.ndarray, axis: int = -1) -> np.ndarray:
    """Running sums along ``axis``, from a leading exact zero."""
    axis %= steps.ndim
    lead = (slice(None),) * axis
    out = np.empty(steps.shape[:axis] + (steps.shape[axis] + 1,) + steps.shape[axis + 1 :])
    out[lead + (0,)] = 0.0
    np.cumsum(steps, axis=axis, out=out[lead + (slice(1, None),)])
    return out


def mn_scalar_path(phi: TestFunction, particles: ParticleEnsemble) -> np.ndarray:
    """Euler Ito sum of the rescaled particle martingale against ``phi``,
    shape ``(..., J+1)``: one path per repetition of a block, each with the
    bits the repetition gets alone (see :func:`_mn_qv_steps`)."""
    return _cumulative(_mn_qv_steps(_derivative_coeffs(phi), particles)[0])


def quadratic_variation_path(phi: TestFunction, particles: ParticleEnsemble) -> np.ndarray:
    """Quadratic variation path, shape ``(..., J+1)`` as :func:`mn_scalar_path`:
    nondecreasing, zero at the origin."""
    return _cumulative(_mn_qv_steps(_derivative_coeffs(phi), particles)[1])


# values per (particles, block) mode buffer of _mn_dual_states (512 kB); smaller
# blocks run faster on one thread but stall two pool threads on the GIL
_DRIVER_VALUES = 65_536


def run_blocks(n: int, reps: int, grid: TimeGrid, basis: BasisSpec, seed: int, threads: int, reduce):
    """Map ``reduce`` over repetitions ``0..reps-1`` of ``n`` particles with
    :func:`map_blocks`, in blocks of ``max(1, _DRIVER_VALUES // (J max(n, N)))``
    repetitions: the bound holds both a block's ``(n, J)`` mode buffer and
    its ``(J+1, N)`` states.  That is 20 repetitions for ``n = 5`` and 16 for
    ``n = 20`` at ``J = 200``, ``N = 16``, and one at ``J = 1000``, ``N = 64``.
    The block size depends on ``n``, ``J`` and ``N`` only, never on ``threads``.

    ``reduce`` gets one block's :class:`ParticleEnsemble`.  Repetition ``rep``
    draws from its own stream, so neither the blocks nor ``threads`` change a
    bit when ``reduce`` gives each repetition the bits it gets alone.
    """
    size = max(1, _DRIVER_VALUES // (grid.steps * max(n, basis.size)))
    return map_blocks(reps, size, threads, lambda ids: reduce(simulate_particles(n, grid, seed, ids)))


def map_blocks(count: int, size: int, threads: int, reduce) -> tuple:
    """Map ``reduce`` over consecutive ranges of ``size`` indices of
    ``range(count)``, the last one shorter, on :func:`parallel_map`.

    ``reduce`` returns a tuple of arrays with one leading entry per index,
    or ``None`` for a field it does not collect; each field is concatenated
    in index order, and a ``None`` field stays ``None``.
    """

    def block(i):
        return reduce(range(i * size, min(i * size + size, count)))

    results = parallel_map(block, -(-count // size), threads)
    return tuple(None if parts[0] is None else np.concatenate(parts) for parts in zip(*results))


def _time_blocks(steps: int, width: int):
    """``(a, b)`` bounds of consecutive time blocks of ``max(2, width)`` steps,
    a trailing one-step block merged into the block before it.  Only ``steps
    = 1`` gives a block one step wide: a particle sum over such a block would
    be reduced pairwise instead of in sequence, and its bits would depend on
    the blocks."""
    starts = list(range(0, steps, max(2, width)))
    if len(starts) > 1 and steps - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [steps])


def _mn_dual_states(particles: ParticleEnsemble, basis: BasisSpec, keep: int = 0):
    """Coordinate paths ``M_t(h_k)`` for all ``k < basis.size`` at once.

    Shares the particle realization across coordinates and applies the same
    truncated derivative ladder as the scalar path, so projecting the result
    onto any test function in the span reproduces the scalar Euler sum.
    Increments of shape ``(..., count, steps)`` may carry leading axes (a
    block of repetitions), and every repetition gets the bits it gets alone.
    Returns ``(states, modes)``: states of shape ``(..., steps + 1, size)``
    and the first ``keep`` Hermite modes at the left points,
    ``(keep, ..., count, steps)``.

    Modes ``k >= keep`` come from the weighted recurrence of
    :func:`~nucleartight.hermite._hermite_modes`, run on ``h_k(B) dB`` itself,
    so a mode's particle sum is a plain ``sum`` and its factor ``f_k`` is
    applied once per time block; the kept modes run the unweighted
    recurrence, so ``phi'`` taken from them has the bits of its own
    recurrence.  The sum adds the particles in sequence, because no time
    block is one step wide (see :func:`_time_blocks`).
    """
    n_modes = basis.size
    left = particles.positions()[..., :-1]
    inc = particles.increments
    batch, steps = left.shape[:-2], left.shape[-1]
    root_n = np.sqrt(particles.count)
    modes = np.empty((keep,) + left.shape)
    dmn = np.empty(batch + (steps, n_modes))
    axes = (1,) * (len(batch) + 1)
    ladder = np.sqrt(np.arange(1, n_modes) / 2.0).reshape((-1,) + axes)
    factors = _mode_factors(n_modes, keep)[0].reshape((-1,) + axes)
    for a, b in _time_blocks(steps, _DRIVER_VALUES // max(1, math.prod(batch) * particles.count)):
        # contract particles mode by mode as the recurrence yields them,
        # s[k, ..., j] = sum_i h_k(B^i_j) dB^i_j, then apply the derivative ladder
        # h'_k = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1} (truncated at the top)
        s = np.empty((n_modes,) + batch + (b - a,))
        dB = inc[..., a:b]
        for k, h in enumerate(_hermite_modes(left[..., a:b], n_modes, weight=dB, plain=keep)):
            if k < keep:
                modes[k, ..., a:b] = h
                h = h * dB
            h.sum(axis=-2, out=s[k])
        s *= factors
        contrib = np.zeros(s.shape)
        contrib[1:] = ladder * s[:-1]
        contrib[: n_modes - 1] -= ladder * s[1:]
        dmn[..., a:b, :] = np.moveaxis(contrib, 0, -1) / root_n
    return _cumulative(dmn, axis=-2), modes


# ---------------------------------------------------------------------------
# limiting quadratic form
# ---------------------------------------------------------------------------


_GRAM_VALUES = 62_500  # Hermite values per chunk of QuadraticForm._gram_sums (0.5 MB)
# Gauss-Legendre rules: composite over [0, t] for C(t), one rule per grid step
# for the increments
_PANELS_PER_UNIT, _GL_POINTS, _STEP_GL_POINTS = 8, 16, 4


class QuadraticForm:
    """Evaluator of the limit covariance ``C(t; phi, psi)`` by nested quadrature.

    The inner expectation against Normal(0, s) is folded into a Gauss-Hermite
    rule: writing ``phi'(y) psi'(y) = P(y) exp(-y^2)`` with ``P`` polynomial,

        E[phi'(Z_s) psi'(Z_s)] = (pi (2s+1))^(-1/2) sum_q w_q P(x_q / sqrt(a)),
        a = (2s+1) / (2s),

    which is exact for the rule order in use; ``P`` needs the Hermite modes
    only up to the span of the derivative coefficients.  The outer time
    integral uses Gauss-Legendre nodes, all interior (``s > 0``): a
    composite rule over ``[0, t]`` for ``C(t)``, one rule per grid step for
    the increments.
    """

    def __init__(self, basis: BasisSpec):
        self.basis = basis

    def _gram_sums(self, s: np.ndarray, w: np.ndarray, dmat: np.ndarray) -> np.ndarray:
        """Weighted Gram sums ``out[r] = sum_k w[k] G(s[r, k])``, shape ``(R, m, m)``.

        ``G(s)`` is the matrix ``E[phi_a'(Z_s) phi_b'(Z_s)]`` for derivative
        coeffs ``dmat`` (``N x m``) at a time ``s > 0``.  Only the span
        ``top`` of ``dmat`` (up to its last nonzero row) is computed: the
        recurrence runs ``top`` modes and the product with ``dmat[:top]`` has
        inner dimension ``top``.  For some widths that rounds differently
        from a product over all ``N`` modes (by 5.1e-16 of the largest entry
        at most, measured); ``limit_modes = 16`` at ``N = 64`` keeps its bits.
        Nodes go in chunks of about ``_GRAM_VALUES`` values of ``top`` modes,
        through buffers allocated once per call, and are added in ``k``
        order from zero, so every float equals a one-node-at-a-time loop.
        No ``(R, K, m, m)`` array is built: freeing one lifts the allocator's
        mmap threshold, and with it the peak memory of the thread pools that
        follow.
        """
        x, wq, _ = _gh_rule(self.basis.quad_order)
        (rows, cols), m = s.shape, dmat.shape[1]
        top = _span(np.any(dmat, axis=1))
        d = dmat[:top]
        nodes = max(1, _GRAM_VALUES // (x.size * max(top, 1)))
        row_step, col_step = max(1, nodes // cols), min(cols, nodes)
        values = min(row_step, rows) * col_step * x.size  # per mode, in the largest chunk
        modes = np.empty((top, values))
        v, vw = np.empty((2, values, m))
        g = np.empty((values // x.size, m, m))
        out = np.zeros((rows, m, m))
        for r in range(0, rows, row_step):
            for k in range(0, cols, col_step):
                t = s[r : r + row_step, k : k + col_step, None]
                arg = x * np.sqrt(2.0 * t / (2.0 * t + 1.0))
                n = arg.size
                p = _hermite_modes_first(arg.reshape(-1), top, gaussian=False, out=modes[:, :n])
                vk = np.matmul(p.T, d, out=v[:n]).reshape(arg.shape + (m,))
                vwk = np.multiply(vk, wq[:, None], out=vw[:n].reshape(vk.shape))
                gk = np.matmul(vwk.swapaxes(-1, -2), vk, out=g[: n // x.size].reshape(t.shape[:2] + (m, m)))
                gk /= np.sqrt(np.pi * (2.0 * t[..., None] + 1.0))
                for i, wi in enumerate(w[k : k + col_step]):
                    out[r : r + row_step] += wi * gk[:, i]
        return out

    def _dmat(self, phis) -> np.ndarray:
        if any(phi.basis != self.basis for phi in phis):
            raise ValueError("test functions must share the form's basis")
        return np.column_stack([_derivative_coeffs(phi) for phi in phis])

    def covariance_matrix(self, t: float, phis) -> np.ndarray:
        """Matrix ``C(t; phi_a, phi_b)`` over a list of test functions."""
        if not 0 <= t < np.inf:
            raise ValueError("time must be finite and >= 0")
        dmat = self._dmat(phis)
        x, w = np.polynomial.legendre.leggauss(_GL_POINTS)
        edges = np.linspace(0.0, t, max(1, int(np.ceil(t * _PANELS_PER_UNIT))) + 1)
        half = np.diff(edges) / 2.0
        nodes = ((edges[:-1] + edges[1:]) / 2.0)[:, None] + half[:, None] * x
        return self._gram_sums(nodes.reshape(1, -1), (half[:, None] * w).ravel(), dmat)[0]

    def increment_covariances(self, grid: TimeGrid, dmat: np.ndarray) -> np.ndarray:
        """Per-step covariance increments, shape ``(steps, m, m)``.

        Each increment is the Gauss-Legendre integral of the positive
        semidefinite Gram over one grid step, so it is positive semidefinite
        by construction.
        """
        x, w = np.polynomial.legendre.leggauss(_STEP_GL_POINTS)
        half = grid.dt / 2.0
        mid = (np.arange(grid.steps) + 0.5) * grid.dt
        return self._gram_sums(mid[:, None] + half * x, w, dmat) * half


def limit_variance(phi: TestFunction, t: float) -> float:
    """Variance function ``A(t, phi) = C(t; phi, phi)`` of the Gaussian limit martingale."""
    return float(QuadraticForm(phi.basis).covariance_matrix(t, [phi])[0, 0])


def _sqrt_factors(increments: np.ndarray) -> np.ndarray:
    """Symmetric square roots of PSD increment matrices, with clipping.

    An eigenvalue below ``-1e-10`` times its matrix's largest aborts with
    :class:`NumericalIntegrityError`; smaller negatives (round-off) are clipped.
    """
    vals, vecs = np.linalg.eigh(increments)
    low, high = vals[..., 0], vals[..., -1]
    bad = low < -1e-10 * high
    if bad.any():
        lo, hi = low[bad][0], high[bad][0]
        raise NumericalIntegrityError(f"increment covariance eigenvalue {lo:.3e} < -1e-10 x {hi:.3e}")
    vals = np.clip(vals, 0.0, None)
    root = np.sqrt(vals)
    return np.einsum("...ik,...k,...jk->...ij", vecs, root, vecs)


def _limit_factors(grid: TimeGrid, basis: BasisSpec, dmat: np.ndarray) -> np.ndarray:
    """Square roots of the limit's per-step increment covariances for the
    derivative coefficients ``dmat`` (``N x m``), shape ``(steps, m, m)``."""
    return _sqrt_factors(QuadraticForm(basis).increment_covariances(grid, dmat))


def _limit_states(factors: np.ndarray, z: np.ndarray, width: int) -> np.ndarray:
    """Gaussian limit paths from standard normals ``z`` of shape ``(count, steps, m)``.

    Step ``j`` of path ``c`` adds ``factors[j] @ z[c, j]``.  The paths start at
    zero and fill the first ``m`` of ``width`` zero-padded columns: shape
    ``(count, steps + 1, width)``.
    """
    inc = np.einsum("cjm,jkm->cjk", z, factors)
    states = np.zeros((z.shape[0], z.shape[1] + 1, width))
    np.cumsum(inc, axis=1, out=states[:, 1:, : z.shape[2]])
    return states


def simulate_limit(phis, grid: TimeGrid, count: int, seed: int) -> np.ndarray:
    """Sample the Gaussian limit jointly over ``phis``, shape ``(count, J+1, m)``.

    Column ``a`` holds the paths of ``phis[a]``; row ``i`` is one joint draw.
    Increments over disjoint steps are independent with covariance
    ``C(t_{j+1}) - C(t_j)``.  All normals come from one stream keyed by
    ``(seed, "limit", 0)``.
    """
    phis = list(phis)
    if not phis:
        raise ValueError("need at least one test function")
    if count < 1:
        raise ValueError("need at least one path")
    basis = phis[0].basis
    factors = _limit_factors(grid, basis, QuadraticForm(basis)._dmat(phis))
    z = stream(seed, "limit", 0).standard_normal((count, grid.steps, len(phis)))
    return _limit_states(factors, z, len(phis))


# ---------------------------------------------------------------------------
# convergence report
# ---------------------------------------------------------------------------


def _phi_label(phi: TestFunction) -> list:
    return [float(c) for c in phi.coeffs[: max(_span(phi.coeffs), 1)]]


def clt_report(cfg: dict, *, threads: int = 1, collect_paths: bool = False):
    """Monte Carlo convergence experiment for the particle martingales.

    ``cfg`` is a ``clt`` scenario config, materialized and checked by
    :func:`~nucleartight.config.materialize` (a ``ConfigError`` names a
    field that breaks a rule).  For every particle count ``n`` the
    experiment runs ``reps`` independent repetitions and reports, per
    ``(n, phi, t)`` cell: the mean and spread of the quadratic variation
    against its target ``A(t, phi)``, the one-sample KS statistic of the
    normalized terminal value against the standard normal, and per ``n``:
    the energy distance between the joint ``(phi, t)`` vector and a sample
    of the Gaussian limit, plus dual-path tightness summaries.

    The repetitions of one ``n`` run in the blocks of :func:`run_blocks`:
    one driver, quadratic-variation and modulus pass per block.

    Returns ``(cells, extras)`` where ``extras`` carries per-n summaries and
    optional raw paths, ``(reps, J+1, N)`` per ``n`` (``collect_paths=True``).
    """
    cfg = materialize("clt", cfg)
    basis, grid = _basis_from(cfg), _grid_from(cfg)
    phis = _phis_from(cfg, basis)
    times = [float(t) for t in cfg["times"]]
    reps, seed = cfg["reps"], cfg["seed"]
    tightness_index, levels, deltas = _tightness_from(cfg)

    t_idx = [grid.index_of(t) for t in times]
    targets = [limit_variance(phi, t) for phi, t in product(phis, times)]

    limit = simulate_limit(phis, grid, reps, seed)
    # columns phi outer, t inner, as the particle cells of ``one_block``
    limit_joint = limit[:, t_idx].swapaxes(1, 2).reshape(reps, -1)
    limit_within = diagnostics.distance_matrix(limit_joint)  # shared by every n

    dcoefs = [_derivative_coeffs(phi) for phi in phis]
    keep = max(_span(dcoef) for dcoef in dcoefs)  # modes every phi' needs

    def one_block(particles):
        states, modes = _mn_dual_states(particles, basis, keep)
        mn = np.empty((len(states), len(phis), len(times)))
        qv = np.empty(mn.shape)
        for a, dcoef in enumerate(dcoefs):
            mn_steps, qv_steps = _mn_qv_steps(dcoef, particles, modes)
            mn[:, a] = _cumulative(mn_steps)[:, t_idx]
            qv[:, a] = _cumulative(qv_steps)[:, t_idx]
        sup, mods = dual_path_stats(states, grid, deltas, tightness_index)
        flat = (len(states), -1)  # (reps, cells), the layout of ``limit_joint``
        return mn.reshape(flat), qv.reshape(flat), sup, mods, states if collect_paths else None

    cells = []
    extras = {"per_n": {}, "paths": {}}
    for n in cfg["n_list"]:
        # (reps, cells), (reps, cells), (reps,), (reps, deltas) and the paths
        mn_vals, qv_vals, sups, mod_table, states = run_blocks(n, reps, grid, basis, seed, threads, one_block)
        energy, energy_se = diagnostics.energy_distance_with_se(mn_vals, limit_joint, y_within=limit_within)

        tightness = containment_summary(sups, mod_table, levels, deltas)
        extras["per_n"][n] = {
            "energy": energy,
            "energy_se": energy_se,
            "tightness": tightness,
        }
        if collect_paths:
            extras["paths"][n] = states

        for pos, (phi, t) in enumerate(product(phis, times)):
            target, sample, qv_sample = targets[pos], mn_vals[:, pos], qv_vals[:, pos]
            qv_mean = float(qv_sample.mean())
            qv_se = float(qv_sample.std(ddof=1) / np.sqrt(reps))
            mn_var = float(sample.var(ddof=1))
            m4 = float(np.mean((sample - sample.mean()) ** 4))
            var_se = float(np.sqrt(max(m4 - np.square(mn_var), 0.0) / reps))
            cell = {
                "n": n,
                "phi": _phi_label(phi),
                "t": t,
                "qv_mean": qv_mean,
                "qv_se": qv_se,
                "qv_var": float(qv_sample.var(ddof=1)),
                "qv_target": target,
                "mn_mean": float(sample.mean()),
                "mn_se": float(sample.std(ddof=1) / np.sqrt(reps)),
                "mn_var": mn_var,
                "mn_var_se": var_se,
                "energy": energy,
                "energy_se": energy_se,
            }
            if target <= 0.0:
                cell.update(
                    {"degenerate": True, "ks": 0.0, "ks_critical": 0.0}
                )
            else:
                ks = diagnostics.ks_one_sample(sample / np.sqrt(target), diagnostics.normal_cdf)
                cell.update(
                    {
                        "degenerate": False,
                        "ks": ks.statistic,
                        "ks_critical": ks.critical_1,
                        "ks_critical_5": ks.critical_5,
                    }
                )
            cells.append(cell)
    return cells, extras
