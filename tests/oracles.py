"""Independent oracles used by the test suite.

These deliberately avoid the package's implementation paths: dense
trapezoid quadrature instead of Gauss rules, closed forms instead of matrix
exponentials.  Frozen constants were computed with the high-resolution
settings noted next to each value.
"""

import numpy as np

# closed form for the variance function of the first basis function:
# A(t, h_0) = (2 sqrt(2t+1) + 2 / sqrt(2t+1) - 4) / (4 sqrt(pi))
A_1_H0_CLOSED = 0.08728043232280358
A_HALF_H0_CLOSED = 0.0342238370543928

# dense-trapezoid values (ns = nz = 8001, zmax = 12)
A_1_H0_BRUTE = 0.0872804315881818
A_1_H1_BRUTE = 0.6088742127785409
A_1_H0_PLUS_H2_BRUTE = 0.26665996322376206

# sum_{k<10^4} (2k+1)^(-2); limit pi^2/8
HS_SQUARED_1E4 = 1.2336755501361907


def closed_variance_h0(t: float) -> float:
    u = 2.0 * t + 1.0
    return (2.0 * np.sqrt(u) + 2.0 / np.sqrt(u) - 4.0) / (4.0 * np.sqrt(np.pi))


def hermite_values(x, count):
    """Plain recurrence copy, kept local so the oracle stays self-contained."""
    x = np.asarray(x, dtype=float)
    h = np.zeros((count,) + x.shape)
    h[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if count > 1:
        h[1] = np.sqrt(2.0) * x * h[0]
    for k in range(2, count):
        h[k] = np.sqrt(2.0 / k) * x * h[k - 1] - np.sqrt((k - 1) / k) * h[k - 2]
    return h


def derivative_values(coeffs, x):
    """phi' evaluated through the ladder identity, independent of the package."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    h = hermite_values(x, n + 1)
    out = np.zeros_like(np.asarray(x, dtype=float))
    for k, ck in enumerate(coeffs):
        if ck == 0.0:
            continue
        if k >= 1:
            out += ck * np.sqrt(k / 2.0) * h[k - 1]
        out -= ck * np.sqrt((k + 1) / 2.0) * h[k + 1]
    return out


def brute_force_variance(coeffs, t, ns=2001, nz=2001, zmax=12.0):
    """Dense trapezoid in time x dense trapezoid in a standardized normal.

    The removable s -> 0 endpoint uses the limit value phi'(0)^2.  With the
    default resolution the result is within ~1e-8 of the exact value for the
    low-degree functions used in tests.
    """
    s_grid = np.linspace(0.0, t, ns)
    z = np.linspace(-zmax, zmax, nz)
    density = np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
    g = np.empty(ns)
    g[0] = float(derivative_values(coeffs, np.array(0.0))) ** 2
    chunk = 256
    for a in range(1, ns, chunk):
        b = min(a + chunk, ns)
        x = np.sqrt(s_grid[a:b])[:, None] * z[None, :]
        vals = derivative_values(coeffs, x) ** 2
        g[a:b] = np.trapezoid(vals * density[None, :], z, axis=1)
    return float(np.trapezoid(g, s_grid))


def brute_force_dual_modulus(states, times, delta, r):
    """Max of ``p'_r(x(t_i) - x(t_j))`` over every node pair with ``|t_i - t_j| <= delta``.

    ``states`` has shape ``(J+1, N)``.  The comparison is non-strict and
    tolerates rounding in the node times, so a gap of exactly ``delta``
    counts.
    """
    s = np.asarray(states, dtype=float) * (2.0 * np.arange(states.shape[-1]) + 1.0) ** (-r)
    slack = 1e-9 * float(times[-1])
    best = 0.0
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            if times[j] - times[i] <= delta + slack:
                diff = s[j] - s[i]
                best = max(best, float(np.sqrt(np.sum(diff * diff))))
    return best


def dual_path_stats_dense(states, grid, deltas, r):
    """``paths.dual_path_stats`` as one per-lag loop over every row at every
    lag up to the largest: the reducer the Gram-bounded one replaced.

    A bit-for-bit reference, so it reuses the package's lag rule and dual
    weights.
    """
    from nucleartight.hermite import SeminormIndex
    from nucleartight.paths import _max_lag

    s = np.asarray(states, dtype=float)
    lags = [_max_lag(grid, float(d)) for d in deltas]
    s = s * SeminormIndex(float(r)).dual_weights(s.shape[-1])
    sup = np.sqrt((s * s).sum(axis=-1).max(axis=-1))
    top = max(lags, default=0)
    best = np.zeros(s.shape[:-2] + (top + 1,))
    buf = np.empty(s.shape[:-2] + (grid.steps if top else 0, s.shape[-1]))
    for lag in range(1, top + 1):
        d = buf[..., : grid.steps + 1 - lag, :]
        np.subtract(s[..., lag:, :], s[..., :-lag, :], out=d)
        np.multiply(d, d, out=d)
        best[..., lag] = d.sum(axis=-1).max(axis=-1)
    np.maximum.accumulate(best, axis=-1, out=best)
    return sup, np.sqrt(best[..., lags])


def expm_reference(a):
    """``scipy.linalg.expm(a)``: the matrix exponential ``hermite.heat_matrix``
    ports to numpy, which differs from it only in the final linear solve."""
    from scipy.linalg import expm

    return expm(a)


def energy_distance_with_se_cdist(x, y):
    """``diagnostics.energy_distance_with_se`` as ``scipy.spatial.distance.cdist``
    calls: three full matrices for the value, three more per chunk pair of
    ``np.array_split``.  The body the numpy distance kernel replaced, kept as a
    bit-for-bit reference."""
    from scipy.spatial.distance import cdist

    def energy(x, y):
        m, n = x.shape[0], y.shape[0]
        cross = cdist(x, y).mean()
        within_x = cdist(x, x).sum() / (m * (m - 1))
        within_y = cdist(y, y).sum() / (n * (n - 1))
        return float(2.0 * cross - within_x - within_y)

    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    value = energy(x, y)
    nb = min(10, x.shape[0] // 2, y.shape[0] // 2)
    if nb < 2:
        return value, float("inf")
    vals = [energy(bx, by) for bx, by in zip(np.array_split(x, nb), np.array_split(y, nb))]
    return value, float(np.std(vals, ddof=1) / np.sqrt(nb))


def gram_at(basis, s, dmat, full_width=False):
    """``E[phi_a'(Z_s) phi_b'(Z_s)]`` at one time ``s > 0``, one node at a time.

    This is the per-node loop body the batched kernel replaced.  It is a
    bit-for-bit reference, so it reuses the package's recurrence and
    Gauss-Hermite rule instead of an independent quadrature.  The modes are
    contracted up to the last nonzero row of ``dmat`` (the span), as the
    kernel does, from the mode-major array the recurrence fills;
    ``full_width=True`` gives the kernel's earlier product, over all ``N``
    modes of a point-major array, which rounds differently for some widths.
    """
    from nucleartight.hermite import _gh_rule, _hermite_modes_first, _span, hermite_polynomials

    x, w, _ = _gh_rule(basis.quad_order)
    arg = x * np.sqrt(2.0 * s / (2.0 * s + 1.0))
    if full_width:
        v = hermite_polynomials(arg, basis.size) @ dmat
    else:
        top = _span(np.any(dmat, axis=1))
        v = _hermite_modes_first(arg, top, gaussian=False).T @ dmat[:top]
    g = (v * w[:, None]).T @ v
    return g / np.sqrt(np.pi * (2.0 * s + 1.0))


def increment_covariances_per_node(basis, grid, dmat, full_width=False):
    """Per-step covariance increments with one ``gram_at`` call per node."""
    x, w = np.polynomial.legendre.leggauss(4)
    m = dmat.shape[1]
    out = np.empty((grid.steps, m, m))
    half = grid.dt / 2.0
    for j in range(grid.steps):
        mid = (j + 0.5) * grid.dt
        acc = np.zeros((m, m))
        for xi, wi in zip(x, w):
            acc += wi * gram_at(basis, mid + half * xi, dmat, full_width)
        out[j] = acc * half
    return out


def covariance_matrix_per_node(basis, t, dmat, panels_per_unit=8, gl_points=16):
    """``C(t)`` by composite Gauss-Legendre with one ``gram_at`` call per node."""
    x, w = np.polynomial.legendre.leggauss(gl_points)
    edges = np.linspace(0.0, t, max(1, int(np.ceil(t * panels_per_unit))) + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    out = np.zeros((dmat.shape[1],) * 2)
    for s, ws in zip(nodes, weights):
        out += ws * gram_at(basis, float(s), dmat)
    return out


def hermite_modes_full(x, count, gaussian=True):
    """The whole-array recurrence the streamed ``_hermite_modes`` replaced.

    A bit-for-bit reference: same float operations, two temporaries per mode.
    """
    out = np.empty((count,) + x.shape)
    out[0] = np.pi ** -0.25 * (np.exp(-0.5 * x * x) if gaussian else 1.0)
    if count == 1:
        return out
    np.multiply(np.sqrt(2.0) * x, out[0], out=out[1])
    for k in range(1, count - 1):
        np.multiply(np.sqrt(2.0 / (k + 1)) * x, out[k], out=out[k + 1])
        out[k + 1] -= np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def mn_dual_states_full(particles, basis):
    """The particle driver that builds the ``(N, n, block)`` Hermite tensor
    per block of 2,000,000 values before one ``einsum`` contracts it: the
    four-pass recurrence, with the bits of the driver before the weighted
    recurrence replaced it."""
    n_modes = basis.size
    grid = particles.grid
    left = particles.positions()[:, :-1]
    inc = particles.increments
    root_n = np.sqrt(particles.count)
    dmn = np.zeros((grid.steps, n_modes))
    ladder = np.sqrt(np.arange(1, n_modes) / 2.0)[:, None]
    block = max(1, int(2_000_000 // max(1, particles.count * n_modes)))
    for a in range(0, grid.steps, block):
        b = min(a + block, grid.steps)
        h = hermite_modes_full(left[:, a:b], n_modes)
        s = np.einsum("kij,ij->kj", h, inc[:, a:b])
        contrib = np.zeros((n_modes, b - a))
        contrib[1:] = ladder * s[:-1]
        contrib[: n_modes - 1] -= ladder * s[1:]
        dmn[a:b] = contrib.T / root_n
    states = np.empty((grid.steps + 1, n_modes))
    states[0] = 0.0
    np.cumsum(dmn, axis=0, out=states[1:])
    return states


def mild_states_loop(driver_states, eta_coeffs, e_dt, main, off, dt):
    """``spde._mild_states`` as the per-step loop the time-major kernel
    replaced: about six numpy calls per step on batch-major rows.  A
    bit-for-bit reference, so it keeps the loop's operators and order."""
    lm = driver_states * main
    lm[..., :-2] += driver_states[..., 2:] * off
    lm[..., 2:] += driver_states[..., :-2] * off
    out = np.empty_like(driver_states)
    eta_flow = np.broadcast_to(eta_coeffs, driver_states[..., 0, :].shape).copy()
    out[..., 0, :] = eta_flow + driver_states[..., 0, :]
    flows = bool(np.any(eta_coeffs))
    if not flows:
        eta_flow = np.zeros_like(eta_flow)
    duhamel = np.zeros_like(eta_flow)
    for j in range(1, driver_states.shape[-2]):
        duhamel = (duhamel + lm[..., j - 1, :]) @ e_dt
        if flows:
            eta_flow = eta_flow @ e_dt
        out[..., j, :] = eta_flow + dt * duhamel + driver_states[..., j, :]
    return out


def sample_limit_states(factors, count, seed, stream_id, tag="limit"):
    """The clt limit sampler the shared ``_limit_states`` kernel replaced:
    one stream for every path, shape ``(count, steps+1, m)``."""
    from nucleartight.rng import stream

    steps, m = factors.shape[0], factors.shape[1]
    gen = stream(seed, tag, stream_id)
    z = gen.standard_normal(size=(count, steps, m))
    inc = np.einsum("cjm,jkm->cjk", z, factors)
    states = np.empty((count, steps + 1, m))
    states[:, 0, :] = 0.0
    np.cumsum(inc, axis=1, out=states[:, 1:, :])
    return states


def limit_driver_chunk(factors, basis, grid, seed, tag, indices, prefix=()):
    """The heat limit driver before it called ``_limit_states``: one stream
    per path index, shape ``(len(indices), J+1, N)``."""
    from nucleartight.rng import stream

    steps, modes = factors.shape[0], factors.shape[1]
    z = np.empty((len(indices), steps, modes))
    for c, idx in enumerate(indices):
        z[c] = stream(seed, tag, *prefix, int(idx)).standard_normal((steps, modes))
    inc = np.einsum("cjm,jkm->cjk", z, factors)
    states = np.zeros((len(indices), steps + 1, basis.size))
    np.cumsum(inc, axis=1, out=states[:, 1:, :modes])
    return states


def calibration_sample_paths(basis, cal_grid, factors, phi, seed, eta_spec, rep, side, size):
    """The heat calibration sample before the weak-form functional: full limit
    drivers on the calibration grid, in the chunks the limit generator formed,
    one mild solve per chunk, read at ``<Y_T, phi>``.  A bit-for-bit reference
    for the old report, so it reuses the package's solver and initial sampler."""
    from nucleartight.spde import _HeatSolver

    solver = _HeatSolver(basis, cal_grid, seed, eta_spec)
    chunk = max(1, 4_000_000 // ((cal_grid.steps + 1) * basis.size))
    out = []
    for a in range(0, size, chunk):
        idx = range(a, min(a + chunk, size))
        drivers = limit_driver_chunk(factors, basis, cal_grid, seed, "calibration", idx, (rep, side))
        etas = np.array([solver.initial("calibration-initial", rep, side, i) for i in idx])
        out.extend(sol[-1] @ phi for sol in solver.solve(drivers, etas))
    return np.array(out)


def mn_dual_states_per_rep(particles, basis, keep=0, width=None):
    """The particle driver on the increments of one repetition, ``(count,
    steps)``, in time blocks of ``width`` steps, by default ``_DRIVER_VALUES
    // count`` (see ``martingales._time_blocks``).  A bit-for-bit reference
    for blocks of repetitions, so it reuses the package's weighted
    recurrence, its factors and its block rule, and reads the block constant
    when called."""
    from nucleartight import martingales
    from nucleartight.hermite import _hermite_modes, _mode_factors

    n_modes = basis.size
    grid = particles.grid
    left = particles.positions()[:, :-1]
    inc = particles.increments
    root_n = np.sqrt(particles.count)
    modes = np.empty((keep,) + left.shape)
    dmn = np.zeros((grid.steps, n_modes))
    ladder = np.sqrt(np.arange(1, n_modes) / 2.0)[:, None]
    factors = _mode_factors(n_modes, keep)[0][:, None]
    width = martingales._DRIVER_VALUES // particles.count if width is None else width
    for a, b in martingales._time_blocks(grid.steps, width):
        s = np.empty((n_modes, b - a))
        for k, w in enumerate(_hermite_modes(left[:, a:b], n_modes, weight=inc[:, a:b], plain=keep)):
            if k < keep:
                modes[k, :, a:b] = w
                w = w * inc[:, a:b]
            s[k] = w.sum(axis=0)
        s *= factors
        contrib = np.zeros((n_modes, b - a))
        contrib[1:] = ladder * s[:-1]
        contrib[: n_modes - 1] -= ladder * s[1:]
        dmn[a:b] = contrib.T / root_n
    states = np.empty((grid.steps + 1, n_modes))
    states[0] = 0.0
    np.cumsum(dmn, axis=0, out=states[1:])
    return states, modes


def mn_qv_steps_per_rep(dcoef, particles, modes=None):
    """Martingale and quadratic-variation steps of one repetition, with one
    ``tensordot`` over its ``(top, count, steps)`` modes, as before blocks."""
    from nucleartight.hermite import _hermite_modes_first, _span

    top = _span(dcoef)
    if modes is None:
        modes = _hermite_modes_first(particles.positions()[:, :-1], top)
    vals = np.tensordot(dcoef[:top], modes[:top], axes=(0, 0))
    mn_steps = (vals * particles.increments).sum(axis=0) / np.sqrt(particles.count)
    qv_steps = (vals * vals).sum(axis=0) * (particles.grid.dt / particles.count)
    return mn_steps, qv_steps


def repetition(particles, r):
    """Repetition ``r`` of a block of particle repetitions, on its own."""
    from nucleartight.martingales import ParticleEnsemble

    return ParticleEnsemble(
        particles.count, particles.grid, particles.increments[r], particles.seed, particles.stream_id[r]
    )


def per_rep_drivers(monkeypatch, width=None):
    """Make the clt, heat and tightness reports run the per-repetition driver
    (in time blocks of ``width`` steps, see ``mn_dual_states_per_rep``), QV
    loop and modulus on every repetition of their blocks (and every path of
    a heat limit chunk), one repetition at a time."""
    from nucleartight import martingales, paths, spde

    def driver(particles, basis, keep=0):
        reps = range(len(particles.stream_id))
        outs = [mn_dual_states_per_rep(repetition(particles, r), basis, keep, width) for r in reps]
        return np.stack([o[0] for o in outs]), np.stack([o[1] for o in outs], axis=1)

    def qv_steps(dcoef, particles, modes=None):
        outs = [
            mn_qv_steps_per_rep(dcoef, repetition(particles, r), None if modes is None else modes[:, r])
            for r in range(len(particles.stream_id))
        ]
        return np.stack([o[0] for o in outs]), np.stack([o[1] for o in outs])

    def path_stats(states, grid, deltas, r):
        outs = [paths.dual_path_stats(x, grid, deltas, r) for x in states]
        return np.array([o[0] for o in outs]), np.array([o[1] for o in outs])

    for module in (martingales, spde):
        monkeypatch.setattr(module, "_mn_dual_states", driver)
        monkeypatch.setattr(module, "dual_path_stats", path_stats)
    monkeypatch.setattr(martingales, "_mn_qv_steps", qv_steps)


def write_array_csv_per_value(array, path, index_names):
    """The CSV writer ``paths.write_array_csv`` replaced: one formatted row
    per ``np.ndenumerate`` entry."""
    a = np.asarray(array, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*index_names, "value"]) + "\n")
        for index, v in np.ndenumerate(a):
            fh.write(f"{','.join(map(str, index))},{float(v)!r}\n")
