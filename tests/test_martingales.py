import numpy as np
import pytest

import oracles
from nucleartight import martingales, spde
from nucleartight.hermite import BasisSpec, TestFunction, derivative_op
from nucleartight.martingales import (
    NumericalIntegrityError,
    QuadraticForm,
    _sqrt_factors,
    clt_report,
    limit_variance,
    mn_scalar_path,
    parallel_map,
    quadratic_variation_path,
    simulate_limit,
    simulate_particles,
)
from nucleartight.paths import TimeGrid

from conftest import scenario, unit_function


@pytest.fixture(scope="module")
def basis():
    return BasisSpec(16, 32)


@pytest.fixture(scope="module")
def h0(basis):
    return unit_function(basis, 0)


# ---------------------------------------------------------------------------
# particles
# ---------------------------------------------------------------------------


def test_particles_start_at_zero(basis):
    grid = TimeGrid(1.0, 50)
    p = simulate_particles(100, grid, 1)
    assert np.all(p.positions()[:, 0] == 0.0)


def test_particles_terminal_variance():
    grid = TimeGrid(1.0, 400)
    p = simulate_particles(10000, grid, 2)
    var = p.positions()[:, -1].var(ddof=1)
    assert abs(var - 1.0) < 0.05


def test_particles_reproducible_and_stream_separated():
    grid = TimeGrid(1.0, 100)
    a = simulate_particles(10000, grid, 3, stream_id=0)
    b = simulate_particles(10000, grid, 3, stream_id=0)
    assert np.array_equal(a.increments, b.increments)
    c = simulate_particles(10000, grid, 3, stream_id=1)
    assert not np.array_equal(a.increments, c.increments)
    x = a.positions()[:, -1]
    y = c.positions()[:, -1]
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 0.05


def test_particles_reject_zero_count():
    with pytest.raises(ValueError):
        simulate_particles(0, TimeGrid(1.0, 10), 1)


# ---------------------------------------------------------------------------
# martingale and quadratic variation paths
# ---------------------------------------------------------------------------


def test_mn_starts_at_zero(basis, h0):
    grid = TimeGrid(1.0, 100)
    p = simulate_particles(25, grid, 4)
    assert mn_scalar_path(h0, p)[0] == 0.0


def test_mn_scaling_linearity(basis, h0):
    grid = TimeGrid(1.0, 100)
    p = simulate_particles(25, grid, 5)
    base = mn_scalar_path(h0, p)
    scaled = mn_scalar_path(TestFunction(basis, 2.5 * h0.coeffs), p)
    assert np.allclose(scaled, 2.5 * base, rtol=1e-12, atol=1e-14)


def test_mn_ensemble_mean_near_zero(basis, h0):
    grid = TimeGrid(1.0, 250)
    vals = np.array(
        [mn_scalar_path(h0, simulate_particles(20, grid, 6, r))[-1] for r in range(500)]
    )
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean()) < 3 * se


def test_qv_nondecreasing_from_zero(basis, h0):
    grid = TimeGrid(1.0, 200)
    p = simulate_particles(30, grid, 7)
    qv = quadratic_variation_path(h0, p)
    assert qv[0] == 0.0
    assert np.all(np.diff(qv) >= 0.0)


def test_qv_mean_matches_variance_target(basis, h0):
    grid = TimeGrid(1.0, 500)
    target = limit_variance(h0, 1.0)
    vals = np.array(
        [
            quadratic_variation_path(h0, simulate_particles(50, grid, 8, r))[-1]
            for r in range(400)
        ]
    )
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - target) < 3 * se


def test_ito_isometry_var_vs_qv_mean(basis, h0):
    # Var(M_t) - mean(<M>_t) is centered for the discrete Euler sums
    grid = TimeGrid(1.0, 300)
    terminal = np.empty(500)
    qv = np.empty(500)
    for rep in range(500):
        particles = simulate_particles(20, grid, 21, rep)
        terminal[rep] = mn_scalar_path(h0, particles)[-1]
        qv[rep] = quadratic_variation_path(h0, particles)[-1]
    var = terminal.var(ddof=1)
    m4 = np.mean((terminal - terminal.mean()) ** 4)
    se_var = np.sqrt(max(m4 - var**2, 0.0) / terminal.size)
    se_qv = qv.std(ddof=1) / np.sqrt(qv.size)
    combined = np.hypot(se_var, se_qv)
    assert abs(var - qv.mean()) < 3 * combined


def test_increment_covariances_positive_semidefinite(basis, h0):
    form = QuadraticForm(basis)
    grid = TimeGrid(1.0, 50)
    phis = [h0, unit_function(basis, 1), unit_function(basis, 3)]
    increments = form.increment_covariances(grid, form._dmat(phis))
    eigenvalues = np.linalg.eigvalsh(increments)
    assert eigenvalues.min() > -1e-12


def _derivative_columns(basis, modes):
    rng = np.random.default_rng(modes)
    return derivative_op(basis) @ rng.standard_normal((basis.size, modes))


# test functions whose derivative columns stop short of the basis, as the
# reports build them: the heat limit's first m unit functions (span m + 1),
# two clt-style functions (spans 3 and 4) and two zero functions
SHORT_SPANS = ["heat-3", "heat-4", "heat-9", "heat-12", "clt-2", "zero"]


def _short_span_phis(basis, case):
    if case.startswith("heat-"):
        return [unit_function(basis, k) for k in range(int(case[5:]))]
    coeffs = {"clt-2": [[0.5, 1.0], [0.3, -0.2, 1.0]], "zero": [[0.0], [0.0]]}[case]
    return [TestFunction(basis, np.r_[c, np.zeros(basis.size - len(c))]) for c in coeffs]


def _case_dmat(form, case):
    """Random full-span derivative columns for an int case, else a short-span case's."""
    if isinstance(case, int):
        return _derivative_columns(form.basis, case)
    return form._dmat(_short_span_phis(form.basis, case))


def _chunk_nodes(monkeypatch, basis, dmat, nodes):
    """Make the Gram kernel evaluate ``nodes`` quadrature nodes per chunk of
    ``dmat``'s span (``None``: its own budget); returns the list that each
    chunk's node count is appended to."""
    if nodes is not None:
        span = max(martingales._span(np.any(dmat, axis=1)), 1)
        monkeypatch.setattr(martingales, "_GRAM_VALUES", nodes * basis.quad_order * span)
    chunks, modes_first = [], martingales._hermite_modes_first

    def spy(x, count, gaussian=True, out=None):
        chunks.append(np.size(x) // basis.quad_order)
        return modes_first(x, count, gaussian, out)

    monkeypatch.setattr(martingales, "_hermite_modes_first", spy)
    return chunks


@pytest.mark.parametrize("modes", [1, 3, 16, *SHORT_SPANS])
@pytest.mark.parametrize(
    "steps, nodes, split",
    [
        (1, None, [4]),
        (1, 9, [4]),
        (300, 488, [488, 488, 224]),
        (300, 976, [976, 224]),
        (7, 9, [8, 8, 8, 4]),
        (6, 3, [3, 1] * 6),
    ],
    ids=[
        "J1",
        "J1-gl2",  # one step in a chunk of two steps' Gauss-Legendre nodes
        "122-step-chunks",  # 300 = 122 + 122 + 56 steps
        "244-step-chunks",  # 300 = 244 + 56 steps
        "last-chunk-one-step",  # 7 = 2 + 2 + 2 + 1 steps
        "last-chunk-one-node",  # each step's 4 nodes go as 3 + 1
    ],
)
def test_increment_covariances_match_per_node_loop(basis, monkeypatch, modes, steps, nodes, split):
    form = QuadraticForm(basis)
    dmat = _case_dmat(form, modes)
    chunks = _chunk_nodes(monkeypatch, basis, dmat, nodes)
    grid = TimeGrid(1.0, steps)
    got = form.increment_covariances(grid, dmat)
    assert chunks == split
    want = oracles.increment_covariances_per_node(basis, grid, dmat)
    assert got.shape == (steps, dmat.shape[1], dmat.shape[1])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("modes", [1, 3, 16, *SHORT_SPANS])
@pytest.mark.parametrize(
    "t, nodes, split",
    # 1 panel x 16 points = 5 + 5 + 5 + 1 nodes; 8 panels x 16 points =
    # 25 x 5 + 3 nodes; 50 panels x 16 points = 488 + 312
    [(0.1, 5, [5, 5, 5, 1]), (1.0, 5, [5] * 25 + [3]), (1.0, 128, [128]), (6.2, 488, [488, 312])],
    ids=["last-chunk-one-node", "5-node-chunks", "one-chunk", "488-node-chunks"],
)
def test_covariance_matrix_matches_per_node_loop(basis, monkeypatch, modes, t, nodes, split):
    if isinstance(modes, int):
        rng = np.random.default_rng(modes)
        phis = [TestFunction(basis, rng.standard_normal(basis.size)) for _ in range(modes)]
    else:
        phis = _short_span_phis(basis, modes)
    form = QuadraticForm(basis)
    dmat = form._dmat(phis)
    chunks = _chunk_nodes(monkeypatch, basis, dmat, nodes)
    got = form.covariance_matrix(t, phis)
    assert chunks == split
    assert np.array_equal(got, oracles.covariance_matrix_per_node(basis, t, dmat))


@pytest.mark.parametrize("modes", [3, "heat-4", "zero"])
def test_gram_sums_do_not_depend_on_the_chunks(basis, monkeypatch, modes):
    form = QuadraticForm(basis)
    dmat = _case_dmat(form, modes)
    grid = TimeGrid(1.0, 300)
    got = {}
    for nodes in (1, 3, None):
        _chunk_nodes(monkeypatch, basis, dmat, nodes)
        got[nodes] = form.increment_covariances(grid, dmat)
        monkeypatch.undo()
    assert np.array_equal(got[1], got[3]) and np.array_equal(got[1], got[None])


@pytest.mark.parametrize("case, span", [("heat-3", 4), ("clt-2", 4), ("zero", 0), (3, 16)])
def test_gram_recurrence_stops_at_the_span(basis, monkeypatch, case, span):
    counts = []

    def modes_first(x, count, gaussian=True, out=None):
        counts.append(count)
        return hermite_modes_first(x, count, gaussian, out)

    hermite_modes_first = martingales._hermite_modes_first
    monkeypatch.setattr(martingales, "_hermite_modes_first", modes_first)
    form = QuadraticForm(basis)
    got = form.increment_covariances(TimeGrid(1.0, 30), _case_dmat(form, case))
    assert counts and set(counts) == {span}
    assert np.isfinite(got).all() and (span > 0 or not got.any())


# largest difference of the span-wide Gram product from the full-width one,
# relative to the largest entry: measured 4.8e-16 over the shapes below and at
# most 5.1e-16 over 960 more (CHANGES.md)
GRAM_TOL = 1e-15


@pytest.mark.parametrize("width", [1, 2, 3, 5, 16])
@pytest.mark.parametrize("size", [16, 32, 64])
def test_gram_sums_match_full_width_product(size, width):
    basis = BasisSpec(size, 2 * size)
    form = QuadraticForm(basis)
    x, w = np.polynomial.legendre.leggauss(4)
    s = np.array([0.02, 0.5])[:, None] + 0.01 * x
    rng = np.random.default_rng(100 * size + width)
    for span in range(1, size + 1):
        dmat = rng.standard_normal((size, width))
        dmat[span:] = 0.0
        got = form._gram_sums(s, w, dmat)
        want = np.zeros_like(got)
        for r in range(s.shape[0]):
            for k in range(s.shape[1]):
                want[r] += w[k] * oracles.gram_at(basis, s[r, k], dmat, full_width=True)
        assert np.abs(got - want).max() <= GRAM_TOL * np.abs(want).max(), span


def test_gram_sums_keep_heat_limit_bits():
    # the heat limit's shape: N = 64, Q = 128, the first 16 unit functions
    basis = BasisSpec(64, 128)
    form = QuadraticForm(basis)
    dmat = derivative_op(basis)[:, :16]
    for steps in (250, 1000):
        grid = TimeGrid(1.0, steps)
        want = oracles.increment_covariances_per_node(basis, grid, dmat, full_width=True)
        assert np.array_equal(form.increment_covariances(grid, dmat), want)


# largest difference of the weighted driver from the four-pass one, relative
# to the largest state: measured at most 3.3e-15 over 300 random shapes and
# at N up to 1000 (CHANGES.md); the tolerance leaves a factor of three
DRIVER_TOL = 1e-14


def _max_rel_diff(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("size", [2, 64])
@pytest.mark.parametrize("keep", [0, 1, None], ids=["keep0", "keep1", "keepN"])
@pytest.mark.parametrize(
    "count, steps, block",
    [(5, 30, None), (3, 30, 7), (4, 29, 7), (6, 1, None), (100, 800, None)],
    ids=[
        "one-block",
        "7-step-blocks",  # 30 = 7 + 7 + 7 + 7 + 2 steps
        "last-block-one-step",  # 29 = 7 + 7 + 7 + 8 steps: the one-step block merges
        "J1",
        "n100-J800",  # the driver's own blocks: 800 = 655 + 145 steps
    ],
)
def test_driver_matches_full_tensor(monkeypatch, size, keep, count, steps, block):
    if block is not None:
        monkeypatch.setattr(martingales, "_DRIVER_VALUES", count * block)
    basis = BasisSpec(size, 2 * size)
    keep = size if keep is None else keep
    particles = simulate_particles(count, TimeGrid(1.0, steps), 11, stream_id=size)
    states, modes = martingales._mn_dual_states(particles, basis, keep)
    assert _max_rel_diff(states, oracles.mn_dual_states_full(particles, basis)) <= DRIVER_TOL
    want = oracles.hermite_modes_full(particles.positions()[:, :-1], size)[:keep]
    assert modes.shape == (keep, count, steps)
    assert np.array_equal(modes, want)


@pytest.mark.parametrize("size", [400, 1000])
def test_driver_large_basis(size):
    """Past k ~ 335 the weighted recurrence's factors leave the floating-point
    range without their carried powers of two."""
    basis = BasisSpec(size, 2 * size)
    particles = simulate_particles(8, TimeGrid(1.0, 50), 3, stream_id=size)
    states, _ = martingales._mn_dual_states(particles, basis)
    assert np.all(np.isfinite(states))
    assert _max_rel_diff(states, oracles.mn_dual_states_full(particles, basis)) <= DRIVER_TOL


@pytest.mark.parametrize("steps, width, want", [(1, 5, [1]), (9, 1, [2, 2, 2, 3]), (29, 7, [7, 7, 7, 8]), (6, 10, [6])])
def test_time_blocks_are_never_one_step_wide(steps, width, want):
    assert [b - a for a, b in martingales._time_blocks(steps, width)] == want


@pytest.mark.parametrize("keep", ["span", "all"])
@pytest.mark.parametrize(
    "coeffs",
    [[0.0], [1.0], [0.0, 1.0, 0.5], [0.0] * 14 + [0.5, 1.0]],
    ids=["zero", "h0", "mixed", "top"],  # "top": phi' reaches mode N - 1
)
def test_qv_steps_from_kept_modes(basis, keep, coeffs):
    particles = simulate_particles(6, TimeGrid(1.0, 40), 5, stream_id=2)
    c = np.zeros(basis.size)
    c[: len(coeffs)] = coeffs
    phi = TestFunction(basis, c)
    dcoef = derivative_op(basis) @ c
    top = martingales._span(dcoef)
    _, modes = martingales._mn_dual_states(particles, basis, top if keep == "span" else basis.size)
    mn, qv = martingales._mn_qv_steps(dcoef, particles, modes)
    want_mn, want_qv = martingales._mn_qv_steps(dcoef, particles)
    assert np.array_equal(mn, want_mn) and np.array_equal(qv, want_qv)
    # the scalar paths keep the whole-array recurrence's bits
    left = particles.positions()[:, :-1]
    vals = np.zeros(left.shape)
    if top:
        vals = np.tensordot(dcoef[:top], oracles.hermite_modes_full(left, top), axes=(0, 0))
    mn_steps = (vals * particles.increments).sum(axis=0) / np.sqrt(6)
    qv_steps = (vals * vals).sum(axis=0) * (particles.grid.dt / 6)
    for path, steps in ((mn_scalar_path, mn_steps), (quadratic_variation_path, qv_steps)):
        assert np.array_equal(path(phi, particles), np.concatenate([[0.0], np.cumsum(steps)]))


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


# time blocks of one step (run as two), two and seven steps, against one block;
# the per-repetition calls run on 1, 4 or 8 threads
@pytest.mark.parametrize(
    "width, threads",
    [(None, 1), (7, 1), (1, 4), (2, 8)],
    ids=["one-time-block", "7-step-blocks", "1-step-blocks", "2-step-blocks"],
)
@pytest.mark.parametrize("keep", [0, 1, 3])
@pytest.mark.parametrize("count", [1, 5, 33])
@pytest.mark.parametrize("reps", [1, 2, 7])
def test_batched_driver_matches_per_rep(monkeypatch, reps, count, keep, width, threads):
    # J = 37 keeps count * J odd, where one gemv over a whole block would
    # round the tail of each repetition differently
    steps, basis = 37, BasisSpec(8, 16)
    assert martingales._DRIVER_VALUES // 33 >= steps
    if width is not None:  # 37 = 2 x 17 + 3 steps at widths 1 and 2 (the last step merges), 7 x 5 + 2 at 7
        monkeypatch.setattr(martingales, "_DRIVER_VALUES", reps * count * width)
    ids = range(3, 3 + reps)
    particles = simulate_particles(count, TimeGrid(1.0, steps), 13, ids)
    assert particles.increments.shape == (reps, count, steps)
    states, modes = martingales._mn_dual_states(particles, basis, keep)
    assert states.shape == (reps, steps + 1, 8) and modes.shape == (keep, reps, count, steps)
    dcoef = np.zeros(8)
    dcoef[:keep] = np.random.default_rng(keep).standard_normal(keep)
    mn, qv = martingales._mn_qv_steps(dcoef, particles, modes)
    assert mn.shape == qv.shape == (reps, steps)
    mn_fresh, qv_fresh = martingales._mn_qv_steps(dcoef, particles)  # its own recurrence
    # each repetition alone, in one time block, in a pool as the reports' blocks
    # run: a one-step block would sum 33 particles pairwise and differ
    monkeypatch.undo()
    singles = [simulate_particles(count, TimeGrid(1.0, steps), 13, sid) for sid in ids]
    wants = parallel_map(lambda r: oracles.mn_dual_states_per_rep(singles[r], basis, keep), reps, threads)
    for r, (one, (want_states, want_modes)) in enumerate(zip(singles, wants)):
        assert np.array_equal(_bits(particles.increments[r]), _bits(one.increments))
        assert np.array_equal(_bits(states[r]), _bits(want_states))
        assert np.array_equal(_bits(modes[:, r]), _bits(want_modes))
        want_mn, want_qv = oracles.mn_qv_steps_per_rep(dcoef, one, want_modes)
        for got in (mn[r], mn_fresh[r]):
            assert np.array_equal(_bits(got), _bits(want_mn))
        for got in (qv[r], qv_fresh[r]):
            assert np.array_equal(_bits(got), _bits(want_qv))


def test_qv_variance_shrinks_with_n(basis, h0):
    grid = TimeGrid(1.0, 200)
    out = {}
    for n in (10, 160):
        vals = np.array(
            [
                quadratic_variation_path(h0, simulate_particles(n, grid, 9, r))[-1]
                for r in range(600)
            ]
        )
        out[n] = vals.var(ddof=1)
    assert 8.0 <= out[10] / out[160] <= 32.0


# ---------------------------------------------------------------------------
# limiting quadratic form
# ---------------------------------------------------------------------------


def test_variance_function_zero_at_origin(basis, h0):
    assert limit_variance(h0, 0.0) == 0.0
    with pytest.raises(ValueError):
        limit_variance(h0, -1.0)


@pytest.mark.parametrize("t", [float("inf"), float("nan")])
def test_variance_function_rejects_nonfinite_time(h0, t):
    with pytest.raises(ValueError, match="time must be finite"):
        limit_variance(h0, t)


def test_variance_function_quadratic_scaling(basis):
    rng = np.random.default_rng(10)
    for _ in range(5):
        coeffs = np.zeros(basis.size)
        coeffs[:6] = rng.standard_normal(6)
        phi = TestFunction(basis, coeffs)
        a = rng.uniform(0.3, 2.5)
        scaled = TestFunction(basis, a * coeffs)
        assert limit_variance(scaled, 0.7) == pytest.approx(
            a * a * limit_variance(phi, 0.7), rel=1e-12
        )


def test_variance_function_closed_form(basis, h0):
    assert limit_variance(h0, 1.0) == pytest.approx(oracles.A_1_H0_CLOSED, abs=1e-12)
    assert limit_variance(h0, 0.5) == pytest.approx(oracles.A_HALF_H0_CLOSED, abs=1e-12)


def test_variance_function_vs_brute_force_oracle(basis, h0):
    # frozen high-resolution value plus a runtime dense-trapezoid recheck
    a = limit_variance(h0, 1.0)
    assert abs(a - oracles.A_1_H0_BRUTE) < 1e-6
    runtime = oracles.brute_force_variance(h0.coeffs, 1.0)
    assert abs(a - runtime) < 1e-6
    h1 = unit_function(basis, 1)
    assert abs(limit_variance(h1, 1.0) - oracles.A_1_H1_BRUTE) < 1e-6


def test_variance_function_monotone_in_time(basis):
    phi = TestFunction(basis, np.r_[0.3, -0.2, 1.0, np.zeros(basis.size - 3)])
    times = [0.0, 0.1, 0.3, 0.7, 1.0, 1.5]
    values = [limit_variance(phi, t) for t in times]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))


def test_cross_covariance_polarization(basis, h0):
    form = QuadraticForm(basis)

    def cross(phi, psi, t):
        return form.covariance_matrix(t, [phi, psi])[0, 1]

    h1 = unit_function(basis, 1)
    assert cross(h0, h0, 1.0) == pytest.approx(limit_variance(h0, 1.0), abs=1e-10)
    assert cross(h0, h1, 0.8) == pytest.approx(
        cross(h1, h0, 0.8), abs=1e-14
    )
    rng = np.random.default_rng(12)
    for _ in range(10):
        c1, c2 = np.zeros((2, basis.size))
        c1[:5] = rng.standard_normal(5)
        c2[:5] = rng.standard_normal(5)
        phi, psi = TestFunction(basis, c1), TestFunction(basis, c2)
        bound = np.sqrt(limit_variance(phi, 0.6) * limit_variance(psi, 0.6))
        assert abs(cross(phi, psi, 0.6)) <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# limit sampler
# ---------------------------------------------------------------------------


def test_limit_paths_start_at_zero(basis, h0):
    grid = TimeGrid(1.0, 50)
    paths = simulate_limit([h0], grid, 100, 13)
    assert paths.shape == (100, 51, 1)
    assert np.all(paths[:, 0] == 0.0)


def test_limit_variance_matches_target(basis, h0):
    grid = TimeGrid(1.0, 100)
    paths = simulate_limit([h0], grid, 5000, 14)
    target = limit_variance(h0, 1.0)
    sample = paths[:, -1, 0]
    var = sample.var(ddof=1)
    se = var * np.sqrt(2.0 / (sample.size - 1))
    assert abs(var - target) < 3 * se


def test_limit_increments_uncorrelated(basis, h0):
    grid = TimeGrid(1.0, 100)
    paths = simulate_limit([h0], grid, 5000, 15)[:, :, 0]
    first = paths[:, 50] - paths[:, 0]
    second = paths[:, 100] - paths[:, 50]
    rho = np.corrcoef(first, second)[0, 1]
    assert abs(rho) < 3.0 / np.sqrt(first.size)


def test_limit_joint_sampling_shares_draws(basis, h0):
    h1 = unit_function(basis, 1)
    grid = TimeGrid(1.0, 50)
    paths = simulate_limit([h0, h1], grid, 200, 16)
    # same underlying joint draw: correlation matches the covariance form
    form = QuadraticForm(basis)
    cov = form.covariance_matrix(1.0, [h0, h1])
    emp = np.cov(paths[:, -1, 0], paths[:, -1, 1])
    assert abs(emp[0, 1] - cov[0, 1]) < 5 * np.sqrt(cov[0, 0] * cov[1, 1] / 200)


@pytest.mark.parametrize(
    "count, coeffs, steps",
    [(40, [[1.0]], 20), (40, [[1.0], [0.0, 1.0], [0.3, -0.2, 1.0]], 20), (25, [[0.5, 1.0]], 1)],
    ids=["m1", "m3", "J1"],
)
def test_limit_samplers_match_parent(basis, count, coeffs, steps):
    grid = TimeGrid(1.0, steps)
    phis = [TestFunction(basis, np.r_[c, np.zeros(basis.size - len(c))]) for c in coeffs]
    form = QuadraticForm(basis)
    factors = _sqrt_factors(form.increment_covariances(grid, form._dmat(phis)))
    assert np.array_equal(
        simulate_limit(phis, grid, count, 21),
        oracles.sample_limit_states(factors, count, 21, 0),
    )
    # the heat driver: one stream per path, zero-padded to basis.size columns
    for modes, indices in [(1, range(4)), (5, range(2, 7)), (basis.size, range(3)), (5, [6])]:
        factors = spde._limit_factors(grid, basis, derivative_op(basis)[:, :modes])
        got = spde._limit_driver_chunk(factors, basis, 21, indices)
        assert np.array_equal(got, oracles.limit_driver_chunk(factors, basis, grid, 21, "limit", indices))


def test_sqrt_factors_integrity():
    good = np.array([[2.0, 0.0], [0.0, 1.0]])
    f = _sqrt_factors(good[None])
    assert np.allclose(f[0] @ f[0].T, good)
    slightly_negative = np.array([[1.0, 0.0], [0.0, -1e-10]])
    f2 = _sqrt_factors(slightly_negative[None])
    assert np.allclose(f2[0] @ f2[0].T, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    with pytest.raises(NumericalIntegrityError):
        _sqrt_factors(np.array([[1.0, 0.0], [0.0, -1e-6]])[None])


def test_sqrt_factors_threshold_scales_with_each_matrix():
    # -1e-14 is tiny in absolute terms but 1% of this matrix's scale
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    tiny = rot @ np.diag([1e-12, -1e-14]) @ rot.T
    with pytest.raises(NumericalIntegrityError):
        _sqrt_factors(np.stack([np.eye(2), tiny]))


@pytest.mark.parametrize("negative", [-1e-9, -1e-7])
def test_sqrt_factors_clips_round_off_of_large_matrices(negative):
    # against a largest eigenvalue of 1e6 these are round-off, not a defect
    big = np.diag([1e6, negative])
    f = _sqrt_factors(np.stack([big, np.eye(2)]))
    assert np.allclose(f[0] @ f[0].T, np.diag([1e6, 0.0]))
    assert np.array_equal(f[0][1], [0.0, 0.0])


# ---------------------------------------------------------------------------
# report driver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report(basis):
    return clt_report(
        scenario(
            basis,
            TimeGrid(1.0, 100),
            n_list=[5, 20],
            phi_list=[[1.0], [0.0]],
            times=[0.5, 1.0],
            reps=80,
            seed=17,
            tightness={"deltas": [0.1, 0.2]},
        )
    )


def test_clt_report_cells_complete(small_report):
    cells, extras = small_report
    assert len(cells) == 2 * 2 * 2
    keys = {"n", "phi", "t", "qv_mean", "qv_target", "ks", "ks_critical", "energy"}
    for cell in cells:
        assert keys <= set(cell)
    assert set(extras["per_n"]) == {5, 20}


def test_clt_report_flags_degenerate(small_report):
    cells, _ = small_report
    degenerate = [c for c in cells if c["degenerate"]]
    assert degenerate and all(c["qv_target"] == 0.0 for c in degenerate)
    assert all(c["phi"] == [0.0] for c in degenerate)


def test_clt_report_tightness_summaries(small_report):
    _, extras = small_report
    for info in extras["per_n"].values():
        tight = info["tightness"]
        assert tight["paths"] == 80
        for freq in tight["exceedance"].values():
            assert 0.0 <= freq <= 1.0


def test_parallel_map_thread_invariance():
    def work(i):
        gen = np.random.default_rng(i)
        return float(gen.standard_normal(100).sum())

    one = parallel_map(work, 16, threads=1)
    four = parallel_map(work, 16, threads=4)
    assert one == four


def test_clt_report_thread_invariance(basis):
    cfg = scenario(
        basis,
        TimeGrid(1.0, 50),
        n_list=[5],
        times=[1.0],
        reps=20,
        seed=18,
        tightness={"deltas": [0.1], "c_levels": [1.0]},
    )
    a, _ = clt_report(cfg, threads=1)
    b, _ = clt_report(cfg, threads=4)
    assert a == b


# each report's own fields on the shared multi-block shape below
BLOCK_CONFIGS = {
    "clt": {"phi_list": [[1.0], [0.0, 1.0], [1.0, 0.0, 1.0]], "times": [0.5, 1.0]},
    "heat": {
        "phi_list": [[1.0], [0.0, 1.0]],
        "times": [0.5, 1.0],
        "eta": {"kind": "gaussian", "r": 1.0, "scale": 0.5},
        "limit_modes": 4,
        "calibration": {"reps": 0},
    },
    "tightness": {"eta": {"kind": "gaussian", "r": 1.0, "scale": 0.5}, "quantile": 0.9},
}


@pytest.mark.parametrize("deltas", [[0.05], [0.02, 0.1]], ids=["dense-modulus", "pruned-modulus"])
@pytest.mark.parametrize("command", sorted(BLOCK_CONFIGS))
def test_report_bytes_invariant_to_blocks_and_threads(monkeypatch, command, deltas):
    from nucleartight import cli

    # n = 5 and n = 12 on J = 200 and N = 16 run blocks of 20 repetitions:
    # 150 = 7 x 20 + 10; a one-step time block would sum n = 12 pairwise
    assert max(1, martingales._DRIVER_VALUES // (200 * max(12, 16))) == 20
    cfg = {
        "basis": {"N": 16, "Q": 32},
        "grid": {"T": 1.0, "J": 200},
        "n_list": [5, 12],
        "reps": 150,
        "tightness": {"r": 1.0, "c_levels": [0.5, 1.0], "deltas": deltas},
        "seed": 31,
        **BLOCK_CONFIGS[command],
    }
    texts = {t: cli.run_command(command, cfg, threads=t)[0].to_json() for t in (1, 2, 4, 8)}
    assert texts[1] == texts[2] == texts[4] == texts[8]
    # the per-repetition pipeline: one repetition per block, through the
    # per-repetition driver and modulus, in time blocks of one step (run as
    # two), two and seven steps (200 = 28 x 7 + 4)
    monkeypatch.setattr(martingales, "_DRIVER_VALUES", 200 * 16)
    for width, threads in ((1, 1), (2, 4), (7, 8)):
        oracles.per_rep_drivers(monkeypatch, width)
        assert cli.run_command(command, cfg, threads=threads)[0].to_json() == texts[1]
