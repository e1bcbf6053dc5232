import numpy as np
import pytest

import oracles
from nucleartight import hermite, spde
from nucleartight.hermite import BasisSpec, DualElement, TestFunction, derivative_op, heat_matrix, laplacian_op
from nucleartight.martingales import NumericalIntegrityError, simulate_particles
from nucleartight.paths import TimeGrid, containment_summary, dual_path_stats, modulus_dual, sup_dual_norm
from nucleartight.spde import (
    heat_convergence_report,
    mild_solution,
    mn_dual_path,
    sample_initial,
    tightness_report,
    weak_form_residual,
)
from nucleartight.martingales import scalar_paths

from conftest import scenario, unit_function


@pytest.fixture(scope="module")
def basis():
    return BasisSpec(16, 32)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 200)


def zero_driver(grid, basis):
    return np.zeros((grid.steps + 1, basis.size))


# ---------------------------------------------------------------------------
# driver coordinates
# ---------------------------------------------------------------------------


def test_dual_path_matches_scalar_sums(basis, grid):
    particles = simulate_particles(30, grid, 1)
    dual = mn_dual_path(particles, basis)
    rng = np.random.default_rng(2)
    phis = [TestFunction(basis, rng.standard_normal(basis.size)) for _ in range(5)]
    scalar = scalar_paths(phis, particles)[0]
    for phi, path in zip(phis, scalar):
        assert np.abs(path - dual @ phi.coeffs).max() < 1e-10


def test_dual_path_starts_at_zero(basis, grid):
    dual = mn_dual_path(simulate_particles(10, grid, 3), basis)
    assert np.all(dual[0] == 0.0)


def test_empty_block_gives_empty_paths():
    """A block of no repetitions gives ``(0, ...)`` paths from every path function."""
    basis, block = BasisSpec(4, 8), simulate_particles(3, TimeGrid(1.0, 10), 1, range(0))
    assert mn_dual_path(block, basis).shape == (0, 11, 4)
    phis = [TestFunction(basis, np.ones(4)), TestFunction(basis, np.zeros(4))]
    for path in scalar_paths(phis, block):
        assert path.shape == (0, 2, 11)


# n * J is odd, so contractions whose length is not a multiple of 4 are
# covered; lags of 2 and of 30 steps reach the dense and the pruned modulus;
# at N = 17 a row of an (M, N) @ (N, N) matrix product rounds differently
# for M = 2 and M = 5, so a solver over matrix rows could not keep the bits
@pytest.mark.parametrize("n, steps, size", [(3, 7, 5), (5, 33, 16), (7, 101, 9), (5, 33, 17)])
def test_block_calls_equal_per_repetition_calls(n, steps, size):
    """A block from ``simulate_particles(n, grid, seed, range(R))`` gives every
    repetition the bits of its own call, down to the mild solve."""
    basis, grid, reps = BasisSpec(size, 2 * size), TimeGrid(1.0, steps), 5
    rng = np.random.default_rng(steps)
    phi = TestFunction(basis, rng.standard_normal(size))
    block = simulate_particles(n, grid, 4, range(reps))
    singles = [simulate_particles(n, grid, 4, rep) for rep in range(reps)]
    phis = [phi, unit_function(basis, 1)]
    for a, paths in enumerate(scalar_paths(phis, block)):
        assert np.array_equal(paths, [scalar_paths(phis, p)[a] for p in singles])
    drivers = mn_dual_path(block, basis)
    assert np.array_equal(drivers, [mn_dual_path(p, basis) for p in singles])

    etas = rng.standard_normal((reps, size))
    sols = np.array([mild_solution(m, e, grid) for m, e in zip(drivers, etas)])
    assert np.array_equal(mild_solution(drivers, etas, grid), sols)
    residuals = [weak_form_residual(y, m, e, phi, grid) for y, m, e in zip(sols, drivers, etas)]
    assert np.array_equal(weak_form_residual(sols, drivers, etas, phi, grid), residuals)
    for delta in (2 / steps, min(30, steps) / steps):
        assert np.array_equal(modulus_dual(sols, grid, delta, 1.0), [modulus_dual(y, grid, delta, 1.0) for y in sols])
    assert np.array_equal(sup_dual_norm(sols, grid, 1.0), [sup_dual_norm(y, grid, 1.0) for y in sols])


def test_path_functions_check_their_inputs(basis, grid):
    driver, eta, h0 = zero_driver(grid, basis), np.zeros(basis.size), unit_function(basis, 0)
    with pytest.raises(ValueError, match="driver must have shape"):
        mild_solution(driver[1:], eta, grid)
    with pytest.raises(ValueError, match="eta must hold"):
        mild_solution(driver, np.full(basis.size, np.inf), grid)
    with pytest.raises(ValueError, match="solution must be finite"):
        weak_form_residual(np.full_like(driver, np.nan), driver, eta, h0, grid)
    with pytest.raises(ValueError, match="share a basis"):
        weak_form_residual(driver[:, :-1], driver[:, :-1], eta[:-1], h0, grid)


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------


def test_initial_zero(basis):
    eta = sample_initial("zero", basis, 4)
    assert np.all(eta.coeffs == 0.0)


def test_initial_gaussian_requires_summable_index(basis):
    with pytest.raises(ValueError):
        sample_initial("gaussian", basis, 4, r=0.5)
    with pytest.raises(ValueError):
        sample_initial("gaussian", basis, 4)
    with pytest.raises(ValueError):
        sample_initial("bogus", basis, 4)


@pytest.mark.parametrize(
    "spec, message",
    [({"r": float("nan")}, "requires r > 1/2"), ({"r": 1.0, "scale": float("nan")}, "scale must be finite")],
    ids=["r-nan", "scale-nan"],
)
def test_initial_gaussian_rejects_nan(basis, spec, message):
    with pytest.raises(ValueError, match=message):
        sample_initial("gaussian", basis, 0, **spec)


@pytest.mark.parametrize(
    "spec",
    [{"r": True}, {"r": 1.0, "scale": True}, {"r": 1.0, "scale": np.True_}, {"r": "1"}],
    ids=["r-bool", "scale-bool", "scale-numpy-bool", "r-str"],
)
def test_initial_gaussian_rejects_non_numbers(basis, spec):
    """``r=True`` drew as ``r = 1`` and ``scale=True`` read as 1.0."""
    with pytest.raises(TypeError, match="must be a number, not"):
        sample_initial("gaussian", basis, 0, **spec)


@pytest.mark.parametrize(
    "eta",
    [{"kind": "zero"}, {"kind": "fixed-coeffs", "coeffs": list(np.linspace(1.0, -0.5, 16))}, {"kind": "gaussian", "r": 1.0}],
    ids=["zero", "fixed-coeffs", "gaussian"],
)
@pytest.mark.parametrize(
    "ids",
    [range(3, 9), simulate_particles(2, TimeGrid(1.0, 4), 5, range(4, 7)).stream_id, [(2, 1, i) for i in range(4)]],
    ids=["range", "block-stream-ids", "calibration-keys"],
)
def test_initial_states_equal_per_path_draws(basis, eta, ids):
    got = spde._initial_states(eta, basis, 5, "initial", ids)
    want = [sample_initial(basis=basis, seed=5, stream_id=i, tag="initial", **eta).coeffs for i in ids]
    assert got.shape == (len(ids), basis.size)
    assert np.array_equal(got, want)
    assert spde._initial_states(eta, basis, 5, "initial", range(0)).shape == (0, basis.size)


def test_initial_gaussian_dual_norm_moment(basis):
    # E[p'_1(eta)^2] = sum_k (2k+1)^(-4), approx pi^4/96 in the size limit
    k = np.arange(basis.size)
    target = np.sum((2.0 * k + 1.0) ** -4.0)
    draws = np.array(
        [
            np.sum((sample_initial("gaussian", basis, 5, r=1.0, stream_id=i).coeffs
                    * (2.0 * k + 1.0) ** -1.0) ** 2)
            for i in range(5000)
        ]
    )
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se
    # the finite-size partial sum sits just below the classical limit
    assert 0.0 < np.pi**4 / 96.0 - target < 1e-4


def test_initial_fixed_coeffs_roundtrip(basis, tmp_path):
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(basis.size)
    eta = sample_initial("fixed-coeffs", basis, 0, coeffs=coeffs)
    text = ",".join(repr(float(c)) for c in eta.coeffs)
    back = np.array([float(tok) for tok in text.split(",")])
    assert np.array_equal(back, eta.coeffs)


def test_initial_stream_separated_from_particles(basis, grid):
    before = simulate_particles(50, grid, 7, stream_id=0).increments
    sample_initial("gaussian", basis, 7, r=1.0, stream_id=0)
    after = simulate_particles(50, grid, 7, stream_id=0).increments
    assert np.array_equal(before, after)
    a = sample_initial("gaussian", basis, 7, r=1.0, stream_id=0).coeffs
    b = sample_initial("gaussian", basis, 7, r=1.0, stream_id=1).coeffs
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# mild solver
# ---------------------------------------------------------------------------


def test_pure_heat_flow(basis, grid):
    eta = DualElement(basis, np.eye(basis.size)[0])
    sol = mild_solution(zero_driver(grid, basis), eta.coeffs, grid)
    h0 = unit_function(basis, 0)
    # <Y_t, h_0> = <eta, E(t) h_0> has closed form (1+t)^(-1/2) for this eta
    for t in (0.25, 0.5, 1.0):
        value = sol[grid.index_of(t)] @ h0.coeffs
        assert abs(value - (1.0 + t) ** -0.5) < 1e-4
    expected = heat_matrix(0.5, basis) @ eta.coeffs
    assert np.abs(sol[grid.index_of(0.5)] - expected).max() < 1e-12


@pytest.mark.parametrize("nonzero_eta", [False, True], ids=["zero-eta", "eta"])
@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 2)], ids=["one-path", "batch-1", "batch-3", "batch-2x2"])
def test_mild_states_match_per_step_loop(lead, nonzero_eta):
    """Every path of any lead shape keeps the bits of its lone solve, and
    stays within 5e-14 of the largest state of the per-step loop on the Pade
    ``E(dt)``.  N = 17 and 67 give parity blocks of unequal size; for N = 17,
    18 and 67 a row of a matrix product over the batch would also round
    differently with the batch size."""
    rng = np.random.default_rng(len(lead))
    for size in (6, 17, 18, 67):
        shape = lead + (31, size)
        basis, dt = BasisSpec(size, 2 * size), TimeGrid(1.0, 30).dt
        ops = (heat_matrix(dt, basis), laplacian_op(basis), dt)
        driver = np.cumsum(rng.standard_normal(shape), axis=-2)
        driver[..., 0, :] = 0.0
        eta = np.zeros(lead + (size,))
        if nonzero_eta:
            # every other path but the last starts at zero, so a batch mixes
            # zero and nonzero initial states
            eta[...] = rng.standard_normal(eta.shape)
            eta.reshape(-1, size)[:-1:2] = 0.0
        got = spde._mild_states(driver, eta, dt)
        assert got.shape == shape and got.flags.c_contiguous
        for path in np.ndindex(lead):
            lone = spde._mild_states(driver[path].copy(), eta[path].copy(), dt)
            assert np.array_equal(got[path].view(np.int64), lone.view(np.int64))
            want = oracles.mild_states_loop(driver[path], eta[path], *ops)
            assert np.max(np.abs(got[path] - want)) <= 5e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("nonzero_eta", [False, True], ids=["zero-eta", "eta"])
@pytest.mark.parametrize(
    "size, steps, horizon",
    [
        pytest.param(8, 400, 1.0, id="8-400"),
        pytest.param(32, 200, 1.0, id="32-200"),
        pytest.param(64, 100, 1.0, id="64-100"),
        pytest.param(128, 100, 1.0, id="128-100"),
        # |lam_min| T > 600: the scan runs in several chunks
        pytest.param(64, 200, 10.0, id="several-chunks"),
        # |lam_min| dt > 600: one step per chunk
        pytest.param(8, 5, 400.0, id="one-step-chunks"),
        # Lap = 0, lam = 0, and the odd block is empty
        pytest.param(1, 100, 1.0, id="1-100"),
    ],
)
def test_mild_states_near_long_double_mild_form(size, steps, horizon, nonzero_eta):
    """The scan stays within 5e-14 of the largest state of a long-double
    evaluation of the mild form with its flow and its Duhamel sum kept apart,
    on the float64 Pade ``E(dt)`` and ``Lap``."""
    rng = np.random.default_rng(size)
    dt = TimeGrid(horizon, steps).dt
    driver = np.cumsum(rng.standard_normal((steps + 1, size)), axis=0) / np.sqrt(steps)
    driver[0] = 0.0
    eta = rng.standard_normal(size) * (2.0 * np.arange(size) + 1.0) ** -1.0 if nonzero_eta else np.zeros(size)
    if horizon > 1.0:
        # the chunked cases run the chunks they claim
        chunk = spde._scan_operators(size, dt)[0]
        assert chunk == 1 if dt > 1.0 else 1 < chunk < steps
    got = spde._mild_states(driver, eta, dt)
    # the operators by size: a basis needs N >= 2
    want = oracles.mild_states_longdouble(driver, eta, hermite._heat_matrix(dt, size), hermite._laplacian_op(size), dt)
    assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))


def test_mild_rejects_overflowing_start():
    """``eta / dt`` starts the accumulator, so an ``eta`` that overflows it is
    a numerical-integrity failure, not a non-finite solution."""
    grid = TimeGrid(1e-300, 10)
    eta = np.zeros(6)
    eta[1] = 1e10
    with pytest.raises(NumericalIntegrityError, match="overflows"):
        mild_solution(np.zeros((grid.steps + 1, 6)), eta, grid)


@pytest.mark.filterwarnings("error")
def test_mild_rejects_a_step_whose_exponents_overflow():
    """At a huge finite step ``lam dt`` overflows to ``-inf``, and ``exp(-lam dt l)``
    would read NaN at ``l = 0``: a numerical-integrity failure, without a
    warning, where a step short of that solves."""
    driver = np.zeros((2, 8))
    sol = mild_solution(driver, np.ones(8), TimeGrid(1e307, 1))
    assert np.array_equal(sol[0], np.ones(8)) and np.all(np.isfinite(sol))
    for _ in range(2):  # nothing was cached by the first failure
        with pytest.raises(NumericalIntegrityError, match="overflows the scan"):
            mild_solution(driver, np.ones(8), TimeGrid(1.7e308, 1))


@pytest.mark.parametrize(
    "size, steps, horizon, chunks",
    [
        pytest.param(16, 40, 1.0, 1, id="one-chunk"),
        # more than _CHUNK_ROWS steps: the scan runs in several chunks
        pytest.param(16, 1200, 3.0, 3, id="several-chunks"),
        # |lam_min| dt > 600: one step per chunk
        pytest.param(8, 5, 400.0, 5, id="one-step-chunks"),
        # Lap has a zero eigenvalue, and the parity blocks differ in size
        pytest.param(17, 60, 1.0, 1, id="odd-N"),
    ],
)
def test_terminal_weights_near_per_step_pade_flows(size, steps, horizon, chunks):
    """The calibration weights from the mild scan's flows stay within 5e-14
    of the largest weight built from a per-step Pade ``E(dt)`` loop, and
    ``E(T) phi`` within 5e-14 of the largest entry of ``phi``."""
    rng = np.random.default_rng(size + steps)
    basis, grid = BasisSpec(size, 2 * size), TimeGrid(horizon, steps)
    assert -(-steps // spde._scan_operators(size, grid.dt)[0]) == chunks  # the chunks the case claims
    factors = rng.standard_normal((steps, size, 5))
    phi = rng.standard_normal(size)
    weights, flow = spde._terminal_weights(factors, basis, grid, phi)
    want_weights, want_flow = oracles.terminal_weights_per_step(factors, basis, grid, phi)
    assert weights.shape == want_weights.shape == (steps, 5)
    assert np.max(np.abs(weights - want_weights)) <= 5e-14 * np.max(np.abs(want_weights))
    assert np.max(np.abs(flow - want_flow)) <= 5e-14 * np.max(np.abs(phi))


def test_zero_data_zero_solution(basis, grid):
    eta = DualElement(basis, np.zeros(basis.size))
    sol = mild_solution(zero_driver(grid, basis), eta.coeffs, grid)
    assert np.all(sol == 0.0)
    assert weak_form_residual(sol, zero_driver(grid, basis), eta.coeffs, unit_function(basis, 0), grid) == 0.0


def test_mild_solution_additive(basis, grid):
    rng = np.random.default_rng(8)
    particles = simulate_particles(20, grid, 9)
    driver = mn_dual_path(particles, basis)
    eta1 = DualElement(basis, rng.standard_normal(basis.size))
    eta2 = DualElement(basis, rng.standard_normal(basis.size))
    sol1 = mild_solution(driver, eta1.coeffs, grid)
    sol2 = mild_solution(zero_driver(grid, basis), eta2.coeffs, grid)
    combined = mild_solution(driver, DualElement(basis, eta1.coeffs + eta2.coeffs).coeffs, grid)
    assert np.allclose(combined, sol1 + sol2, rtol=1e-12, atol=1e-12)


def test_semigroup_consistency_without_driver(basis, grid):
    rng = np.random.default_rng(10)
    eta = DualElement(basis, rng.standard_normal(basis.size))
    sol = mild_solution(zero_driver(grid, basis), eta.coeffs, grid)
    e_half = heat_matrix(0.5, basis)
    lhs = sol[grid.index_of(0.75)]
    rhs = e_half @ sol[grid.index_of(0.25)]
    assert np.abs(lhs - rhs).max() < 1e-10


def test_mild_rejects_basis_mismatch(basis, grid):
    other = BasisSpec(8, 16)
    eta = DualElement(other, np.zeros(8))
    with pytest.raises(ValueError):
        mild_solution(zero_driver(grid, basis), eta.coeffs, grid)


def test_residual_small_and_first_order(basis):
    h0 = unit_function(basis, 0)
    means = []
    step_counts = [200, 400, 800]
    for steps in step_counts:
        g = TimeGrid(1.0, steps)
        vals = []
        for rep in range(12):
            particles = simulate_particles(20, g, 11, rep)
            driver = mn_dual_path(particles, basis)
            eta = sample_initial("gaussian", basis, 11, r=1.0, stream_id=rep)
            sol = mild_solution(driver, eta.coeffs, g)
            vals.append(weak_form_residual(sol, driver, eta.coeffs, h0, g))
        means.append(np.mean(vals))
        assert max(vals) < 10.0 * g.dt
    slope = np.polyfit(np.log([1.0 / s for s in step_counts]), np.log(means), 1)[0]
    assert 0.7 <= slope <= 1.3


# ---------------------------------------------------------------------------
# convergence and tightness drivers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def heat_smoke(basis, grid):
    return heat_convergence_report(
        scenario(
            basis,
            grid,
            n_list=[5, 20],
            eta={"kind": "zero"},
            phi_list=[[1.0]],
            times=[0.5, 1.0],
            reps=60,
            seed=12,
            limit_modes=6,
            calibration={"reps": 4, "size": 80},
            tightness={"deltas": [0.1, 0.2]},
        )
    )


def test_heat_report_cells(heat_smoke):
    cells, extras = heat_smoke
    assert len(cells) == 2 * 2
    for cell in cells:
        assert {"n", "phi", "t", "ks", "ks_critical", "energy"} <= set(cell)
        assert 0.0 <= cell["ks"] <= 1.0
    assert set(extras["per_n"]) == {5, 20}
    assert extras["limit"]["modes"] == 6


def test_heat_report_residual_gates(heat_smoke):
    _, extras = heat_smoke
    assert extras["limit"]["residual_pass"]
    for info in extras["per_n"].values():
        assert info["residual_pass"]


def test_heat_report_calibration(heat_smoke):
    _, extras = heat_smoke
    cal = extras["calibration"]
    assert cal["reps"] == 4
    assert len(cal["pvalues"]) == 4
    assert 0.0 <= cal["fraction_below_5"] <= 1.0


@pytest.mark.parametrize(
    "eta_spec",
    [
        {"kind": "zero"},
        {"kind": "fixed-coeffs", "coeffs": list(np.linspace(1.0, -0.5, 16))},
        {"kind": "gaussian", "r": 1.0, "scale": 0.5},
    ],
    ids=["zero", "fixed-coeffs", "gaussian"],
)
@pytest.mark.parametrize("cal_steps, modes", [(40, 5), (20, 5), (20, 16)], ids=["main-grid", "coarser-grid", "all-modes"])
def test_calibration_functional_matches_mild_solves(basis, eta_spec, cal_steps, modes):
    """Each calibration value equals ``<Y_T, phi>`` of the limit-driven mild
    solve it replaced, from the same normals and initial state."""
    cal_grid = TimeGrid(1.0, cal_steps)
    phi = np.r_[0.5, 1.0, np.zeros(basis.size - 2)]
    factors = spde._limit_factors(cal_grid, basis, derivative_op(basis)[:, :modes])
    weights, flow = spde._terminal_weights(factors, basis, cal_grid, phi)
    assert weights.shape == (cal_steps, modes)
    for rep, side in [(0, 0), (2, 1)]:
        etas = spde._initial_states(eta_spec, basis, 7, "calibration-initial", [(rep, side, i) for i in range(25)])
        got = spde._calibration_sample(etas, weights, flow, 7, rep, side)
        want = oracles.calibration_sample_paths(basis, cal_grid, factors, phi, 7, eta_spec, rep, side, 25)
        # relative to the sample's scale: a value near zero is a cancellation,
        # and its own relative error says nothing about the functional
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_brownian_ensemble_modulus_median_monotone(basis, grid):
    states = np.array(
        [mn_dual_path(simulate_particles(10, grid, 15, r), basis) for r in range(30)]
    )
    deltas = [0.02, 0.05, 0.1, 0.2, 0.5]
    sups, mods = dual_path_stats(states, grid, deltas, 1.0)
    report = containment_summary(sups, mods, [1.0], deltas)
    medians = report["modulus_quantiles"]["0.5"]
    assert all(a <= b + 1e-14 for a, b in zip(medians, medians[1:]))


def test_tightness_report_gate(basis, grid):
    cells, extras = tightness_report(
        scenario(
            basis,
            grid,
            n_list=[5, 20],
            eta={"kind": "zero"},
            reps=40,
            seed=13,
            quantile=0.9,
            tightness={"deltas": [0.1, 0.2]},
        )
    )
    assert len(cells) == 2
    for cell in cells:
        assert {"n", "driver", "solution"} <= set(cell)
        assert cell["driver"]["paths"] == 40
    gate = extras["gate"]
    driver_q = [cell["driver"]["sup_quantile"] for cell in cells]
    assert driver_q != [cell["solution"]["sup_quantile"] for cell in cells]
    assert gate["ratio"] == max(driver_q) / min(driver_q)
    assert gate["pass"] is (gate["ratio"] <= 2.0)  # the default gate_ratio


def test_heat_calibration_default_steps_are_the_grid(basis):
    grid = TimeGrid(1.0, 20)
    cfg = scenario(basis, grid, n_list=[5], phi_list=[[1.0]], times=[1.0], reps=6, seed=3, limit_modes=4)
    runs = [
        heat_convergence_report({**cfg, "calibration": {"reps": 3, "size": 30, "steps": steps}})[1]["calibration"]
        for steps in (None, grid.steps)
    ]
    assert runs[0] == runs[1]
    assert runs[0]["steps"] == grid.steps


def test_heat_report_thread_invariance(basis):
    cfg = scenario(
        basis,
        TimeGrid(1.0, 50),
        n_list=[5],
        phi_list=[[1.0]],
        times=[1.0],
        reps=16,
        seed=14,
        limit_modes=4,
        calibration={"reps": 2, "size": 40},
        tightness={"deltas": [0.2]},
    )
    a_cells, a_extras = heat_convergence_report(cfg, threads=1)
    b_cells, b_extras = heat_convergence_report(cfg, threads=4)
    assert a_cells == b_cells
    assert a_extras["calibration"]["pvalues"] == b_extras["calibration"]["pvalues"]


def test_heat_multi_chunk_limit_thread_invariance(basis, monkeypatch):
    """A limit sample in chunks of 1, 2 or 3 paths (the last one partial) or
    in one chunk has the same cells, extras and paths on one thread and on
    pools of 4 and 8."""
    grid = TimeGrid(1.0, 20)
    chunks = []
    driver = spde._limit_driver_chunk

    def recording(factors, basis, seed, indices):
        chunks.append(len(indices))
        return driver(factors, basis, seed, indices)

    monkeypatch.setattr(spde, "_limit_driver_chunk", recording)
    cfg = scenario(
        basis,
        grid,
        n_list=[5],
        phi_list=[[1.0]],
        times=[0.5, 1.0],
        reps=10,
        seed=15,
        limit_modes=4,
        calibration={"reps": 0},
        tightness={"deltas": [0.2]},
    )
    runs = []
    for per_chunk in (1, 2, 3, 10):
        monkeypatch.setattr(spde, "_LIMIT_STATES", per_chunk * (grid.steps + 1) * basis.size)
        for threads in (1, 4, 8):
            chunks.clear()
            cells, extras = heat_convergence_report(cfg, threads=threads, collect_paths=True)
            assert sorted(chunks, reverse=True) == [min(per_chunk, 10 - i) for i in range(0, 10, per_chunk)]
            runs.append((cells, extras, extras.pop("paths")))
    a_cells, a_extras, a_paths = runs[0]
    assert a_paths.keys() == {"limit", 5}
    assert a_paths["limit"].shape == (10, grid.steps + 1, basis.size)
    for cells, extras, paths in runs[1:]:
        assert cells == a_cells and extras == a_extras
        assert paths.keys() == a_paths.keys()
        assert all(np.array_equal(paths[k], a_paths[k]) for k in a_paths)
