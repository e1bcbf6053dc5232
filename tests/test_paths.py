import numpy as np
import pytest

from nucleartight import paths
from nucleartight.hermite import TestFunction
from nucleartight.paths import (
    TimeGrid,
    containment_summary,
    dual_path_stats,
    median,
    modulus_dual,
    quantile,
    sup_dual_norm,
    write_array_csv,
)

import oracles
from conftest import unit_function
from oracles import brute_force_dual_modulus


def dual_path_from_scalar(grid, basis, scalar_values, mode=0):
    states = np.zeros((grid.steps + 1, basis.size))
    states[:, mode] = scalar_values
    return states


def projection_modulus(x, grid, deltas, phi):
    """Modulus of ``t -> <x(t), phi>``: the projection is a one-mode path at r = 0."""
    return dual_path_stats((x @ phi.coeffs)[:, None], grid, deltas, 0.0)[1]


def containment(states, grid, r, c_levels, deltas):
    return containment_summary(*dual_path_stats(states, grid, deltas, r), c_levels, deltas)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    assert np.array_equal(grid.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.index_of(1.5) == 3
    with pytest.raises(ValueError):
        grid.index_of(0.7)


@pytest.mark.parametrize("t", [float("inf"), -float("inf"), float("nan")])
def test_time_grid_index_rejects_nonfinite(t):
    with pytest.raises(ValueError, match="not a node of the grid"):
        TimeGrid(1.0, 10).index_of(t)


def test_path_shape_and_finiteness(basis16):
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError):
        sup_dual_norm(np.zeros((10, basis16.size)), grid, 1.0)
    with pytest.raises(ValueError):
        sup_dual_norm(np.full((11, basis16.size), np.nan), grid, 1.0)


def test_modulus_constant_path(basis16):
    grid = TimeGrid(1.0, 20)
    x = dual_path_from_scalar(grid, basis16, np.full(21, 3.0))
    phi = unit_function(basis16, 0)
    assert projection_modulus(x, grid, [0.05, 0.3, 1.0], phi).tolist() == [0.0, 0.0, 0.0]
    for delta in (0.05, 0.3, 1.0):
        assert modulus_dual(x, grid, delta, 1.0) == 0.0


def test_modulus_linear_path(basis16):
    grid = TimeGrid(1.0, 20)
    x = dual_path_from_scalar(grid, basis16, grid.nodes())
    phi = unit_function(basis16, 0)
    # non-strict comparison: gap exactly delta is included
    assert projection_modulus(x, grid, [0.1, 0.25], phi) == pytest.approx([0.1, 0.25], abs=1e-12)


def test_modulus_monotone_in_delta(basis16):
    rng = np.random.default_rng(7)
    grid = TimeGrid(1.0, 50)
    states = rng.standard_normal((51, basis16.size))
    x = states
    phi = TestFunction(basis16, rng.standard_normal(basis16.size))
    deltas = [0.02, 0.1, 0.3, 0.7, 1.0]
    tvals = projection_modulus(x, grid, deltas, phi).tolist()
    dvals = [modulus_dual(x, grid, d, 0.5) for d in deltas]
    assert all(a <= b + 1e-14 for a, b in zip(tvals, tvals[1:]))
    assert all(a <= b + 1e-14 for a, b in zip(dvals, dvals[1:]))


def test_modulus_rejects_bad_delta(basis16):
    grid = TimeGrid(1.0, 10)
    x = dual_path_from_scalar(grid, basis16, np.zeros(11))
    with pytest.raises(ValueError):
        modulus_dual(x, grid, 0.0, 1.0)
    with pytest.raises(ValueError):
        modulus_dual(x, grid, 1.5, 1.0)
    with pytest.raises(ValueError):
        modulus_dual(x, grid, float("nan"), 1.0)


def test_modulus_cauchy_schwarz_chain(basis16):
    rng = np.random.default_rng(13)
    grid = TimeGrid(1.0, 40)
    x = rng.standard_normal((41, basis16.size))
    for _ in range(10):
        phi = TestFunction(basis16, rng.standard_normal(basis16.size))
        r = rng.uniform(0.0, 2.0)
        delta = rng.uniform(0.05, 1.0)
        lhs = projection_modulus(x, grid, [delta], phi)[0]
        projected = (x @ phi.coeffs)[:, None]
        assert lhs == brute_force_dual_modulus(projected, grid.nodes(), delta, 0.0)
        rhs = modulus_dual(x, grid, delta, r) * (
            np.sqrt(np.sum(((2 * np.arange(basis16.size) + 1.0) ** r * phi.coeffs) ** 2))
        )
        assert lhs <= rhs * (1 + 1e-12)


def test_modulus_dual_linear_ground_mode(basis16):
    grid = TimeGrid(1.0, 16)
    x = dual_path_from_scalar(grid, basis16, grid.nodes(), mode=0)
    for r in (0.0, 0.5, 1.0, 2.0):
        assert modulus_dual(x, grid, 0.25, r) == pytest.approx(0.25, abs=1e-12)


def test_sup_dual_norm_values(basis16):
    grid = TimeGrid(1.0, 100)
    zero = dual_path_from_scalar(grid, basis16, np.zeros(101))
    assert sup_dual_norm(zero, grid, 1.0) == 0.0
    # sin(2 pi t) on coordinate k=1: weight (2*1+1)^(1/2) = sqrt(3)
    vals = np.sin(2 * np.pi * grid.nodes())
    x = dual_path_from_scalar(grid, basis16, vals, mode=1)
    expected = np.abs(vals).max() / np.sqrt(3.0)
    assert sup_dual_norm(x, grid, 0.5) == pytest.approx(expected, rel=1e-12)


def test_sup_dual_norm_monotone_in_index(basis16):
    rng = np.random.default_rng(19)
    grid = TimeGrid(1.0, 30)
    x = rng.standard_normal((31, basis16.size))
    values = [sup_dual_norm(x, grid, r) for r in (0.0, 0.5, 1.0, 2.0)]
    assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))


def test_modulus_subadditive_under_concatenation(basis16):
    rng = np.random.default_rng(23)
    grid_half = TimeGrid(0.5, 25)
    grid_full = TimeGrid(1.0, 50)
    first = rng.standard_normal((26, basis16.size))
    second = rng.standard_normal((26, basis16.size))
    second[0] = first[-1]
    spliced = np.vstack([first, second[1:]])
    x = spliced
    x1 = first
    x2 = second
    for delta in (0.04, 0.1, 0.2):
        whole = modulus_dual(x, grid_full, delta, 1.0)
        parts = modulus_dual(x1, grid_half, delta, 1.0) + modulus_dual(x2, grid_half, delta, 1.0)
        assert whole <= parts + 1e-12


# unsorted and repeated gaps, one below dt = 0.025 (no pairs) and T itself (lag J)
ORACLE_DELTAS = [0.3, 0.05, 1.0, 0.05, 0.01, 0.125]


@pytest.mark.parametrize("batch", [(), (2,), (3, 2)])
def test_dual_path_stats_equals_all_pairs_oracle(batch):
    rng = np.random.default_rng(41)
    grid = TimeGrid(1.0, 40)
    states = np.cumsum(rng.standard_normal(batch + (41, 6)), axis=-2)
    r = 0.75
    sup, mod = dual_path_stats(states, grid, ORACLE_DELTAS, r)
    assert sup.shape == batch
    assert mod.shape == batch + (len(ORACLE_DELTAS),)
    weights = (2.0 * np.arange(6) + 1.0) ** (-r)
    for idx in np.ndindex(*batch):
        x = states[idx]
        assert sup[idx] == max(np.sqrt(np.sum(v * v)) for v in x * weights)
        expected = [brute_force_dual_modulus(x, grid.nodes(), d, r) for d in ORACLE_DELTAS]
        assert mod[idx].tolist() == expected
    assert np.all(mod[..., 4] == 0.0)


def test_dual_path_stats_batch_equals_single_paths(basis16):
    rng = np.random.default_rng(43)
    grid = TimeGrid(1.0, 60)
    states = np.cumsum(rng.standard_normal((4, 61, basis16.size)), axis=1)
    sup, mod = dual_path_stats(states, grid, ORACLE_DELTAS, 1.0)
    for i in range(4):
        one_sup, one_mod = dual_path_stats(states[i], grid, ORACLE_DELTAS, 1.0)
        assert sup[i] == one_sup
        assert np.array_equal(mod[i], one_mod)
        x = states[i]
        assert sup[i] == sup_dual_norm(x, grid, 1.0)
        assert mod[i].tolist() == [modulus_dual(x, grid, d, 1.0) for d in ORACLE_DELTAS]
    empty_sup, empty_mod = dual_path_stats(states, grid, [], 1.0)
    assert np.array_equal(empty_sup, sup)
    assert empty_mod.shape == (4, 0)


def oracle_paths(kind, shape, rng):
    """``(..., J+1, N)`` paths of one kind for the pruned-reducer oracles."""
    if kind == "brownian":
        return np.cumsum(rng.standard_normal(shape), axis=-2)
    if kind == "linear":
        return np.arange(shape[-2])[:, None] * rng.standard_normal(shape[:-2] + (1, shape[-1]))
    if kind == "constant":
        return np.broadcast_to(rng.standard_normal(shape[:-2] + (1, shape[-1])), shape).copy()
    if kind == "random":
        return rng.standard_normal(shape)
    # a huge offset with tiny increments: the Gram bound cancels to noise
    return 1e6 + np.cumsum(1e-3 * rng.standard_normal(shape), axis=-2)


PRUNE_SIDES = {
    "default": {},
    "dense": {"_PRUNE_MIN_LAG": 10**9},
    "pruned-all": {"_PRUNE_MIN_LAG": 1, "_PRUNE_MAX_SHARE": 1.0},
    "pruned-fallback": {"_PRUNE_MIN_LAG": 1, "_PRUNE_MAX_SHARE": 0.0},
}


@pytest.mark.parametrize("side", sorted(PRUNE_SIDES))
@pytest.mark.parametrize("modes", [1, 64])
@pytest.mark.parametrize("batch", [(), (2,), (3, 2)])
@pytest.mark.parametrize("kind", ["brownian", "linear", "constant", "random", "offset"])
def test_dual_path_stats_equals_dense_loop(monkeypatch, kind, batch, modes, side):
    for name, value in PRUNE_SIDES[side].items():
        monkeypatch.setattr(paths, name, value)
    grid = TimeGrid(1.0, 40)
    states = oracle_paths(kind, batch + (41, modes), np.random.default_rng(47))
    sup, mod = dual_path_stats(states, grid, ORACLE_DELTAS, 0.5)
    dense_sup, dense_mod = oracles.dual_path_stats_dense(states, grid, ORACLE_DELTAS, 0.5)
    assert np.array_equal(sup, dense_sup)
    assert np.array_equal(mod, dense_mod)
    if batch == ():
        expected = [brute_force_dual_modulus(states, grid.nodes(), d, 0.5) for d in ORACLE_DELTAS]
        assert mod.tolist() == expected


def test_dual_path_stats_equals_dense_loop_at_report_shape():
    grid = TimeGrid(1.0, 1000)
    deltas = [0.01, 0.02, 0.05, 0.1, 0.2]
    for seed in range(3):
        states = np.cumsum(np.random.default_rng(seed).standard_normal((2, 1001, 64)), axis=1)
        got = dual_path_stats(states, grid, deltas, 1.0)
        want = oracles.dual_path_stats_dense(states, grid, deltas, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# (J, delta, N): several Gram row blocks with a short last one (J = 250 and
# 1000), the largest lag equal to J (delta = T), widths not a multiple of 4
SCREEN_SHAPES = [(250, 0.2, 3), (1000, 0.2, 5), (250, 1.0, 1), (300, 1.0, 63), (1000, 0.05, 63)]


@pytest.mark.parametrize("side", ["default", "pruned-all"])
@pytest.mark.parametrize("steps, delta, modes", SCREEN_SHAPES)
def test_screen_equals_dense_loop_over_blocks_and_widths(monkeypatch, steps, delta, modes, side):
    for name, value in PRUNE_SIDES[side].items():
        monkeypatch.setattr(paths, name, value)
    grid = TimeGrid(1.0, steps)
    rng = np.random.default_rng(steps + modes)
    deltas = [delta, delta / 3, 2.0 / steps]
    for kind in ("brownian", "random", "linear", "constant", "offset"):
        states = oracle_paths(kind, (2, steps + 1, modes), rng)
        got = dual_path_stats(states, grid, deltas, 0.5)
        want = oracles.dual_path_stats_dense(states, grid, deltas, 0.5)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), kind


@pytest.mark.parametrize("scale, dense_paths", [(1e20, 2), (1e-20, 2), (0.0, 2), (1.0, 0)])
def test_screen_leaves_float32_unsafe_paths_to_the_dense_loop(monkeypatch, scale, dense_paths):
    """Squared norms beyond float32's safe range (and an all-zero path) take the
    dense loop; paths of ordinary size take the screen."""
    grid = TimeGrid(1.0, 250)
    states = scale * oracle_paths("brownian", (2, 251, 5), np.random.default_rng(59))
    dense = []
    dense_best = paths._dense_best
    monkeypatch.setattr(paths, "_dense_best", lambda s, top: dense.append(top) or dense_best(s, top))
    got = dual_path_stats(states, grid, [0.2, 0.05], 0.5)
    assert len(dense) == dense_paths
    want = oracles.dual_path_stats_dense(states, grid, [0.2, 0.05], 0.5)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("kind, prunes", [("brownian", True), ("constant", False), ("offset", False)])
def test_pruned_reducer_falls_back_on_cancellation(kind, prunes):
    x = oracle_paths(kind, (401, 16), np.random.default_rng(53))
    sq = (x * x).sum(axis=-1)
    best = paths._pruned_best(x, sq, [40, 20], paths._screen_buffers(*x.shape, 40))
    assert (best is not None) == prunes
    if prunes:
        assert np.array_equal(best, paths._dense_best(x, 40)[[40, 20]])


def test_dual_path_stats_validates_input():
    grid = TimeGrid(1.0, 10)
    states = np.zeros((2, 11, 4))
    states[1, 3, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        dual_path_stats(states, grid, [0.1], 1.0)
    with pytest.raises(ValueError, match="shape"):
        dual_path_stats(np.zeros((2, 10, 4)), grid, [0.1], 1.0)
    with pytest.raises(ValueError, match="shape"):
        dual_path_stats(np.zeros(11), grid, [0.1], 1.0)


# ---------------------------------------------------------------------------
# containment report
# ---------------------------------------------------------------------------


def test_containment_zero_ensemble(basis16):
    grid = TimeGrid(1.0, 10)
    report = containment(np.zeros((5, 11, basis16.size)), grid, 1.0, [0.5, 1.0], [0.1, 0.5])
    assert all(v == 0.0 for v in report["exceedance"].values())
    for curve in report["modulus_quantiles"].values():
        assert all(v == 0.0 for v in curve)


def test_containment_single_path_levels(basis16):
    grid = TimeGrid(1.0, 10)
    states = np.zeros((1, 11, basis16.size))
    states[0, 5, 0] = 5.0
    report = containment(states, grid, 0.0, [1.0, 10.0], [0.5])
    assert report["exceedance"]["1.0"] == 1.0
    assert report["exceedance"]["10.0"] == 0.0


def test_containment_frequencies_monotone(basis16):
    rng = np.random.default_rng(29)
    grid = TimeGrid(1.0, 20)
    states = rng.standard_normal((40, 21, basis16.size))
    levels = [0.5, 1.0, 2.0, 4.0, 8.0]
    report = containment(states, grid, 1.0, levels, [0.1, 0.5])
    freqs = [report["exceedance"][f"{c!r}"] for c in levels]
    assert all(0.0 <= f <= 1.0 for f in freqs)
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))


def test_containment_rejects_empty(basis16):
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError, match="empty ensemble"):
        containment(np.zeros((0, 11, basis16.size)), grid, 1.0, [1.0], [0.1])


@pytest.mark.parametrize("table", [[[0.1], [0.2]], [[0.1, 0.2]], [0.1, 0.2], [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]]])
def test_containment_rejects_modulus_table_shape(table):
    # one row per path, one column per gap
    with pytest.raises(ValueError, match="modulus_table must have shape"):
        containment_summary([1.0, 2.0], table, [1.0], [0.1, 0.2])


@pytest.mark.parametrize("q", [-0.5, 1.5, float("nan"), -float("inf")])
def test_quantile_rejects_out_of_range(q):
    with pytest.raises(ValueError, match=r"range \[0, 1\]"):
        quantile([1.0, 2.0, 3.0], q)
    with pytest.raises(ValueError, match=r"range \[0, 1\]"):
        np.quantile([1.0, 2.0, 3.0], q)


@pytest.mark.parametrize("kind", ["normal", "ties", "wide"])
def test_order_statistics_equal_numpy(kind):
    rng = np.random.default_rng(["normal", "ties", "wide"].index(kind))
    for n in range(1, 81):
        for shape in ((n,), (n, 3)):
            if kind == "normal":
                x = rng.standard_normal(shape)
            elif kind == "ties":
                x = rng.integers(0, 4, shape) * 0.1
            else:
                x = np.exp(5.0 * rng.standard_normal(shape))
            for q in (0.5, 0.9, 0.99, 0.975, float(rng.uniform())):
                got, want = quantile(x, q), np.quantile(x, q, axis=0)
                assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (n, shape, q)
            assert np.array_equal(median(x), np.median(x, axis=0)), (n, shape)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 7, 3), (0, 4), (3, 0), (4, 0, 2), (1, 1, 1), (12, 11, 10)])
def test_array_csv_equals_per_value_writer(tmp_path, shape):
    rng = np.random.default_rng(len(shape))
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    a.ravel()[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324][: a.size]
    names = tuple("abc"[: len(shape)])
    write_array_csv(a, tmp_path / "new.csv", names)
    oracles.write_array_csv_per_value(a, tmp_path / "old.csv", names)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_dual_csv_roundtrip(tmp_path, basis16):
    rng = np.random.default_rng(37)
    states = rng.standard_normal((3, 7, basis16.size))
    target = tmp_path / "dual.csv"
    write_array_csv(states, target, ("path", "step", "k"))
    assert target.read_text().splitlines()[0] == "path,step,k,value"
    rows = np.loadtxt(target, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, :3], list(np.ndindex(states.shape)))
    assert np.array_equal(rows[:, 3].reshape(states.shape), states)
