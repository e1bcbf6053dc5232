import re

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

import oracles
from nucleartight import hermite
from nucleartight.hermite import (
    BasisSpec,
    DualElement,
    SeminormFamily,
    SeminormIndex,
    TestFunction,
    derivative_op,
    dual_norm,
    eval_series,
    heat_flow_ground_state,
    heat_matrix,
    hermite_functions,
    hs_inclusion_converges,
    hs_norm,
    hs_tail_bound,
    laplacian_op,
    pairing,
    project_function,
    quadrature_nodes,
    quadrature_weights,
    seminorm,
    _hermite_modes,
    _hermite_modes_first,
    _mode_factors,
)
from nucleartight.paths import write_array_csv

from conftest import unit_function


# ---------------------------------------------------------------------------
# basis, quadrature, projection
# ---------------------------------------------------------------------------


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(1, 4)
    with pytest.raises(ValueError):
        BasisSpec(8, 15)
    BasisSpec(2, 4)


# x shapes of the callers: quadrature nodes, the (particles, steps)
# left points of the drivers (a strided view of the positions), and the
# (rows, nodes, Q) node array of the limit-covariance kernel
_SHAPES = {
    "nodes": lambda rng: rng.normal(scale=4.0, size=7),
    "left-points": lambda rng: rng.normal(scale=4.0, size=(5, 41))[:, 3:30],
    "gram-chunk": lambda rng: rng.normal(scale=4.0, size=(2, 4, 16)),
}


@pytest.mark.parametrize("gaussian", [True, False])
@pytest.mark.parametrize("count", [1, 2, 64])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_streamed_recurrence_matches_whole_array(gaussian, count, shape):
    x = _SHAPES[shape](np.random.default_rng(count))
    want = oracles.hermite_modes_full(x, count, gaussian)
    assert np.array_equal(_hermite_modes_first(x, count, gaussian), want)
    streamed = np.array([h.copy() for h in _hermite_modes(x, count, gaussian)])
    assert np.array_equal(streamed, want)


@pytest.mark.parametrize("plain", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 5, 200])
def test_weighted_modes_match_weighted_functions(count, plain):
    """Modes below ``plain`` keep their bits; from ``plain`` on, ``f_k w_k``
    is ``h_k weight`` to rounding."""
    rng = np.random.default_rng(count + plain)
    x = rng.normal(scale=2.0, size=(5, 41))[:, 3:30]
    weight = rng.normal(scale=0.05, size=(5, 41))[:, 3:30]
    want = oracles.hermite_modes_full(x, count)
    f = _mode_factors(count, plain)[0]
    for k, w in enumerate(_hermite_modes(x, count, weight=weight, plain=plain)):
        if k < plain:
            assert np.array_equal(w, want[k])
        else:
            assert np.abs(f[k] * w - want[k] * weight).max() <= 1e-14 * np.abs(weight).max()


def test_weighted_rescaling_keeps_bits(monkeypatch):
    """The carried powers of two change no bit while the unscaled factors stay
    in range (``c_k`` is about 1e-157 at k = 200)."""
    x = np.random.default_rng(1).normal(scale=3.0, size=(4, 9))

    def products():
        _mode_factors.cache_clear()
        f = _mode_factors(200, 2)[0]
        return np.array([f[k] * w for k, w in enumerate(_hermite_modes(x, 200, weight=x, plain=2))][2:])

    scaled = products()
    assert sorted(_mode_factors(200, 2)[1]) == [64, 128, 192]
    monkeypatch.setattr(hermite, "_RESCALE_EVERY", 10**9)
    try:
        unscaled = products()
        assert not _mode_factors(200, 2)[1]
    finally:
        _mode_factors.cache_clear()  # no factors of the patched constant outlive the test
    assert np.array_equal(scaled, unscaled)


@pytest.mark.parametrize("n,q", [(2, 4), (16, 32), (64, 128), (128, 256)])
def test_gram_identity(n, q):
    basis = BasisSpec(n, q)
    h = hermite_functions(quadrature_nodes(basis), basis.size)
    gram = h.T @ (quadrature_weights(basis)[:, None] * h)
    assert np.abs(gram - np.eye(n)).max() < 1e-10


def test_project_unit_function(basis64):
    nodes = quadrature_nodes(basis64)
    samples = hermite_functions(nodes, 4)[:, 3]
    phi = project_function(samples, basis64)
    expected = np.zeros(basis64.size)
    expected[3] = 1.0
    assert np.abs(phi.coeffs - expected).max() < 1e-10


def test_project_ladder_identity(basis64):
    # x h_0 = (1/sqrt 2) h_1; cross-checked against a raw hermgauss oracle
    nodes = quadrature_nodes(basis64)
    samples = nodes * hermite_functions(nodes, 1)[:, 0]
    phi = project_function(samples, basis64)
    x, w = hermgauss(200)
    h0 = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    h1 = np.sqrt(2.0) * x * h0
    oracle = np.sum(w * np.exp(x * x) * (x * h0) * h1)
    assert abs(phi.coeffs[1] - oracle) < 1e-12
    assert abs(phi.coeffs[1] - 1.0 / np.sqrt(2.0)) < 1e-12
    others = np.delete(phi.coeffs, 1)
    assert np.abs(others).max() < 1e-10


def test_project_zero_and_errors(basis64):
    zero = project_function(np.zeros(basis64.quad_order), basis64)
    assert np.all(zero.coeffs == 0.0)
    bad = np.zeros(basis64.quad_order)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        project_function(bad, basis64)
    with pytest.raises(ValueError):
        project_function(np.zeros(basis64.quad_order - 1), basis64)


@pytest.mark.parametrize("n", [8, 63, 64])
@pytest.mark.parametrize("extra", [0, 3])
def test_project_function_bits(n, extra):
    # the formula of the projection's former cached basis matrix, a
    # read-only copy of hermite_functions at the nodes
    basis = BasisSpec(n, 2 * n + extra)
    nodes, w = quadrature_nodes(basis), quadrature_weights(basis)
    rng = np.random.default_rng(n + extra)
    for s in (np.tanh(nodes), np.exp(-nodes * nodes / 2.0) * np.cos(nodes), rng.standard_normal(nodes.size)):
        want = np.array(hermite_functions(nodes, n)).T @ (w * s)
        assert np.array_equal(project_function(s, basis).coeffs, want)


def test_reconstruction_roundtrip(basis64):
    rng = np.random.default_rng(5)
    coeffs = np.zeros(basis64.size)
    coeffs[:10] = rng.standard_normal(10)
    phi = TestFunction(basis64, coeffs)
    nodes = quadrature_nodes(basis64)
    back = project_function(phi(nodes), basis64)
    assert np.abs(back.coeffs - phi.coeffs).max() < 1e-10


def test_test_function_rejects_nonfinite(basis16):
    bad = np.zeros(basis16.size)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        TestFunction(basis16, bad)
    with pytest.raises(ValueError):
        DualElement(basis16, bad)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_derivative_of_ground_state(basis64):
    d = derivative_op(basis64)
    col = d @ unit_function(basis64, 0).coeffs
    expected = np.zeros(basis64.size)
    expected[1] = -np.sqrt(0.5)
    assert np.abs(col - expected).max() < 1e-14


def test_derivative_matches_finite_differences(basis64):
    d = derivative_op(basis64)
    dcoef = d @ unit_function(basis64, 0).coeffs
    x = np.linspace(-3.0, 3.0, 41)
    h = 1e-5
    h0 = lambda y: np.pi ** -0.25 * np.exp(-y * y / 2.0)
    fd = (h0(x + h) - h0(x - h)) / (2.0 * h)
    assert np.abs(eval_series(dcoef, x) - fd).max() < 1e-8


def test_derivative_skew_symmetric(basis64):
    d = derivative_op(basis64)
    assert np.abs(d + d.T).max() == 0.0


def test_integration_by_parts(basis64):
    rng = np.random.default_rng(11)
    d = derivative_op(basis64)
    for _ in range(50):
        c1, c2 = rng.standard_normal((2, basis64.size))
        lhs = (d @ c1) @ c2
        rhs = -c1 @ (d @ c2)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_laplacian_symmetric_nonpositive(basis64):
    lap = laplacian_op(basis64)
    assert np.abs(lap - lap.T).max() == 0.0
    assert np.linalg.eigvalsh(lap).max() <= 1e-10


def test_laplacian_matches_second_differences(basis64):
    # smooth low-degree function; central second difference as oracle
    coeffs = np.zeros(basis64.size)
    coeffs[0], coeffs[3] = 1.0, 0.5
    phi = TestFunction(basis64, coeffs)
    lap_coeffs = laplacian_op(basis64) @ coeffs
    x = np.linspace(-2.5, 2.5, 31)
    h = 1e-3
    fd = (phi(x + h) - 2.0 * phi(x) + phi(x - h)) / h**2
    assert np.abs(eval_series(lap_coeffs, x) - fd).max() < 1e-4


def test_heat_matrix_basics(basis64):
    assert np.array_equal(heat_matrix(0.0, basis64), np.eye(basis64.size))
    e3, e2, e5 = (heat_matrix(t, basis64) for t in (0.3, 0.2, 0.5))
    assert np.abs(e3 @ e2 - e5).max() < 1e-10
    assert np.abs(e5 - e5.T).max() < 1e-12
    assert np.linalg.norm(e5, 2) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        heat_matrix(-0.1, basis64)


@pytest.mark.parametrize("size", [2, 64])
@pytest.mark.parametrize("t", [0.0, -0.0], ids=["zero", "negative-zero"])
def test_heat_matrix_at_zero_is_the_identity_without_negative_zeros(size, t):
    """``E(0)`` comes from the Pade rule like any other time: exactly ``I``,
    with no ``-0.0`` that a matrix CSV would print.  The cache treats ``0.0``
    and ``-0.0`` as one key, so the uncached function is checked too."""
    basis = BasisSpec(size, 2 * size)
    for e in (heat_matrix(t, basis), hermite._heat_matrix.__wrapped__(t, size)):
        assert np.array_equal(e, np.eye(size)) and not np.signbit(e).any()


# largest |heat_matrix - scipy.linalg.expm| relative to the largest entry of
# the reference; the measured worst over the grid below is 4.6e-15
EXPM_TOL = 1e-14


@pytest.mark.parametrize("size", [4, 8, 16, 32, 64, 128])
def test_heat_matrix_matches_scipy_expm(size):
    basis = BasisSpec(size, 2 * size)
    for t in (1e-8, 0.001, 0.004, 0.01, 0.2, 0.3, 0.5, 1.0, 10.0):
        ref = oracles.expm_reference(t * laplacian_op(basis))
        assert np.abs(heat_matrix(t, basis) - ref).max() <= EXPM_TOL * np.abs(ref).max()


@pytest.mark.filterwarnings("error")
def test_heat_matrix_overflow_threshold():
    # the norms of the unscaled powers that pick the scaling overflow first
    basis = BasisSpec(8, 16)
    assert np.all(np.isfinite(heat_matrix(1e36, basis)))
    for t in (5e38, 1e99):
        with pytest.raises(ValueError, match=re.escape(f"heat semigroup at time {t!r} is not finite")):
            heat_matrix(t, basis)


def test_heat_matrix_approaches_identity(basis64):
    norms = [
        np.linalg.norm(heat_matrix(t, basis64) - np.eye(basis64.size), 2)
        for t in (1e-2, 1e-4, 1e-6, 1e-8)
    ]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-5


def test_heat_flow_vs_convolution_oracle():
    basis = BasisSpec(128, 256)
    e0 = np.zeros(basis.size)
    e0[0] = 1.0
    col = heat_matrix(0.5, basis) @ e0
    nodes = quadrature_nodes(basis)
    approx = hermite_functions(nodes, basis.size) @ col
    exact = heat_flow_ground_state(0.5, nodes)
    l2 = np.sqrt(np.sum(quadrature_weights(basis) * (approx - exact) ** 2))
    assert l2 < 1e-4


def test_heat_matrix_self_adjoint_in_pairing(basis16):
    rng = np.random.default_rng(3)
    e = heat_matrix(0.4, basis16)
    f = rng.standard_normal(basis16.size)
    c = rng.standard_normal(basis16.size)
    assert abs((e @ f) @ c - f @ (e @ c)) < 1e-12


# ---------------------------------------------------------------------------
# norms and pairings
# ---------------------------------------------------------------------------


def test_seminorm_values(basis64):
    assert seminorm(unit_function(basis64, 2), 0.0) == pytest.approx(1.0, abs=1e-14)
    assert seminorm(unit_function(basis64, 3), 1.0) == pytest.approx(7.0, abs=1e-12)


def test_seminorm_monotone_in_index(basis64):
    rng = np.random.default_rng(17)
    for _ in range(20):
        phi = TestFunction(basis64, rng.standard_normal(basis64.size))
        r, s = sorted(rng.uniform(0.0, 3.0, size=2))
        assert seminorm(phi, r) <= seminorm(phi, s) + 1e-12


def test_dual_norm_values_and_monotonicity(basis64):
    f = DualElement(basis64, unit_function(basis64, 5).coeffs)
    assert dual_norm(f, 0.0) == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = DualElement(basis64, rng.standard_normal(basis64.size))
        r, s = sorted(rng.uniform(0.0, 3.0, size=2))
        assert dual_norm(f, s) <= dual_norm(f, r) + 1e-12


def test_cauchy_schwarz_pairing_bound(basis64):
    rng = np.random.default_rng(29)
    for _ in range(1000):
        f = DualElement(basis64, rng.standard_normal(basis64.size))
        phi = TestFunction(basis64, rng.standard_normal(basis64.size))
        r = rng.uniform(0.0, 2.0)
        assert abs(pairing(f, phi)) <= dual_norm(f, r) * seminorm(phi, r) * (1 + 1e-12)


def test_pairing_coordinate_and_bilinearity(basis64):
    rng = np.random.default_rng(31)
    f = DualElement(basis64, rng.standard_normal(basis64.size))
    assert pairing(f, unit_function(basis64, 2)) == pytest.approx(f.coeffs[2])
    phi = TestFunction(basis64, rng.standard_normal(basis64.size))
    psi = TestFunction(basis64, rng.standard_normal(basis64.size))
    a, b = 0.7, -1.3
    combo = TestFunction(basis64, a * phi.coeffs + b * psi.coeffs)
    assert pairing(f, combo) == pytest.approx(
        a * pairing(f, phi) + b * pairing(f, psi), rel=1e-12
    )


def test_pairing_rejects_basis_mismatch(basis64, basis16):
    f = DualElement(basis64, np.zeros(basis64.size))
    phi = unit_function(basis16, 0)
    with pytest.raises(ValueError):
        pairing(f, phi)


def test_heat_pairing_symmetry(basis64):
    rng = np.random.default_rng(37)
    e = heat_matrix(0.3, basis64)
    f = DualElement(basis64, rng.standard_normal(basis64.size))
    phi = TestFunction(basis64, rng.standard_normal(basis64.size))
    lhs = pairing(DualElement(basis64, e @ f.coeffs), phi)
    rhs = pairing(f, TestFunction(basis64, e @ phi.coeffs))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt series
# ---------------------------------------------------------------------------


def test_hs_norm_single_term():
    assert hs_norm(0.0, 1.7, 1) == pytest.approx(1.0)


def test_hs_norm_classical_series():
    value = hs_norm(0.5, 1.5, 10**4) ** 2
    assert abs(value - np.pi**2 / 8.0) < 1e-3
    # truncation increments dominated by the analytic tail bound
    for n in (10, 100, 1000):
        tail = np.pi**2 / 8.0 - hs_norm(0.0, 1.0, n) ** 2
        assert 0.0 < tail <= hs_tail_bound(0.0, 1.0, n)


def test_hs_norm_divergence_flag():
    assert not hs_inclusion_converges(0.0, 0.25)
    assert hs_inclusion_converges(0.0, 0.75)
    values = [hs_norm(0.0, 0.25, n) ** 2 for n in (10, 100, 1000, 10000)]
    assert all(b > a * 1.5 for a, b in zip(values, values[1:]))


def test_hs_norm_rejects_bad_indices():
    with pytest.raises(ValueError):
        hs_norm(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        hs_norm(SeminormIndex(2.0), SeminormIndex(1.0), 10)


def test_seminorm_family_gaps():
    family = SeminormFamily((0.0, 0.75, 1.5))
    assert len(family.inclusion_norms(100)) == 2
    with pytest.raises(ValueError):
        SeminormFamily((0.0, 0.5))
    with pytest.raises(ValueError):
        SeminormFamily((1.0,))


def test_seminorm_index_validation():
    with pytest.raises(ValueError):
        SeminormIndex(-0.5)
    weights = SeminormIndex(1.0).weights(4)
    assert np.array_equal(weights, [1.0, 3.0, 5.0, 7.0])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_matrix_csv_dump(tmp_path, basis16):
    d = derivative_op(basis16)
    target = tmp_path / "derivative.csv"
    write_array_csv(d, target, ("i", "j"))
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "i,j,value"
    data = np.loadtxt(target, delimiter=",", skiprows=1)
    back = np.zeros_like(d)
    back[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2]
    assert np.array_equal(back, d)
