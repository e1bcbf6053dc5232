import json

import numpy as np
import pytest
from scipy import stats
from scipy.spatial.distance import cdist
from scipy.special import ndtr

import oracles
from nucleartight.diagnostics import (
    ConvergenceReport,
    assemble_report,
    canonical_json,
    distance_matrix,
    energy_distance,
    energy_distance_with_se,
    ks_one_sample,
    ks_pvalue,
    ks_two_sample,
    normal_cdf,
    report_hash,
    validate_report,
)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------


def test_ks_identical_samples():
    x = np.linspace(0.0, 1.0, 100)
    assert ks_two_sample(x, x.copy()).statistic == 0.0


def test_ks_disjoint_samples():
    a = -1.0 - np.random.default_rng(1).random(50)
    b = 1.0 + np.random.default_rng(2).random(80)
    assert ks_two_sample(a, b).statistic == 1.0


def test_ks_rejects_tiny_samples():
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [1.0, 2.0])


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(300), rng.standard_normal(400) + 0.3
    before = ks_two_sample(a, b).statistic
    after = ks_two_sample(np.exp(a), np.exp(b)).statistic
    assert before == pytest.approx(after, abs=1e-15)


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal(rng.integers(50, 300))
        b = rng.standard_normal(rng.integers(50, 300)) * rng.uniform(0.5, 2.0)
        ours = ks_two_sample(a, b).statistic
        ref = stats.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_one_sample_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal(rng.integers(50, 400))
        ours = ks_one_sample(a, ndtr).statistic
        ref = stats.kstest(a, "norm").statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_null_calibration():
    rng = np.random.default_rng(6)
    rejections = 0
    for _ in range(100):
        a = rng.standard_normal(2000)
        b = rng.standard_normal(2000)
        res = ks_two_sample(a, b)
        rejections += res.statistic > res.critical_1
    assert rejections <= 2  # >= 98/100 below the 1% critical value


def test_ks_critical_value_formula():
    res = ks_two_sample(np.arange(100.0), np.arange(200.0))
    scale = np.sqrt((100 + 200) / (100 * 200))
    assert res.critical_5 == pytest.approx(1.358 * scale)
    assert res.critical_1 == pytest.approx(1.628 * scale)


def test_ks_pvalue_sane():
    assert ks_pvalue(0.0, 1000, 1000) == 1.0
    assert ks_pvalue(0.5, 1000, 1000) < 1e-8
    # scipy applies a small-sample continuity correction; agreement is loose
    # mid-range and tight in the tail that the calibration checks consume
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(500), rng.standard_normal(500)
    stat = ks_two_sample(a, b).statistic
    p = ks_pvalue(stat, 500, 500)
    ref = stats.ks_2samp(a, b, method="asymp").pvalue
    assert p == pytest.approx(ref, abs=2e-2)


# ---------------------------------------------------------------------------
# normal CDF
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


# where exp(-x^2/2) underflows in erfc: x^2/2 > MAXLOG
_UNDERFLOW_EDGE = float(np.sqrt(2.0 * 7.09782712893383996843e2))


def test_normal_cdf_equals_ndtr_on_a_dense_sweep():
    x = np.linspace(-40.0, 40.0, 800_001)
    assert _same_bits(normal_cdf(x), ndtr(x))


def test_normal_cdf_equals_ndtr_on_random_draws():
    rng = np.random.default_rng(12)
    x = np.concatenate(
        [
            rng.standard_normal(200_000),
            rng.standard_normal(200_000) * 10.0,
            rng.uniform(-40.0, 40.0, 200_000),
            np.exp(rng.uniform(-700.0, 700.0, 50_000)) * rng.choice([-1.0, 1.0], 50_000),
        ]
    )
    assert _same_bits(normal_cdf(x), ndtr(x))


def test_normal_cdf_equals_ndtr_at_the_edges():
    edge = np.linspace(_UNDERFLOW_EDGE - 1e-9, _UNDERFLOW_EDGE + 1e-9, 20_001)
    # the branch points of the port: |x| / sqrt 2 at 1 and 8, and the underflow
    joints = np.sqrt(2.0) * np.array([1.0, 8.0])
    near = np.concatenate([np.nextafter(joints, 0.0), joints, np.nextafter(joints, np.inf)])
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300, np.finfo(float).max])
    x = np.concatenate([edge, -edge, near, -near, special])
    assert _same_bits(normal_cdf(x), ndtr(x))
    assert np.count_nonzero(normal_cdf(-edge) == 0.0) > 0  # the sweep crosses the underflow
    assert np.isnan(normal_cdf(np.nan)) and np.isnan(normal_cdf([1.0, np.nan])[1])
    assert normal_cdf(0.5) == ndtr(0.5) and np.ndim(normal_cdf(0.5)) == 0


# ---------------------------------------------------------------------------
# energy distance
# ---------------------------------------------------------------------------


def test_distance_matrix_equals_cdist():
    rng = np.random.default_rng(13)
    for _ in range(60):
        d, m, n = int(rng.integers(1, 9)), int(rng.integers(1, 301)), int(rng.integers(1, 301))
        scale = 10.0 ** rng.integers(-3, 4)
        x, y = rng.standard_normal((m, d)) * scale, rng.standard_normal((n, d)) + 0.5
        assert _same_bits(distance_matrix(x, y), cdist(x, y))
        assert _same_bits(distance_matrix(x), cdist(x, x))


def test_distance_matrix_crosses_row_chunks(monkeypatch):
    import nucleartight.diagnostics as diagnostics

    rng = np.random.default_rng(14)
    x, y = rng.standard_normal((37, 3)), rng.standard_normal((11, 3))
    # chunks of 3 rows against y and of 1 row against x, down to a 1 x 1 block
    monkeypatch.setattr(diagnostics, "_DISTANCE_VALUES", 40)
    assert _same_bits(distance_matrix(x, y), cdist(x, y))
    assert _same_bits(distance_matrix(x), cdist(x, x))


@pytest.mark.parametrize(
    "m, n, d", [(2, 2, 1), (3, 5, 2), (7, 19, 3), (19, 19, 1), (23, 41, 4), (203, 157, 6), (997, 1003, 6)]
)
def test_energy_distance_with_se_equals_cdist_body(m, n, d):
    rng = np.random.default_rng(m * n * d)
    x, y = rng.standard_normal((m, d)), rng.standard_normal((n, d)) * 1.5
    ours = energy_distance_with_se(x, y)
    assert ours == oracles.energy_distance_with_se_cdist(x, y)
    assert energy_distance_with_se(x, y, y_within=distance_matrix(y)) == ours
    assert energy_distance(x, y) == ours[0]


def test_energy_distance_identical_multisets():
    # equal multisets align m zero-distance pairs, so the off-diagonal
    # convention leaves a deficit of order mean-distance / m: the null
    # standard error scale of the (degenerate) U-statistic
    rng = np.random.default_rng(8)
    x = rng.standard_normal((500, 2))
    value = energy_distance(x, x.copy())
    from scipy.spatial.distance import pdist

    null_se_scale = 2.0 * pdist(x).mean() / x.shape[0]
    assert abs(value) <= 2.0 * null_se_scale


def test_energy_distance_shifted_gaussians():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2000, 1))
    y = x + 10.0
    value = energy_distance(x, y)
    expected = 20.0 - 2.0 * 2.0 / np.sqrt(np.pi)  # 2*shift - 2 E|N(0,2)|
    assert value >= 15.0
    assert value == pytest.approx(expected, rel=0.1)


def test_energy_distance_permutation_invariant():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((100, 3))
    y = rng.standard_normal((120, 3))
    perm_x = x[rng.permutation(100)]
    perm_y = y[rng.permutation(120)]
    assert energy_distance(x, y) == pytest.approx(energy_distance(perm_x, perm_y), rel=1e-12)


def test_energy_distance_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        energy_distance(np.zeros((10, 2)), np.zeros((10, 3)))


def test_energy_distance_nonnegative_under_null():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.standard_normal((300, 2))
        y = rng.standard_normal((300, 2))
        value, se = energy_distance_with_se(x, y)
        assert value >= -2 * se


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


def _cells():
    return [{"n": 10, "phi": [1.0], "t": 1.0, "ks": 0.02, "ks_critical": 0.05}]


def test_report_roundtrip():
    report = assemble_report(_cells(), {"seed": 1}, scenario="unit")
    data = json.loads(report.to_json())
    validate_report(data)
    back = ConvergenceReport(data["scenario"], data["metadata"], data["cells"])
    assert back.to_dict() == report.to_dict()
    assert back.to_json() == report.to_json()


def test_report_hash_stable():
    a = assemble_report(_cells(), {"seed": 1}, scenario="unit")
    b = assemble_report(_cells(), {"seed": 1}, scenario="unit")
    assert report_hash(a.to_dict()) == report_hash(b.to_dict())


def test_assemble_rejects_empty_and_missing():
    with pytest.raises(ValueError):
        assemble_report([], {}, scenario="unit")
    with pytest.raises(ValueError):
        assemble_report([_cells()[0], None], {}, scenario="unit")


def test_validate_rejects_bad_schema():
    report = assemble_report(_cells(), {}, scenario="unit").to_dict()
    bad = dict(report)
    bad["schema"] = "something-else/9"
    with pytest.raises(ValueError):
        validate_report(bad)
    missing = {k: v for k, v in report.items() if k != "cells"}
    with pytest.raises(ValueError):
        validate_report(missing)


def test_validate_rejects_nonfinite_statistics():
    cells = _cells()
    cells[0]["ks"] = float("nan")
    with pytest.raises(ValueError):
        assemble_report(cells, {}, scenario="unit")
    report = assemble_report(_cells(), {"extras": {"limit": {"residual_max": 1.0}}}, scenario="unit").to_dict()
    report["metadata"]["extras"]["limit"]["residual_max"] = float("inf")
    with pytest.raises(ValueError, match=r"metadata\['extras'\]\['limit'\]\['residual_max'\]"):
        validate_report(report)


def test_canonical_json_handles_numpy_types():
    text = canonical_json({"a": np.float64(1.5), "b": np.int64(2), "c": np.arange(3)})
    assert json.loads(text) == {"a": 1.5, "b": 2, "c": [0, 1, 2]}
    assert text.endswith("\n")
