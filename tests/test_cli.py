import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from nucleartight import cli, config, hermite, spde
from nucleartight.diagnostics import SCHEMA, ks_pvalue, ks_two_sample, report_hash, validate_report
from nucleartight.hermite import BasisSpec, derivative_op, laplacian_op
from nucleartight.martingales import NumericalIntegrityError, clt_report
from nucleartight.paths import TimeGrid
from nucleartight.spde import heat_convergence_report, tightness_report

# sha256 of each report without ``metadata.versions``, for the bundled smoke
# scenarios and GOLDEN_CONFIGS: a change to a reducer or report loop must
# leave these bytes alone
GOLDEN_HASHES = {
    "clt-smoke": "5e70edb449fc0d42da18a4aafea4e3d1e08158bb433e0b338267ab273832fd3e",
    "heat-smoke": "329ad89ee131a227ede6b68de584c5e78e1bd914c9cbcd9fb77a48c36f677356",
    "tightness-smoke": "cea15addec5d0554ced572eb86039f195dcdfc2da4a759fb471cdb93e7513892",
    "heat-gaussian": "a5a9d40b0834105dfdc8ca42962790c13de05a4b4c9b32cd9d53929062d5bf72",
    "heat-fixed": "1829a107da0a8953676fa299f23577eb7a59e899368de3c1b11cd228eee95351",
    "tightness-gaussian": "c4dc85a9ea292362462f50c4151f383815c9a3299a6f78bbe0e1fd1469addda9",
    "clt-edge": "644e09d30311a0855f2635ddc9de295cf75ec94504dc04915ec5b439d9439c13",
    "basis-default": "65ba1bd86377e6b0a8e3d78e4eddaeb8cfaa28e64adda93d2379b5ec932decf7",
    "basis-minimal": "9ee050b3d9a2b883ea531baeddbd9d15ff961cd54be71d8920f1a2726e50a97d",
}

# sha256 of the heat-smoke ``--dump-paths`` files
DUMP_HASHES = {
    "heat-5-dual.csv": "2aa75453112b599693d5431657c091261f85c2bb65ed3d845d32f05bde6cf022",
    "heat-limit-dual.csv": "1cc3309db8aec5ace4aa7102370939edf7e12084fb230d301fac7dddf4d6521d",
}

# sha256 of the basis-default ``--dump-paths`` operator matrices
MATRIX_DUMP_HASHES = {
    "derivative.csv": "8280c9337699668aaa6d9daa31ed7de2e9f52a0f48cce9b63529bb4a505c097f",
    "heat.csv": "cccd246bcf906c02513c07ef3f9b709721fa1c52aefa455e0d743b511f44e4ac",
    "laplacian.csv": "f1068fb8f828864197dc1399cf4d198eee0288c016b0a2a54975e351d29ea84d",
}

# configs the smoke scenarios leave out: gaussian and fixed-coeffs initial
# states, two test functions, a calibration grid coarser than the main one,
# and clt test functions at the edges of the shared Hermite pass (a zero phi
# with degenerate cells, and a phi' whose top mode is N - 1)
GOLDEN_CONFIGS = {
    "heat-gaussian": (
        "heat",
        {
            "basis": {"N": 8, "Q": 16},
            "grid": {"T": 1.0, "J": 40},
            "n_list": [3, 8],
            "reps": 16,
            "phi_list": [[1.0], [0.0, 0.5, 0.25]],
            "times": [0.5, 1.0],
            "eta": {"kind": "gaussian", "r": 1.0, "scale": 0.5},
            "limit_modes": 5,
            "calibration": {"reps": 3, "size": 30, "steps": 20},
            "tightness": {"r": 0.5, "c_levels": [0.5, 1.0], "deltas": [0.05, 0.2]},
        },
    ),
    "heat-fixed": (
        "heat",
        {
            "basis": {"N": 6, "Q": 12},
            "grid": {"T": 0.5, "J": 30},
            "n_list": [4],
            "reps": 12,
            "phi_list": [[0.5, 1.0]],
            "times": [0.5],
            "eta": {"kind": "fixed-coeffs", "coeffs": [1.0, 0.0, -0.5, 0.25, 0.0, 0.1]},
            "limit_modes": 4,
            "calibration": {"reps": 2, "size": 20, "steps": None},
            "tightness": {"r": 1.0, "c_levels": [1.0], "deltas": [0.1]},
        },
    ),
    "tightness-gaussian": (
        "tightness",
        {
            "basis": {"N": 8, "Q": 16},
            "grid": {"T": 1.0, "J": 40},
            "n_list": [3, 10],
            "reps": 12,
            "eta": {"kind": "gaussian", "r": 0.75, "scale": 2.0},
            "quantile": 0.9,
            "tightness": {"r": 1.0, "c_levels": [0.5, 2.0], "deltas": [0.05, 0.5]},
        },
    ),
    "clt-edge": (
        "clt",
        {
            "basis": {"N": 8, "Q": 16},
            "grid": {"T": 1.0, "J": 40},
            "n_list": [3, 8],
            "reps": 16,
            "phi_list": [[0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0], [1.0, 0.0, 0.5]],
            "times": [0.5, 1.0],
            "tightness": {"r": 1.0, "c_levels": [0.5, 1.0], "deltas": [0.05, 0.2]},
        },
    ),
}

# the benchmark's workload configs (``perfbench/workloads.py``)
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))


def run(args):
    return cli.main(args)


def dump_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (out / "cells").iterdir()}


def read_report(out_dir):
    data = json.loads((out_dir / "report.json").read_text())
    validate_report(data)
    return data


def hash_without_versions(report):
    stripped = {**report, "metadata": dict(report["metadata"])}
    del stripped["metadata"]["versions"]
    return report_hash(stripped)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_basis_check_default(tmp_path):
    out = tmp_path / "out"
    assert run(["basis-check", "--config", "basis-default", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["schema"] == SCHEMA
    assert all(c["pass"] for c in report["cells"])
    meta = report["metadata"]
    assert {"config", "config_sha256", "seed", "versions"} <= set(meta)
    assert "threads" not in meta["config"]
    assert hash_without_versions(report) == GOLDEN_HASHES["basis-default"]


def test_basis_check_minimal(tmp_path):
    out = tmp_path / "out"
    assert run(["basis-check", "--config", "basis-minimal", "--out", str(out)]) == 0
    assert hash_without_versions(read_report(out)) == GOLDEN_HASHES["basis-minimal"]


def test_basis_check_reports_divergence_flag(tmp_path):
    out = tmp_path / "out"
    run(["basis-check", "--config", "basis-default", "--out", str(out)])
    report = read_report(out)
    flags = {c["check"]: c for c in report["cells"] if "divergence_flag" in c}
    assert flags["hs_series[0.0,1.0]"]["divergence_flag"] is False
    assert flags["hs_series[0.0,0.25]"]["divergence_flag"] is True


def test_rejects_quadrature_below_double_truncation(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"basis": {"N": 32, "Q": 40}}))
    assert run(["basis-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"basis": {"N": 8,}')
    assert run(["basis-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_rejects_unreadable_config(tmp_path, capsys):
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'{"seed": "\xff"}')
    for path in (tmp_path, binary):
        assert run(["clt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: cannot read the config" in err and "Traceback" not in err


def test_rejects_unknown_scenario(tmp_path):
    assert run(["clt", "--config", "no-such-scenario", "--out", str(tmp_path / "o")]) == 2


def test_rejects_bad_fields(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"basis": {"N": 8, "Q": 16}, "n_list": [], "reps": 10}))
    assert run(["clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cfg.write_text(json.dumps({"basis": {"N": 8, "Q": 16}, "seed": -4}))
    assert run(["basis-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    for field in ({"hs": {"n_terms": 0}}, {"random_pairs": 2.5}):
        cfg.write_text(json.dumps({"basis": {"N": 8, "Q": 16}, **field}))
        assert run(["basis-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    for field, name in [
        ({"heat_times": ["a"]}, "heat_times"),
        ({"heat_times": [0.1]}, "heat_times"),
        ({"seminorm_family": [0, 0.2]}, "seminorm_family"),
        ({"seminorm_family": [0.0]}, "seminorm_family"),
        ({"hs": {"pairs": [[1, 0]]}}, "hs.pairs"),
        ({"hs": {"pairs": [[0, 1, 2]]}}, "hs.pairs"),
        ({"heat_times": [1e200, 1e200]}, "heat_times"),
    ]:
        cfg.write_text(json.dumps({"basis": {"N": 8, "Q": 16}, **field}))
        assert run(["basis-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: field {name}:" in capsys.readouterr().err
    for command in ("clt", "heat", "tightness"):
        cfg.write_text(json.dumps({"basis": {"N": 8, "Q": 16}, "n_list": [3, 3]}))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: field n_list: must hold distinct particle counts" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["clt", "tightness"])
@pytest.mark.parametrize(
    "deltas", [[2.0], [0.0], [0.1, -0.05], ["NaN"]], ids=["beyond-T", "zero", "negative", "nan"]
)
def test_rejects_bad_tightness_deltas(tmp_path, capsys, command, deltas):
    cfg = {"basis": {"N": 8, "Q": 16}, "grid": {"T": 1.0, "J": 20}, "n_list": [2], "reps": 2}
    text = json.dumps({**cfg, "tightness": {"deltas": deltas}}).replace('"NaN"', "NaN")
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "tightness.deltas" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


BAD_BASE = {"basis": {"N": 16, "Q": 32}, "grid": {"T": 1.0, "J": 10}, "n_list": [2], "reps": 2}


@pytest.mark.parametrize(
    "command, override, field",
    [
        ("heat", {"basis": {"N": 8, "Q": 16}}, "limit_modes"),
        ("heat", {"limit_modes": 0}, "limit_modes"),
        ("heat", {"limit_modes": 17}, "limit_modes"),
        ("heat", {"eta": {"kind": "bogus"}}, "eta.kind"),
        ("heat", {"eta": {"kind": "gaussian"}}, "eta.r"),
        ("tightness", {"eta": {"kind": "gaussian", "r": 0.5}}, "eta.r"),
        ("heat", {"eta": {"kind": "fixed-coeffs"}}, "eta.coeffs"),
        ("tightness", {"eta": {"kind": "fixed-coeffs", "coeffs": [1.0] * 15}}, "eta.coeffs"),
        ("clt", {"n_list": [5, 0]}, "n_list"),
        ("tightness", {"n_list": [0]}, "n_list"),
        ("heat", {"times": [0.55]}, "times"),
        ("clt", {"times": [0.5, 1.5]}, "times"),
        ("heat", {"calibration": {"steps": 0}}, "calibration.steps"),
        ("clt", {"rep": 5}, "rep"),
        ("heat", {"eta": {"kind": "gaussian", "r": 1.0, "scal": 2.0}}, "eta.scal"),
        ("tightness", {"tightness": {"dletas": [0.1]}}, "tightness.dletas"),
        ("clt", {"eta": {"kind": "zero"}}, "eta"),
        ("heat", {"command": "clt"}, "command"),
        ("clt", {"threads": "two"}, "threads"),
        ("clt", {"reps": 3}, "reps"),
        ("heat", {"calibration": {"reps": 1, "size": 1}}, "calibration.size"),
        ("heat", {"calibration": {"reps": -1}}, "calibration.reps"),
        ("clt", {"phi_list": [["a"]]}, "phi_list[0]"),
        ("heat", {"phi_list": [[1.0], [float("nan")]]}, "phi_list[1]"),
        ("tightness", {"tightness": {"r": -1}}, "tightness.r"),
        ("clt", {"tightness": {"c_levels": "x"}}, "tightness.c_levels"),
        ("tightness", {"quantile": 1.5}, "quantile"),
        ("tightness", {"gate_ratio": "big"}, "gate_ratio"),
        ("heat", {"residual_gate_factor": 0.0}, "residual_gate_factor"),
        ("clt", {"basis": {"N": 8.7, "Q": 32}}, "basis.N"),
        ("heat", {"basis": {"N": 16, "Q": 32.0}}, "basis.Q"),
        ("tightness", {"grid": {"T": 1.0, "J": 10.9}}, "grid.J"),
        ("tightness", {"seed": True}, "seed"),
        ("tightness", {"n_list": [True]}, "n_list"),
        ("heat", {"limit_modes": 4.0}, "limit_modes"),
        ("heat", {"calibration": {"reps": True}}, "calibration.reps"),
        ("tightness", {"reps": 4.0}, "reps"),
        ("clt", {"times": ["0.5"]}, "times"),
        ("clt", {"scenario": 5}, "scenario"),
        ("heat", {"scenario": None}, "scenario"),
        ("tightness", {"scenario": ["x"]}, "scenario"),
    ],
)
def test_rejects_bad_config(tmp_path, capsys, command, override, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BAD_BASE, **override}))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"field {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "report, override, field",
    [
        (clt_report, {"reps": 3}, "reps"),
        (heat_convergence_report, {"calibration": {"size": 1}}, "calibration.size"),
        (tightness_report, {"quantile": 2}, "quantile"),
    ],
    ids=["clt", "heat", "tightness"],
)
def test_report_functions_reject_what_the_cli_rejects(report, override, field):
    with pytest.raises(config.ConfigError, match=f"^field {field}:"):
        report({**BAD_BASE, **override})


HUGE_T = {"basis": {"N": 8, "Q": 16}, "grid": {"T": 1e100, "J": 10}, "n_list": [2], "reps": 2, "eta": {"kind": "zero"}}
# at N = 8, E(1e36) is finite and E(5e38) overflows
HUGE_CALIBRATION_STEP = {
    **BAD_BASE,
    "grid": {"T": 1e39, "J": 1000},
    "times": [1e39],
    "reps": 4,
    "calibration": {"reps": 1, "size": 2, "steps": 2},
}


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("tightness", HUGE_T, "grid"),
        ("heat", HUGE_T, "grid"),
        ("heat", HUGE_CALIBRATION_STEP, "calibration.steps"),
    ],
)
def test_rejects_grid_whose_step_semigroup_overflows(tmp_path, capsys, command, cfg, field):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: field {field}: heat semigroup at time" in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg", [[], None, "clt", 3], ids=["list", "null", "string", "number"])
@pytest.mark.parametrize(
    "entry",
    [clt_report, heat_convergence_report, tightness_report, lambda cfg: cli.run_command("clt", cfg)],
    ids=["clt", "heat", "tightness", "run-command"],
)
def test_non_object_config_is_a_config_error(entry, cfg):
    with pytest.raises(config.ConfigError, match=r"^field <root> must be an object$"):
        entry(cfg)


@pytest.mark.parametrize("entry", [config.materialize, cli.run_command], ids=["materialize", "run-command"])
def test_unknown_command_is_a_config_error(entry):
    commands = "['basis-check', 'clt', 'heat', 'tightness']"
    with pytest.raises(config.ConfigError, match=re.escape(f"field command: must be one of {commands}")):
        entry("nope", {})


@pytest.mark.parametrize("name", sorted(cli._bundled_scenarios()))
def test_bundled_scenarios_materialize(name):
    command = "basis-check" if name.startswith("basis") else name.split("-")[0]
    full = cli.materialize(command, cli.load_config(name))
    # a materialized config, as a report header records it, materializes to itself
    assert cli.materialize(command, full) == full


@pytest.mark.parametrize("command", ["basis-check", "clt", "heat", "tightness"])
def test_materialized_config_shares_nothing_with_the_defaults(command):
    fresh = json.loads(json.dumps(config.materialize(command, {})))
    # a caller may edit the config it got back, as a report header holds it
    for value in config.materialize(command, {}).values():
        if isinstance(value, list):
            value.append(7)
        elif isinstance(value, dict):
            value.clear()
    assert config.materialize(command, {}) == fresh


@pytest.mark.parametrize("name", sorted(WORKLOADS["WORKLOADS"]))
def test_benchmark_workloads_materialize(name):
    command = WORKLOADS["WORKLOADS"][name]["command"]
    full = cli.materialize(command, WORKLOADS["config_for"](name, 20260810))
    assert cli.materialize(command, full) == full


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------


def test_clt_smoke_scenario(tmp_path):
    out = tmp_path / "out"
    assert run(["clt", "--config", "clt-smoke", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["scenario"] == "clt-smoke"
    assert len(report["cells"]) == 2 * 1 * 2
    extras = report["metadata"]["extras"]
    assert set(extras["per_n"]) == {"5", "20"}
    assert hash_without_versions(report) == GOLDEN_HASHES["clt-smoke"]


def test_clt_rerun_byte_identical_across_threads(tmp_path):
    outs = []
    for name, threads in (("a", 1), ("b", 4), ("c", 8)):
        out = tmp_path / name
        assert run(
            ["clt", "--config", "clt-smoke", "--out", str(out), "--threads", str(threads)]
        ) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_heat_smoke_scenario_and_reruns(tmp_path):
    blobs = []
    for name, threads in (("a", 1), ("b", 4)):
        out = tmp_path / name
        assert run(
            ["heat", "--config", "heat-smoke", "--out", str(out), "--threads", str(threads)]
        ) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    extras = report["metadata"]["extras"]
    assert extras["calibration"]["reps"] == 3
    assert extras["limit"]["residual_pass"] is True
    assert hash_without_versions(report) == GOLDEN_HASHES["heat-smoke"]


def test_tightness_smoke_scenario(tmp_path):
    out = tmp_path / "out"
    code = run(["tightness", "--config", "tightness-smoke", "--out", str(out)])
    report = read_report(out)
    gate = report["metadata"]["extras"]["gate"]
    assert code == (0 if gate["pass"] else 1)
    assert gate["ratio"] > 0.0
    assert hash_without_versions(report) == GOLDEN_HASHES["tightness-smoke"]


def test_seed_override_changes_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["clt", "--config", "clt-smoke", "--out", str(out_a)]) == 0
    assert run(["clt", "--config", "clt-smoke", "--out", str(out_b), "--seed", "99"]) == 0
    assert (out_a / "report.json").read_bytes() != (out_b / "report.json").read_bytes()
    assert json.loads((out_b / "report.json").read_text())["metadata"]["seed"] == 99


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    assert run(["clt", "--config", "clt-smoke", "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "config error: field seed: must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["file", "below-file"])
def test_out_that_is_no_directory_is_exit_2_before_the_run(tmp_path, monkeypatch, capsys, where):
    taken = tmp_path / "taken"
    taken.write_text("a file")
    out = taken if where == "file" else taken / "o"
    monkeypatch.setattr(cli, "run_command", None)  # the run must not start
    assert run(["clt", "--config", "clt-smoke", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and str(out) in err and err.count("\n") == 1
    assert taken.read_text() == "a file"


@pytest.mark.parametrize("blocked", ["report.json", "cells"])
def test_failed_output_write_is_exit_2_and_leaves_no_report(tmp_path, capsys, blocked):
    out = tmp_path / "o"
    out.mkdir()
    if blocked == "report.json":
        (out / blocked).mkdir()
    else:
        (out / blocked).write_text("a file")
    assert run(["clt", "--config", "clt-smoke", "--out", str(out), "--dump-paths"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and str(out / blocked) in err and err.count("\n") == 1
    assert not (out / "report.json").is_file()


HUGE_CLT_TIME = {
    "basis": {"N": 8, "Q": 16},
    "grid": {"T": 1e300, "J": 4},
    "n_list": [2],
    "reps": 4,
    "times": [1e300],
    "tightness": {"deltas": [1e300]},
}


def test_clt_rejects_times_beyond_the_bound(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_CLT_TIME))
    assert run(["clt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field times:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    bound = config._CLT_MAX_TIME
    at_bound = {**HUGE_CLT_TIME, "grid": {"T": 2 * bound, "J": 4}, "tightness": {"deltas": [1.0]}}
    assert config.materialize("clt", {**at_bound, "times": [bound]})["times"] == [bound]
    with pytest.raises(config.ConfigError, match="^field times:"):
        config.materialize("clt", {**at_bound, "times": [1.5 * bound]})
    # heat never evaluates A(t, phi): its E(dt) rule alone bounds its times
    assert config.materialize("heat", {**at_bound, "times": [1.5 * bound], "limit_modes": 4})["times"] == [1.5 * bound]



def test_basis_check_bounds_hs_term_count(tmp_path, capsys):
    """``hs.n_terms`` sizes the arrays ``hs_norm`` sums: a billion terms would
    ask for about 16 GB, so past the bound it is a one-line config error."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"basis": {"N": 8, "Q": 16}, "hs": {"n_terms": config._HS_MAX_TERMS + 1}}))
    assert run(["basis-check", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: field hs.n_terms: must be an integer in [1, 1,000,000]\n"
    assert not (tmp_path / "o").exists()
    at_bound = {"basis": {"N": 8, "Q": 16}, "hs": {"n_terms": config._HS_MAX_TERMS}}
    assert config.materialize("basis-check", at_bound)["hs"]["n_terms"] == 1_000_000

def test_dump_paths_writes_csv(tmp_path):
    out = tmp_path / "out"
    assert run(["heat", "--config", "heat-smoke", "--out", str(out), "--dump-paths"]) == 0
    cell_files = sorted(p.name for p in (out / "cells").iterdir())
    assert any(name.startswith("heat-limit") for name in cell_files)
    assert any(name.startswith("heat-5") for name in cell_files)
    header = (out / "cells" / cell_files[0]).read_text().splitlines()[0]
    assert header == "path,step,k,value"
    assert dump_digests(out) == DUMP_HASHES


def test_basis_check_dump_paths_writes_matrices(tmp_path):
    out = tmp_path / "out"
    assert run(["basis-check", "--config", "basis-default", "--out", str(out), "--dump-paths"]) == 0
    assert (out / "cells" / "heat.csv").read_text().splitlines()[0] == "i,j,value"
    assert dump_digests(out) == MATRIX_DUMP_HASHES


def test_tightness_rejects_dump_paths(tmp_path, capsys):
    """The tightness report keeps no paths, so there is nothing to dump."""
    with pytest.raises(SystemExit) as exit_info:
        run(["tightness", "--config", "tightness-smoke", "--out", str(tmp_path / "o"), "--dump-paths"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --dump-paths" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_configs(tmp_path, name):
    command, cfg = GOLDEN_CONFIGS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    for threads in (1, 4):
        out = tmp_path / str(threads)
        assert run([command, "--config", str(path), "--out", str(out), "--threads", str(threads)]) == 0
        assert hash_without_versions(read_report(out)) == GOLDEN_HASHES[name]


@pytest.mark.parametrize("name", ["heat-smoke", "heat-gaussian", "heat-fixed"])
def test_golden_calibration_ranks_match_path_built_oracle(name):
    """The weak-form calibration ranks both samples of every repetition as
    the full limit-driven mild solves did, so its p-values are equal."""
    cfg = cli.materialize("heat", cli.load_config(name) if name == "heat-smoke" else GOLDEN_CONFIGS[name][1])
    report, _, _ = cli.run_command("heat", cfg)
    cal = report.metadata["extras"]["calibration"]
    basis, grid = config._basis_from(cfg), config._grid_from(cfg)
    cal_grid = TimeGrid(grid.horizon, cal["steps"])
    phi = config._phis_from(cfg, basis)[0].coeffs
    factors = spde._limit_factors(cal_grid, basis, derivative_op(basis)[:, : cfg["limit_modes"]])
    weights, flow = spde._terminal_weights(factors, basis, cal_grid, phi)
    size, pvalues = cal["size"], []
    for rep in range(cal["reps"]):
        sides = []
        for side in (0, 1):
            keys = (cfg["seed"], cfg["eta"], rep, side, size)
            want = oracles.calibration_sample_paths(basis, cal_grid, factors, phi, *keys)
            ids = [(rep, side, i) for i in range(size)]
            etas = spde._initial_states(cfg["eta"], basis, cfg["seed"], "calibration-initial", ids)
            got = spde._calibration_sample(etas, weights, flow, cfg["seed"], rep, side)
            assert np.array_equal(np.argsort(got), np.argsort(want))
            sides.append(want)
        pvalues.append(ks_pvalue(ks_two_sample(*sides).statistic, size, size))
    assert cal["pvalues"] == pvalues


def test_heat_with_a_wider_quadrature_builds_the_step_semigroup_once(monkeypatch):
    """The config's step check asks for ``E(dt)`` on ``BasisSpec(N, Q)``, and
    nothing else in a heat run does: the mild solves and the calibration
    weights go through the scan in the eigenbasis of ``Lap``.  So one ``expm``
    of ``dt L`` is built, however wide the quadrature."""
    cfg = cli.load_config("heat-smoke")
    size = cfg["basis"]["N"]
    cfg["basis"] = {"N": size, "Q": 3 * size}
    cfg["grid"] = {"T": 1.0, "J": 120}  # a step no other test asks for: no cache holds it
    step = cfg["grid"]["T"] / cfg["grid"]["J"] * laplacian_op(BasisSpec(size, 2 * size))
    seen = []
    expm = hermite._expm
    monkeypatch.setattr(hermite, "_expm", lambda a: seen.append(a) or expm(a))
    cli.run_command("heat", cfg)
    assert sum(np.array_equal(a, step) for a in seen) == 1


def test_numerical_integrity_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericalIntegrityError("synthetic failure")

    monkeypatch.setattr(cli, "heat_convergence_report", boom)
    assert run(["heat", "--config", "heat-smoke", "--out", str(tmp_path / "o")]) == 3
    assert "numerical-integrity" in capsys.readouterr().err


# finite inputs whose statistics overflow: numpy warns on the way
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "command, override, quantity",
    [
        ("clt", {"phi_list": [[1e308, 1e308]]}, "statistic cells[0]['qv_mean'] is not finite"),
        # the variance is finite but its square is not
        ("clt", {"phi_list": [[1e80]]}, "statistic cells[0]['qv_se'] is not finite"),
        ("heat", {"eta": {"kind": "gaussian", "r": 1.0, "scale": 1e308}}, "gaussian initial state"),
        ("tightness", {"eta": {"kind": "gaussian", "r": 1.0, "scale": 1e308}}, "gaussian initial state"),
        # finite cells, but the dual-norm squares of the paths overflow in the
        # tightness summaries of metadata.extras
        (
            "heat",
            {"eta": {"kind": "fixed-coeffs", "coeffs": [0, 1e160, 0, 0, 0, 0, 0, 0]}},
            "statistic metadata['extras']['per_n'][5]['tightness']",
        ),
    ],
    ids=["clt-phi", "clt-phi-squared", "heat-eta", "tightness-eta", "heat-extras"],
)
def test_huge_finite_inputs_are_numerical_integrity_failures(tmp_path, capsys, command, override, quantity):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cli.load_config(f"{command}-smoke"), **override}))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"numerical-integrity failure: {quantity}" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


# a fresh interpreter: the heavy modules each stage of a run has loaded, and
# the library versions a report header names
_IMPORT_PROBE = """
import json, sys
from nucleartight import cli
from nucleartight.martingales import clt_report
from nucleartight.spde import heat_convergence_report, tightness_report

heavy = ("scipy", "scipy.linalg", "scipy.special", "scipy.spatial", "numpy.ma")
seen = {}
def mark(stage):
    seen[stage] = sorted(m for m in heavy if m in sys.modules)
mark("import")
cfg = {"basis": {"N": 8, "Q": 16}, "grid": {"T": 1.0, "J": 10}, "n_list": [3], "reps": 4, "seed": 1}
clt_report(cfg)
mark("clt")
heat = {**cfg, "limit_modes": 8, "calibration": {"reps": 1, "size": 2, "steps": 2}}
cli.materialize("heat", heat)
cli.materialize("tightness", cfg)
cli.materialize("basis-check", cli.load_config("basis-minimal"))
mark("setup")
heat_convergence_report(heat)
mark("heat")
tightness_report(cfg)
mark("tightness")
report, _, _ = cli.run_command("clt", cfg)
mark("report")
print(json.dumps({"seen": seen, "versions": sorted(report.metadata["versions"])}))
"""


def test_no_command_loads_scipy_submodules_or_numpy_ma():
    import nucleartight

    src = str(Path(nucleartight.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["seen"] == {stage: [] for stage in ("import", "clt", "setup", "heat", "tightness", "report")}
    assert out["versions"] == ["nucleartight", "numpy", "python"]


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def boom(cfg, threads, dump):
        raise RuntimeError("synthetic defect")

    monkeypatch.setitem(cli._RUNNERS, "clt", boom)
    out = tmp_path / "o"
    assert run(["clt", "--config", "clt-smoke", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "internal error:" in err and "Traceback" in err and "synthetic defect" in err
    assert not (out / "report.json").exists()


def test_gate_failure_exit_code(tmp_path, monkeypatch):
    cfg = {
        "scenario": "tight-gate",
        "basis": {"N": 8, "Q": 16},
        "grid": {"T": 1.0, "J": 50},
        "n_list": [5, 20],
        "reps": 20,
        "eta": {"kind": "zero"},
        "quantile": 0.9,
        "gate_ratio": 1.0,
        "seed": 1,
        "tightness": {"r": 1.0, "c_levels": [1.0], "deltas": [0.2]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # a ratio of exactly 1.0 across distinct particle counts is all but
    # impossible, so the gate trips
    assert run(["tightness", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
