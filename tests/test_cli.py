import json

import pytest

from nucleartight import cli
from nucleartight.diagnostics import SCHEMA, report_hash, validate_report
from nucleartight.martingales import NumericalIntegrityError

# sha256 of each bundled smoke report without ``metadata.versions``: a change
# to a reducer or report loop must leave these bytes alone
GOLDEN_HASHES = {
    "clt-smoke": "2fd1bbd057e1bef029e9793fa70892e15e67cd5f840245ab91bfb51c0992aad8",
    "heat-smoke": "290f115ef120f1604f886c1b3a446ec742fe9ea200adafb7feadc8bfa866284c",
    "tightness-smoke": "a5c12fd0dd790b26b09c777e2ddce38b7425c487021d07cd978b3ae11c9202dd",
}


def run(args):
    return cli.main(args)


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


def test_basis_check_minimal(tmp_path):
    out = tmp_path / "out"
    assert run(["basis-check", "--config", "basis-minimal", "--out", str(out)]) == 0


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


def test_rejects_unknown_scenario(tmp_path):
    assert run(["clt", "--config", "no-such-scenario", "--out", str(tmp_path / "o")]) == 2


def test_rejects_bad_fields(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"basis": {"N": 8, "Q": 16}, "n_list": [], "reps": 10}))
    assert run(["clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cfg.write_text(json.dumps({"basis": {"N": 8, "Q": 16}, "seed": -4}))
    assert run(["basis-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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


def test_dump_paths_writes_csv(tmp_path):
    out = tmp_path / "out"
    assert run(["heat", "--config", "heat-smoke", "--out", str(out), "--dump-paths"]) == 0
    cell_files = sorted(p.name for p in (out / "cells").iterdir())
    assert any(name.startswith("heat-limit") for name in cell_files)
    assert any(name.startswith("heat-5") for name in cell_files)
    header = (out / "cells" / cell_files[0]).read_text().splitlines()[0]
    assert header == "path,step,k,value"


def test_numerical_integrity_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericalIntegrityError("synthetic failure")

    monkeypatch.setattr(cli, "heat_convergence_report", boom)
    assert run(["heat", "--config", "heat-smoke", "--out", str(tmp_path / "o")]) == 3
    assert "numerical-integrity" in capsys.readouterr().err


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
