"""Batch front door: JSON scenario configs in, JSON/CSV artifacts out.

Subcommands::

    nucleartight basis-check --config CFG [--out DIR] [--dump-paths]
    nucleartight clt         --config CFG [--out DIR] [--seed S] [--threads T] [--dump-paths]
    nucleartight heat        --config CFG [--out DIR] [--seed S] [--threads T] [--dump-paths]
    nucleartight tightness   --config CFG [--out DIR] [--seed S] [--threads T]

``--dump-paths`` also writes CSVs under ``OUT/cells``: the operator matrices
for basis-check, the dual paths for clt and heat.  The tightness report keeps
no paths, so its parser rejects the flag (exit 2).

``--config`` accepts a filesystem path or the name of a bundled scenario
(``clt-small``, ``heat-small``, ...).  All defaults are materialized into the
report header, so reports are self-describing; the thread hint is runtime
only and never recorded, keeping output bytes independent of thread count.

Exit codes: 0 pass, 1 gate failure, 2 config error or unwritable ``--out``,
3 numerical-integrity failure, 4 internal error (a traceback on stderr).
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, hermite
from .config import ConfigError, _basis_from, _require, materialize
from .diagnostics import report_hash
from .hermite import (
    TestFunction,
    derivative_op,
    dual_norm,
    heat_flow_ground_state,
    heat_matrix,
    hermite_functions,
    hs_inclusion_converges,
    hs_norm,
    hs_tail_bound,
    laplacian_op,
    pairing,
    quadrature_nodes,
    quadrature_weights,
    seminorm,
)
from .martingales import NumericalIntegrityError, clt_report
from .paths import write_array_csv
from .rng import stream
from .spde import heat_convergence_report, tightness_report

__all__ = ["main", "ConfigError", "load_config", "run_command"]


def _bundled_scenarios() -> dict[str, str]:
    root = importlib.resources.files("nucleartight") / "scenarios"
    return {p.name.removesuffix(".json"): p for p in root.iterdir() if p.name.endswith(".json")}


def load_config(path_or_name: str) -> dict:
    """Load a config from a file path or a bundled scenario name."""
    p = Path(path_or_name)
    if p.exists():
        source = str(p)
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{source}: cannot read the config: {exc}") from exc
    else:
        bundled = _bundled_scenarios()
        if path_or_name in bundled:
            text = bundled[path_or_name].read_text(encoding="utf-8")
            source = f"bundled:{path_or_name}"
        else:
            raise ConfigError(
                f"config {path_or_name!r} is neither a file nor a bundled scenario "
                f"(bundled: {sorted(bundled)})"
            )
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    cfg.setdefault("scenario", Path(source).stem.removeprefix("bundled:"))
    return cfg


def _header(cfg: dict) -> dict:
    return {
        "config": cfg,
        "config_sha256": report_hash(cfg),
        "seed": cfg["seed"],
        "versions": {
            "nucleartight": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _check(name: str, value: float, tol: float) -> dict:
    return {"check": name, "value": float(value), "tolerance": float(tol), "pass": bool(value <= tol)}


def _run_basis_check(cfg: dict):
    basis = _basis_from(cfg)
    checks = []

    nodes, weights = quadrature_nodes(basis), quadrature_weights(basis)
    h = hermite_functions(nodes, basis.size)
    gram = h.T @ (weights[:, None] * h)
    checks.append(_check("gram_identity", np.abs(gram - np.eye(basis.size)).max(), 1e-10))

    d = derivative_op(basis)
    lap = laplacian_op(basis)
    checks.append(_check("derivative_skew", np.abs(d + d.T).max(), 1e-14))
    checks.append(_check("laplacian_symmetric", np.abs(lap - lap.T).max(), 1e-14))
    checks.append(_check("laplacian_nonpositive", float(np.linalg.eigvalsh(lap).max()), 1e-10))

    times = [float(t) for t in cfg["heat_times"]]
    e_parts = heat_matrix(times[0], basis) @ heat_matrix(times[1], basis)
    e_whole = heat_matrix(times[0] + times[1], basis)
    checks.append(_check("semigroup_law", np.abs(e_parts - e_whole).max(), 1e-10))
    checks.append(
        _check("identity_at_zero", np.abs(heat_matrix(0.0, basis) - np.eye(basis.size)).max(), 0.0)
    )
    e_t = heat_matrix(times[-1], basis)
    checks.append(_check("contraction", float(np.linalg.norm(e_t, 2)), 1.0 + 1e-12))
    checks.append(
        _check(
            "continuity_at_zero",
            float(np.linalg.norm(heat_matrix(1e-8, basis) - np.eye(basis.size), 2)),
            1e-4,
        )
    )

    e0 = np.zeros(basis.size)
    e0[0] = 1.0
    evolved = h @ (e_t @ e0)
    exact = heat_flow_ground_state(times[-1], nodes)
    l2 = float(np.sqrt(np.sum(weights * (evolved - exact) ** 2)))
    # below 32 modes the truncation tail of the convolved Gaussian dominates;
    # the cell is still reported, but only gated where the solver can win
    conv = _check("heat_flow_vs_convolution_l2", l2, 1e-4)
    conv["gated"] = basis.size >= 32
    if not conv["gated"]:
        conv["pass"] = True
    checks.append(conv)

    rungs = [float(r) for r in cfg["seminorm_family"]]
    n_terms = int(cfg["hs"]["n_terms"])
    for lo, hi in zip(rungs, rungs[1:]):
        value = hs_norm(lo, hi, n_terms)
        checks.append(_check(f"hs_finite[{lo},{hi}]", value, np.sqrt(1.0 + hs_tail_bound(lo, hi, 1))))
    hs_cells = []
    for r, s in cfg["hs"]["pairs"]:
        converges = hs_inclusion_converges(r, s)
        hs_cells.append(
            {
                "check": f"hs_series[{r},{s}]",
                "value": hs_norm(r, s, n_terms) ** 2,
                "converges": converges,
                "divergence_flag": not converges,
                "pass": True,
            }
        )

    gen = stream(cfg["seed"], "basis-check")
    worst = 0.0
    for _ in range(int(cfg["random_pairs"])):
        r = float(gen.uniform(0.0, 2.0))
        f = hermite.DualElement(basis, gen.standard_normal(basis.size))
        phi = TestFunction(basis, gen.standard_normal(basis.size))
        slack = abs(pairing(f, phi)) - dual_norm(f, r) * seminorm(phi, r)
        worst = max(worst, slack)
    checks.append(_check("cauchy_schwarz_slack", worst, 1e-10))

    cells = checks + hs_cells
    passed = all(c["pass"] for c in cells)
    return cells, {}, passed


def _run_clt(cfg: dict, threads: int, dump: bool):
    return *clt_report(cfg, threads=threads, collect_paths=dump), True


def _run_heat(cfg: dict, threads: int, dump: bool):
    cells, extras = heat_convergence_report(cfg, threads=threads, collect_paths=dump)
    ok = extras["limit"]["residual_pass"] and all(
        info["residual_pass"] for info in extras["per_n"].values()
    )
    return cells, extras, ok


def _run_tightness(cfg: dict, threads: int, dump: bool):
    cells, extras = tightness_report(cfg, threads=threads)
    return cells, extras, bool(extras["gate"]["pass"])


_RUNNERS = {
    "basis-check": lambda cfg, threads, dump: _run_basis_check(cfg),
    "clt": _run_clt,
    "heat": _run_heat,
    "tightness": _run_tightness,
}


def run_command(command: str, cfg: dict, threads: int = 1, dump: bool = False):
    """Materialize the config, run a command, return ``(report, gates_ok, extras)``;
    a non-finite statistic (an input too large for floats) is a numerical-integrity failure."""
    full = materialize(command, cfg)
    cells, extras, ok = _RUNNERS[command](full, threads, dump)
    metadata = _header(full)
    metadata["extras"] = {k: v for k, v in extras.items() if k != "paths"}
    where = diagnostics._nonfinite_statistic(cells, metadata)
    if where is not None:
        raise NumericalIntegrityError(f"statistic {where} is not finite")
    metadata["gates_pass"] = bool(ok)
    report = diagnostics.assemble_report(cells, metadata, scenario=full.get("scenario", command))
    return report, ok, extras


def _dump_paths(command: str, cfg: dict, extras: dict, out_dir: Path) -> None:
    cell_dir = out_dir / "cells"
    cell_dir.mkdir(parents=True, exist_ok=True)
    if command == "basis-check":  # operator matrices for debugging
        basis = _basis_from(cfg)
        for name, matrix in (
            ("derivative", derivative_op(basis)),
            ("laplacian", laplacian_op(basis)),
            ("heat", heat_matrix(float(cfg["heat_times"][-1]), basis)),
        ):
            write_array_csv(matrix, cell_dir / f"{name}.csv", ("i", "j"))
    for key, states in extras.get("paths", {}).items():
        write_array_csv(states, cell_dir / f"{command}-{key}-dual.csv", ("path", "step", "k"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nucleartight",
        description="Scenario runner for the distribution-valued process lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="config path or bundled scenario name")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker hint (default: config 'threads' or 1); never affects results",
        )
        cmd.add_argument("--out", default="nucleartight-out", help="output directory")
        if name != "tightness":  # its report keeps no paths: argparse rejects the flag
            cmd.add_argument("--dump-paths", action="store_true", help="also write raw path CSVs")
    args = parser.parse_args(argv)
    dump = getattr(args, "dump_paths", False)
    out_dir = Path(args.out)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        threads = args.threads if args.threads is not None else cfg.get("threads", 1)
        _require(type(threads) is int, "threads", "must be an integer")
        cfg = materialize(args.command, cfg)
        try:  # before the run, so a bad --out costs none
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        report, ok, extras = run_command(args.command, cfg, threads=max(1, int(threads)), dump=dump)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"numerical-integrity failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, not a failed gate: keep exit 1 for gates
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4

    report_path = out_dir / "report.json"
    try:
        if dump:
            _dump_paths(args.command, cfg, extras, out_dir)
        report_path.write_text(report.to_json(), encoding="utf-8")  # last: a failed write leaves none
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2

    for cell in report.cells:
        if "check" in cell:
            status = "pass" if cell["pass"] else "FAIL"
            print(f"{status}  {cell['check']}  value={cell['value']:.3e}")
    print(f"report: {report_path}")
    print(f"gates: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
