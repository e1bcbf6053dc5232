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

Exit codes: 0 pass, 1 gate failure, 2 config error, 3 numerical-integrity
failure, 4 internal error (a traceback on stderr).
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys
import traceback
from pathlib import Path

import numpy as np
import scipy

from . import __version__, diagnostics, hermite
from .diagnostics import report_hash
from .hermite import (
    BasisSpec,
    SeminormFamily,
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
from .paths import TimeGrid, write_array_csv
from .rng import stream
from .spde import heat_convergence_report, tightness_report

__all__ = ["main", "ConfigError", "load_config", "run_command"]


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_COMMON_DEFAULTS = {
    "basis": {"N": 64, "Q": 128},
    "seed": 20260810,
}

# the fields every particle-ensemble command shares
_ENSEMBLE_DEFAULTS = {
    **_COMMON_DEFAULTS,
    "grid": {"T": 1.0, "J": 1000},
    "n_list": [10, 40, 160],
    "reps": 2000,
    "tightness": {
        "r": 1.0,
        "c_levels": [0.5, 1.0, 2.0, 4.0],
        "deltas": [0.01, 0.02, 0.05, 0.1, 0.2],
    },
}
_CELL_DEFAULTS = {"phi_list": [[1.0]], "times": [0.5, 1.0]}

_DEFAULTS = {
    "basis-check": {
        **_COMMON_DEFAULTS,
        "seminorm_family": [0.0, 1.0, 2.0],
        "hs": {"pairs": [[0.0, 1.0], [0.0, 0.25]], "n_terms": 10000},
        "heat_times": [0.2, 0.3, 0.5],
        "random_pairs": 1000,
    },
    "clt": {**_ENSEMBLE_DEFAULTS, **_CELL_DEFAULTS},
    "heat": {
        **_ENSEMBLE_DEFAULTS,
        **_CELL_DEFAULTS,
        "eta": {"kind": "zero"},
        "limit_modes": 16,
        "residual_gate_factor": 10.0,
        "calibration": {"reps": 50, "size": 500, "steps": None},
    },
    "tightness": {
        **_ENSEMBLE_DEFAULTS,
        "eta": {"kind": "zero"},
        "quantile": 0.99,
        "gate_ratio": 2.0,
    },
}


def _bundled_scenarios() -> dict[str, str]:
    root = importlib.resources.files("nucleartight") / "scenarios"
    return {p.name.removesuffix(".json"): p for p in root.iterdir() if p.name.endswith(".json")}


def load_config(path_or_name: str) -> dict:
    """Load a config from a file path or a bundled scenario name."""
    p = Path(path_or_name)
    if p.exists():
        text = p.read_text(encoding="utf-8")
        source = str(p)
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


# keys a config may hold besides its command's defaults; ``command`` is the
# echo a materialized config carries
_EXTRA_KEYS = {"": {"scenario", "threads", "command"}, "eta": {"r", "scale", "coeffs"}}


def _merge(defaults, override, crumb=""):
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"field {crumb or '<root>'} must be an object")
        out = dict(defaults)
        for key, value in override.items():
            hole = f"{crumb}.{key}" if crumb else key
            _require(key in defaults or key in _EXTRA_KEYS.get(crumb, ()), hole, "unknown key")
            if key in defaults and isinstance(defaults[key], dict):
                out[key] = _merge(defaults[key], value, hole)
            else:
                out[key] = value
        return out
    return override


def _require(ok: bool, field: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"field {field}: {message}")


def _int_at_least(value, low: int) -> bool:
    """A JSON integer (not a bool) ``>= low``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _finite(value) -> bool:
    """A finite JSON number (not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and bool(np.isfinite(value))


def materialize(command: str, cfg: dict) -> dict:
    """Fill defaults and validate every field; raise ConfigError on violations."""
    _require(cfg.get("command", command) == command, "command", f"must be {command!r}")
    merged = _merge(_DEFAULTS[command], {k: v for k, v in cfg.items() if k != "threads"})
    merged["command"] = command
    for key in ("N", "Q"):
        _require(_int_at_least(merged["basis"][key], 1), f"basis.{key}", "must be a positive integer")
    try:
        basis = _basis_from(merged)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"field basis: {exc}") from exc
    if command == "basis-check":
        _require(_int_at_least(merged["hs"]["n_terms"], 1), "hs.n_terms", "must be an integer >= 1")
        _require(_int_at_least(merged["random_pairs"], 0), "random_pairs", "must be an integer >= 0")
        _check_basis_fields(merged, basis)
    else:
        _require(_finite(merged["grid"]["T"]), "grid.T", "must be a finite number")
        _require(_int_at_least(merged["grid"]["J"], 1), "grid.J", "must be an integer >= 1")
        try:
            grid = _grid_from(merged)
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"field grid: {exc}") from exc
        if command != "clt":
            _check_step_semigroup(grid, basis, "grid")
        tight = merged["tightness"]
        deltas = tight.get("deltas")
        _require(
            isinstance(deltas, list) and all(_finite(d) and 0.0 < d <= grid.horizon for d in deltas),
            "tightness.deltas",
            f"must be a list of time gaps in (0, T = {grid.horizon}]",
        )
        _require(_finite(tight["r"]) and tight["r"] >= 0, "tightness.r", "must be a finite number >= 0")
        levels = tight["c_levels"]
        _require(
            isinstance(levels, list) and all(map(_finite, levels)),
            "tightness.c_levels",
            "must be a list of finite numbers",
        )
        n_list = merged["n_list"]
        _require(
            isinstance(n_list, list) and n_list and all(_int_at_least(n, 1) for n in n_list),
            "n_list",
            "must be a nonempty list of particle counts >= 1",
        )
        _require(len(set(n_list)) == len(n_list), "n_list", "must hold distinct particle counts")
        if command != "tightness":
            _check_cells(merged, basis, grid)
        if command != "clt":
            _check_eta(merged["eta"], basis)
        if command == "heat":
            modes, cal = merged["limit_modes"], merged["calibration"]
            _require(
                _int_at_least(modes, 1) and modes <= basis.size,
                "limit_modes",
                f"must be an integer in [1, basis.N = {basis.size}]",
            )
            _require(_int_at_least(cal["reps"], 0), "calibration.reps", "must be an integer >= 0")
            _require(_int_at_least(cal["size"], 2), "calibration.size", "must be an integer >= 2")
            _require(
                cal["steps"] is None or _int_at_least(cal["steps"], 1),
                "calibration.steps",
                "must be null or a positive integer",
            )
            if cal["reps"] > 0 and cal["steps"] is not None:
                _check_step_semigroup(TimeGrid(grid.horizon, cal["steps"]), basis, "calibration.steps")
            gate = merged["residual_gate_factor"]
            _require(_finite(gate) and gate > 0, "residual_gate_factor", "must be a finite number > 0")
        if command == "tightness":
            q, ratio = merged["quantile"], merged["gate_ratio"]
            _require(_finite(q) and 0.0 <= q <= 1.0, "quantile", "must be a number in [0, 1]")
            _require(_finite(ratio) and ratio > 0, "gate_ratio", "must be a finite number > 0")
        # the energy-distance standard error needs two blocks of two per sample
        low = 2 if command == "tightness" else 4
        _require(_int_at_least(merged["reps"], low), "reps", f"must be an integer >= {low}")
    _require(_int_at_least(merged.get("seed"), 0), "seed", "must be a nonnegative integer")
    return merged


def _nonnegatives(value, length: int) -> bool:
    """A list of at least ``length`` finite numbers ``>= 0``."""
    return isinstance(value, list) and len(value) >= length and all(_finite(v) and v >= 0 for v in value)


def _check_basis_fields(cfg: dict, basis: BasisSpec) -> None:
    """The heat times, seminorm ladder and Hilbert-Schmidt pairs of basis-check."""
    times = cfg["heat_times"]
    _require(_nonnegatives(times, 2), "heat_times", "must hold at least two finite numbers >= 0")
    # the semigroup check also evaluates the sum of the first two times
    for t in (*times, times[0] + times[1]):
        try:
            heat_matrix(float(t), basis)
        except ValueError as exc:
            raise ConfigError(f"field heat_times: {exc}") from exc
    family = cfg["seminorm_family"]
    gaps_ok = _nonnegatives(family, 2) and all(b - a > 0.5 for a, b in zip(family, family[1:]))
    _require(gaps_ok, "seminorm_family", "must hold at least two finite numbers >= 0 with gaps > 1/2")
    pairs = cfg["hs"]["pairs"]
    pairs_ok = isinstance(pairs, list) and all(
        _nonnegatives(p, 2) and len(p) == 2 and p[0] < p[1] for p in pairs
    )
    _require(pairs_ok, "hs.pairs", "must be a list of [r, s] pairs of finite numbers with 0 <= r < s")


def _check_step_semigroup(grid: TimeGrid, basis: BasisSpec, field: str) -> None:
    """The mild solver steps by ``E(dt)``, which overflows at huge steps."""
    try:
        heat_matrix(grid.dt, basis)
    except ValueError as exc:
        raise ConfigError(f"field {field}: {exc}") from exc


def _check_cells(cfg: dict, basis: BasisSpec, grid: TimeGrid) -> None:
    times, phi_list = cfg["times"], cfg["phi_list"]
    _require(isinstance(times, list) and times, "times", "must be a nonempty list")
    for t in times:
        try:
            ok = _finite(t) and grid.index_of(float(t)) >= 0
        except (ValueError, OverflowError):
            ok = False
        _require(ok, "times", f"{t!r} is not a node of the grid (T = {grid.horizon}, J = {grid.steps})")
    _require(isinstance(phi_list, list) and phi_list, "phi_list", "must be a nonempty list")
    for i, coeffs in enumerate(phi_list):
        _require(
            isinstance(coeffs, list) and len(coeffs) <= basis.size and all(map(_finite, coeffs)),
            f"phi_list[{i}]",
            f"must be a list of at most basis.N = {basis.size} finite numbers",
        )


def _check_eta(eta: dict, basis: BasisSpec) -> None:
    kinds = ["zero", "fixed-coeffs", "gaussian"]
    _require(eta.get("kind") in kinds, "eta.kind", f"must be one of {kinds}")
    if eta["kind"] == "gaussian":
        r = eta.get("r")
        _require(_finite(r) and r > 0.5, "eta.r", "gaussian initial states need r > 1/2")
        _require(_finite(eta.get("scale", 1.0)), "eta.scale", "must be a finite number")
    if eta["kind"] == "fixed-coeffs":
        coeffs = eta.get("coeffs")
        _require(
            isinstance(coeffs, list) and len(coeffs) == basis.size and all(map(_finite, coeffs)),
            "eta.coeffs",
            f"fixed-coeffs needs exactly basis.N = {basis.size} finite numbers",
        )


def _basis_from(cfg: dict) -> BasisSpec:
    b = cfg["basis"]
    return BasisSpec(int(b["N"]), int(b["Q"]))


def _grid_from(cfg: dict) -> TimeGrid:
    g = cfg["grid"]
    return TimeGrid(float(g["T"]), int(g["J"]))


def _phis_from(cfg: dict, basis: BasisSpec) -> list[TestFunction]:
    out = []
    for coeffs in cfg["phi_list"]:
        c = np.zeros(basis.size)
        c[: len(coeffs)] = coeffs
        out.append(TestFunction(basis, c))
    return out


def _header(cfg: dict) -> dict:
    return {
        "config": cfg,
        "config_sha256": report_hash(cfg),
        "seed": cfg["seed"],
        "versions": {
            "nucleartight": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _check(name: str, value: float, tol: float, larger_ok: bool = False) -> dict:
    ok = value >= tol if larger_ok else value <= tol
    return {"check": name, "value": float(value), "tolerance": float(tol), "pass": bool(ok)}


def _run_basis_check(cfg: dict):
    basis = _basis_from(cfg)
    checks = []

    h = hermite_functions(quadrature_nodes(basis), basis.size)
    gram = h.T @ (quadrature_weights(basis)[:, None] * h)
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

    nodes = quadrature_nodes(basis)
    e0 = np.zeros(basis.size)
    e0[0] = 1.0
    evolved = hermite_functions(nodes, basis.size) @ (e_t @ e0)
    exact = heat_flow_ground_state(times[-1], nodes)
    l2 = float(np.sqrt(np.sum(quadrature_weights(basis) * (evolved - exact) ** 2)))
    # below 32 modes the truncation tail of the convolved Gaussian dominates;
    # the cell is still reported, but only gated where the solver can win
    conv = _check("heat_flow_vs_convolution_l2", l2, 1e-4)
    conv["gated"] = basis.size >= 32
    if not conv["gated"]:
        conv["pass"] = True
    checks.append(conv)

    family = SeminormFamily(tuple(float(r) for r in cfg["seminorm_family"]))
    n_terms = int(cfg["hs"]["n_terms"])
    rungs = zip(family.indices[:-1], family.indices[1:])
    for (lo, hi), value in zip(rungs, family.inclusion_norms(n_terms)):
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


def _tightness_args(cfg: dict) -> dict:
    t = cfg["tightness"]
    return {
        "tightness_index": float(t["r"]),
        "tightness_levels": [float(c) for c in t["c_levels"]],
        "tightness_deltas": [float(d) for d in t["deltas"]],
    }


def _run_clt(cfg: dict, threads: int, dump: bool):
    basis = _basis_from(cfg)
    grid = _grid_from(cfg)
    phis = _phis_from(cfg, basis)
    cells, extras = clt_report(
        cfg["n_list"],
        phis,
        cfg["times"],
        int(cfg["reps"]),
        int(cfg["seed"]),
        grid,
        threads=threads,
        collect_paths=dump,
        **_tightness_args(cfg),
    )
    return cells, extras, True


def _run_heat(cfg: dict, threads: int, dump: bool):
    basis = _basis_from(cfg)
    grid = _grid_from(cfg)
    phis = _phis_from(cfg, basis)
    cal = cfg["calibration"]
    cells, extras = heat_convergence_report(
        cfg["n_list"],
        cfg["eta"],
        phis,
        cfg["times"],
        int(cfg["reps"]),
        int(cfg["seed"]),
        grid,
        limit_modes=int(cfg["limit_modes"]),
        threads=threads,
        calibration_reps=int(cal["reps"]),
        calibration_size=int(cal["size"]),
        calibration_steps=None if cal["steps"] is None else int(cal["steps"]),
        residual_gate_factor=float(cfg["residual_gate_factor"]),
        collect_paths=dump,
        **_tightness_args(cfg),
    )
    ok = extras["limit"]["residual_pass"] and all(
        info["residual_pass"] for info in extras["per_n"].values()
    )
    return cells, extras, ok


def _run_tightness(cfg: dict, threads: int, dump: bool):
    basis = _basis_from(cfg)
    grid = _grid_from(cfg)
    cells, extras = tightness_report(
        cfg["n_list"],
        cfg["eta"],
        int(cfg["reps"]),
        int(cfg["seed"]),
        grid,
        basis,
        threads=threads,
        quantile=float(cfg["quantile"]),
        gate_ratio=float(cfg["gate_ratio"]),
        **_tightness_args(cfg),
    )
    return cells, extras, bool(extras["gate"]["pass"])


_RUNNERS = {
    "basis-check": lambda cfg, threads, dump: _run_basis_check(cfg),
    "clt": _run_clt,
    "heat": _run_heat,
    "tightness": _run_tightness,
}


def run_command(command: str, cfg: dict, threads: int = 1, dump: bool = False):
    """Materialize the config, run a command, return (report, gates_ok)."""
    full = materialize(command, cfg)
    cells, extras, ok = _RUNNERS[command](full, threads, dump)
    metadata = _header(full)
    metadata["extras"] = {k: v for k, v in extras.items() if k != "paths"} if extras else {}
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

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("field seed: must be a nonnegative integer")
            cfg["seed"] = args.seed
        threads = args.threads if args.threads is not None else cfg.get("threads", 1)
        _require(type(threads) is int, "threads", "must be an integer")
        report, ok, extras = run_command(
            args.command, cfg, threads=max(1, int(threads)), dump=dump
        )
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

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    if dump:
        full = materialize(args.command, cfg)
        _dump_paths(args.command, full, extras, out_dir)

    for cell in report.cells:
        if "check" in cell:
            status = "pass" if cell["pass"] else "FAIL"
            print(f"{status}  {cell['check']}  value={cell['value']:.3e}")
    print(f"report: {report_path}")
    print(f"gates: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
