"""Scenario configs: the defaults of every command and the rules a config obeys.

``materialize(command, cfg)`` fills a config's omitted fields from the
command's defaults and checks every field, raising :class:`ConfigError`
naming the first field that breaks a rule.  A materialized config
materializes to itself.  The command line and the report functions
(``clt_report``, ``heat_convergence_report``, ``tightness_report``) both take
their scenario through it, so a run is described and checked one way.
"""

from __future__ import annotations

import copy

import numpy as np

from .hermite import BasisSpec, TestFunction, heat_matrix
from .paths import TimeGrid

__all__ = ["ConfigError", "materialize"]


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


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


# the largest clt cell time: the target A(t, phi) sums ceil(8 t) quadrature panels; at t = 1000
# one (phi, t) cell took 0.4 s for phi = h_0 and 5 s for a phi of all 64 modes (N = 64, one thread)
_CLT_MAX_TIME = 1000.0

# the most hs.n_terms: hs_norm sums that many weights, about 8 MB per float64 array
_HS_MAX_TERMS = 1_000_000

# keys a config may hold besides its command's defaults; ``command`` is the
# echo a materialized config carries
_EXTRA_KEYS = {"": {"scenario", "command"}, "eta": {"r", "scale", "coeffs"}}


def _merge(defaults: dict, override, crumb=""):
    if not isinstance(override, dict):
        raise ConfigError(f"field {crumb or '<root>'} must be an object")
    out = dict(defaults)
    for key, value in override.items():
        hole = f"{crumb}.{key}" if crumb else key
        _require(key in defaults or key in _EXTRA_KEYS.get(crumb, ()), hole, "unknown key")
        out[key] = _merge(defaults[key], value, hole) if isinstance(defaults.get(key), dict) else value
    return out


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
    _require(command in _DEFAULTS, "command", f"must be one of {sorted(_DEFAULTS)}")
    if not isinstance(cfg, dict):
        raise ConfigError("field <root> must be an object")  # as _merge words it
    _require(cfg.get("command", command) == command, "command", f"must be {command!r}")
    # a fresh copy: a caller may edit the config it gets back
    merged = _merge(copy.deepcopy(_DEFAULTS[command]), {k: v for k, v in cfg.items() if k != "threads"})
    merged["command"] = command
    _require(isinstance(merged.get("scenario", ""), str), "scenario", "must be a string")
    for key in ("N", "Q"):
        _require(_int_at_least(merged["basis"][key], 1), f"basis.{key}", "must be a positive integer")
    try:
        basis = _basis_from(merged)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"field basis: {exc}") from exc
    if command == "basis-check":
        n_terms = merged["hs"]["n_terms"]
        _require(
            _int_at_least(n_terms, 1) and n_terms <= _HS_MAX_TERMS,
            "hs.n_terms",
            f"must be an integer in [1, {_HS_MAX_TERMS:,}]",
        )
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
        if command == "clt":
            _require(max(merged["times"]) <= _CLT_MAX_TIME, "times", f"must be at most {_CLT_MAX_TIME:g} for clt")
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
    """A step whose semigroup ``E(dt)`` overflows is a config error.  It bounds
    every SPDE grid's step, far below the steps that overflow the mild scan."""
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
        except ValueError:
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


def _tightness_from(cfg: dict) -> tuple[float, list[float], list[float]]:
    """The dual-norm rung, the sup-norm levels and the modulus gaps of ``tightness``."""
    t = cfg["tightness"]
    return float(t["r"]), [float(c) for c in t["c_levels"]], [float(d) for d in t["deltas"]]
