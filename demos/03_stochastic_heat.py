"""Stochastic heat equation driven by the particle martingales.

Solves dY = Lap Y dt + dM^n from a random initial state, checks the
integrated weak form along the path, shows first-order residual decay under
grid refinement, and compares solution marginals against the limit-driven
solution through the identical solver.

Run:  python demos/03_stochastic_heat.py     (about a minute)
"""

import numpy as np

from nucleartight import (
    BasisSpec,
    TimeGrid,
    heat_convergence_report,
    mild_solution,
    mn_dual_path,
    sample_initial,
    simulate_particles,
    weak_form_residual,
)
from nucleartight.hermite import TestFunction

SEED = 11
basis = BasisSpec(32, 64)
h0 = TestFunction(basis, np.r_[1.0, np.zeros(basis.size - 1)])

print("== one realization, weak-form residual under refinement ==")
for steps in (250, 500, 1000, 2000):
    grid = TimeGrid(1.0, steps)
    particles = simulate_particles(50, grid, SEED)
    driver = mn_dual_path(particles, basis)
    eta = sample_initial("gaussian", basis, SEED, r=1.0)
    solution = mild_solution(driver, eta.coeffs, grid)
    residual = weak_form_residual(solution, driver, eta.coeffs, h0, grid)
    print(f"J={steps:5d}  dt={grid.dt:<7.4g} residual={residual:.3e}  residual/dt={residual/grid.dt:.4f}")

print("\n== weak-convergence experiment (small) ==")
# the scenario config of the `heat` command; omitted fields take its defaults
cells, extras = heat_convergence_report(
    {
        "basis": {"N": 32, "Q": 64},
        "grid": {"T": 1.0, "J": 500},
        "n_list": [10, 40, 160],
        "eta": {"kind": "gaussian", "r": 1.0, "scale": 1.0},
        "phi_list": [[1.0]],
        "times": [0.5, 1.0],
        "reps": 400,
        "seed": SEED,
        "limit_modes": 8,
        "calibration": {"reps": 5, "size": 200, "steps": 125},
    }
)
for cell in cells:
    marker = "ok " if cell["ks"] < cell["ks_critical"] else "BAD"
    print(
        f"n={cell['n']:4d} t={cell['t']:.1f}: KS={cell['ks']:.4f} "
        f"(1% critical {cell['ks_critical']:.4f}) {marker} energy={cell['energy']:.4f}"
    )
print(f"null calibration: fraction of p<0.05 = {extras['calibration']['fraction_below_5']:.2f}")
print(f"residual gates: limit={extras['limit']['residual_pass']} "
      f"particle-driven={[extras['per_n'][n]['residual_pass'] for n in (10, 40, 160)]}")
