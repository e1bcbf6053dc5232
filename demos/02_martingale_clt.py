"""The particle martingales and their Gaussian limit, at desk scale.

Simulates M^n_t(phi) = n^(-1/2) sum_i int phi'(B^i) dB^i for a few particle
counts, checks the quadratic-variation law of large numbers and the Ito
isometry against the quadrature variance function, and compares the
normalized terminal values with a standard normal.

Run:  python demos/02_martingale_clt.py     (about half a minute)
"""

import numpy as np

from nucleartight import (
    BasisSpec,
    TimeGrid,
    ks_one_sample,
    limit_variance,
    normal_cdf,
    scalar_paths,
    simulate_limit,
    simulate_particles,
)
from nucleartight.hermite import TestFunction

SEED = 7
basis = BasisSpec(16, 32)
grid = TimeGrid(1.0, 500)
h0 = TestFunction(basis, np.r_[1.0, np.zeros(basis.size - 1)])

target = limit_variance(h0, 1.0)
print(f"variance function A(1, h_0) by nested quadrature: {target:.8f}")

reps = 800
print(f"\n== quadratic variation across ensembles ({reps} repetitions) ==")
for n in (10, 40, 160):
    qv = np.array(
        [
            scalar_paths([h0], simulate_particles(n, grid, SEED, r))[1][0, -1]
            for r in range(reps)
        ]
    )
    print(
        f"n={n:4d}: mean <M(h0)>_1 = {qv.mean():.5f} (target {target:.5f}), "
        f"spread {qv.std(ddof=1):.5f}"
    )

print("\n== Ito isometry and normality at n=200 ==")
terminal = np.array(
    [scalar_paths([h0], simulate_particles(200, grid, SEED, r))[0][0, -1] for r in range(reps)]
)
print(f"Var(M_1(h0)) = {terminal.var(ddof=1):.5f} vs A(1,h0) = {target:.5f}")
ks = ks_one_sample(terminal / np.sqrt(target), normal_cdf)
print(f"KS against standard normal: {ks.statistic:.4f} (1% critical {ks.critical_1:.4f})")

print("\n== the limit family, sampled from its covariance ==")
states = simulate_limit([h0], grid, 4000, SEED)
print(f"sampled limit variance at t=1: {states[:, -1, 0].var(ddof=1):.5f}")
