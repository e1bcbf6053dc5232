"""Tightness diagnostics: sup-norm exceedance and modulus-of-continuity decay.

The empirical counterpart of compact containment: across particle counts,
the dual sup norms of the martingale paths should concentrate below a fixed
level, and the modulus quantiles should fall as the time gap shrinks.

Run:  python demos/04_tightness_diagnostics.py
"""

from nucleartight import tightness_report

SEED = 13
deltas = [0.02, 0.05, 0.1, 0.2]

# the scenario config of the `tightness` command; omitted fields take its defaults
cells, extras = tightness_report(
    {
        "basis": {"N": 32, "Q": 64},
        "grid": {"T": 1.0, "J": 500},
        "n_list": [10, 40, 160],
        "eta": {"kind": "zero"},
        "reps": 300,
        "seed": SEED,
        "quantile": 0.99,
        "tightness": {"c_levels": [0.5, 1.0, 2.0, 4.0], "deltas": deltas},
    }
)

for cell in cells:
    driver = cell["driver"]
    print(f"== n = {cell['n']} (driver paths) ==")
    print("  exceedance of sup p'_1:", {k: f"{v:.3f}" for k, v in driver["exceedance"].items()})
    medians = driver["modulus_quantiles"]["0.5"]
    print("  modulus medians over deltas",
          {f"{d}": f"{m:.4f}" for d, m in zip(deltas, medians)})
    print(f"  99% quantile of sup norm: {driver['sup_quantile']:.4f}")

gate = extras["gate"]
print(f"\nacross-n quantile ratio {gate['ratio']:.3f} (gate <= {gate['limit']}): "
      f"{'pass' if gate['pass'] else 'FAIL'}")
