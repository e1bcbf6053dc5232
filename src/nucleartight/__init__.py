"""Simulation and verification lab for distribution-valued stochastic processes.

The package models the rapidly-decaying test-function space through a
truncated orthonormal Hermite basis, simulates particle-average martingales
and stochastic-heat-equation solutions taking values in the dual, and ships
the statistical diagnostics (KS, energy distance, modulus-of-continuity and
sup-norm tables) that certify their convergence and tightness empirically.
"""

from .config import ConfigError
from .hermite import (
    BasisSpec,
    DualElement,
    TestFunction,
    derivative_op,
    dual_norm,
    eval_series,
    heat_flow_ground_state,
    heat_matrix,
    hermite_functions,
    hs_inclusion_converges,
    hs_norm,
    laplacian_op,
    pairing,
    project_function,
    quadrature_nodes,
    quadrature_weights,
    seminorm,
)
from .paths import TimeGrid, dual_path_stats, modulus_dual, sup_dual_norm
from .martingales import (
    NumericalIntegrityError,
    ParticleEnsemble,
    QuadraticForm,
    clt_report,
    limit_variance,
    scalar_paths,
    simulate_limit,
    simulate_particles,
)
from .spde import (
    heat_convergence_report,
    mild_solution,
    mn_dual_path,
    sample_initial,
    tightness_report,
    weak_form_residual,
)
from .diagnostics import (
    ConvergenceReport,
    assemble_report,
    energy_distance,
    ks_one_sample,
    ks_two_sample,
    normal_cdf,
)
from .rng import stream

__version__ = "0.1.0"
