"""Numerical laboratory for inelastic hard-sphere (granular gas) kinetics."""

from .bgl import ChaosReport, bg_study, empirical_marginals
from .core import (
    Inelasticity,
    SystemState,
    UniformMaxwellian,
    collide,
    collision_jacobian,
    dissipation,
    precollide,
    sample_chaotic_state,
)
from .cumulants import (
    apply_cumulant,
    duality_residual,
    enumerate_cumulant_terms,
    marginal_functional_F2,
    scattering_cumulant,
)
from .dynamics import Simulation, TrajectoryLog, advance, advance_inverse
from .kinetic import (
    DsmcState,
    PhaseHistogram,
    dsmc_init,
    dsmc_step,
    energy_moment_quadrature,
    enskog_collision_integral,
    granular_temperature,
    maxwellian_product_f2,
    solve_limit_equation,
)

__all__ = [
    "ChaosReport",
    "DsmcState",
    "Inelasticity",
    "PhaseHistogram",
    "Simulation",
    "SystemState",
    "TrajectoryLog",
    "UniformMaxwellian",
    "advance",
    "advance_inverse",
    "apply_cumulant",
    "bg_study",
    "collide",
    "collision_jacobian",
    "dissipation",
    "dsmc_init",
    "dsmc_step",
    "duality_residual",
    "empirical_marginals",
    "energy_moment_quadrature",
    "enskog_collision_integral",
    "enumerate_cumulant_terms",
    "granular_temperature",
    "marginal_functional_F2",
    "maxwellian_product_f2",
    "precollide",
    "sample_chaotic_state",
    "scattering_cumulant",
    "solve_limit_equation",
]

__version__ = "0.1.0"
